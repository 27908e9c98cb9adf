"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from rinorms import Enclosure, StepFunction, generate_corpus, lorentz_norm
from rinorms.hardy import _OVERFLOW, MonotoneEnvelope, PowerLaw
from rinorms.harness import _L1_LINF, POINTWISE_SLACK, _calibration, _records, _Scan
from rinorms.interp import _k_l1_linf, holmstedt_k, k_exact_l1_linf, k_upper_oracle
from rinorms.lorentz import _NORM_OVERFLOW
from rinorms.stepfn import _power_integral_array, power_integral, weighted_power_integral

INF = math.inf


@pytest.fixture(autouse=True)
def _fresh_calibration_memo():
    """Each test starts without thm15's calibrations memoised by earlier
    ones, as a fresh process does."""
    _calibration.cache_clear()


def golden(name: str) -> str:
    """The committed report text ``tests/golden/<name>``, byte for byte."""
    return (Path(__file__).parent / "golden" / name).read_bytes().decode()


def in_fresh_process(code: str) -> str:
    """What ``code`` prints, run in a new interpreter that imports rinorms from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def quad_weighted_power(f: StepFunction, gamma: float, w: float, a: float = 0.0, b: float = INF) -> float:
    """Adaptive-quadrature oracle for ``integral_a^b t**(gamma-1) f(t)**w dt``.

    Integrates each constant piece separately with QUADPACK so the oracle
    never sees a discontinuity; it shares no code with the closed forms
    under test.  Only finite integrals are supported.
    """
    total = 0.0
    for lo, hi, v in f.pieces():
        if v == 0.0:
            continue
        lo2, hi2 = max(lo, a), min(hi, b)
        if lo2 >= hi2:
            continue
        if hi2 == INF:
            raise ValueError("quadrature oracle needs a finite integration range")
        val, _ = quad(
            lambda t, c=v: t ** (gamma - 1.0) * c**w,
            lo2,
            hi2,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=400,
        )
        total += val
    return total


def quad_lorentz_norm(f: StepFunction, p: float, q: float) -> float:
    """Quadrature oracle for finite Lorentz norms with q < inf."""
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    assert fs.tail == 0.0 and p < INF and q < INF
    return quad_weighted_power(fs, q / p, q, 0.0, fs.breakpoints[-1]) ** (1.0 / q)


def reference_levels(fs: StepFunction, n_grid: int = 200) -> list[float]:
    """The oracle's full level grid for ``fs = f*``, whatever the couple:
    every value (tail included), 0 and ``n_grid`` log-spaced levels between
    the smallest and largest positive values."""
    vals = sorted({v for v in fs.values + (fs.tail,)})
    levels = set(vals) | {0.0}
    positive = [v for v in vals if v > 0.0]
    if positive:
        levels.update(np.geomspace(min(positive), max(positive), n_grid).tolist())
    return sorted(levels)


def excess(f: StepFunction, level: float) -> StepFunction:
    """Pointwise ``(f - level)_+`` for ``level >= 0``."""
    return StepFunction(f.breakpoints, tuple(max(v - level, 0.0) for v in f.values), max(f.tail - level, 0.0))


def _norm_or_inf(f: StepFunction, params, rescaled: bool) -> float:
    """:func:`lorentz_norm`, with a norm past the largest float read as ``inf``.

    Unless ``rescaled``, a norm whose power integral overflows is ``inf``
    too, as in the oracle (:func:`lorentz_norm` sums such an integral again
    for ``f`` scaled by a power of two).
    """
    p, q = params.p, params.q
    if not rescaled and p < INF and q < INF:
        try:
            if weighted_power_integral(f.rearrange(), q / p, q) == INF:
                return INF
        except OverflowError:
            return INF
    try:
        return lorentz_norm(f, params)
    except ValueError as err:
        if str(err) != _NORM_OVERFLOW:
            raise
        return INF


def loop_k_upper_oracle(f: StepFunction, t: float, couple, levels=None, *, rescaled: bool = False) -> float:
    """Per-level reference for :func:`rinorms.k_upper_oracle`.

    Builds ``(f* - lam)_+`` and ``min(f*, lam)`` as step functions for each
    level and takes their Lorentz norms one at a time; the oracle must agree
    with it.  A norm past the largest float costs ``inf``, as in the oracle,
    and so does one whose power integral overflows unless ``rescaled``: the
    oracle is then only an upper bound on the ``rescaled`` reference.  A norm
    that :func:`lorentz_norm` cannot compute in floating point raises its
    ``ValueError``.  The default levels are :func:`reference_levels` for
    every couple.  O(levels x pieces) Python objects, so keep inputs small.
    """
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    best = INF
    for lam in reference_levels(fs) if levels is None else levels:
        cost0 = _norm_or_inf(excess(fs, lam), couple.params0, rescaled)
        if cost0 == INF:
            continue
        cost1 = _norm_or_inf(fs.minimum(lam), couple.params1, rescaled)
        best = min(best, cost0 + t * cost1)
    return best


def loop_verify_k_properties(corpus, *, n_pairs: int = 200, oracle_tol: float = 1e-9, slack: float = POINTWISE_SLACK):
    """Pair-by-pair reference for :func:`rinorms.verify_k_properties`.

    Computes each pair's values and runs its eight checks before the next
    pair; the batched driver must give the same report (violation count and
    first witness included) and raise the same first exception.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    scan = _Scan()
    records = _records(corpus)
    t_grid = np.geomspace(2.0**-8, 2.0**8, 33)
    ts = t_grid.tolist()
    mids = [float(0.5 * (t_grid[j] + t_grid[j + 1])) for j in range(t_grid.size - 1)]
    mins = np.minimum(1.0, t_grid)
    for i in range(n_pairs):
        m = records[i % len(records)]
        f, fs = m.f, m.fs
        t = ts[i % len(ts)]
        k_exact, k1, *k_grid = _k_l1_linf(fs, [t, 1.0, *ts, *mids])
        ks, mid = np.array(k_grid[: len(ts)]), np.array(k_grid[len(ts) :])
        k_oracle = k_upper_oracle(fs, t, _L1_LINF)
        if abs(k_exact - k_oracle) > oracle_tol * max(1.0, k_exact):
            scan.violation(
                check="oracle", function=f.to_dict(), t=t, exact=k_exact, oracle=k_oracle
            )
        if np.any(np.diff(ks) < -slack * ks[:-1]):
            scan.violation(check="monotone", function=f.to_dict())
        over_t = ks / t_grid
        if np.any(np.diff(over_t) > slack * over_t[:-1]):
            scan.violation(check="k_over_t", function=f.to_dict())
        if np.any(mid < 0.5 * (ks[:-1] + ks[1:]) * (1.0 - slack)):
            scan.violation(check="concavity", function=f.to_dict())
        cap = max(m.norm(_L1_LINF.params0), m.norm(_L1_LINF.params1))
        if np.any(ks < mins * k1 * (1.0 - slack)):
            scan.violation(check="sandwich_lower", function=f.to_dict())
        if np.any(ks > mins * cap * (1.0 + slack)):
            scan.violation(check="sandwich_upper", function=f.to_dict())
        g = records[(i + 1) % len(records)]
        k_sum = k_exact_l1_linf(f + g.f, t)
        if k_sum > k_exact + _k_l1_linf(g.fs, [t])[0] + slack * max(1.0, k_sum):
            scan.violation(check="subadditivity", function=f.to_dict(), t=t)
        if k_exact > 0.0:
            r = holmstedt_k(fs, t, _L1_LINF, 1.0) / k_exact
            scan.observe(r, r)
            if not (1.0 - slack) <= r <= 2.0 * (1.0 + slack):
                scan.violation(check="holmstedt_ratio", function=f.to_dict(), t=t, ratio=r)
    return scan.report(
        "kprops", f"couple={_L1_LINF},pairs={n_pairs}", size=n_pairs
    )


def loop_canonical(breakpoints, values, tail) -> tuple[tuple, tuple, float]:
    """Element-loop reference for ``StepFunction`` validation and canonical form.

    Returns the ``(breakpoints, values, tail)`` fields the constructor must
    store, or raises the exception it must raise, with the same message.
    """

    def as_float(x, what):
        v = float(x)
        if math.isnan(v):
            raise ValueError(f"{what} must not be NaN")
        return v

    bps = tuple(as_float(b, "breakpoint") for b in breakpoints)
    vals = tuple(as_float(v, "value") for v in values)
    tail = as_float(tail, "tail")
    if len(bps) != len(vals):
        raise ValueError(f"{len(bps)} breakpoints need {len(bps)} values, got {len(vals)}")
    if tail < 0.0 or not math.isfinite(tail):
        raise ValueError(f"tail must be finite and >= 0, got {tail}")
    prev = 0.0
    for b in bps:
        if not math.isfinite(b) or b <= prev:
            raise ValueError(
                f"breakpoints must be finite, positive and strictly increasing, got {bps}"
            )
        prev = b
    for v in vals:
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"values must be finite and >= 0, got {v}")
    merged: list[tuple[float, float]] = []
    for b, v in zip(bps, vals):
        if merged and merged[-1][1] == v:
            merged[-1] = (b, v)
        else:
            merged.append((b, v))
    while merged and merged[-1][1] == tail:
        merged.pop()
    return tuple(b for b, _ in merged), tuple(v for _, v in merged), tail


# -- per-piece loop references -------------------------------------------------
#
# The Python loops that stepfn's array level sets and piece iterator
# replaced.  The kernels must reproduce every value of these bit for bit and
# raise where they raise.


def loop_sorted_above_tail(f: StepFunction) -> tuple[list[float], list[float]]:
    """Dict-loop reference for ``StepFunction._sorted_above_tail``."""
    sums: dict[float, float] = {}
    prev = 0.0
    for b, v in zip(f.breakpoints, f.values):
        if v > f.tail:
            sums[v] = sums.get(v, 0.0) + (b - prev)
        prev = b
    values_desc: list[float] = []
    cumlens: list[float] = []
    acc = 0.0
    for v in sorted(sums, reverse=True):
        nxt = acc + sums[v]
        if nxt > acc:
            values_desc.append(v)
            cumlens.append(nxt)
            acc = nxt
    return values_desc, cumlens


def loop_weighted_power_integral(f: StepFunction, gamma: float, w: float, a: float = 0.0, b: float = INF) -> float:
    """Piece-loop reference for :func:`rinorms.weighted_power_integral` (checked arguments)."""
    total = 0.0
    for lo, hi, v in f.pieces():
        if v == 0.0:
            continue
        lo2 = max(lo, a)
        hi2 = min(hi, b)
        if lo2 >= hi2:
            continue
        part = power_integral(gamma, lo2, hi2)
        if part == INF:
            return INF
        total += v**w * part
    return total


def loop_weighted_sup(fs: StepFunction, expo: float, lo: float = 0.0, hi: float = INF) -> float:
    """Piece-loop reference for ``lorentz._weighted_sup``."""
    best = 0.0
    for a, b, v in fs.pieces():
        if v == 0.0 or a >= hi or b <= lo:
            continue
        if expo >= 0.0:
            x = v * (b if b <= hi else hi) ** expo
        else:
            a = a if a >= lo else lo
            x = INF if a == 0.0 else v * a**expo
        if x > best:
            best = x
    return best


def loop_k_l1_linf(fs: StepFunction, ts) -> list[float]:
    """Prefix-table loop reference for ``interp._k_l1_linf``."""
    bps, vals = fs.breakpoints, fs.values
    ks = [bisect_left(bps, t) for t in ts]
    prefix = [0.0]
    total = lo = 0.0
    for b, v in zip(bps[: max(ks, default=0)], vals):
        if v != 0.0:
            total += v * power_integral(1.0, lo, b)
        prefix.append(total)
        lo = b
    out = []
    for t, k in zip(ts, ks):
        v = vals[k] if k < len(vals) else fs.tail
        part = prefix[k]
        if v != 0.0:
            part += v * power_integral(1.0, bps[k - 1] if k else 0.0, t)
        out.append(part)
    return out


def ref_k_l1_linf_block(fss, ts_rows) -> np.ndarray:
    """Run-layout reference for ``interp._k_l1_linf_block``: each ``f*``'s
    pieces up to the one holding its largest t as one run of start
    breakpoints and values, with its own prefix sums from 0.0."""
    tops = [bisect_left(fs.breakpoints, max(ts, default=0.0)) for fs, ts in zip(fss, ts_rows)]
    off = [*accumulate(map(add, tops, repeat(1)), initial=0)]
    rows = [*accumulate(map(len, ts_rows), initial=0)]
    starts = np.fromiter(
        chain.from_iterable(chain((0.0,), fs.breakpoints[:top]) for fs, top in zip(fss, tops)), float, off[-1]
    )
    values = np.fromiter(
        chain.from_iterable(
            fs.values[: top + 1] if top < len(fs.values) else (*fs.values, fs.tail)
            for fs, top in zip(fss, tops)
        ),
        float,
        off[-1],
    )
    t = np.fromiter(chain.from_iterable(ts_rows), float, rows[-1])
    at = np.empty(t.size, dtype=np.intp)
    with np.errstate(over="ignore"):
        sums = np.empty(off[-1])
        sums[1:] = values[:-1] * (starts[1:] - starts[:-1])
        sums[off[:-1]] = 0.0
        for a, b, c, d in zip(off, off[1:], rows, rows[1:]):
            np.add.accumulate(sums[a:b], out=sums[a:b])
            at[c:d] = np.searchsorted(starts[a + 1 : b], t[c:d]) + a
        return sums[at] + values[at] * (t - starts[at])


def fraction_k_l1_linf(fs: StepFunction, ts) -> list[Fraction]:
    """``K(t, f; L_1, L_inf) = integral_0^t f*`` of ``fs = f*`` at each t,
    in exact rational arithmetic: a prefix table over the whole pieces and
    the part of the piece holding t."""
    bps, vals = fs.breakpoints, (*fs.values, fs.tail)
    ks = [bisect_left(bps, t) for t in ts]
    prefix = [Fraction(0)]
    for k in range(max(ks, default=0)):
        width = Fraction(bps[k]) - Fraction(bps[k - 1] if k else 0.0)
        prefix.append(prefix[-1] + Fraction(vals[k]) * width)
    return [
        prefix[k] + Fraction(vals[k]) * (Fraction(t) - Fraction(bps[k - 1] if k else 0.0))
        for t, k in zip(ts, ks)
    ]


@st.composite
def edge_step_functions(draw, max_pieces: int = 300):
    """Step functions at the numerical edges: zero-valued pieces, repeated
    values, values near 1e200, a positive tail, and breakpoints from a unit
    scale up to the whole float range, subnormals included."""
    n = draw(st.sampled_from([0, 1, 2, 5, 12, 60, max_pieces]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from(["unit", "wide", "float-range"]))
    if span == "unit":
        bps = np.cumsum(rng.uniform(2.0**-6, 2.0, n))
    elif span == "wide":
        bps = 2.0 ** rng.uniform(-60.0, 60.0, n)
    else:
        bps = 2.0 ** rng.uniform(-1074.0, 1023.99, n)
    bps = np.unique(bps[bps > 0.0])
    scale = draw(st.sampled_from([1.0, 1.0, 1e200, 1e-200]))
    pool = np.concatenate([[0.0], scale * 2.0 ** rng.uniform(-8.0, 8.0, draw(st.integers(1, 6)))])
    vals = pool[rng.integers(0, pool.size, bps.size)]
    tail = float(pool[rng.integers(0, pool.size)]) if draw(st.booleans()) else 0.0
    return StepFunction(tuple(bps.tolist()), tuple(vals.tolist()), tail)


@st.composite
def windows(draw, f: StepFunction) -> tuple[float, float]:
    """``0 <= a < b <= inf`` at, next to, between or beyond the breakpoints of ``f``."""
    bps = list(f.breakpoints)
    points = {0.0, 5e-324, 1.0, 1e300, *bps}
    for b in draw(st.lists(st.sampled_from(bps), max_size=4)) if bps else ():
        points.update((math.nextafter(b, 0.0), math.nextafter(b, INF), b / 3.0))
    points = sorted(points - {INF})
    i = draw(st.integers(0, len(points) - 1))
    j = draw(st.integers(i + 1, len(points)))
    return points[i], points[j] if j < len(points) else INF


def outcome(fn, *args) -> str:
    """``repr`` of ``fn(*args)``, or the type and message of the arithmetic error it raises."""
    try:
        return repr(fn(*args))
    except ArithmeticError as err:
        return f"{type(err).__name__}: {err}"


@pytest.fixture(scope="session")
def unit_indicator() -> StepFunction:
    return StepFunction.indicator(0.0, 1.0)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(7, 60)


@pytest.fixture(scope="session")
def dyadic_corpus():
    return generate_corpus(13, 60, dyadic=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


# -- per-member Hardy reference ----------------------------------------------
#
# The one-function-at-a-time Hardy averages, envelope norms and functor norm
# that the block kernels of rinorms.hardy replaced.  The block kernels must
# reproduce every value of these bit for bit.


def ref_grid(spec, anchors) -> np.ndarray | None:
    """One grid from ``np.geomspace``, as :meth:`GridSpec.build` made it
    before it wrote out geomspace's float operations for many windows at
    once; ``None`` where the window leaves the float range."""
    anchors = np.asarray(sorted(anchors), dtype=float)
    if anchors.size == 0:
        anchors = np.array([1.0])
    lo = float(anchors[0]) / spec.span
    hi = float(anchors[-1]) * spec.span
    if not (lo > 0.0 and hi < INF):
        return None
    ratio = hi / lo
    decades = math.log10(ratio) if ratio < INF else math.log10(hi) - math.log10(lo)
    n = max(2, int(math.ceil(decades * spec.points_per_decade)) + 1)
    return np.unique(np.concatenate([np.geomspace(lo, hi, n), anchors]))


def envelope_lower(env: MonotoneEnvelope) -> StepFunction:
    """Global step-function lower bound: each piece carries its right-endpoint value."""
    return StepFunction(tuple(env.grid), tuple(env.values), 0.0)


def envelope_upper(env: MonotoneEnvelope) -> StepFunction:
    """Step-function upper bound on ``[grid[0], inf)``: the values of
    :meth:`MonotoneEnvelope.upper_on_grid` on the grid intervals and the
    last grid value beyond."""
    return StepFunction(tuple(env.grid), tuple(env.upper_on_grid()), float(env.values[-1]))


def _ref_monotone_values(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOW)
    return np.minimum.accumulate(values)


def _ref_envelope(grid, values, laws, eval, bracket_decay, label, diverged=False) -> MonotoneEnvelope:
    """The reference's fields as a block of one; ``laws`` holds the
    ``(coef, decay)`` floats of head_lo, head_hi, tail_lo and tail_hi."""
    head_lo, head_hi, tail_lo, tail_hi = (PowerLaw(c, d) for c, d in laws)
    return MonotoneEnvelope(
        grid=grid,
        goff=np.array([0, grid.size]),
        values=values,
        head_lo=head_lo,
        head_hi=head_hi,
        tail_lo=tail_lo,
        tail_hi=tail_hi,
        bracket_decay=bracket_decay,
        flat=np.array([False]),
        diverged=np.array([diverged]),
        label=label,
        eval=eval,
    )


def _ref_laws(env: MonotoneEnvelope) -> list:
    """The ``(coef, decay)`` floats of head_lo, head_hi, tail_lo and tail_hi of a block of one."""
    return [(float(l.coef[0]), float(l.decay[0])) for l in (env.head_lo, env.head_hi, env.tail_lo, env.tail_hi)]


def _ref_constant_envelope(c: float, grid: np.ndarray, label: str) -> MonotoneEnvelope:
    """The constant ``c`` on ``grid``; ``c = inf`` is a diverged average, with zero laws."""
    law = (0.0, 0.0) if c == INF else (c, 0.0)
    return _ref_envelope(
        grid, np.full(grid.shape, c), [law] * 4, lambda t: np.full(np.shape(t), c), None, label, diverged=c == INF
    )


def _ref_power_segments(bp, vals, w, order):
    e = w / order
    edges_pow = np.concatenate([[0.0], bp**e])
    seg = vals**w * np.diff(edges_pow) / e
    return e, edges_pow, seg


def ref_hardy_upper(fs: StepFunction, u: float, w: float, grid: np.ndarray) -> MonotoneEnvelope:
    """Per-member reference for the upper family: ``f*``, float exponents, its grid."""
    label = f"H_upper(u={u},w={w})"
    if fs.is_zero:
        return _ref_constant_envelope(0.0, grid, label)
    bp = np.asarray(fs.breakpoints)
    vals = np.asarray(fs.values)
    tail = fs.tail
    try:
        factor = (u / w) ** (1.0 / w) if w < INF else 1.0
    except OverflowError:
        raise ValueError(_OVERFLOW) from None
    if bp.size == 0:
        c = tail * factor
        if c == INF:
            raise ValueError(_OVERFLOW)
        return _ref_constant_envelope(c, grid, label)
    allv = np.append(vals, tail)
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            e, edges_pow, seg = _ref_power_segments(bp, vals, w, u)
            cum = np.concatenate([[0.0], np.cumsum(seg)])

            def eval_upper(t):
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                inner = cum[k] + allv[k] ** w * (t**e - edges_pow[k]) / e
                return t ** (-1.0 / u) * np.maximum(inner, 0.0) ** (1.0 / w)

            head = (float(vals[0] * factor), 0.0)
            decay_coef = float(cum[-1] ** (1.0 / w))
            tail_const = float(tail * factor)
        else:
            run = np.maximum.accumulate(vals * bp ** (1.0 / u))
            prev = np.concatenate([[0.0], run])

            def eval_upper(t):
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                return np.maximum(prev[k] * t ** (-1.0 / u), allv[k])

            head = (float(vals[0]), 0.0)
            decay_coef = float(run[-1])
            tail_const = float(tail)
        values = eval_upper(grid)
    values = _ref_monotone_values(values)
    if tail == 0.0:
        tails = [(decay_coef, 1.0 / u)] * 2
    else:
        tails = [(tail_const, 0.0), (float(values[-1]), 0.0)]
    return _ref_envelope(grid, values, [head, head, *tails], eval_upper, 1.0 / u, label)


def ref_hardy_lower(fs: StepFunction, v: float, w: float, grid: np.ndarray) -> MonotoneEnvelope:
    """Per-member reference for the lower family; a positive tail diverges (``inf`` on ``grid``)."""
    label = f"H_lower(v={v},w={w})"
    if fs.is_zero:
        return _ref_constant_envelope(0.0, grid, label)
    if fs.tail > 0.0:
        return _ref_constant_envelope(INF, grid, label)
    bp = np.asarray(fs.breakpoints)
    vals = np.asarray(fs.values)
    allv = np.append(vals, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            e, edges_pow, seg = _ref_power_segments(bp, vals, w, v)
            suf = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

            def eval_lower(t):
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                kk = np.minimum(k, bp.size - 1)
                part = allv[k] ** w * (edges_pow[kk + 1] - t**e) / e
                inner = np.where(k < bp.size, part + suf[np.minimum(k + 1, bp.size)], 0.0)
                return t ** (-1.0 / v) * np.maximum(inner, 0.0) ** (1.0 / w)
        else:
            run = np.maximum.accumulate((vals * bp ** (1.0 / v))[::-1])[::-1]
            suf_max = np.concatenate([run, [0.0]])

            def eval_lower(t):
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                return suf_max[k] * t ** (-1.0 / v)

        values = eval_lower(grid)
    values = _ref_monotone_values(values)
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            heads = [(float(values[0] * grid[0] ** (1.0 / v)), 1.0 / v), (float(suf[0] ** (1.0 / w)), 1.0 / v)]
        else:
            heads = [(float(run[0]), 1.0 / v)] * 2
    return _ref_envelope(grid, values, [*heads, (0.0, 0.0), (0.0, 0.0)], eval_lower, 1.0 / v, label)


def _ref_combine_laws(a, b, boundary, side, hi):
    laws = [l for l in (a, b) if l[0] > 0.0]
    if not laws:
        return 0.0, 0.0
    decay = max(d for c, d in laws) if side == "head" else min(d for c, d in laws)
    if hi:
        return sum(c * boundary ** (decay - d) for c, d in laws), decay
    return sum(c for c, d in laws if d == decay), decay


def ref_add_envelopes(e1: MonotoneEnvelope, e2: MonotoneEnvelope) -> MonotoneEnvelope:
    label = f"{e1.label}+{e2.label}"
    if e1.diverged or e2.diverged:
        return _ref_constant_envelope(INF, e1.grid, label)
    assert np.array_equal(e1.grid, e2.grid)
    f1, f2 = e1.eval, e2.eval
    g0, gm = float(e1.grid[0]), float(e1.grid[-1])
    (hl1, hh1, tl1, th1), (hl2, hh2, tl2, th2) = _ref_laws(e1), _ref_laws(e2)
    laws = [
        _ref_combine_laws(hl1, hl2, g0, "head", hi=False),
        _ref_combine_laws(hh1, hh2, g0, "head", hi=True),
        _ref_combine_laws(tl1, tl2, gm, "tail", hi=False),
        _ref_combine_laws(th1, th2, gm, "tail", hi=True),
    ]
    return _ref_envelope(e1.grid, e1.values + e2.values, laws, lambda t: f1(t) + f2(t), None, label)


def ref_power_scale(env: MonotoneEnvelope, d: float) -> MonotoneEnvelope:
    if d == 0.0 or env.diverged:
        return env
    f = env.eval
    laws = [(coef, decay + d) if coef else (0.0, 0.0) for coef, decay in _ref_laws(env)]
    beta = None if env.bracket_decay is None else env.bracket_decay + d
    return _ref_envelope(
        env.grid,
        env.values * env.grid ** (-d),
        laws,
        lambda t: f(t) * np.asarray(t, dtype=float) ** (-d),
        beta,
        f"t^-{d}*{env.label}",
    )


def _ref_law_norm_term(law, gamma, q, lo, hi):
    coef, decay = law
    if coef == 0.0:
        return 0.0
    alpha = gamma - q * decay
    if (alpha <= 0.0) if lo == 0.0 else (alpha >= 0.0):  # a divergent head or tail
        return INF
    term = coef**q * power_integral(alpha, lo, hi)
    if term == INF:
        raise OverflowError("a finite head or tail term overflows")
    return term


def _ref_law_sup_term(law, beta_p, end):
    """The sup of ``t**beta_p`` times a head or tail law that is bounded, at its finite end."""
    coef, decay = law
    return coef * end ** (beta_p - decay) if coef else 0.0


def ref_envelope_norm(env: MonotoneEnvelope, params) -> Enclosure:
    """Per-member reference for :func:`rinorms.envelope_norm`."""
    if env.diverged:
        return Enclosure(INF, INF)
    p, q = params.p, params.q
    head_lo, head_hi, tail_lo, tail_hi = _ref_laws(env)
    g = env.grid
    vals = env.values
    a, b = g[:-1], g[1:]
    c_hi, c_lo = vals[:-1], vals[1:]
    beta = env.bracket_decay
    if beta is not None:
        phi = g**beta * vals
        pw_hi = np.maximum(phi[:-1], phi[1:])
        pw_lo = np.minimum(phi[:-1], phi[1:])
    if q < INF:
        gamma = 0.0 if p == INF else q / p

        def interval_sum(const, power, upper):
            if power is None:
                return float(np.sum(const**q * _power_integral_array(gamma, a, b)))
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (power / const) ** (1.0 / beta)
            cross = np.clip(np.nan_to_num(cross, nan=0.0, posinf=INF), a, b)
            alpha_pow = gamma - q * beta
            if upper:
                t1 = const**q * _power_integral_array(gamma, a, cross)
                t2 = power**q * _power_integral_array(alpha_pow, cross, b)
            else:
                t1 = power**q * _power_integral_array(alpha_pow, a, cross)
                t2 = const**q * _power_integral_array(gamma, cross, b)
            return float(np.sum(np.where(const + power > 0.0, t1 + t2, 0.0)))

        def side_norm(head, tail, const, power, upper):
            # both ends' divergence is decided before any term is formed
            if head[0] and gamma - q * head[1] <= 0.0 or tail[0] and gamma - q * tail[1] >= 0.0:
                return INF
            s = _ref_law_norm_term(head, gamma, q, 0.0, float(g[0]))
            s += interval_sum(const, power, upper)
            s += _ref_law_norm_term(tail, gamma, q, float(g[-1]), INF)
            if not s < INF:  # no law diverges, so the sum overflowed
                raise OverflowError("a finite norm overflows")
            return s ** (1.0 / q)

        hi = side_norm(head_hi, tail_hi, c_hi, pw_hi if beta is not None else None, upper=True)
        lo = side_norm(head_lo, tail_lo, c_lo, pw_lo if beta is not None else None, upper=False)
    else:
        beta_p = 0.0 if p == INF else 1.0 / p

        def side_sup(head, tail, const, power, upper):
            # both ends' divergence is decided before any term is formed
            if head[0] and head[1] > beta_p or tail[0] and tail[1] < beta_p:
                return INF
            with np.errstate(over="ignore", invalid="ignore"):
                mid = const * b**beta_p
                if power is not None:
                    sup_pow_exp = beta_p - beta
                    pow_sup = np.where(sup_pow_exp >= 0.0, b**sup_pow_exp, a**sup_pow_exp)
                    mid = (np.minimum if upper else np.maximum)(mid, power * pow_sup)
                # the interval maximum first, so that a NaN one is not dropped
                s = float(np.max(mid)) if mid.size else -INF
                s = max(s, _ref_law_sup_term(head, beta_p, float(g[0])), _ref_law_sup_term(tail, beta_p, float(g[-1])))
            if not s < INF:  # no law diverges, so the sup overflowed
                raise OverflowError("a finite norm overflows")
            return s

        hi = side_sup(head_hi, tail_hi, c_hi, pw_hi if beta is not None else None, upper=True)
        lo = side_sup(head_lo, tail_lo, c_lo, pw_lo if beta is not None else None, upper=False)
    return Enclosure(min(lo, hi), hi)


def ref_functor_norm(fs: StepFunction, fp, couple, grid: np.ndarray) -> Enclosure:
    """Per-member reference for the functor norm of a nonzero ``f`` from ``f*`` and its grid."""
    p0, q0 = couple.params0.p, couple.params0.q
    env = ref_hardy_upper(fs, p0, q0, grid)
    if couple.params1.p < INF:
        env = ref_add_envelopes(
            env, ref_hardy_lower(fs, couple.params1.p, couple.params1.q, grid)
        )
    if fp.r < p0:
        env = ref_power_scale(env, 1.0 / fp.r - 1.0 / p0)
    return ref_envelope_norm(env, fp.space.params)
