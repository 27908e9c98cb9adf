"""Seeded corpus generation and verification drivers for the norm equivalences.

Every ``verify_*`` function is deterministic given (seed, configuration),
evaluates each corpus member independently (pure functions throughout, so
the scans could run in parallel; reduction is a stable min/max over the
corpus order) and returns a :class:`RatioReport` with the observed ratio
range plus a pass verdict.  The drivers share one accumulator, ``_Scan``:
it holds the corpus, filters members to those with finite nonzero norm in
E where a check needs that, and keeps the ratio range, the widest relative
enclosure, the violation count and the first witness; each driver supplies
only its per-member check.

The work every configuration repeats on a member lives in one private
member record per corpus function: ``f*`` (one rearrangement), the
envelope grid per ``GridSpec`` and ``||f||_E`` per ``LorentzParams``.  A
``verify_*`` call makes the records of its corpus and drops them when it
returns; :func:`default_check_reports` makes them once per call and shares
them across all its configurations.

The Hardy checks evaluate a configuration for a block of consecutive
members at once (at most ``_BLOCK_POINTS`` grid points, so memory stays
flat in the corpus size): the hardy module's block kernels make one set of
numpy calls per block, bit-identical to one member at a time.  Each
member's outcome is then read in corpus order, so the first witness, the
violation counts and the exception raised by a member whose average
overflows are those of a member-by-member scan.  Envelopes are not kept
across configurations.  Verdict semantics are fixed per check:

* pointwise checks pass iff no grid point violates the inequality beyond a
  relative slack;
* norm-equivalence checks compare certified upper endpoints: a config passes
  when every enclosure is finite, no certified upper bound refutes the lower
  inequality, and the recorded ratio ceiling stays under the bound (the
  lower endpoints are recorded alongside as regression data);
* divergence checks pass iff the predicted infinite norms are detected.

Violations carry the witness function as JSON for reproduction.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .hardy import (
    DEFAULT_GRID,
    GridSpec,
    _Block,
    _checked_exponents,
    _lower_block,
    _norm_block,
    _result,
    _upper_block,
    predicted_bounded,
)
from .interp import (
    FunctorParams,
    LorentzCouple,
    _check_functor,
    _functor_block,
    _holmstedt_sum,
    _k_l1_linf,
    functor_norm,
    k_exact_l1_linf,
    k_upper_oracle,
)
from .lorentz import LorentzParams, SpaceDescriptor, lorentz_norm
from .stepfn import INF, StepFunction

__all__ = [
    "Corpus",
    "RatioReport",
    "generate_corpus",
    "generate_pairs",
    "verify_hardy_pointwise",
    "verify_hardy_equivalence",
    "verify_interpolation_identity",
    "verify_k_properties",
    "default_check_reports",
    "reports_to_csv",
    "reports_to_json",
    "CHECK_IDS",
]

POINTWISE_SLACK = 1e-12
EQUIV_FLOOR_SLACK = 1e-6
DEFAULT_RATIO_BOUND = 64.0
# Grid points per block of members evaluated together: large enough that
# per-call overhead vanishes, small enough that the block's temporaries
# stay around a megabyte.
_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class Corpus:
    """Reproducible list of nonzero step functions."""

    seed: int
    functions: tuple[StepFunction, ...]
    params: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.functions)

    def __len__(self) -> int:
        return len(self.functions)


def generate_corpus(
    seed: int,
    size: int,
    *,
    max_pieces: int = 12,
    bp_range: tuple[float, float] = (2.0**-10, 2.0**10),
    value_range: tuple[float, float] = (2.0**-8, 2.0**8),
    positive_tail: bool = False,
    dyadic: bool = False,
) -> Corpus:
    """Seeded corpus: 1-``max_pieces`` pieces, log-uniform breakpoints/values.

    ``positive_tail`` draws a tail value below the smallest piece value
    (otherwise tails are zero).  ``dyadic`` snaps breakpoints and values to
    dyadic rationals, for which float sums and differences are exact; the
    bit-exact invariance tests use that mode.
    """
    if size <= 0:
        raise ValueError(f"corpus size must be positive, got {size}")
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    rng = np.random.default_rng(seed)
    funcs: list[StepFunction] = []
    lb0, lb1 = math.log(bp_range[0]), math.log(bp_range[1])
    lv0, lv1 = math.log(value_range[0]), math.log(value_range[1])
    while len(funcs) < size:
        n = int(rng.integers(1, max_pieces + 1))
        bps = np.exp(rng.uniform(lb0, lb1, size=n))
        vals = np.exp(rng.uniform(lv0, lv1, size=n))
        if dyadic:
            bps = np.maximum(np.round(bps * 1024.0), 1.0) / 1024.0
            vals = np.maximum(np.round(vals * 256.0), 1.0) / 256.0
        bps = np.unique(bps)
        vals = vals[: bps.size]
        tail = 0.0
        if positive_tail and rng.random() < 0.5:
            tail = float(vals.min()) * float(rng.uniform(0.1, 0.9))
            if dyadic:
                tail = max(round(tail * 256.0), 1.0) / 256.0
        f = StepFunction(tuple(bps), tuple(vals), tail)
        if not f.is_zero:
            funcs.append(f)
    return Corpus(
        seed=seed,
        functions=tuple(funcs),
        params={
            "size": size,
            "max_pieces": max_pieces,
            "bp_range": list(bp_range),
            "value_range": list(value_range),
            "positive_tail": positive_tail,
            "dyadic": dyadic,
        },
    )


def generate_pairs(seed: int, n_pairs: int, **kwargs) -> list[tuple[StepFunction, StepFunction]]:
    corpus = generate_corpus(seed, 2 * n_pairs, **kwargs)
    fs = corpus.functions
    return [(fs[2 * i], fs[2 * i + 1]) for i in range(n_pairs)]


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one verification run; regression baseline material."""

    check: str
    config: str
    size: int
    min_ratio: float
    max_ratio: float
    max_width: float
    violations: int
    passed: bool
    witness: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_ratio > self.max_ratio:
            raise ValueError("min_ratio must not exceed max_ratio")

    def row(self) -> dict:
        return {
            "check": self.check,
            "config": self.config,
            "size": self.size,
            "min_ratio": repr(self.min_ratio),
            "max_ratio": repr(self.max_ratio),
            "max_width": repr(self.max_width),
            "violations": self.violations,
            "pass": self.passed,
        }


class _Member:
    """One corpus function with the work every configuration repeats on it.

    ``fs`` is ``f*``; :meth:`grid` and :meth:`norm` compute the envelope grid
    per :class:`GridSpec` and ``||f||_E`` per :class:`LorentzParams` on first
    use and keep them.  Envelopes are not kept: each configuration evaluates
    them for a block of members and drops them after use.
    """

    __slots__ = ("f", "fs", "_grids", "_norms")

    def __init__(self, f: StepFunction):
        self.f = f
        self.fs = f.rearrange()
        self._grids: dict[GridSpec, np.ndarray] = {}
        self._norms: dict[LorentzParams, float] = {}

    def grid(self, grid_spec: GridSpec) -> np.ndarray:
        grid = self._grids.get(grid_spec)
        if grid is None:
            grid = self._grids[grid_spec] = grid_spec.build(self.fs.breakpoints)
        return grid

    def norm(self, params: LorentzParams) -> float:
        n = self._norms.get(params)
        if n is None:
            n = self._norms[params] = lorentz_norm(self.fs, params)
        return n


class _SharedCorpus(tuple):
    """A corpus (the tuple of its functions) carrying one :class:`_Member`
    per function.  Every ``verify_*`` run on it reads these records instead
    of making its own; :func:`default_check_reports` makes one per call."""

    def __new__(cls, corpus: Iterable[StepFunction]):
        self = super().__new__(cls, corpus)
        self.records = tuple(map(_Member, self))
        return self


class _Scan:
    """Bookkeeping shared by the ``verify_*`` drivers over one corpus.

    ``records`` holds the corpus's member records: those of a
    :class:`_SharedCorpus`, else new ones that live as long as the scan.
    ``empty_ratio`` is reported as both ratio endpoints when no finite ratio
    was observed.
    """

    def __init__(self, corpus: Iterable[StepFunction], empty_ratio: float = 1.0):
        if not isinstance(corpus, _SharedCorpus):
            corpus = _SharedCorpus(corpus)
        if not corpus:
            raise ValueError("corpus must be nonempty")
        self.records = corpus.records
        self.empty_ratio = empty_ratio
        self.used = 0
        self.min_ratio = INF
        self.max_ratio = -INF
        self.max_width = 0.0
        self.violations = 0
        self.witness = ""

    def blocks(self, grid_spec: GridSpec, space: SpaceDescriptor | None = None):
        """Yield ``(records, norms, block)`` for consecutive members in corpus order.

        A block holds at most ``_BLOCK_POINTS`` grid points (a larger member
        forms a block of its own).  With ``space``, only members with finite
        nonzero norm in E are taken, counted in ``used``, and ``norms`` holds
        their norms.  An error while preparing a member is raised after the
        block of the members before it.
        """
        records: list[_Member] = []
        norms: list[float | None] = []
        points = 0
        try:
            for m in self.records:
                n = None
                if space is not None:
                    n = m.norm(space.params)
                    if not 0.0 < n < INF:
                        continue
                    self.used += 1
                size = m.grid(grid_spec).size
                if records and points + size > _BLOCK_POINTS:
                    yield records, norms, self._block(records, grid_spec)
                    records, norms, points = [], [], 0
                records.append(m)
                norms.append(n)
                points += size
        except (ValueError, ArithmeticError):
            # the members before it come first, as one member at a time
            if records:
                yield records, norms, self._block(records, grid_spec)
            raise
        if records:
            yield records, norms, self._block(records, grid_spec)
        if space is not None and self.used == 0:
            raise ValueError("corpus has no member with finite nonzero norm in E")

    @staticmethod
    def _block(records: list[_Member], grid_spec: GridSpec) -> _Block:
        return _Block([m.fs for m in records], [m.grid(grid_spec) for m in records])

    def observe(self, lo: float, hi: float, width: float = 0.0) -> None:
        """Widen the ratio range to cover ``[lo, hi]`` and record an enclosure width."""
        self.min_ratio = min(self.min_ratio, lo)
        self.max_ratio = max(self.max_ratio, hi)
        self.max_width = max(self.max_width, width)

    def note(self, **witness) -> None:
        """Keep ``witness`` (as JSON) unless an earlier one was recorded."""
        if not self.witness:
            self.witness = json.dumps(witness)

    def violation(self, count: int = 1, **witness) -> None:
        self.violations += count
        self.note(**witness)

    def ratio_range(self) -> tuple[float, float]:
        if self.min_ratio == INF:
            return self.empty_ratio, self.empty_ratio
        return self.min_ratio, self.max_ratio

    def report(
        self,
        check: str,
        config: str,
        size: int,
        passed: bool | None = None,
        extras: dict | None = None,
    ) -> RatioReport:
        """The run's report; ``passed`` defaults to "no violations"."""
        min_ratio, max_ratio = self.ratio_range()
        return RatioReport(
            check=check,
            config=config,
            size=size,
            min_ratio=min_ratio,
            max_ratio=max_ratio,
            max_width=self.max_width,
            violations=self.violations,
            passed=self.violations == 0 if passed is None else passed,
            witness=self.witness,
            extras=extras or {},
        )


def _averaging_kind(u: float | None, v: float | None) -> tuple[str, float]:
    """``("upper", u)`` or ``("lower", v)``; exactly one of the two may be given."""
    if (u is None) == (v is None):
        raise ValueError("exactly one of u (upper kind) or v (lower kind) is required")
    return ("upper", u) if u is not None else ("lower", v)


def _violations(blk: _Block, lhs: np.ndarray, low: np.ndarray, slack: float):
    """Per member of ``blk``: the number of grid points where ``lhs`` falls
    below ``low`` beyond the relative slack, and the first such point."""
    bad = np.flatnonzero(lhs < low * (1.0 - slack))
    counts = [0] * blk.size
    first: list = [None] * blk.size
    if bad.size:
        owner = np.searchsorted(blk.goff, bad, side="right") - 1
        members, at, n = np.unique(owner, return_index=True, return_counts=True)
        for i, j, c in zip(members.tolist(), bad[at].tolist(), n.tolist()):
            counts[i] = c
            first[i] = float(blk.grid[j])
    return counts, first


def verify_hardy_pointwise(
    corpus: Iterable[StepFunction],
    *,
    u: float | None = None,
    v: float | None = None,
    w: float,
    grid_spec: GridSpec = DEFAULT_GRID,
    slack: float = POINTWISE_SLACK,
) -> RatioReport:
    """Pointwise lower bounds of the averaging operators on the corpus grid.

    Upper kind (``u`` given): ``H^(u,w) f >= H^(u,inf) f >= f*`` at every
    grid point.  Lower kind (``v`` given): ``H_(v,w) f(t) >= f*(2t)``.
    Violations beyond the relative slack fail the check and record a witness.
    """
    kind, order = _averaging_kind(u, v)
    scan = _Scan(corpus)
    a, b = _checked_exponents(order, w)
    diverged_grid = functools.cache(lambda: grid_spec.build([1.0]))
    for records, _, blk in scan.blocks(grid_spec):
        if kind == "upper":
            env_w = _upper_block(blk, a, b)
            env_inf = env_w if b == INF else _upper_block(blk, a, INF)
            errors = [x or y for x, y in zip(env_w.errors, env_inf.errors)]
            checks = [(env_w.values, env_inf.values), (env_inf.values, blk.f_star(blk.K))]
            unchecked = None
        else:
            env = _lower_block(blk, a, b)
            errors = env.errors
            doubled = 2.0 * blk.grid
            checks = [(env.values, blk.f_star(blk.piece_index(doubled)))]
            # members whose f*(2t) may be undefined: 2t overflows, or the
            # envelope diverged and is checked on its own grid around 1
            fits = np.logical_and.reduceat(doubled < INF, blk.goff[:-1])
            unchecked = (env.diverged | ~fits).tolist()
        found = [_violations(blk, lhs, low, slack) for lhs, low in checks]
        for i, m in enumerate(records):
            _result(errors[i])
            if unchecked and unchecked[i]:
                grid = diverged_grid() if env.diverged[i] else blk.grid[blk.goff[i] : blk.goff[i + 1]]
                m.fs(2.0 * grid)  # raises where 2t leaves the float range
            for counts, first in found:
                if counts[i]:
                    scan.violation(counts[i], function=m.f.to_dict(), t=first[i])
        for lhs, low in checks:
            mask = low > 0.0
            if mask.any():
                ratios = lhs[mask] / low[mask]
                scan.observe(float(ratios.min()), float(ratios.max()))
    label = "u" if kind == "upper" else "v"
    return scan.report("lemma10", f"{label}={order},w={w}", size=len(scan.records))


def verify_hardy_equivalence(
    corpus: Iterable[StepFunction],
    space: SpaceDescriptor,
    *,
    u: float | None = None,
    v: float | None = None,
    w: float,
    ratio_bound: float = DEFAULT_RATIO_BOUND,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> RatioReport:
    """Norm equivalence ``||Hf||_E ~ ||f||_E`` (or its failure at the boundary).

    For configurations predicted bounded, the certified upper endpoints of
    the enclosures must stay within ``ratio_bound`` times ``||f||_E`` and
    must not refute the pointwise lower inequality (floor ``1 - 1e-6``).
    At the boundary ``u = p_E`` with ``w < inf`` the check inverts: every
    compactly supported member must produce an infinite upper endpoint.
    """
    kind, order = _averaging_kind(u, v)
    scan = _Scan(corpus, empty_ratio=INF)
    expected = predicted_bounded(space, kind, order, w)
    boundary = kind == "upper" and w < INF and order == space.boyd_lower
    diverged = 0
    min_ratio_lo = INF
    a, b = _checked_exponents(order, w)
    hardy = _upper_block if kind == "upper" else _lower_block
    for records, norms, blk in scan.blocks(grid_spec, space):
        encs = _norm_block(hardy(blk, a, b), space.params)
        for m, n, enc in zip(records, norms, encs):
            enc = _result(enc)
            if enc.hi == INF:
                diverged += 1
                if not boundary and expected:
                    scan.violation(function=m.f.to_dict(), norm=n)
                continue
            scan.observe(enc.hi / n, enc.hi / n, enc.relative_width)
            min_ratio_lo = min(min_ratio_lo, enc.lo / n)
    min_r, max_r = scan.ratio_range()
    if boundary:
        passed = diverged == scan.used
    else:
        floor_ok = min_r >= 1.0 - EQUIV_FLOOR_SLACK
        passed = (
            expected
            and scan.violations == 0
            and diverged == 0
            and floor_ok
            and max_r <= ratio_bound
        )
        if not floor_ok:
            scan.note(floor=min_r)
    return scan.report(
        "thm11",
        f"E={space},{kind} {order},w={w}",
        size=scan.used,
        passed=passed,
        extras={
            "diverged": diverged,
            "min_ratio_lo": min_ratio_lo,
            "expected_bounded": expected,
        },
    )


_CALIBRATION_TARGET = math.sqrt(2.0)
_CALIBRATION_WIDTH = 1e-3


def verify_interpolation_identity(
    corpus: Iterable[StepFunction],
    space: SpaceDescriptor,
    couple: LorentzCouple,
    theta: float,
    *,
    ratio_bound: float = DEFAULT_RATIO_BOUND,
    grid_spec: GridSpec = DEFAULT_GRID,
    calibrate: bool = False,
) -> RatioReport:
    """Functor norm against ``||.||_E``: bounded equivalence spread on the corpus.

    Ratio spread is certified outward: ``max(hi_i / n_i) / min(lo_i / n_i)``
    must not exceed ``ratio_bound`` and every enclosure must be finite.
    With ``calibrate=True`` the unit indicator is evaluated at 256 points
    per decade and its enclosure must trap sqrt(2) within width 1e-3 (the
    exact value of ``|| f** ||_{L_2}`` for that function).
    """
    scan = _Scan(corpus, empty_ratio=INF)
    fp = FunctorParams(theta=theta, r=couple.params0.p, space=space)
    _check_functor(fp, couple)
    for records, norms, blk in scan.blocks(grid_spec, space):
        for m, n, enc in zip(records, norms, _functor_block(blk, fp, couple)):
            enc = _result(enc)
            if enc.hi == INF or enc.lo <= 0.0:
                scan.violation(function=m.f.to_dict(), enclosure=str(enc))
                continue
            scan.observe(enc.lo / n, enc.hi / n, enc.relative_width)
    min_r, max_r = scan.ratio_range()
    spread = max_r / min_r if 0.0 < min_r < INF else INF
    passed = scan.violations == 0 and spread <= ratio_bound
    extras = {"spread": spread}
    if calibrate:
        chi = StepFunction.indicator(0.0, 1.0)
        enc = functor_norm(
            chi, fp, couple, GridSpec(points_per_decade=256, span=grid_spec.span)
        )
        extras["calibration"] = str(enc)
        # endpoint sums are plain float accumulations; 1e-12 absorbs their roundoff
        if not (enc.contains(_CALIBRATION_TARGET, slack=1e-12) and enc.width <= _CALIBRATION_WIDTH):
            passed = False
            scan.note(calibration=str(enc))
    return scan.report(
        "thm15",
        f"E={space},couple={couple},theta={theta}",
        size=scan.used,
        passed=passed,
        extras=extras,
    )


_L1_LINF = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))


# Pairs per block of the K battery: its arrays stay well under a megabyte.
_PAIR_BLOCK = 1024


class _KPair(NamedTuple):
    """The scalar values of one (f, t) pair of the K battery."""

    f: StepFunction
    t: float
    table: list[float]  # K(t, f), K(1, f), K on the grid, K at its midpoints
    k_oracle: float
    cap: float  # ||f||_{X0 ∩ X1}
    k_sum: float  # K(t, f + g)
    k_g: float  # K(t, g)
    ratio: float | None  # Holmstedt / exact; None where K(t, f) = 0


def _k_pair(records: Sequence[_Member], i: int, t: float, table_ts: list[float]) -> _KPair:
    """Pair ``i`` of the K battery (f the ``i``-th member, g the next) at ``t``."""
    m = records[i % len(records)]
    table = _k_l1_linf(m.fs, [t, *table_ts])
    k_oracle = k_upper_oracle(m.fs, t, _L1_LINF)
    cap = max(m.norm(_L1_LINF.params0), m.norm(_L1_LINF.params1))
    g = records[(i + 1) % len(records)]
    k_sum = k_exact_l1_linf(m.f + g.f, t)
    k_g = _k_l1_linf(g.fs, [t])[0]
    ratio = _holmstedt_sum(m.fs, t, _L1_LINF, 1.0, table[0]) / table[0] if table[0] > 0.0 else None
    return _KPair(m.f, t, table, k_oracle, cap, k_sum, k_g, ratio)


def verify_k_properties(
    corpus: Sequence[StepFunction],
    *,
    n_pairs: int = 200,
    oracle_tol: float = 1e-9,
    slack: float = POINTWISE_SLACK,
) -> RatioReport:
    """K-functional battery on the exact (L_1, L_inf) couple.

    Checks, per seeded (f, t) pair: oracle agreement within ``oracle_tol``;
    monotonicity of ``t -> K`` and ``t -> K/t``; midpoint concavity; the
    sandwich ``min(1,t) K(1,f) <= K(t,f) <= min(1,t) ||f||_{X0 ∩ X1}``;
    exact subadditivity ``K(t, f+g) <= K(t,f) + K(t,g)``; and the
    Holmstedt-to-exact ratio staying inside [1, 2].  Every K value of ``f``
    in a pair (at ``t``, at 1, on the 33-point grid and at its midpoints)
    comes from one prefix table over ``f*``; ``g`` and ``f + g`` need one
    value each.

    The pairs are taken in blocks of at most ``_PAIR_BLOCK``.  A block's
    scalar values are computed pair by pair in the order above, so a member
    that raises does so as in a pair-by-pair scan; the five grid checks then
    run once on the block's pairs x grid arrays, and the violations are read
    out per pair in check order, so their count and the first witness are
    those of a pair-by-pair scan.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    scan = _Scan(corpus)
    t_grid = np.geomspace(2.0**-8, 2.0**8, 33)
    ts = t_grid.tolist()
    mids = [float(0.5 * (t_grid[j] + t_grid[j + 1])) for j in range(t_grid.size - 1)]
    table_ts = [1.0, *ts, *mids]
    mins = np.minimum(1.0, t_grid)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        pairs = [
            _k_pair(scan.records, i, ts[i % len(ts)], table_ts)
            for i in range(start, min(start + _PAIR_BLOCK, n_pairs))
        ]
        table = np.array([pair.table for pair in pairs])
        k1, cap = table[:, 1:2], np.array([[pair.cap] for pair in pairs])
        ks, mid = table[:, 2 : 2 + len(ts)], table[:, 2 + len(ts) :]
        over_t = ks / t_grid
        grid_checks = (
            ("monotone", np.diff(ks) < -slack * ks[:, :-1]),
            ("k_over_t", np.diff(over_t) > slack * over_t[:, :-1]),
            ("concavity", mid < 0.5 * (ks[:, :-1] + ks[:, 1:]) * (1.0 - slack)),
            ("sandwich_lower", ks < mins * k1 * (1.0 - slack)),
            ("sandwich_upper", ks > mins * cap * (1.0 + slack)),
        )
        failed = [(check, bad.any(axis=1)) for check, bad in grid_checks]
        for j, pair in enumerate(pairs):
            f, t, k_exact = pair.f, pair.t, pair.table[0]
            if abs(k_exact - pair.k_oracle) > oracle_tol * max(1.0, k_exact):
                scan.violation(
                    check="oracle", function=f.to_dict(), t=t, exact=k_exact, oracle=pair.k_oracle
                )
            for check, bad in failed:
                if bad[j]:
                    scan.violation(check=check, function=f.to_dict())
            k_sum = pair.k_sum
            if k_sum > k_exact + pair.k_g + slack * max(1.0, k_sum):
                scan.violation(check="subadditivity", function=f.to_dict(), t=t)
            r = pair.ratio
            if r is not None:
                scan.observe(r, r)
                if not (1.0 - slack) <= r <= 2.0 * (1.0 + slack):
                    scan.violation(check="holmstedt_ratio", function=f.to_dict(), t=t, ratio=r)
    return scan.report(
        "kprops", f"couple={_L1_LINF},pairs={n_pairs}", size=n_pairs
    )


# Default configurations exercised by `verify <check>`: the Hardy pointwise
# set, the equivalence/divergence set on L_{2,2}, the four interpolation
# identities plus the sqrt(2) calibration instance, and the K battery.
_L22 = lambda: SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
_POINTWISE_CONFIGS = (
    {"u": 1.0, "w": 1.0},
    {"u": 1.0, "w": INF},
    {"u": 2.0, "w": 1.0},
    {"v": 2.0, "w": 1.0},
    {"v": 3.0, "w": INF},
)
_EQUIVALENCE_CONFIGS = (
    {"u": 1.0, "w": 1.0},
    {"v": 3.0, "w": 2.0},
    {"u": 2.0, "w": 1.0},  # boundary u = p_E: divergence must be detected
)


def _interpolation_configs():
    l22 = _L22()
    l31 = SpaceDescriptor.for_lorentz(LorentzParams(3.0, 1.0))
    linf = SpaceDescriptor.for_lorentz(LorentzParams(INF, INF))
    c11_44 = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
    c12_inf = LorentzCouple(LorentzParams(1.0, 2.0), LorentzParams(INF, INF))
    c11_inf = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))
    return (
        (l22, c11_44, 4.0 / 3.0, False),
        (l22, c12_inf, 1.0, False),
        (l31, c11_inf, 1.0, False),
        (linf, c11_inf, 1.0, False),
        (l22, c11_inf, 1.0, True),  # calibration instance
    )


CHECK_IDS = ("lemma10", "thm11", "thm15", "kprops")


def default_check_reports(
    check: str,
    seed: int,
    size: int,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> list[RatioReport]:
    """Run a named check (or 'all') over its default configurations."""
    if check != "all" and check not in CHECK_IDS:
        raise ValueError(f"unknown check {check!r}; expected one of {CHECK_IDS + ('all',)}")
    corpus = _SharedCorpus(generate_corpus(seed, size))
    reports: list[RatioReport] = []
    if check in ("lemma10", "all"):
        for cfg in _POINTWISE_CONFIGS:
            reports.append(verify_hardy_pointwise(corpus, grid_spec=grid_spec, **cfg))
    if check in ("thm11", "all"):
        space = _L22()
        for cfg in _EQUIVALENCE_CONFIGS:
            reports.append(
                verify_hardy_equivalence(corpus, space, grid_spec=grid_spec, **cfg)
            )
    if check in ("thm15", "all"):
        for space, couple, theta, calibrate in _interpolation_configs():
            reports.append(
                verify_interpolation_identity(
                    corpus, space, couple, theta, grid_spec=grid_spec, calibrate=calibrate
                )
            )
    if check in ("kprops", "all"):
        reports.append(verify_k_properties(corpus))
    return reports


_CSV_FIELDS = ("check", "config", "size", "min_ratio", "max_ratio", "max_width", "violations", "pass")


def reports_to_csv(reports: Sequence[RatioReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow(r.row())
    return buf.getvalue()


def reports_to_json(reports: Sequence[RatioReport]) -> str:
    payload = []
    for r in reports:
        d = r.row()
        d["witness"] = r.witness
        d["extras"] = {k: repr(v) for k, v in sorted(r.extras.items())}
        payload.append(d)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
