"""Seeded corpus generation and verification drivers for the norm equivalences.

Every ``verify_*`` function is deterministic given (seed, configuration),
evaluates each corpus member independently (pure functions throughout, so
the scans could run in parallel; reduction is a stable min/max over the
corpus order) and returns a :class:`RatioReport` with the observed ratio
range plus a pass verdict.  The drivers share one accumulator, ``_Scan``:
it keeps the ratio range, the widest relative enclosure, the violation
count and the first witness; each driver supplies only its per-member
check.

The work every configuration repeats on a member lives in one private
member record per corpus function: ``f*`` (one rearrangement) and
``||f||_E`` per ``LorentzParams``.  A scan reads its corpus once into a
plain tuple of these records (:func:`_records`) and drops it when it
returns; :func:`default_check_reports` makes one tuple per call and shares
it across all its configurations, the K battery's included.

The Hardy checks have one driver, :func:`_reports`; a public ``verify_*``
driver runs it on a single configuration.  It evaluates the
configurations for a block of consecutive members at once (a block closes
once its members' grid windows hold ``_BLOCK_POINTS`` points): the hardy
module's block kernels make one set of numpy calls per block,
bit-identical to one member at a time.  A block builds its members'
envelope grids in one call and drops them with itself, so beyond the
member records memory stays flat in the corpus size.  On glibc a Hardy
scan raises malloc's trim and mmap thresholds for the whole process, so
the heap the block kernels free stays mapped for the next block instead
of being faulted in again (see ``_HEAP_TRIM_THRESHOLD``).  Configurations that take
the same members form a group that walks its blocks once: each
configuration keeps its own ``_Scan`` and scores every block, and a Hardy
average several of them read is computed once per block and dropped with
it.  Each member's outcome is read in corpus order, so the first witness
and the violation counts are those of a member-by-member scan.  A kernel
raises for its whole block when one member's average or norm leaves the
float range; so does the grid builder when one member's window leaves
it, and lemma10's lower check when ``2t`` overflows at one member's grid
point.  No block step keeps track of which member failed: one rule
re-runs a scan that raises.  Every configuration runs again, one after
another, with one member per block, so the error that surfaces is that
of the first failing configuration at its first failing member in corpus
order.  Verdict semantics are fixed per check:

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
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .hardy import (
    DEFAULT_GRID,
    GridSpec,
    _Block,
    _checked_exponents,
    _norm_block,
    _sorted_distinct,
    predicted_bounded,
)
from .interp import (
    FunctorParams,
    LorentzCouple,
    _check_functor,
    _functor_block,
    _holmstedt_sum,
    _k_l1_linf_block,
    functor_norm,
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
# Window points (``GridSpec._window``, a little under the grid points) per
# block of members evaluated together: large enough that per-call overhead
# vanishes, small enough that the block's temporaries stay around a megabyte.
_BLOCK_POINTS = 1 << 14
# glibc malloc hands a freed heap top above M_TRIM_THRESHOLD (128 KiB by
# default) back to the kernel, and each block's numpy temporaries, tens of
# kilobytes apiece, are then faulted in again for the next block.  A Hardy
# scan raises the trim threshold, and with it the mmap threshold: setting
# either freezes glibc's adaptive thresholds, and an mmap threshold frozen
# at 128 KiB would map and unmap a large block's temporaries on every
# allocation.  Up to _HEAP_TRIM_THRESHOLD of freed heap stays mapped.
_HEAP_TRIM_THRESHOLD = 64 << 20
_HEAP_MMAP_THRESHOLD = 32 << 20


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
        bps = _sorted_distinct(bps)
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
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
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

    ``fs`` is ``f*``; :meth:`norm` computes ``||f||_E`` per
    :class:`LorentzParams` on first use and keeps it.  Grids and envelopes
    are not kept here: they live on the block of members they were made for
    and are dropped with it.
    """

    __slots__ = ("f", "fs", "_norms")

    def __init__(self, f: StepFunction):
        self.f = f
        self.fs = f.rearrange()
        self._norms: dict[LorentzParams, float] = {}

    def norm(self, params: LorentzParams) -> float:
        n = self._norms.get(params)
        if n is None:
            n = self._norms[params] = lorentz_norm(self.fs, params)
        return n

    def takes_part(self, space: SpaceDescriptor | None) -> bool:
        """Whether a check on ``space`` takes this member: any member when
        ``space`` is None, else one with finite nonzero norm in E."""
        return space is None or 0.0 < self.norm(space.params) < INF


def _records(corpus: Iterable[StepFunction]) -> tuple[_Member, ...]:
    """One :class:`_Member` per function of ``corpus``, in order; the corpus
    is read once, so a one-shot iterator works."""
    records = tuple(map(_Member, corpus))
    if not records:
        raise ValueError("corpus must be nonempty")
    return records


class _Scan:
    """Bookkeeping of one configuration's scan over one corpus.

    ``empty_ratio`` is reported as both ratio endpoints when no finite ratio
    was observed.  ``used`` counts the members the configuration took;
    ``diverged`` and ``min_ratio_lo`` are thm11's count of infinite
    enclosures and least lower ratio end.
    """

    def __init__(self, empty_ratio: float = 1.0):
        self.empty_ratio = empty_ratio
        self.used = 0
        self.min_ratio = INF
        self.max_ratio = -INF
        self.max_width = 0.0
        self.violations = 0
        self.witness = ""
        self.diverged = 0
        self.min_ratio_lo = INF

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


class _Check(NamedTuple):
    """One configuration of lemma10, thm11 or thm15.

    It takes the members for which ``_Member.takes_part(space)`` holds, on
    grids of ``grid_spec``.  ``score(scan, records, blk)`` adds a block of
    them (``records``, laid out in ``blk``) to ``scan``, a new
    :class:`_Scan` with ``empty_ratio``; ``report(scan)`` then gives the
    configuration's report.
    """

    grid_spec: GridSpec
    space: SpaceDescriptor | None
    empty_ratio: float
    score: Callable[[_Scan, list[_Member], _Block], None]
    report: Callable[[_Scan], RatioReport]


def _blocks(records: Sequence[_Member], grid_spec: GridSpec, space: SpaceDescriptor | None, block_points: int):
    """Yield ``(members, block)`` for the members of ``records`` that take
    part on ``space``, consecutive in corpus order.

    A block is yielded as soon as its members' windows hold
    ``block_points`` log-spaced points or more (``GridSpec._window``),
    before the next member is prepared; making the block builds their grids.
    With ``block_points`` 1, as in the re-run of :func:`_reports`, a block
    is one member, so a member whose window leaves the float range or whose
    norm in E cannot be computed raises at its turn.  A grid lives as long
    as its block.
    """
    taken: list[_Member] = []
    points = 0
    for m in records:
        if not m.takes_part(space):
            continue
        taken.append(m)
        points += grid_spec._window(m.fs.breakpoints)[2]
        if points >= block_points:
            yield taken, _Block([m.fs for m in taken], grid_spec)
            taken, points = [], 0
    if taken:
        yield taken, _Block([m.fs for m in taken], grid_spec)


def _glibc_mallopt():
    """glibc's ``mallopt`` through ``ctypes``, or None on another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (ValueError, OSError):  # no such name, or not known to this C library
        return None
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_heap() -> None:
    """Set glibc's trim and mmap thresholds for the whole process (see
    ``_HEAP_TRIM_THRESHOLD``); do nothing on another C library."""
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(-1, _HEAP_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
        mallopt(-3, _HEAP_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


def _walk(records: tuple[_Member, ...], checks: Sequence[_Check], block_points: int) -> list[RatioReport]:
    """The reports of ``checks``, which take the same members on the same
    grids, from one walk over blocks of those members.

    Every check scores a block before the next is made, so the block, with
    the grids and envelopes of its members, is the only one alive.
    """
    _keep_freed_heap()
    grid_spec, space = checks[0].grid_spec, checks[0].space
    scans = [_Scan(check.empty_ratio) for check in checks]
    used = 0
    for members, blk in _blocks(records, grid_spec, space, block_points):
        used += len(members)
        for check, scan in zip(checks, scans):
            check.score(scan, members, blk)
    if space is not None and used == 0:
        raise ValueError("corpus has no member with finite nonzero norm in E")
    for scan in scans:
        scan.used = used
    return [check.report(scan) for check, scan in zip(checks, scans)]


def _reports(records: tuple[_Member, ...], checks: Sequence[_Check]) -> list[RatioReport]:
    """The reports of ``checks`` on the corpus of ``records``, in order.

    Checks that take the same members on the same grids form a group, and
    each group walks its blocks of ``_BLOCK_POINTS`` window points once
    (:func:`_walk`).  A member that raises makes its whole block raise, and
    may raise before an earlier member's block is scored.  So if a walk
    raises, every check runs again, one after another, with one member per
    block: reports at one member per block are those of the block walk, and
    the error that surfaces is that of the first check that raises, at its
    first failing member in corpus order.
    """
    try:
        groups: dict[tuple, list[int]] = {}
        for i, check in enumerate(checks):
            taken = tuple(m.takes_part(check.space) for m in records)
            groups.setdefault((check.grid_spec, taken), []).append(i)
        reports: list[RatioReport] = [None] * len(checks)
        for members in groups.values():
            for i, report in zip(members, _walk(records, [checks[i] for i in members], _BLOCK_POINTS)):
                reports[i] = report
        return reports
    except (ValueError, ArithmeticError):
        return [_walk(records, [check], 1)[0] for check in checks]


def _averaging_kind(u: float | None, v: float | None) -> tuple[str, float]:
    """``("upper", u)`` or ``("lower", v)``; exactly one of the two may be given."""
    if (u is None) == (v is None):
        raise ValueError("exactly one of u (upper kind) or v (lower kind) is required")
    return ("upper", u) if u is not None else ("lower", v)


def _violations(blk: _Block, lhs: np.ndarray, low: np.ndarray, slack: float):
    """Per member of ``blk``: the number of grid points where ``lhs`` falls
    below ``low`` beyond the relative slack, and the first such point."""
    bad = np.flatnonzero(lhs < low * (1.0 - slack))
    at = bad.searchsorted(blk.goff)  # each member's first bad point, in bad
    counts = np.diff(at).tolist()
    first = [float(blk.grid[bad[j]]) if c else None for j, c in zip(at.tolist(), counts)]
    return counts, first


def _pointwise_check(
    *,
    u: float | None = None,
    v: float | None = None,
    w: float,
    grid_spec: GridSpec = DEFAULT_GRID,
    slack: float = POINTWISE_SLACK,
) -> _Check:
    """The configuration of :func:`verify_hardy_pointwise`."""
    kind, order = _averaging_kind(u, v)
    a, b = _checked_exponents(order, w)

    def score(scan: _Scan, records: list[_Member], blk: _Block) -> None:
        if kind == "upper":
            env_w = blk.envelope("upper", a, b)
            env_inf = blk.envelope("upper", a, INF)
            checks = [(env_w.values, env_inf.values), (env_inf.values, blk.f_star[blk.K])]
        else:
            with np.errstate(over="ignore"):
                doubled = 2.0 * blk.grid
            checks = [(blk.envelope("lower", a, b).values, blk.f_star[blk.piece_index(doubled)])]
            if doubled.max() == INF:
                t = float(blk.grid[np.argmax(doubled == INF)])
                raise ValueError(f"f*(2t) is undefined at grid point t = {t!r}: 2t leaves the float range")
        found = [_violations(blk, lhs, low, slack) for lhs, low in checks]
        for i, m in enumerate(records):
            for counts, first in found:
                if counts[i]:
                    scan.violation(counts[i], function=m.f.to_dict(), t=first[i])
        for lhs, low in checks:
            mask = low > 0.0
            if mask.any():
                ratios = lhs[mask] / low[mask]
                scan.observe(float(ratios.min()), float(ratios.max()))

    def report(scan: _Scan) -> RatioReport:
        label = "u" if kind == "upper" else "v"
        return scan.report("lemma10", f"{label}={order},w={w}", size=scan.used)

    return _Check(grid_spec, None, 1.0, score, report)


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
    check = _pointwise_check(u=u, v=v, w=w, grid_spec=grid_spec, slack=slack)
    return _reports(_records(corpus), [check])[0]


def _equivalence_check(
    space: SpaceDescriptor,
    *,
    u: float | None = None,
    v: float | None = None,
    w: float,
    ratio_bound: float = DEFAULT_RATIO_BOUND,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> _Check:
    """The configuration of :func:`verify_hardy_equivalence`."""
    kind, order = _averaging_kind(u, v)
    expected = predicted_bounded(space, kind, order, w)
    boundary = kind == "upper" and w < INF and order == space.boyd_lower
    a, b = _checked_exponents(order, w)

    def score(scan: _Scan, records: list[_Member], blk: _Block) -> None:
        for m, enc in zip(records, _norm_block(blk.envelope(kind, a, b), space.params)):
            n = m.norm(space.params)
            if enc.hi == INF:
                scan.diverged += 1
                if not boundary and expected:
                    scan.violation(function=m.f.to_dict(), norm=n)
                continue
            scan.observe(enc.hi / n, enc.hi / n, enc.relative_width)
            scan.min_ratio_lo = min(scan.min_ratio_lo, enc.lo / n)

    def report(scan: _Scan) -> RatioReport:
        min_r, max_r = scan.ratio_range()
        if boundary:
            passed = scan.diverged == scan.used
        else:
            floor_ok = min_r >= 1.0 - EQUIV_FLOOR_SLACK
            passed = (
                expected
                and scan.violations == 0
                and scan.diverged == 0
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
                "diverged": scan.diverged,
                "min_ratio_lo": scan.min_ratio_lo,
                "expected_bounded": expected,
            },
        )

    return _Check(grid_spec, space, INF, score, report)


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
    check = _equivalence_check(space, u=u, v=v, w=w, ratio_bound=ratio_bound, grid_spec=grid_spec)
    return _reports(_records(corpus), [check])[0]


_CALIBRATION_TARGET = math.sqrt(2.0)
_CALIBRATION_WIDTH = 1e-3


@functools.cache
def _calibration(fp: FunctorParams, couple: LorentzCouple, span: float):
    """The functor norm enclosure of the unit indicator on a fine grid.

    A pure function of its arguments, so one process evaluates it once
    per configuration, however many scans calibrate.
    """
    chi = StepFunction.indicator(0.0, 1.0)
    return functor_norm(chi, fp, couple, GridSpec(points_per_decade=256, span=span))


def _interpolation_check(
    space: SpaceDescriptor,
    couple: LorentzCouple,
    theta: float,
    *,
    ratio_bound: float = DEFAULT_RATIO_BOUND,
    grid_spec: GridSpec = DEFAULT_GRID,
    calibrate: bool = False,
) -> _Check:
    """The configuration of :func:`verify_interpolation_identity`."""
    fp = FunctorParams(theta=theta, r=couple.params0.p, space=space)
    _check_functor(fp, couple)

    def score(scan: _Scan, records: list[_Member], blk: _Block) -> None:
        for m, enc in zip(records, _functor_block(blk, fp, couple)):
            if enc.hi == INF or enc.lo <= 0.0:
                scan.violation(function=m.f.to_dict(), enclosure=str(enc))
                continue
            n = m.norm(space.params)
            scan.observe(enc.lo / n, enc.hi / n, enc.relative_width)

    def report(scan: _Scan) -> RatioReport:
        min_r, max_r = scan.ratio_range()
        spread = max_r / min_r if 0.0 < min_r < INF else INF
        passed = scan.violations == 0 and spread <= ratio_bound
        extras = {"spread": spread}
        if calibrate:
            enc = _calibration(fp, couple, grid_spec.span)
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

    return _Check(grid_spec, space, INF, score, report)


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
    check = _interpolation_check(
        space, couple, theta, ratio_bound=ratio_bound, grid_spec=grid_spec, calibrate=calibrate
    )
    return _reports(_records(corpus), [check])[0]


_L1_LINF = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))


# Pairs per block of the K battery: its arrays stay well under a megabyte.
_PAIR_BLOCK = 1024


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
    Holmstedt-to-exact ratio staying inside [1, 2].

    The pairs are taken in blocks of at most ``_PAIR_BLOCK``.  The values
    that can raise (the oracle, f's norms and ``(f + g)*``) are computed
    pair by pair, in pair order, before the block's one kernel call, so the
    error that surfaces is that of the first failing pair, as in a
    pair-by-pair scan.  That call gives every K value of the block (piece
    widths times values, exact on dyadic inputs): the K rows of its members
    (at 1, on the 33-point grid, which holds each pair's ``t``, and at its
    midpoints) and ``K(t, f + g)`` of its pairs.  Each check then gives one
    mask over the block's pairs, and the violations are read out per pair in
    check order, so their count and the first witness are those of a
    pair-by-pair scan.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    return _k_properties(_records(corpus), n_pairs=n_pairs, oracle_tol=oracle_tol, slack=slack)


def _k_properties(
    records: tuple[_Member, ...],
    *,
    n_pairs: int = 200,
    oracle_tol: float = 1e-9,
    slack: float = POINTWISE_SLACK,
) -> RatioReport:
    """The K battery of :func:`verify_k_properties` on the corpus of ``records``.

    Pair ``i`` takes f the ``i``-th member and g the next at ``ts[i %
    len(ts)]``; in a block, pair ``j``'s f is K row ``j`` and its g row
    ``j + 1``.
    """
    scan = _Scan()
    n = len(records)
    t_grid = np.geomspace(2.0**-8, 2.0**8, 33)
    ts = t_grid.tolist()
    mids = [float(0.5 * (t_grid[j] + t_grid[j + 1])) for j in range(t_grid.size - 1)]
    table_ts = [1.0, *ts, *mids]
    mins = np.minimum(1.0, t_grid)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        block = range(start, min(start + _PAIR_BLOCK, n_pairs))
        t, oracle, cap, sum_stars = [], [], [], []
        for i in block:  # what can raise, in pair order
            m = records[i % n]
            t.append(ts[i % len(ts)])
            oracle.append(k_upper_oracle(m.fs, t[-1], _L1_LINF))
            cap.append(max(m.norm(_L1_LINF.params0), m.norm(_L1_LINF.params1)))
            sum_stars.append((m.f + records[(i + 1) % n].f).rearrange())
        members = [records[i % n] for i in range(block.start, block.stop + 1)]
        ks = _k_l1_linf_block(
            [m.fs for m in members] + sum_stars, [table_ts] * len(members) + [[x] for x in t]
        )
        table = ks[: len(members) * len(table_ts)].reshape(len(members), len(table_ts))
        k_sum = ks[table.size :]
        j = np.arange(len(block))
        col = 1 + (j + block.start) % len(ts)  # t's column: table_ts is [1.0, *ts, *mids]
        k, k_g = table[j, col], table[j + 1, col]
        exact = k.tolist()
        ratio = []
        for m, x, kf in zip(members, t, exact):
            ratio.append(_holmstedt_sum(m.fs, x, _L1_LINF, 1.0, kf) / kf if kf > 0.0 else None)
            if ratio[-1] is not None:
                scan.observe(ratio[-1], ratio[-1])
        k1, kt, mid = table[:-1, :1], table[:-1, 1 : 1 + len(ts)], table[:-1, 1 + len(ts) :]
        over_t = kt / t_grid
        with np.errstate(invalid="ignore"):  # inf - inf compares as no violation
            checks = (
                ("oracle", np.abs(k - oracle) > oracle_tol * np.maximum(1.0, k), ("t", "exact", "oracle")),
                ("monotone", (np.diff(kt) < -slack * kt[:, :-1]).any(axis=1), ()),
                ("k_over_t", (np.diff(over_t) > slack * over_t[:, :-1]).any(axis=1), ()),
                ("concavity", (mid < 0.5 * (kt[:, :-1] + kt[:, 1:]) * (1.0 - slack)).any(axis=1), ()),
                ("sandwich_lower", (kt < mins * k1 * (1.0 - slack)).any(axis=1), ()),
                ("sandwich_upper", (kt > mins * np.array(cap)[:, None] * (1.0 + slack)).any(axis=1), ()),
                ("subadditivity", k_sum > k + k_g + slack * np.maximum(1.0, k_sum), ("t",)),
                (
                    "holmstedt_ratio",
                    [r is not None and not (1.0 - slack) <= r <= 2.0 * (1.0 + slack) for r in ratio],
                    ("t", "ratio"),
                ),
            )
        fields = {"t": t, "exact": exact, "oracle": oracle, "ratio": ratio}
        for p, m in enumerate(members[:-1]):
            for check, bad, names in checks:
                if bad[p]:
                    scan.violation(check=check, function=m.f.to_dict(), **{x: fields[x][p] for x in names})
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
    records = _records(generate_corpus(seed, size))
    checks: list[_Check] = []
    if check in ("lemma10", "all"):
        checks += [_pointwise_check(grid_spec=grid_spec, **cfg) for cfg in _POINTWISE_CONFIGS]
    if check in ("thm11", "all"):
        space = _L22()
        checks += [_equivalence_check(space, grid_spec=grid_spec, **cfg) for cfg in _EQUIVALENCE_CONFIGS]
    if check in ("thm15", "all"):
        checks += [
            _interpolation_check(space, couple, theta, grid_spec=grid_spec, calibrate=calibrate)
            for space, couple, theta, calibrate in _interpolation_configs()
        ]
    reports = _reports(records, checks)
    if check in ("kprops", "all"):
        reports.append(_k_properties(records))
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
