"""Hardy-type averaging operators with exact evaluation and certified enclosures.

For a step function ``f`` with rearrangement ``f*`` the two operator
families are

    upper:  (H^(u,w) f)(t) = t**(-1/u) * ( integral_0^t [v**(1/u) f*(v)]**w dv/v )**(1/w)
    lower:  (H_(v,w) f)(t) = t**(-1/v) * ( integral_t^inf [v**(1/v) f*(v)]**w dv/v )**(1/w)

with sup forms when ``w = inf``.  The classical averages appear as aliases:
``P_a = upper(1/a, 1)``, ``Q_a = lower(1/a, 1)``, ``f** = upper(1, 1)`` and
the u-th power average ``f**_(u) = upper(u, u)``.

Both outputs are non-increasing.  For the upper family substitute ``v = t s``:

    (H^(u,w) f)(t) = ( integral_0^1 [s**(1/u) f*(t s)]**w ds/s )**(1/w)

and ``t -> f*(t s)`` is non-increasing pointwise in ``s``; the lower family
is ``t**(-1/v)`` times a non-increasing integral, a product of two
non-increasing factors.  Monotonicity is what makes certified two-sided
bracketing possible from exact evaluations on a grid, with no smoothness
assumptions.

The operators return a :class:`MonotoneEnvelope`: exact values on a log
grid, analytic power-law descriptors (:class:`PowerLaw`) outside the grid
window, and an extra "dual" bracket coming from the fact that
``t**(1/u) * H(t)`` (resp. ``t**(1/v) * H(t)``) is monotone as well.  On any
grid interval the function is then squeezed between a constant and a pure
power law, both of which integrate in closed form against Lorentz weights,
so the enclosures of :func:`envelope_norm` are exact wherever the output is
locally a constant or a pure power and second-order tight elsewhere.

An envelope holds a block of functions, each on its own grid: the
verification scans pass whole stretches of a corpus to the kernels, and
:func:`hardy_upper` and :func:`hardy_lower` return the block of one.  Every
value is bit for bit the one the function gets on its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Literal, Sequence

import numpy as np

from .enclosure import Enclosure
from .lorentz import LorentzParams, SpaceDescriptor, _check_exponent
from .stepfn import INF, StepFunction, _evaluation_points, _power_integral, _power_integral_array

__all__ = [
    "PowerLaw",
    "GridSpec",
    "MonotoneEnvelope",
    "hardy_upper",
    "hardy_lower",
    "envelope_norm",
    "predicted_bounded",
]


class PowerLaw:
    """``t -> coef * t**(-decay)`` for each function of a block.

    ``coef`` and ``decay`` are arrays with one entry per function, both
    ``>= 0``; scalars give the law of a block of one.
    """

    __slots__ = ("coef", "decay")

    def __init__(self, coef, decay):
        self.coef = np.array(coef, dtype=float, ndmin=1)
        self.decay = np.array(decay, dtype=float, ndmin=1)

    def __call__(self, t: float) -> float:
        """The law of a block of one at ``t`` in ``(0, inf)``; ``inf`` past
        the largest float."""
        _evaluation_points(t)
        (coef,), (decay,) = self.coef.tolist(), self.decay.tolist()
        if not coef:
            return 0.0
        try:
            return coef * t ** (-decay)
        except OverflowError:
            return INF


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` of a float array without NaN that the caller owns:
    ``x`` is sorted in place and equal neighbours are dropped.  (numpy's
    ``unique`` imports ``numpy.ma`` on its first call.)"""
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


# The most points one grid window may take: 2**24 points are 128 MiB of
# float64 per array, and the widest window of a function whose breakpoints
# span the float range takes about 4*10**4 points at 64 per decade.
_MAX_WINDOW_POINTS = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid: resolution and window half-width.

    The window spans ``[min breakpoint / span, max breakpoint * span]`` and
    the function's own breakpoints are inserted into the grid, so the exact
    head/tail descriptors apply outside the window and the bracketing inside
    never straddles a breakpoint.
    """

    points_per_decade: int = 64
    span: float = 2.0**20

    def __post_init__(self) -> None:
        # NaN fails both comparisons
        if not 2 <= self.points_per_decade < INF:
            raise ValueError(f"points per decade must be in [2, inf), got {self.points_per_decade!r}")
        if not 1.0 < self.span < INF:
            raise ValueError(f"span factor must be in (1, inf), got {self.span!r}")

    def build(self, anchors) -> np.ndarray:
        """The grid around ``anchors`` (around 1 when there are none).

        Raises ``ValueError`` when the window leaves the float range.
        """
        return self.build_many([np.asarray(sorted(anchors), dtype=float)])[0]

    def _window(self, anchors) -> tuple[float, float, int]:
        """``(lo, hi, n)``: the window around the sorted ``anchors`` (around
        1 when there are none) and the number of log-spaced points it takes.

        Raises ``ValueError`` when the window leaves the float range, or
        takes more than ``_MAX_WINDOW_POINTS`` points.
        """
        first, last = (float(anchors[0]), float(anchors[-1])) if len(anchors) else (1.0, 1.0)
        lo, hi = first / self.span, last * self.span
        if not (lo > 0.0 and hi < INF):
            raise ValueError(
                f"the grid window around anchors [{first!r}, {last!r}] "
                f"with span {self.span!r} leaves the float range"
            )
        ratio = hi / lo
        # a window wider than the float range: count its decades by logs
        decades = math.log10(ratio) if ratio < INF else math.log10(hi) - math.log10(lo)
        n = max(2, int(math.ceil(decades * self.points_per_decade)) + 1)
        if n > _MAX_WINDOW_POINTS:
            raise ValueError(
                f"the grid window [{lo!r}, {hi!r}] takes {n} points at {self.points_per_decade} "
                f"points per decade, past the limit of {_MAX_WINDOW_POINTS}"
            )
        return lo, hi, n

    def build_many(self, anchor_sets: Sequence) -> list[np.ndarray]:
        """The grid around each of ``anchor_sets`` (each sorted), as
        :meth:`build` makes it; raises ``ValueError`` at the first window
        that leaves the float range (:meth:`_window`).

        The log-spaced points of all windows come from one set of numpy
        calls that perform the float operations of ``np.geomspace(lo, hi,
        n)`` on each window: ``j * step + log10(lo)`` with the last exponent
        ``log10(hi)``, then ``10**y`` with both ends set to ``lo`` and
        ``hi``.  Each grid is then merged with its anchors.
        """
        anchor_sets = [a if len(a) else (1.0,) for a in anchor_sets]
        windows = [self._window(anchors) for anchors in anchor_sets]
        lo = np.array([w[0] for w in windows], dtype=float)
        hi = np.array([w[1] for w in windows], dtype=float)
        n = np.array([w[2] for w in windows], dtype=np.intp)
        off = _offsets(n)
        start, stop = np.log10(lo), np.log10(hi)
        # step is 0 only where start == stop, and geomspace's special case
        # for it then gives start at every point, as j * 0 + start does
        step = (stop - start) / (n - 1)
        y = np.arange(off[-1], dtype=float) - np.repeat(off[:-1], n)
        y *= np.repeat(step, n)
        y += np.repeat(start, n)
        y[off[1:] - 1] = stop
        points = np.power(10.0, y)
        points[off[:-1]] = lo
        points[off[1:] - 1] = hi
        spaced = np.split(points, off[1:-1])
        return [_sorted_distinct(np.concatenate([g, anchors])) for g, anchors in zip(spaced, anchor_sets)]


DEFAULT_GRID = GridSpec()


_OVERFLOW = "the Hardy average of f overflows the float range"
_NORM_OVERFLOW = "the envelope norm overflows the float range"


# -- blocks of members ---------------------------------------------------------
#
# The Hardy averages and their norms are evaluated for a block of functions
# at once: the functions' grids are concatenated, and their f* form one
# table whose entries are each piece and then the tail, which ends at inf.
# Every elementwise kernel runs once over the whole block, and only
# reductions (running sums, running extrema, interval sums) run per
# function, each on its function's exact-length slice, where a tail's term
# is 0.  Elementwise numpy results do not depend on an element's neighbours
# and those reductions add a lone function's terms in its order, so every
# value is the one that function would get on its own.  hardy_upper and
# hardy_lower are the same kernels on a block of one, and interp's
# K(t; L1, L_inf) is _upper_integral at (1, 1) on _Pieces, at one t row
# whose entries piece_index finds, as it finds the grids'.


def _offsets(sizes) -> np.ndarray:
    off = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=off[1:])
    return off


def _accumulate(ufunc: np.ufunc, x: np.ndarray, off, reverse: bool = False) -> np.ndarray:
    """``ufunc.accumulate`` over each segment ``x[off[i]:off[i+1]]`` on its
    own, from the right when ``reverse``."""
    out = np.empty_like(x)
    bounds = off.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if reverse:
            ufunc.accumulate(x[lo:hi][::-1], out=out[lo:hi][::-1])
        else:
            ufunc.accumulate(x[lo:hi], out=out[lo:hi])
    return out


class _Pieces:
    """The pieces of consecutive ``f*`` ``fss`` as one table: function ``i``
    owns entries ``eoff[i]:eoff[i+1]``, one per piece of its ``f*`` and a
    last one, ``tpos[i]``, for its tail.  ``ends`` holds each entry's right
    end (``inf`` for a tail) and ``f_star`` its value."""

    def __init__(self, fss: Sequence[StepFunction]):
        self.size = len(fss)
        self.eoff = _offsets([len(fs.breakpoints) + 1 for fs in fss])
        m = int(self.eoff[-1])
        self.ends = np.fromiter(chain.from_iterable(chain(fs.breakpoints, (INF,)) for fs in fss), float, m)
        self.f_star = np.fromiter(chain.from_iterable(chain(fs.values, (fs.tail,)) for fs in fss), float, m)
        self.tpos = self.eoff[1:] - 1

    def before(self, x: np.ndarray) -> np.ndarray:
        """``x`` at the entry before each entry; 0 at each function's first."""
        out = np.concatenate(([0.0], x[:-1]))
        out[self.eoff[:-1]] = 0.0
        return out

    def piece_index(self, t: np.ndarray, toff: np.ndarray) -> np.ndarray:
        """Entry of the piece holding each point of ``t``; function ``i`` owns
        the sorted points ``t[toff[i]:toff[i+1]]``, none NaN.  The entry is
        ``searchsorted(ends, t, "left")`` within the function.  It steps up at
        the first point above each entry's end, a tail's past the function's
        last point, so the block's steps come out in order."""
        offs, eoff, ends = toff.tolist(), self.eoff.tolist(), self.ends
        steps = np.zeros(eoff[-1] + 1, dtype=np.intp)  # 0, then the step at each entry's end
        np.concatenate(
            [t[t0:t1].searchsorted(ends[e0:e1], "right") for t0, t1, e0, e1 in zip(offs, offs[1:], eoff, eoff[1:])],
            out=steps[1:],
        )
        steps[1:] += np.repeat(toff[:-1], np.diff(self.eoff))
        return np.repeat(np.arange(eoff[-1]), steps[1:] - steps[:-1])


class _Block(_Pieces):
    """:class:`_Pieces` and their envelope grids, built first by one
    :meth:`GridSpec.build_many` call of ``grid_spec``, which raises
    ``ValueError`` when one window leaves the float range.  Function ``i``
    owns grid points ``goff[i]:goff[i+1]`` of ``grid``; ``K[j]`` is the
    entry of the piece holding grid point ``j``.  :meth:`envelope` keeps
    each Hardy average it computes for the life of the block."""

    def __init__(self, fss: Sequence[StepFunction], grid_spec: GridSpec):
        grids = grid_spec.build_many([fs.breakpoints for fs in fss])
        super().__init__(fss)
        self.goff = _offsets([g.size for g in grids])
        self.grid = np.concatenate(grids)
        self.K = self.piece_index(self.grid, self.goff)
        self._envelopes: dict[tuple, MonotoneEnvelope] = {}

    def envelope(self, kind: Literal["upper", "lower"], order: float, w: float) -> "MonotoneEnvelope":
        """:func:`_upper_block` or :func:`_lower_block` of the block from
        checked exponents, computed on first use and then kept."""
        key = (kind, order, w)
        env = self._envelopes.get(key)
        if env is None:
            kernel = _upper_block if kind == "upper" else _lower_block
            env = self._envelopes[key] = kernel(self, order, w)
        return env


@dataclass(frozen=True, eq=False)
class MonotoneEnvelope:
    """Non-increasing functions known exactly pointwise, with certified brackets.

    A block of functions, each on its own grid: function ``i`` has the exact
    values ``values[goff[i]:goff[i+1]]`` at the same points of ``grid`` and
    entry ``i`` of each law; ``head_*`` bound it up to its first grid point
    and ``tail_*`` beyond its last.  With ``bracket_decay = beta``,
    ``t**beta`` times each function not in ``flat`` (the constants) is
    monotone as well, which tightens per-interval bounds from constants to
    power laws; it is ``None`` when no function has that bracket.
    ``diverged`` marks identically infinite functions (a divergent defining
    integral).  The kernels that build a block raise ``ValueError`` when the
    average of one of its functions leaves the float range, so every
    function of a block is usable.

    :func:`hardy_upper` and :func:`hardy_lower` return a block of one, which
    evaluates at any point of ``(0, inf)``: ``env(t)`` calls its ``eval``,
    which checks the points itself and raises ``ValueError`` for NaN or a
    point outside.  Instances are immutable and ``eval`` is a pure closure,
    so envelopes are safe to share across threads.
    """

    grid: np.ndarray
    goff: np.ndarray
    values: np.ndarray
    head_lo: PowerLaw
    head_hi: PowerLaw
    tail_lo: PowerLaw
    tail_hi: PowerLaw
    bracket_decay: float | None
    flat: np.ndarray
    diverged: np.ndarray
    label: str
    eval: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t):
        scalar = np.isscalar(t)
        out = self.eval(t)
        return float(out[0]) if scalar else out

    def upper_on_grid(self) -> np.ndarray:
        """Step upper bound at the grid points of a block of one: each takes
        the value at the grid point before it, the first the head bound.

        On ``(0, grid[0]]`` the first value is a true bound only when the
        head is bounded (constant head descriptor); the analytic ``head_hi``
        is authoritative there.
        """
        v = self.values
        (coef,), (decay,) = self.head_hi.coef.tolist(), self.head_hi.decay.tolist()
        # max() guards one-ulp disagreement between the algebraic head
        # constant and the evaluated first grid value
        head = max(coef, float(v[0])) if decay == 0.0 else float(v[0])
        return np.concatenate(([head], v[:-1]))


def _settle(blk: _Block, values: np.ndarray, special: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Every function's values made non-increasing, each ``special`` one's
    set to its entry of ``consts``; any other with a non-finite value has
    overflowed, and raises ``ValueError``.

    Evaluation rounding can break monotonicity by an ulp on flat stretches;
    the running minimum restores it and stays within one ulp of exact.
    """
    if special.any():  # most blocks have none, and the masks cost a pass each
        sizes = np.diff(blk.goff)
        mask = np.repeat(special, sizes)
        values[mask] = np.repeat(consts, sizes)[mask]
    bad = ~np.isfinite(values)
    if bad.any() and (np.logical_or.reduceat(bad, blk.goff[:-1]) & ~special).any():
        raise ValueError(_OVERFLOW)
    return _accumulate(np.minimum, values, blk.goff)


def _single_eval(blk: _Block, evaluate, special: np.ndarray, consts: np.ndarray, mend):
    """``eval`` of a block of one at points of ``(0, inf)``, checked as a
    step function checks them: its constant if the function is ``special``,
    else ``evaluate(t, K)``.

    Off the grid the direct form can leave the float range: ``mend(t, out,
    before, past)`` then sets, in place, the values at the points before and
    past the grid that it cannot give.  numpy's warnings stay inside.
    """
    if blk.size != 1:
        return None
    const = float(consts[0]) if special[0] else None
    # the entries' ends, not the block: a block keeps its envelopes, and an
    # envelope that kept its block would be freed only by the cyclic GC
    ends, first, last = blk.ends, float(blk.grid[0]), float(blk.grid[-1])

    def eval_at(t):
        t = np.atleast_1d(_evaluation_points(t))
        if const is not None:
            return np.full(t.shape, const)
        with np.errstate(all="ignore"):
            out = evaluate(t, np.searchsorted(ends, t, side="left"))
            mend(t, out, t < first, t > last)
        return out

    return eval_at


def _power_tables(pcs: _Pieces, w: float, order: float):
    """Shared finite-``w`` tables of both families, with ``e = w / order``.

    Returns ``(e, edges, seg)``: ``edges`` holds ``ends**e`` of the entry
    before each entry (0 at each function's first) and ``seg`` is the inner
    integral ``f_star**w * (ends**e - edges) / e`` over each piece, 0 at the
    tails.
    """
    e = w / order
    with np.errstate(over="ignore", invalid="ignore"):  # a tail reads inf or 0 * inf
        power = pcs.ends**e
        edges = pcs.before(power)
        seg = pcs.f_star**w * (power - edges) / e
    seg[pcs.tpos] = 0.0
    return e, edges, seg


def _upper_integral(pcs: _Pieces, u: float, w: float):
    """``(cum, edges, inner)``: the upper inner integral ``integral_0^t
    [s**(1/u) f*(s)]**w ds/s`` (``w < inf``) at each entry's piece start,
    summed in piece order, ``edges`` of :func:`_power_tables`, and
    ``inner(t, K)`` at points ``t`` in entries ``K``; at ``u = w = 1`` it is
    ``K(t, f; L_1, L_inf)``.  An overflow gives ``inf``."""
    allv = pcs.f_star
    e, edges, seg = _power_tables(pcs, w, u)
    cum = pcs.before(_accumulate(np.add, seg, pcs.eoff))

    def inner(t, K):
        return cum[K] + allv[K] ** w * (t**e - edges[K]) / e

    return cum, edges, inner


def _upper_block(blk: _Block, u: float, w: float) -> MonotoneEnvelope:
    """:func:`hardy_upper` of every function of ``blk`` from checked exponents.

    Raises ``ValueError`` when the average of one of them leaves the float
    range.
    """
    k = blk.size
    tails = blk.f_star[blk.tpos]
    flat = np.diff(blk.eoff) == 1  # constants, zero included
    zero = flat & (tails == 0.0)
    factor = 1.0
    if w < INF and not zero.all():
        try:
            # the average of a constant c is c * factor
            factor = (u / w) ** (1.0 / w)
        except OverflowError:
            raise ValueError(_OVERFLOW) from None
    allv = blk.f_star
    firsts = blk.eoff[:-1]  # a constant's is its tail, which its head law does not read
    # an overflow in the tables or descriptors also overflows the values,
    # which _settle marks
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            cum, edges, inner = _upper_integral(blk, u, w)

            def evaluate(t, K):
                # pow() monotonicity can slip an ulp right at a breakpoint;
                # the clamp keeps the fractional power real
                return t ** (-1.0 / u) * np.maximum(inner(t, K), 0.0) ** (1.0 / w)

            head = allv[firsts] * factor
            # tail descriptors: power-law decay past a compact support, else
            # the average tends to the tail's own constant
            decay_coef = np.array([float(c ** (1.0 / w)) for c in cum[blk.tpos]])
            tail_const = tails * factor
        else:
            terms = allv * blk.ends ** (1.0 / u)
            terms[blk.tpos] = 0.0
            prev = blk.before(_accumulate(np.maximum, terms, blk.eoff))  # sup over the pieces left of each entry

            def evaluate(t, K):
                return np.maximum(prev[K] * t ** (-1.0 / u), allv[K])

            head = allv[firsts]
            decay_coef = prev[blk.tpos]
            tail_const = tails
        values = evaluate(blk.grid, blk.K)
    consts = np.where(zero, 0.0, tail_const)
    if (consts[flat] == INF).any():
        raise ValueError(_OVERFLOW)
    values = _settle(blk, values, flat, consts)

    decayed = tails == 0.0
    last = values[blk.goff[1:] - 1]
    tail_decay = np.where(decayed & ~flat, 1.0 / u, 0.0)
    tail_lo = PowerLaw(np.where(flat, consts, np.where(decayed, decay_coef, tail_const)), tail_decay)
    tail_hi = PowerLaw(np.where(flat, consts, np.where(decayed, decay_coef, last)), tail_decay)
    heads = PowerLaw(np.where(flat, consts, head), np.zeros(k))
    end = int(blk.tpos[0])  # the tail entry of a block of one

    def mend(t, out, before, past):
        # before the grid t lies in the first piece: the head constant
        out[before] = head[0]
        # past it, where t**e or a product overflows: the tail law of a
        # compact support, or the factored form of a positive tail
        bad = past & ~np.isfinite(out)
        if w < INF and bad.any():
            x = t[bad]
            if tails[0]:
                e = w / u
                s = x**-e
                out[bad] = (cum[end] * s + allv[end] ** w * (1.0 - edges[end] * s) / e) ** (1.0 / w)
            else:
                out[bad] = decay_coef[0] * x ** (-1.0 / u)

    return MonotoneEnvelope(
        grid=blk.grid,
        goff=blk.goff,
        values=values,
        head_lo=heads,
        head_hi=heads,
        tail_lo=tail_lo,
        tail_hi=tail_hi,
        bracket_decay=None if flat.all() else 1.0 / u,
        flat=flat,
        diverged=np.zeros(k, dtype=bool),
        label=f"H_upper(u={u},w={w})",
        eval=_single_eval(blk, evaluate, flat, consts, mend),
    )


def _lower_block(blk: _Block, v: float, w: float) -> MonotoneEnvelope:
    """:func:`hardy_lower` of every function of ``blk`` from checked exponents.

    A function with a positive tail diverges: its values read ``inf`` on its
    own grid.  Raises ``ValueError`` when the average of a function without
    a positive tail leaves the float range.
    """
    k = blk.size
    diverged = blk.f_star[blk.tpos] > 0.0
    flat = (np.diff(blk.eoff) == 1) & ~diverged  # the zero function
    special = flat | diverged
    regular = ~special
    consts = np.where(diverged, INF, 0.0)
    allv = blk.f_star  # a tail entry's part is masked to 0 below
    inside = blk.ends < INF  # entries of finite pieces, not tails
    firsts = blk.goff[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            e, edges, seg = _power_tables(blk, w, v)
            # suffix sums keep the integral-from-t positive-term only (no
            # cancellation near the right edge of the support)
            suf = _accumulate(np.add, seg, blk.eoff, reverse=True)

            def evaluate(t, K):
                within = inside[K]
                J = K + within  # the next entry, or the tail's own
                part = allv[K] ** w * (edges[J] - t**e) / e
                inner = np.where(within, part + suf[J], 0.0)
                return t ** (-1.0 / v) * np.maximum(inner, 0.0) ** (1.0 / w)

        else:
            terms = allv * blk.ends ** (1.0 / v)
            terms[blk.tpos] = 0.0
            suf_max = _accumulate(np.maximum, terms, blk.eoff, reverse=True)

            def evaluate(t, K):
                return suf_max[K] * t ** (-1.0 / v)

        values = _settle(blk, evaluate(blk.grid, blk.K), special, consts)
        if w < INF:
            head_hi = [float(s ** (1.0 / w)) for s in suf[blk.eoff[:-1]]]
            head_lo = [float(x * g ** (1.0 / v)) for x, g in zip(values[firsts], blk.grid[firsts])]
        else:
            head_hi = head_lo = suf_max[blk.eoff[:-1]]
    decay = np.where(regular, 1.0 / v, 0.0)
    zero = PowerLaw(np.zeros(k), np.zeros(k))
    return MonotoneEnvelope(
        grid=blk.grid,
        goff=blk.goff,
        values=values,
        head_lo=PowerLaw(np.where(regular, head_lo, 0.0), decay),
        head_hi=PowerLaw(np.where(regular, head_hi, 0.0), decay),
        tail_lo=zero,
        tail_hi=zero,
        bracket_decay=1.0 / v if regular.any() else None,
        flat=flat,
        diverged=diverged,
        label=f"H_lower(v={v},w={w})",
        eval=_single_eval(blk, evaluate, special, consts, _mend_lower),
    )


def _mend_lower(t, out, before, past) -> None:
    """Off the grid of a lower average, ``t**(-1/v)`` can overflow where the
    inner integral (or sup) reads 0, which its head law reads as 0 too."""
    out[np.isnan(out)] = 0.0


def _checked_exponents(order, w) -> tuple[float, float]:
    """``(order, w)`` of a Hardy average, checked and as floats."""
    return (
        _check_exponent(order, "averaging exponent", finite=True),
        _check_exponent(w, "inner exponent w"),
    )


def hardy_upper(
    f: StepFunction, u: float, w: float, grid_spec: GridSpec = DEFAULT_GRID
) -> MonotoneEnvelope:
    """Averaging operator over ``(0, t)``; ``upper(1,1)`` is the classical ``f**``.

    Returns the block of one; raises ``ValueError`` when the average leaves
    the float range.
    """
    u, w = _checked_exponents(u, w)
    return _upper_block(_Block([f.rearrange()], grid_spec), u, w)


def hardy_lower(
    f: StepFunction, v: float, w: float, grid_spec: GridSpec = DEFAULT_GRID
) -> MonotoneEnvelope:
    """Averaging operator over ``(t, inf)``.

    Returns the block of one.  A positive tail value of ``f*`` makes the
    defining integral (or sup) diverge for every ``t``; the envelope is then
    ``+inf`` on its grid and everywhere else, with ``diverged`` set.
    Otherwise an average that leaves the float range raises ``ValueError``.
    """
    v, w = _checked_exponents(v, w)
    return _lower_block(_Block([f.rearrange()], grid_spec), v, w)


def _combine_laws(a, b, boundary: float, side: Literal["head", "tail"], hi: bool) -> tuple:
    """Single power law ``(coef, decay)`` bounding ``a + b`` on the head or
    tail region, from two ``(coef, decay)`` pairs.

    Upper bounds shift every term to the extreme decay and pay the factor at
    the boundary; lower bounds keep only the dominating term.
    """
    laws = [l for l in (a, b) if l[0] > 0.0]
    if not laws:
        return 0.0, 0.0
    decay = max(l[1] for l in laws) if side == "head" else min(l[1] for l in laws)
    if hi:
        return sum(c * boundary ** (decay - d) for c, d in laws), decay
    return sum(c for c, d in laws if d == decay), decay


def _add_block(e1: MonotoneEnvelope, e2: MonotoneEnvelope) -> MonotoneEnvelope:
    """Pointwise sums of two envelope blocks on the same grids (sums of
    non-increasing functions are non-increasing)."""
    diverged = e1.diverged | e2.diverged
    g0 = e1.grid[e1.goff[:-1]].tolist()
    gm = e1.grid[e1.goff[1:] - 1].tolist()
    laws = []
    for l1, l2, side, hi in (
        (e1.head_lo, e2.head_lo, "head", False),
        (e1.head_hi, e2.head_hi, "head", True),
        (e1.tail_lo, e2.tail_lo, "tail", False),
        (e1.tail_hi, e2.tail_hi, "tail", True),
    ):
        bounds = g0 if side == "head" else gm
        a = zip(l1.coef.tolist(), l1.decay.tolist())
        b = zip(l2.coef.tolist(), l2.decay.tolist())
        pairs = [
            (0.0, 0.0) if d else _combine_laws(x, y, bound, side, hi)
            for x, y, bound, d in zip(a, b, bounds, diverged.tolist())
        ]
        laws.append(PowerLaw(*zip(*pairs)))
    return MonotoneEnvelope(
        grid=e1.grid,
        goff=e1.goff,
        values=e1.values + e2.values,
        head_lo=laws[0],
        head_hi=laws[1],
        tail_lo=laws[2],
        tail_hi=laws[3],
        bracket_decay=None,
        flat=np.zeros(diverged.size, dtype=bool),
        diverged=diverged,
        label=f"{e1.label}+{e2.label}",
    )


def _scale_block(env: MonotoneEnvelope, d: float) -> MonotoneEnvelope:
    """Every function of ``env`` times ``t**(-d)``, ``d > 0``.

    The product of two non-increasing positive factors stays non-increasing,
    and ``t**(beta + d) * (t**-d H(t)) = t**beta H(t)``, so the dual bracket
    survives with shifted decay.
    """

    def shift(laws: PowerLaw) -> PowerLaw:
        live = laws.coef != 0.0
        return PowerLaw(np.where(live, laws.coef, 0.0), np.where(live, laws.decay + d, 0.0))

    return dataclasses.replace(
        env,
        values=env.values * env.grid ** (-d),
        head_lo=shift(env.head_lo),
        head_hi=shift(env.head_hi),
        tail_lo=shift(env.tail_lo),
        tail_hi=shift(env.tail_hi),
        bracket_decay=None if env.bracket_decay is None else env.bracket_decay + d,
        label=f"t^-{d}*{env.label}",
        eval=None,  # the evaluator of the unscaled function does not carry over
    )


def _law_norm_term(coef: float, decay: float, gamma: float, q: float, lo: float, hi: float) -> float:
    """``integral_lo^hi t**(gamma-1) (coef * t**-decay)**q dt`` over a head
    ``(0, hi]`` or a tail ``(lo, inf)`` on which it converges."""
    return coef**q * _power_integral(gamma - q * decay, lo, hi) if coef else 0.0


def _law_sup_term(coef: float, decay: float, beta_p: float, end: float) -> float:
    """``sup of t**beta_p * coef * t**-decay`` over a head ``(0, end]`` or a
    tail ``[end, inf)`` on which it is bounded, so that it sits at ``end``."""
    return coef * end ** (beta_p - decay) if coef else 0.0


def _split_terms(const, power, a, b, beta: float, gamma: float, q: float, upper: bool) -> np.ndarray:
    """Per-interval integrals of ``max`` (``upper``) or ``min`` of the
    constant and the power-law bracket, split where the two cross; the
    minimum is constant-then-power, the maximum power-then-constant."""
    cross = (power / const) ** (1.0 / beta)
    cross = np.minimum(np.fmax(cross, a), b)  # NaN (0/0) gives a
    alpha_pow = gamma - q * beta
    if upper:
        t1 = const**q * _power_integral_array(gamma, a, cross)
        t2 = power**q * _power_integral_array(alpha_pow, cross, b)
    else:
        t1 = power**q * _power_integral_array(alpha_pow, a, cross)
        t2 = const**q * _power_integral_array(gamma, cross, b)
    return np.where(const + power > 0.0, t1 + t2, 0.0)


def _segment_max(x: np.ndarray, goff: np.ndarray) -> list:
    """Max of ``x`` (one entry per grid interval of the block) over each
    function's intervals; ``-inf`` for a function with none."""
    padded = np.empty(x.size + 1)
    padded[:-1] = x
    padded[goff[1:] - 1] = -INF  # the interval from one function's grid into the next
    return np.maximum.reduceat(padded, goff[:-1]).tolist()


def _norm_block(env: MonotoneEnvelope, params: LorentzParams) -> list[Enclosure]:
    """:func:`envelope_norm` of every function of ``env``, in order.

    Each side of an enclosure follows one rule.  Where its head or its tail
    law diverges, the side is ``inf``; a side on which every function
    diverges does no array work.  Otherwise its head, interval and
    tail terms are added (``q < inf``) or their maximum is taken, each
    function's in the order of one function at a time; a side that then
    reads ``inf`` or NaN has left the float range, and raises ``ValueError``.
    """
    p, q = params.p, params.q
    g, vals, beta = env.grid, env.values, env.bracket_decay
    a, b = g[:-1], g[1:]
    goff = env.goff.tolist()
    g0 = g[env.goff[:-1]].tolist()
    gm = g[env.goff[1:] - 1].tolist()
    # the intervals of the functions without a bracket, in a block that mixes both
    flat = np.repeat(env.flat, np.diff(env.goff))[:-1] if beta is not None and env.flat.any() else None
    sides = []
    with np.errstate(all="ignore"):
        if beta is not None:
            phi = g**beta * vals
        if q < INF:
            gamma = 0.0 if p == INF else q / p
            if beta is None or flat is not None:
                weights = _power_integral_array(gamma, a, b)
        else:
            beta_p = 0.0 if p == INF else 1.0 / p
            sup_b = b**beta_p
            if beta is not None:
                sup_pow_exp = beta_p - beta
                pow_sup = np.where(sup_pow_exp >= 0.0, b**sup_pow_exp, a**sup_pow_exp)
        try:
            for head, tail, const, upper in (
                (env.head_hi, env.tail_hi, vals[:-1], True),
                (env.head_lo, env.tail_lo, vals[1:], False),
            ):
                if q < INF:
                    diverges = env.diverged | (head.coef != 0.0) & (gamma - q * head.decay <= 0.0)
                    diverges |= (tail.coef != 0.0) & (gamma - q * tail.decay >= 0.0)
                else:
                    # t**beta_p times the head or the tail law is unbounded
                    diverges = env.diverged | (head.coef != 0.0) & (head.decay > beta_p)
                    diverges |= (tail.coef != 0.0) & (tail.decay < beta_p)
                if diverges.all():
                    sides.append([INF] * len(diverges))
                    continue
                if beta is not None:
                    power = (np.maximum if upper else np.minimum)(phi[:-1], phi[1:])
                if q < INF:
                    if beta is None:
                        mid = const**q * weights
                    else:
                        mid = _split_terms(const, power, a, b, beta, gamma, q, upper)
                        if flat is not None:
                            mid = np.where(flat, const**q * weights, mid)
                else:
                    mid = const * sup_b
                    if beta is not None:
                        clipped = (np.minimum if upper else np.maximum)(mid, power * pow_sup)
                        mid = clipped if flat is None else np.where(flat, mid, clipped)
                    tops = _segment_max(mid, env.goff)
                h_c, h_d, t_c, t_d = head.coef.tolist(), head.decay.tolist(), tail.coef.tolist(), tail.decay.tolist()
                norms = []
                for i, d in enumerate(diverges.tolist()):
                    if d:
                        norms.append(INF)
                        continue
                    if q < INF:
                        n = _law_norm_term(h_c[i], h_d[i], gamma, q, 0.0, g0[i])
                        n += float(mid[goff[i] : goff[i + 1] - 1].sum())
                        n += _law_norm_term(t_c[i], t_d[i], gamma, q, gm[i], INF)
                    else:  # the interval maximum first, so that a NaN one wins and raises
                        n = max(
                            tops[i],
                            _law_sup_term(h_c[i], h_d[i], beta_p, g0[i]),
                            _law_sup_term(t_c[i], t_d[i], beta_p, gm[i]),
                        )
                    if not n < INF:
                        raise ValueError(_NORM_OVERFLOW)
                    norms.append(n ** (1.0 / q) if q < INF else n)
                sides.append(norms)
        except ArithmeticError as err:  # a law term such as coef**q
            raise ValueError(_NORM_OVERFLOW) from err
    return [Enclosure(min(hi, lo), hi) for hi, lo in zip(*sides)]


def envelope_norm(env: MonotoneEnvelope, params: LorentzParams) -> Enclosure:
    """Certified enclosure of the Lorentz quasi-norm of the enveloped function
    (of a block of one).

    The function is non-increasing, hence equal to its own rearrangement, so
    the norm is a single weighted integral (or weighted sup).  Head and tail
    use the analytic power-law descriptors; every grid interval is squeezed
    between ``min(constant, power law)`` and ``max(constant, power law)``
    from the two monotonicity facts, and each bound integrates exactly after
    splitting at the crossover point.
    """
    return _norm_block(env, params)[0]


def predicted_bounded(
    space: SpaceDescriptor, kind: Literal["upper", "lower"], order: float, w: float
) -> bool:
    """Boundedness of a Hardy operator on E predicted from the Boyd indices.

    For ``w < inf`` the prediction is exact in both directions: the upper
    operator is bounded iff ``p_E > u`` and the lower one iff ``q_E < v``.
    For ``w = inf`` the same conditions are sufficient only (their converses
    fail), so a ``False`` here does not certify unboundedness.
    """
    order = _check_exponent(order, "averaging exponent", finite=True)
    if kind == "upper":
        return space.boyd_lower > order
    if kind == "lower":
        return space.boyd_upper < order
    raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")
