"""K-functionals for Lorentz couples and the E-parameterised interpolation functor.

Three representations of the Peetre K-functional

    K(t, f; X0, X1) = inf{ ||f0||_X0 + t ||f1||_X1 : f = f0 + f1 }

are implemented for couples of Lorentz spaces:

* :func:`k_exact_l1_linf` - the classical closed form
  ``K(t, f; L_1, L_inf) = integral_0^t f*`` (exact);
* :func:`k_upper_oracle` - an upper bound minimising over truncation
  decompositions ``f* = (f* - lam)_+ + min(f*, lam)``, which is exactly
  optimal for (L_1, L_inf) and serves as the independent oracle: O(pieces)
  from layer-cake prefix sums when each side has ``q = 1`` or
  ``p = q = inf``, O(levels x pieces) in bounded blocks otherwise;
* :func:`holmstedt_k` - Holmstedt's two-term integral expression, equivalent
  to K up to couple-dependent constants and exact to evaluate on step
  functions.

The functor norm ``rho_E(t**(-1/r) K(t**(1/theta), f))`` is computed through
the Holmstedt form: with ``r = p0`` the rescaled expression is precisely the
sum of an upper and a lower Hardy average of ``f``, so the hardy module's
certified envelopes give a guaranteed enclosure.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub
from typing import Sequence

import numpy as np

from .enclosure import Enclosure
from .hardy import (
    DEFAULT_GRID,
    GridSpec,
    _add_block,
    _Block,
    _lower_block,
    _norm_block,
    _result,
    _scale_block,
    _upper_block,
)
from .lorentz import (
    LorentzParams,
    SpaceDescriptor,
    _weighted_sup,
    is_nontrivial,
    lorentz_norm,
)
from .stepfn import (
    INF,
    StepFunction,
    _nonzero_pieces,
    _power_integral_array,
    _power_parts,
    weighted_power_integral,
)

__all__ = [
    "LorentzCouple",
    "FunctorParams",
    "k_exact_l1_linf",
    "k_upper_oracle",
    "holmstedt_k",
    "intersection_norm",
    "functor_admissible",
    "min_power_norm_finite",
    "functor_norm",
    "select_parameters",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class LorentzCouple:
    """Compatible couple (L_{p0,q0}, L_{p1,q1}); both spaces must be nontrivial."""

    params0: LorentzParams
    params1: LorentzParams

    def __post_init__(self) -> None:
        for prm in (self.params0, self.params1):
            if not is_nontrivial(prm):
                raise ValueError(f"{prm} is the trivial space {{0}}; not a valid couple member")

    def __str__(self) -> str:
        return f"({self.params0}, {self.params1})"


@dataclass(frozen=True)
class FunctorParams:
    """(theta, r, E) triple parameterising the functor norm."""

    theta: float
    r: float
    space: SpaceDescriptor

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < INF:
            raise ValueError(f"theta must be in (0, inf), got {self.theta}")
        if not 0.0 < self.r < INF:
            raise ValueError(f"r must be in (0, inf), got {self.r}")


def _check_t(t) -> float:
    """``float(t)`` if it lies in ``(0, inf)``; NaN and ``inf`` raise ``ValueError``."""
    t = float(t)
    if not 0.0 < t < INF:
        raise ValueError(f"t must be in (0, inf), got {t}")
    return t


def k_exact_l1_linf(f: StepFunction, t: float) -> float:
    """Exact ``K(t, f; L_1, L_inf) = integral_0^t f*(s) ds``."""
    return _k_l1_linf(f.rearrange(), [_check_t(t)])[0]


def _k_l1_linf(fs: StepFunction, ts: Sequence[float]) -> list[float]:
    """``K(t, f; L_1, L_inf)`` at each checked ``t`` of ``ts``, from ``fs = f*``.

    ``K(t)`` is the sum of ``v * power_integral(1.0, lo, b)`` over the pieces
    ending before ``t``, in piece order, plus the part of the piece holding
    ``t`` (the tail past the last breakpoint).  One :func:`_power_parts`
    chain yields every integral: first the whole pieces up to the one
    holding the largest ``t``, summed into a prefix table, then the partial
    piece ``(b_{k-1}, t]`` of each ``t`` past the first breakpoint.  A ``t``
    below it has the part ``power_integral(1.0, 0.0, t) = t**1.0 / 1.0``,
    which the chain takes only as its first piece, so it is computed apart
    with those float operations.  These are the float operations of
    ``weighted_power_integral(fs, 1.0, 1.0, 0.0, t)`` in its order, so each
    value is bit-identical to it; an infinite part makes the sum ``inf`` as
    its early return does.  Every value of ``f*`` before its tail is
    positive, so the table has one entry per piece and only a zero tail
    adds no part.
    """
    bps, vals, tail = fs.breakpoints, fs.values, fs.tail
    n = len(vals)
    ks = [bisect_left(bps, t) for t in ts]
    out = [0.0] * len(ks)
    top = max(ks, default=0)
    if top:
        whole, los, his = _nonzero_pieces(fs, 0.0, bps[top - 1])
        at = []
        for j, k in enumerate(ks):
            if k and (k < n or tail):
                at.append(j)
                los.append(bps[k - 1])
                his.append(ts[j])
        parts = _power_parts(1.0, los, his)
        prefix = list(accumulate(map(mul, whole, parts), initial=0.0))
        out = [prefix[k] for k in ks]
        for j, part in zip(at, parts):
            k = ks[j]
            out[j] += (vals[k] if k < n else tail) * part
    if 0 in ks:
        v = vals[0] if n else tail
        for j, k in enumerate(ks):
            if not k:
                out[j] += v * (ts[j] ** 1.0 / 1.0)
    return out


def _piecewise_linear(params: LorentzParams) -> bool:
    """Whether a truncation cost in ``params`` is piecewise linear in the level,
    with kinks only at values of ``f*``: ``q = 1`` (a fixed weighted sum) or
    ``p = q = inf`` (the largest entry)."""
    return params.q == 1.0 or params.p == params.q == INF


def _default_levels(fs: StepFunction, linear: bool, n_grid: int = 200) -> list[float]:
    """The default levels of :func:`k_upper_oracle` for ``fs = f*``, ascending.

    Every value of ``f*`` (tail included) plus 0; unless both sides of the
    couple are piecewise linear (``linear``), also ``n_grid`` log-spaced
    levels between the smallest and largest positive values.
    """
    levels = set(fs.values) | {fs.tail, 0.0}
    if not linear:
        positive = [v for v in levels if v > 0.0]
        if positive:
            levels.update(np.geomspace(min(positive), max(positive), n_grid).tolist())
    return sorted(levels)


# Levels x columns entries the matrix path of k_upper_oracle evaluates per
# block: its working arrays stay a few MB whatever the piece count.
_ORACLE_BLOCK = 1 << 18


def _check_levels(levels) -> list[float]:
    lams = np.fromiter(levels, dtype=float)
    if lams.size == 0:
        raise ValueError("level grid must be nonempty")
    bad = np.isnan(lams) | (lams < 0.0)
    if bad.any():
        lam = float(lams[bad.argmax()])
        raise ValueError(
            "level must not be NaN" if math.isnan(lam) else f"level must be >= 0, got {lam}"
        )
    return lams.tolist()


def _power_weights(bps: np.ndarray, alpha: float) -> np.ndarray:
    """``integral s**(alpha - 1) ds`` over each piece cut by ``bps``, the
    tail's ``inf`` last; a weight past the largest float is ``inf``."""
    w = np.full(bps.size + 1, INF)
    if bps.size:
        with np.errstate(over="ignore"):
            w[0] = bps[0] ** alpha / alpha
            w[1:-1] = _power_integral_array(alpha, bps[:-1], bps[1:])
    return w


class _RowNorm:
    """L_{p,q} norms of step functions given as rows over the pieces of ``f*``.

    A row holds one value per piece of ``f*`` and its tail value last; the
    per-column weights are computed once.  Finite ``q``: the norm is
    ``(sum_i r_i**q w_i)**(1/q)`` with ``w_i`` the integral of
    ``s**(q/p - 1)`` over piece ``i``.  ``q = inf``, finite ``p``: it is
    ``max_i r_i w_i`` with ``w_i = b_i**(1/p)`` at the piece's right end
    ``b_i`` (the rule of ``lorentz._weighted_sup``).  ``p = q = inf``: the
    largest entry.  A column of weight ``inf`` (the tail for finite ``p``, or
    a piece whose weight overflows) makes the norm ``inf`` wherever its entry
    is positive; it is kept apart so that ``0 * inf`` never arises.
    """

    def __init__(self, fs: StepFunction, params: LorentzParams):
        bps = np.asarray(fs.breakpoints, dtype=float)
        self.p, self.q = params.p, params.q
        if self.q < INF:
            w = _power_weights(bps, self.q / self.p)
        elif self.p < INF:
            with np.errstate(over="ignore"):
                w = np.append(bps ** (1.0 / self.p), INF)
        else:
            w = np.ones(bps.size + 1)
        vals = np.asarray(fs.values + (fs.tail,), dtype=float)
        finite = np.isfinite(w)
        self.vals, self.w, self.vals_inf = vals[finite], w[finite], vals[~finite]

    def __call__(self, row_of, lam: np.ndarray) -> np.ndarray:
        """Norms of the rows ``row_of(values, lam)``, one per entry of the column ``lam``.

        ``row_of`` returns a new array, which is then updated in place.
        """
        rows = row_of(self.vals, lam)
        with np.errstate(over="ignore"):
            if self.q < INF:
                if self.q != 1.0:
                    rows **= self.q
                cost = rows @ self.w
                if self.q != 1.0:
                    cost **= 1.0 / self.q
            else:
                if self.p < INF:
                    rows *= self.w
                cost = rows.max(axis=1, initial=0.0)
        if self.vals_inf.size:
            cost[(row_of(self.vals_inf, lam) > 0.0).any(axis=1)] = INF
        return cost


def _excess(vals: np.ndarray, lam: np.ndarray) -> np.ndarray:
    rows = vals - lam
    return np.maximum(rows, 0.0, out=rows)


def _matrix_oracle(fs: StepFunction, t: float, couple: LorentzCouple, lams: list[float]) -> float:
    """:func:`k_upper_oracle` of a couple that is not piecewise linear: the
    levels in blocks of levels x pieces matrices, scored by :class:`_RowNorm`."""
    lams = np.array(lams)
    norm0 = _RowNorm(fs, couple.params0)
    norm1 = _RowNorm(fs, couple.params1)
    step = max(1, _ORACLE_BLOCK // (len(fs.values) + 1))
    best = INF
    for i in range(0, lams.size, step):
        lam = lams[i : i + step, None]
        cost0 = norm0(_excess, lam)
        kept = cost0 < INF
        if kept.any():
            cost = cost0[kept] + t * norm1(np.minimum, lam[kept])
            best = min(best, float(cost.min()))
    return best


def _linear_weights(fs: StepFunction, params: LorentzParams) -> list[float] | None:
    """The weights ``w_i`` of a piecewise-linear L_{p,q} on the pieces of
    ``fs = f*``, the tail's ``inf`` last: for ``q = 1`` the norm of a
    nonincreasing row is ``sum_i r_i w_i`` with ``w_i`` the integral of
    ``s**(1/p - 1)`` over piece ``i``.  ``None`` for ``p = q = inf``."""
    if params.q == INF:
        return None
    bps, alpha = fs.breakpoints, 1.0 / params.p
    try:
        return [*_power_parts(alpha, [0.0, *bps][:-1], bps), INF]
    except OverflowError:  # as in _RowNorm, a weight past the float range is inf
        return _power_weights(np.asarray(bps, dtype=float), alpha).tolist()


# The two truncation costs of a piecewise-linear couple (each side q = 1 or
# p = q = inf) at a level lam, from prefix and suffix sums over the values
# v_0 > v_1 > ... of f* (its tail last) and their weights w_i.  A level
# comes with k, the number of values above it, and W_j is the weight of the
# first j + 1 pieces.  By the layer-cake sum
#
#     ||(f* - lam)_+|| = sum_{j<k-1} (v_j - v_{j+1}) W_j + (v_{k-1} - lam) W_{k-1},
#     ||min(f*, lam)|| = lam W_{k-1} + sum_{i>=k} v_i w_i,
#
# and for p = q = inf they are v_0 - lam and lam, capped at 0 and v_0.  Every
# term is nonnegative, so nothing cancels.  A weight of inf makes a cost inf
# where its entry is positive, and lam = 0 has truncation cost 0 without a
# product, so 0 * inf never arises.


def _excess_norm(vals: list[float], w: list[float] | None):
    """``(k, lam) -> ||(f* - lam)_+||``."""
    if w is None:
        top = vals[0]
        return lambda k, lam: max(top - lam, 0.0)
    cum = list(accumulate(w))
    at = list(accumulate(map(mul, map(sub, vals, vals[1:]), cum), initial=0.0))  # at the levels v_m
    return lambda k, lam: at[k - 1] + (vals[k - 1] - lam) * cum[k - 1] if k else 0.0


def _truncation_norm(vals: list[float], w: list[float] | None):
    """``(k, lam) -> ||min(f*, lam)||``."""
    if w is None:
        top = vals[0]
        return lambda k, lam: min(top, lam)
    cum = list(accumulate(w))
    terms = [*map(mul, vals[:-1], w[:-1]), INF if vals[-1] else 0.0]  # a zero tail adds 0
    rest = list(accumulate(reversed(terms), initial=0.0))[::-1]  # sum_{i>=k} v_i w_i

    def norm(k: int, lam: float) -> float:
        if not lam:
            return 0.0
        return lam * cum[k - 1] + rest[k] if k else rest[0]

    return norm


def _linear_oracle(fs: StepFunction, t: float, couple: LorentzCouple, lams: list[float]) -> float:
    """:func:`k_upper_oracle` of a piecewise-linear couple: O(pieces) to set
    up, then each level placed among the values of ``f*`` by bisection."""
    vals = [*fs.values, fs.tail]
    excess = _excess_norm(vals, _linear_weights(fs, couple.params0))
    truncation = _truncation_norm(vals, _linear_weights(fs, couple.params1))
    ascending = vals[::-1]
    n = len(vals)
    best = INF
    for lam in lams:
        k = n - bisect_right(ascending, lam)
        cost0 = excess(k, lam)
        if cost0 < INF:
            best = min(best, cost0 + t * truncation(k, lam))
    return best


def k_upper_oracle(
    f: StepFunction,
    t: float,
    couple: LorentzCouple,
    levels=None,
) -> float:
    """Upper bound on K from truncation decompositions of ``f*``.

    Splitting at height ``lam`` sends the part of ``f*`` above ``lam`` to X0
    and the rest to X1.  When each side has ``q = 1`` or ``p = q = inf``,
    both truncation costs are piecewise linear in ``lam`` with kinks only at
    values of ``f*`` (and nondecreasing past the largest), so the minimum
    over all truncations sits at one of them or at 0: the default grid is
    exactly those levels, and for (L_1, L_inf) its minimum is the
    K-functional itself.  Any other couple (a sup form with finite ``p``,
    whose cost is a maximum of lines with kinks where they cross, or a
    finite ``q != 1``) gets the values of ``f*``, 0 and a 200-point log grid
    between the smallest and largest positive values, and the result is a
    valid upper bound, the minimum over the grid's levels only.  ``levels``
    (any iterable of levels ``>= 0``, a 1-D array included) replaces the
    default grid.

    No step function is built per level, and levels whose X0 cost is
    ``inf`` are skipped.  A piecewise-linear couple scores its levels from
    prefix and suffix sums over the pieces of ``f*`` (the layer-cake sums
    above :func:`_excess_norm`): O(pieces) Python-float set-up, then O(1)
    arithmetic per level after a bisection among the values of ``f*``.
    Any other couple scores them in blocks by array arithmetic: each block
    is a levels x pieces matrix of the rows ``(f* - lam)_+`` and
    ``min(f*, lam)``, whose norms are weighted sums or maxima with weights
    computed once per call.  That is O(levels x pieces), and a block holds
    at most ``_ORACLE_BLOCK`` entries (a single level once ``f*`` has more
    pieces than that), so memory stays bounded at any piece count.
    """
    t = _check_t(t)
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    linear = _piecewise_linear(couple.params0) and _piecewise_linear(couple.params1)
    lams = _default_levels(fs, linear) if levels is None else _check_levels(levels)
    return (_linear_oracle if linear else _matrix_oracle)(fs, t, couple, lams)


def _check_theta(couple: LorentzCouple, theta: float) -> None:
    p0, p1 = couple.params0.p, couple.params1.p
    if p1 == INF:
        if couple.params1.q != INF:
            raise ValueError(
                f"couple {couple} is degenerate: p1 = inf requires q1 = inf"
            )
        if not math.isclose(theta, p0, rel_tol=_REL_TOL):
            raise ValueError(
                f"theta={theta} inconsistent with the (p1 = inf) regime, which needs theta = p0 = {p0}"
            )
        return
    target = 1.0 / p0 - 1.0 / p1
    if target <= 0.0 or not math.isclose(1.0 / theta, target, rel_tol=_REL_TOL):
        raise ValueError(
            f"theta={theta} inconsistent with 1/theta = 1/p0 - 1/p1 = {target} for couple {couple}"
        )


def holmstedt_k(f: StepFunction, t: float, couple: LorentzCouple, theta: float) -> float:
    """Holmstedt's expression for ``K(t**(1/theta), f)`` over a Lorentz couple.

    ``( integral_0^t [s**(1/p0) f*(s)]**q0 ds/s )**(1/q0)
      + t**(1/theta) ( integral_t^inf [s**(1/p1) f*(s)]**q1 ds/s )**(1/q1)``

    with sup forms for infinite inner exponents.  Equivalent to the true
    K-functional up to couple-dependent constants (for (L_1, L_inf) the
    ratio lies in [1, 2]).
    """
    t = _check_t(t)
    _check_theta(couple, theta)
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    p0, q0 = couple.params0.p, couple.params0.q
    if q0 < INF:
        inner0 = weighted_power_integral(fs, q0 / p0, q0, 0.0, t)
        term0 = inner0 ** (1.0 / q0) if inner0 < INF else INF
    else:
        term0 = _weighted_sup(fs, 1.0 / p0, 0.0, t)
    return _holmstedt_sum(fs, t, couple, theta, term0)


def _holmstedt_sum(fs: StepFunction, t: float, couple: LorentzCouple, theta: float, term0: float) -> float:
    """:func:`holmstedt_k` of ``fs = f*`` from its first term ``term0``.

    For (L_1, L_inf) at ``theta = 1`` that term is ``integral_0^t f*``, the
    exact K, so a caller that has K passes it in instead of integrating
    again (``x ** 1.0 == x``, so it is the same float).
    """
    p1, q1 = couple.params1.p, couple.params1.q
    if q1 < INF:
        inner1 = weighted_power_integral(fs, q1 / p1, q1, t, INF)
        term1 = inner1 ** (1.0 / q1) if inner1 < INF else INF
    else:
        expo = 0.0 if p1 == INF else 1.0 / p1
        term1 = _weighted_sup(fs, expo, t, INF)
    return term0 + t ** (1.0 / theta) * term1


def intersection_norm(f: StepFunction, couple: LorentzCouple) -> float:
    """``max(||f||_{X0}, ||f||_{X1})``, exact."""
    return max(lorentz_norm(f, couple.params0), lorentz_norm(f, couple.params1))


def functor_admissible(fp: FunctorParams) -> bool:
    """Admissibility of (theta, r, E): ``r < p_E`` plus the theta condition.

    With ``q_E < inf`` the condition is ``1/theta + 1/q_E > 1/r``; with
    ``q_E = inf`` it relaxes to ``1/theta >= 1/r``.  Under these the functor
    is an exact interpolation functor and its norm generates an intermediate
    space for every compatible couple.
    """
    p_e, q_e = fp.space.boyd_lower, fp.space.boyd_upper
    if not fp.r < p_e:
        return False
    if q_e == INF:
        return 1.0 / fp.theta >= 1.0 / fp.r
    return 1.0 / fp.theta + 1.0 / q_e > 1.0 / fp.r


def min_power_norm_finite(params: LorentzParams, theta: float, r: float) -> bool:
    """Closed-form finiteness of ``||min(t**(-1/r), t**(1/theta - 1/r))||_{p,q}``.

    The function equals ``t**a`` on (0, 1] and ``t**(-1/r)`` on (1, inf) with
    ``a = 1/theta - 1/r``; for ``a > 0`` its rearrangement is bounded near 0,
    so the head always converges when ``p < inf``.  This is the quantity
    whose finiteness drives the intermediate-space embedding, and for
    Lorentz E it reproduces the admissibility inequalities exactly (with a
    non-strict boundary when q = inf).
    """
    if not is_nontrivial(params):
        return False
    a = 1.0 / theta - 1.0 / r
    p, q = params.p, params.q
    if p == INF:
        return a >= 0.0  # sup norm: bounded iff no blow-up at 0
    if q < INF:
        return (r < p) and (1.0 / p + a > 0.0)
    return (1.0 / p <= 1.0 / r) and (1.0 / p + a >= 0.0)


def functor_norm(
    f: StepFunction,
    fp: FunctorParams,
    couple: LorentzCouple,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> Enclosure:
    """Enclosure of ``rho_E( t**(-1/r) K(t**(1/theta), f; X0, X1) )``.

    Implemented through Holmstedt's equivalent expression: with ``r = p0``
    the rescaled integrand is ``(H^(p0,q0) f)(t) + (H_(p1,q1) f)(t)`` in the
    finite-``p1`` regime and the single upper average when ``p1 = inf``.
    Values are exact up to the recorded Holmstedt equivalence constant of
    the couple; the enclosure certifies the expression actually evaluated.

    Requires ``r <= p0``: the extra factor ``t**(1/p0 - 1/r)`` is then
    non-increasing and the monotone-envelope machinery applies.
    """
    _check_functor(fp, couple)
    if f.is_zero:
        return Enclosure(0.0, 0.0)
    return _result(_functor_block(_Block.of(f.rearrange(), grid_spec), fp, couple)[0])


def _check_functor(fp: FunctorParams, couple: LorentzCouple) -> None:
    """The parameter checks of :func:`functor_norm`."""
    if not functor_admissible(fp):
        p_e, q_e = fp.space.boyd_lower, fp.space.boyd_upper
        raise ValueError(
            f"inadmissible functor parameters (theta={fp.theta}, r={fp.r}, E={fp.space}): "
            f"need r < p_E = {p_e} and "
            + (
                f"1/theta >= 1/r (q_E = inf)"
                if q_e == INF
                else f"1/theta + 1/q_E > 1/r with q_E = {q_e}"
            )
        )
    _check_theta(couple, fp.theta)
    p0 = couple.params0.p
    if fp.r > p0:
        raise ValueError(
            f"functor_norm needs r <= p0 (monotone integrand), got r={fp.r} > p0={p0}"
        )


def _functor_block(blk: _Block, fp: FunctorParams, couple: LorentzCouple) -> list:
    """:func:`functor_norm` of every (nonzero) function of ``blk`` from checked
    parameters: an :class:`Enclosure`, or the exception that function raises."""
    p0, q0 = couple.params0.p, couple.params0.q
    env = _upper_block(blk, p0, q0)
    if couple.params1.p < INF:
        env = _add_block(env, _lower_block(blk, couple.params1.p, couple.params1.q))
    if fp.r < p0:
        env = _scale_block(env, 1.0 / fp.r - 1.0 / p0)
    return _norm_block(env, fp.space.params)


def select_parameters(space: SpaceDescriptor) -> tuple[float, float, float]:
    """Pick ``(p0, p1, theta)`` flanking the Boyd indices of E.

    ``p0`` is half the lower index (1 when it is infinite); ``p1`` doubles
    the upper index when finite (with ``1/theta = 1/p0 - 1/p1``), else
    ``p1 = inf`` and ``theta = p0``.  The returned triple is always
    admissible with ``r = p0``.
    """
    p_e, q_e = space.boyd_lower, space.boyd_upper
    p0 = 1.0 if p_e == INF else p_e / 2.0
    if q_e < INF:
        p1 = 2.0 * q_e
        theta = 1.0 / (1.0 / p0 - 1.0 / p1)
    else:
        p1 = INF
        theta = p0
    return p0, p1, theta
