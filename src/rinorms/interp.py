"""K-functionals for Lorentz couples and the E-parameterised interpolation functor.

Three representations of the Peetre K-functional

    K(t, f; X0, X1) = inf{ ||f0||_X0 + t ||f1||_X1 : f = f0 + f1 }

are implemented for couples of Lorentz spaces:

* :func:`k_exact_l1_linf` - the closed form ``K(t, f; L_1, L_inf) = integral_0^t
  f*``, the upper Hardy inner integral at ``u = w = 1`` on the hardy module's
  piece table (exact on dyadic inputs; a block shares one call and t row);
* :func:`k_upper_oracle` - an upper bound minimising over truncation
  decompositions ``f* = (f* - lam)_+ + min(f*, lam)``, which is exactly
  optimal for (L_1, L_inf) and serves as the independent oracle: prefix
  and suffix sums over ``f*`` score each level in O(1), except the X0 cost
  of a side with ``q != 1`` that is not ``p = q = inf``, a sum over the
  values of ``f*`` above the level;
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
from operator import add, mul, sub
from typing import Sequence

import numpy as np

from .enclosure import Enclosure
from .hardy import (
    DEFAULT_GRID,
    GridSpec,
    _add_block,
    _Block,
    _norm_block,
    _Pieces,
    _scale_block,
    _upper_integral,
)
from .lorentz import (
    _TINY,
    LorentzParams,
    SpaceDescriptor,
    _check_exponent,
    _weighted_sup,
    is_nontrivial,
    lorentz_norm,
)
from .stepfn import (
    INF,
    StepFunction,
    _power_integral,
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
_HOLMSTEDT_OVERFLOW = "a term of Holmstedt's expression of f overflows the float range"


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
        object.__setattr__(self, "theta", _check_exponent(self.theta, "theta", finite=True))
        object.__setattr__(self, "r", _check_exponent(self.r, "r", finite=True))


def k_exact_l1_linf(f: StepFunction, t: float) -> float:
    """Exact ``K(t, f; L_1, L_inf) = integral_0^t f*(s) ds``."""
    return _k_l1_linf(f.rearrange(), [_check_exponent(t, "t", finite=True)])[0]


def _k_l1_linf(fs: StepFunction, ts: Sequence[float]) -> list[float]:
    """:func:`_k_l1_linf_block` of the block of one ``fs = f*`` at ``ts``."""
    return _k_l1_linf_block([fs], ts)[0].tolist()


def _k_l1_linf_block(fss: Sequence[StepFunction], ts: Sequence[float]) -> np.ndarray:
    """``K(t, f; L_1, L_inf)`` of each ``fss[i] = f*`` (row ``i``) at each
    ``t`` of the one row ``ts`` (finite and positive, in any order).

    ``K(t) = integral_0^t f*`` is :func:`hardy._upper_integral` at ``u = w = 1``:
    the terms ``v * (b - lo)`` of the pieces ``(lo, b]`` before the one holding
    ``t``, summed in piece order, plus ``v * (t - lo)`` for that piece, which
    :meth:`hardy._Pieces.piece_index` finds in the sorted row.  Each ``f*`` is
    cut after the piece holding the largest ``t``, and a value reads no later
    piece.  ``K`` is exact on dyadic inputs of few bits, within relative
    ``(k + 2) * 2**-53`` over ``k`` terms otherwise (while the terms stay
    normal floats), and ``inf`` past the largest float.
    """
    t = np.asarray(ts, dtype=float)
    order = t.argsort()
    top = float(t.max(initial=0.0))
    ns = [bisect_left(fs.breakpoints, top) + 1 for fs in fss]
    pcs = _Pieces([StepFunction._canonical(fs.breakpoints[:n], fs.values[:n], fs.tail) for fs, n in zip(fss, ns)])
    tiled = np.tile(t[order], pcs.size)
    K = pcs.piece_index(tiled, np.arange(pcs.size + 1) * t.size)
    with np.errstate(over="ignore"):
        ks = _upper_integral(pcs, 1.0, 1.0)[2](tiled, K).reshape(pcs.size, t.size)
    return ks[:, order.argsort()]


def _piecewise_linear(params: LorentzParams) -> bool:
    """Whether a truncation cost in ``params`` is piecewise linear in the level,
    with kinks only at values of ``f*``: ``q = 1`` (a fixed weighted sum) or
    ``p = q = inf`` (the largest entry)."""
    return params.q == 1.0 or params.p == params.q == INF


_N_GRID = 200


def _default_levels(fs: StepFunction, linear: bool) -> list[float]:
    """The default levels of :func:`k_upper_oracle` for ``fs = f*``, ascending.

    Every value of ``f*`` (tail included) plus 0; unless both sides of the
    couple are piecewise linear (``linear``), also ``_N_GRID`` log-spaced
    levels between the smallest and largest positive values.
    """
    levels = set(fs.values) | {fs.tail, 0.0}
    if not linear:
        positive = [v for v in levels if v > 0.0]
        if positive:
            levels.update(np.geomspace(min(positive), max(positive), _N_GRID).tolist())
    return sorted(levels)


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


def _weights(fs: StepFunction, params: LorentzParams) -> list[float] | None:
    """The weights ``w_i`` of L_{p,q} on the pieces of ``fs = f*``, the
    tail's ``inf`` last; a weight past the largest float is ``inf``.

    Finite ``q``: the norm of a row ``r`` over the pieces is
    ``(sum_i r_i**q w_i)**(1/q)`` with ``w_i`` the integral of
    ``s**(q/p - 1)`` over piece ``i``.  ``q = inf``, finite ``p``: it is
    ``max_i r_i w_i`` with ``w_i = b_i**(1/p)`` at the piece's right end
    ``b_i`` (the rule of ``lorentz._weighted_sup``).  ``None`` for
    ``p = q = inf``, whose norm is the largest entry.
    """
    p, q = params.p, params.q
    bps = fs.breakpoints
    if q == INF:
        if p == INF:
            return None
        with np.errstate(over="ignore"):
            return [*(np.asarray(bps, dtype=float) ** (1.0 / p)).tolist(), INF]
    alpha = q / p
    weights = []
    for lo, hi in zip((0.0, *bps), bps):
        try:
            weights.append(_power_integral(alpha, lo, hi))
        except OverflowError:
            weights.append(INF)
    return [*weights, INF]


# The two truncation costs at a level lam, from the values v_0 > v_1 > ...
# of f* (its tail last) and one side's weights w_i.  A level comes with k,
# the number of values above it, and W_j is the weight of the first j + 1
# pieces.  For finite q
#
#     ||min(f*, lam)|| = (lam**q W_{k-1} + sum_{i>=k} v_i**q w_i)**(1/q)
#
# from a suffix sum (for q = inf the maximum of lam max_{i<k} w_i and a
# suffix maximum of v_i w_i), and for q = 1 the layer-cake sum gives
#
#     ||(f* - lam)_+|| = sum_{j<k-1} (v_j - v_{j+1}) W_j + (v_{k-1} - lam) W_{k-1};
#
# any other q sums (v_i - lam)**q w_i over the k values above lam, a maximum
# for q = inf.  For p = q = inf the costs are v_0 - lam and lam, capped at 0
# and v_0.  Every term is nonnegative, so nothing cancels.  A weight of inf
# makes a cost inf where its entry is positive: lam = 0 has truncation cost
# 0 without a product, and an excess that meets such a weight is inf before
# any power, so 0 * inf never arises.  A power or a sum past the largest
# float is inf, and so is that level's cost: the bound only loosens.  Such a
# power meeting a weight that fell below the float range to 0 makes an
# excess NaN, which skips the level as inf does.


def _excess_norm(vals: list[float], w: list[float] | None, q: float):
    """``(k, lam) -> ||(f* - lam)_+||``."""
    if w is None:
        top = vals[0]
        return lambda k, lam: max(top - lam, 0.0)
    if q == 1.0:
        cum = list(accumulate(w))
        at = list(accumulate(map(mul, map(sub, vals, vals[1:]), cum), initial=0.0))  # at the levels v_m
        return lambda k, lam: at[k - 1] + (vals[k - 1] - lam) * cum[k - 1] if k else 0.0
    stop = w.index(INF)  # the first piece of infinite weight
    v, wf = np.array(vals[:stop]), np.array(w[:stop])

    def norm(k: int, lam: float) -> float:
        if k > stop:
            return INF
        with np.errstate(over="ignore", invalid="ignore"):
            rows = v[:k] - lam
            return float((rows**q @ wf[:k]) ** (1.0 / q) if q < INF else (rows * wf[:k]).max(initial=0.0))

    return norm


def _truncation_norm(vals: list[float], w: list[float] | None, q: float):
    """``(k, lam) -> ||min(f*, lam)||``."""
    if w is None:
        top = vals[0]
        return lambda k, lam: min(top, lam)
    op, e = (add, q) if q < INF else (max, 1.0)
    cum = list(accumulate(w, op))
    with np.errstate(over="ignore"):
        powered = (np.asarray(vals) ** e).tolist()
    # a term with an infinite factor is inf, or 0 for a zero value
    terms = [x * wi if max(x, wi) < INF else INF if v else 0.0 for v, x, wi in zip(vals, powered, w)]
    rest = list(accumulate(reversed(terms), op, initial=0.0))[::-1]  # over i >= k

    def norm(k: int, lam: float) -> float:
        if not lam:
            return 0.0
        if k and cum[k - 1] == INF:  # an entry lam of infinite weight
            return INF
        try:
            return (op(lam**e * cum[k - 1], rest[k]) if k else rest[0]) ** (1.0 / e)
        except OverflowError:
            return INF

    return norm


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
    ``inf`` are skipped.  Every couple scores its levels from one weight
    list per side and prefix and suffix sums over the pieces of ``f*`` (the
    sums above :func:`_excess_norm`): O(pieces) set-up, then a bisection
    among the values of ``f*`` and O(1) arithmetic per level, except the
    X0 cost of a side with ``q != 1`` that is not ``p = q = inf``, which
    sums over the ``k`` values above the level.  A level whose powers or
    sums overflow the float range costs ``inf``, which only loosens the
    bound.  Where the q-th powers of small values of ``f*`` would fall below
    the float range, the levels are scored for ``f*`` scaled up by a power
    of two and the minimum is scaled back (``K(t, c f) = c K(t, f)``).
    """
    t = _check_exponent(t, "t", finite=True)
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    x0, x1 = couple.params0, couple.params1
    linear = _piecewise_linear(x0) and _piecewise_linear(x1)
    lams = _default_levels(fs, linear) if levels is None else _check_levels(levels)
    vals = [*fs.values, fs.tail]
    scale = _underflow_exponent(vals, x0, x1)
    if scale:
        vals = [math.ldexp(v, -scale) for v in vals]
        lams = [math.ldexp(lam, -scale) for lam in lams]
    excess = _excess_norm(vals, _weights(fs, x0), x0.q)
    truncation = _truncation_norm(vals, _weights(fs, x1), x1.q)
    ascending = vals[::-1]
    n = len(vals)
    best = INF
    for lam in lams:
        k = n - bisect_right(ascending, lam)
        cost0 = excess(k, lam)
        if cost0 < INF:
            best = min(best, cost0 + t * truncation(k, lam))
    return math.ldexp(best, scale)


def _underflow_exponent(vals: list[float], x0: LorentzParams, x1: LorentzParams) -> int:
    """The exponent ``k <= 0`` that puts the largest of ``vals`` (the values
    of a nonzero ``f*``, tail last) in [1/2, 1) as ``2**-k v``, when the
    q-th power of the smallest positive value falls below the normal float
    range for the largest finite ``q`` of ``x0`` and ``x1`` (1 when none is
    larger); else 0."""
    small = vals[-1] or vals[-2]  # the values of f* are positive, its tail may be 0
    if small >= 1.0:
        return 0
    q = max(1.0, x0.q if x0.q < INF else 1.0, x1.q if x1.q < INF else 1.0)
    if small**q >= _TINY:
        return 0
    return min(math.frexp(vals[0])[1], 0)


def _check_theta(couple: LorentzCouple, theta: float) -> None:
    p0, p1 = couple.params0.p, couple.params1.p
    if p1 == INF:  # q1 = inf too: the couple refuses L(inf, q) for q < inf
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
    ratio lies in [1, 2]).  For ``X0 = L_1`` the first term is
    ``integral_0^t f*``, ``K(t, f; L_1, L_inf)`` itself, and comes from its
    kernel.  A second term of 0 leaves the first, whatever ``t**(1/theta)``
    is; a power past the largest float raises ``ValueError``.
    """
    t = _check_exponent(t, "t", finite=True)
    _check_theta(couple, theta)
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    p0, q0 = couple.params0.p, couple.params0.q
    try:
        if p0 == q0 == 1.0:
            term0 = _k_l1_linf(fs, [t])[0]
        elif q0 < INF:
            inner0 = weighted_power_integral(fs, q0 / p0, q0, 0.0, t)
            term0 = inner0 ** (1.0 / q0) if inner0 < INF else INF
        else:
            term0 = _weighted_sup(fs, 1.0 / p0, 0.0, t)
        return _holmstedt_sum(fs, t, couple, theta, term0)
    except OverflowError:
        raise ValueError(_HOLMSTEDT_OVERFLOW) from None


def _holmstedt_sum(fs: StepFunction, t: float, couple: LorentzCouple, theta: float, term0: float) -> float:
    """:func:`holmstedt_k` of ``fs = f*`` from its first term ``term0``.

    For (L_1, L_inf) at ``theta = 1`` that term is ``K(t, f)``, so a caller
    that has K passes it in instead of computing it again.
    """
    p1, q1 = couple.params1.p, couple.params1.q
    if q1 < INF:
        inner1 = weighted_power_integral(fs, q1 / p1, q1, t, INF)
        term1 = inner1 ** (1.0 / q1) if inner1 < INF else INF
    else:
        expo = 0.0 if p1 == INF else 1.0 / p1
        term1 = _weighted_sup(fs, expo, t, INF)
    if not term1:  # t**(1/theta) may pass the largest float
        return term0
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
    return _functor_block(_Block([f.rearrange()], grid_spec), fp, couple)[0]


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


def _functor_block(blk: _Block, fp: FunctorParams, couple: LorentzCouple) -> list[Enclosure]:
    """:func:`functor_norm` of every (nonzero) function of ``blk`` from checked
    parameters, in order; raises ``ValueError`` when the average or the norm
    of one of them leaves the float range."""
    p0, q0 = couple.params0.p, couple.params0.q
    env = blk.envelope("upper", p0, q0)
    if couple.params1.p < INF:
        env = _add_block(env, blk.envelope("lower", couple.params1.p, couple.params1.q))
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
