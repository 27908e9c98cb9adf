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

Each output is wrapped in a :class:`MonotoneEnvelope`: exact values on a log
grid, analytic power-law descriptors outside the grid window, and an extra
"dual" bracket coming from the fact that ``t**(1/u) * H(t)`` (resp.
``t**(1/v) * H(t)``) is monotone as well.  On any grid interval the function
is then squeezed between a constant and a pure power law, both of which
integrate in closed form against Lorentz weights, so the enclosures of
:func:`envelope_norm` are exact wherever the output is locally a constant or
a pure power and second-order tight elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .enclosure import Enclosure
from .lorentz import LorentzParams, SpaceDescriptor, _check_exponent
from .stepfn import INF, StepFunction, _power_integral_array, power_integral

__all__ = [
    "PowerLaw",
    "GridSpec",
    "MonotoneEnvelope",
    "hardy_upper",
    "hardy_lower",
    "double_star",
    "add_envelopes",
    "power_scale",
    "envelope_norm",
    "predicted_bounded",
]


@dataclass(frozen=True)
class PowerLaw:
    """``t -> coef * t**(-decay)`` with ``coef >= 0`` and ``decay >= 0``."""

    coef: float
    decay: float

    def __post_init__(self) -> None:
        if math.isnan(self.coef) or self.coef < 0.0:
            raise ValueError(f"coefficient must be >= 0, got {self.coef}")
        if math.isnan(self.decay) or self.decay < 0.0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")

    def __call__(self, t: float) -> float:
        return self.coef * t ** (-self.decay) if self.coef else 0.0


_ZERO_LAW = PowerLaw(0.0, 0.0)


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
        if self.points_per_decade < 2:
            raise ValueError("need at least 2 points per decade")
        if self.span <= 1.0:
            raise ValueError("span factor must exceed 1")

    def build(self, anchors) -> np.ndarray:
        """The grid around ``anchors`` (around 1 when there are none).

        Raises ``ValueError`` when the window leaves the float range.
        """
        anchors = np.asarray(sorted(anchors), dtype=float)
        if anchors.size == 0:
            anchors = np.array([1.0])
        first, last = float(anchors[0]), float(anchors[-1])
        lo = first / self.span
        hi = last * self.span
        if not (lo > 0.0 and hi < INF):
            raise ValueError(
                f"the grid window around anchors [{first!r}, {last!r}] "
                f"with span {self.span!r} leaves the float range"
            )
        ratio = hi / lo
        # a window wider than the float range: count its decades by logs
        decades = math.log10(ratio) if ratio < INF else math.log10(hi) - math.log10(lo)
        n = max(2, int(math.ceil(decades * self.points_per_decade)) + 1)
        grid = np.geomspace(lo, hi, n)
        return np.unique(np.concatenate([grid, anchors]))


DEFAULT_GRID = GridSpec()


_OVERFLOW = "the Hardy average of f overflows the float range"


def _monotone_values(values: np.ndarray) -> np.ndarray:
    """Exact evaluations made non-increasing; ``ValueError`` unless all finite."""
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOW)
    # evaluation rounding can break monotonicity by an ulp on flat stretches;
    # the running minimum restores it and stays within one ulp of exact
    return np.minimum.accumulate(values)


@dataclass(frozen=True, eq=False)
class MonotoneEnvelope:
    """A non-increasing function known exactly pointwise, with certified brackets.

    ``values`` are exact evaluations on ``grid``; ``head_*`` bound the
    function on ``(0, grid[0]]`` and ``tail_*`` on ``(grid[-1], inf)``.  When
    ``bracket_decay = beta`` is set, ``t**beta * eval(t)`` is monotone, which
    tightens per-interval bounds from constants to power laws.  ``diverged``
    marks the identically-infinite case (a divergent defining integral).

    Instances are immutable; the evaluator is a pure closure, so envelopes
    are safe to share across threads.
    """

    grid: np.ndarray
    values: np.ndarray
    head_lo: PowerLaw
    head_hi: PowerLaw
    tail_lo: PowerLaw
    tail_hi: PowerLaw
    eval: Callable[[np.ndarray], np.ndarray]
    bracket_decay: float | None = None
    diverged: bool = False
    label: str = ""

    def __call__(self, t):
        scalar = np.isscalar(t)
        out = self.eval(np.atleast_1d(np.asarray(t, dtype=float)))
        return float(out[0]) if scalar else out

    @property
    def lower(self) -> StepFunction:
        """Global step-function lower bound: each piece carries its right-endpoint value."""
        g = self.grid
        v = self.values
        return StepFunction(tuple(g), tuple(v), 0.0)

    @property
    def upper(self) -> StepFunction:
        """Step-function upper bound on ``[grid[0], inf)``.

        On ``(0, grid[0]]`` the first piece is a true bound only when the head
        is bounded (constant head descriptor); the analytic ``head_hi`` is
        authoritative there.
        """
        return StepFunction(tuple(self.grid), tuple(self.upper_on_grid()), float(self.values[-1]))

    def upper_on_grid(self) -> np.ndarray:
        """Values of :attr:`upper` at the grid points: each takes the value
        at the grid point before it, the first the head bound."""
        v = self.values
        # max() guards one-ulp disagreement between the algebraic head
        # constant and the evaluated first grid value
        head = max(self.head_hi.coef, float(v[0])) if self.head_hi.decay == 0.0 else float(v[0])
        return np.concatenate(([head], v[:-1]))


def _constant_envelope(c: float, grid: np.ndarray, label: str) -> MonotoneEnvelope:
    vals = np.full(grid.shape, c)
    law = PowerLaw(c, 0.0)
    return MonotoneEnvelope(
        grid=grid,
        values=vals,
        head_lo=law,
        head_hi=law,
        tail_lo=law,
        tail_hi=law,
        eval=lambda t: np.full(np.shape(t), c),
        bracket_decay=None,
        label=label,
    )


def _diverged_envelope(grid_spec: GridSpec, label: str) -> MonotoneEnvelope:
    g = grid_spec.build([1.0])
    vals = np.full(g.shape, INF)
    return MonotoneEnvelope(
        grid=g,
        values=vals,
        head_lo=_ZERO_LAW,
        head_hi=_ZERO_LAW,
        tail_lo=_ZERO_LAW,
        tail_hi=_ZERO_LAW,
        eval=lambda t: np.full(np.shape(t), INF),
        bracket_decay=None,
        diverged=True,
        label=label,
    )


def _power_segments(bp: np.ndarray, vals: np.ndarray, w: float, order: float):
    """Shared finite-``w`` tables of both families, with ``e = w / order``.

    Returns ``(e, edges_pow, seg)``: ``edges_pow = [0, bp**e]`` and ``seg[i]``
    is the inner integral ``vals[i]**w * (edges_pow[i+1] - edges_pow[i]) / e``
    over piece ``i``.
    """
    e = w / order
    edges_pow = np.concatenate([[0.0], bp**e])
    seg = vals**w * np.diff(edges_pow) / e
    return e, edges_pow, seg


def hardy_upper(
    f: StepFunction, u: float, w: float, grid_spec: GridSpec = DEFAULT_GRID
) -> MonotoneEnvelope:
    """Averaging operator over ``(0, t)``; ``upper(1,1)`` is the classical ``f**``.

    Raises ``ValueError`` when the average leaves the float range.
    """
    u = _check_exponent(u, "averaging exponent", finite=True)
    w = _check_exponent(w, "inner exponent w")
    fs = f.rearrange()
    return _hardy_upper(fs, u, w, grid_spec.build(fs.breakpoints))


def _hardy_upper(fs: StepFunction, u: float, w: float, grid: np.ndarray) -> MonotoneEnvelope:
    """:func:`hardy_upper` from checked exponents, ``f*`` and the grid
    ``grid_spec.build(fs.breakpoints)``."""
    label = f"H_upper(u={u},w={w})"
    if fs.is_zero:
        return _constant_envelope(0.0, grid, label)
    bp = np.asarray(fs.breakpoints)
    vals = np.asarray(fs.values)
    tail = fs.tail
    try:
        # the average of a constant c is c * factor
        factor = (u / w) ** (1.0 / w) if w < INF else 1.0
    except OverflowError:
        raise ValueError(_OVERFLOW) from None
    if bp.size == 0:
        c = tail * factor
        if c == INF:
            raise ValueError(_OVERFLOW)
        return _constant_envelope(c, grid, label)
    allv = np.append(vals, tail)

    # an overflow in the tables or descriptors also overflows the values,
    # which _monotone_values rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            e, edges_pow, seg = _power_segments(bp, vals, w, u)
            cum = np.concatenate([[0.0], np.cumsum(seg)])  # inner integral at piece starts

            def eval_upper(t: np.ndarray) -> np.ndarray:
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                inner = cum[k] + allv[k] ** w * (t**e - edges_pow[k]) / e
                # pow() monotonicity can slip an ulp right at a breakpoint;
                # the clamp keeps the fractional power real
                return t ** (-1.0 / u) * np.maximum(inner, 0.0) ** (1.0 / w)

            head_lo = head_hi = PowerLaw(float(vals[0] * factor), 0.0)
            # tail descriptors: power-law decay past a compact support, else the
            # average tends to the tail's own constant
            decay_coef = float(cum[-1] ** (1.0 / w))
            tail_const = float(tail * factor)
        else:
            run = np.maximum.accumulate(vals * bp ** (1.0 / u))
            prev = np.concatenate([[0.0], run])  # sup over pieces fully left of piece k

            def eval_upper(t: np.ndarray) -> np.ndarray:
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                return np.maximum(prev[k] * t ** (-1.0 / u), allv[k])

            head_lo = head_hi = PowerLaw(float(vals[0]), 0.0)
            decay_coef = float(run[-1])
            tail_const = float(tail)
        values = eval_upper(grid)

    values = _monotone_values(values)
    if tail == 0.0:
        tail_lo = tail_hi = PowerLaw(decay_coef, 1.0 / u)
    else:
        tail_lo = PowerLaw(tail_const, 0.0)
        tail_hi = PowerLaw(float(values[-1]), 0.0)
    return MonotoneEnvelope(
        grid=grid,
        values=values,
        head_lo=head_lo,
        head_hi=head_hi,
        tail_lo=tail_lo,
        tail_hi=tail_hi,
        eval=eval_upper,
        bracket_decay=1.0 / u,
        label=label,
    )


def hardy_lower(
    f: StepFunction, v: float, w: float, grid_spec: GridSpec = DEFAULT_GRID
) -> MonotoneEnvelope:
    """Averaging operator over ``(t, inf)``.

    A positive tail value of ``f*`` makes the defining integral (or sup)
    diverge for every ``t``; the returned envelope is then identically
    ``+inf`` with ``diverged`` set.  Otherwise an average that leaves the
    float range raises ``ValueError``.
    """
    v = _check_exponent(v, "averaging exponent", finite=True)
    w = _check_exponent(w, "inner exponent w")
    fs = f.rearrange()
    return _hardy_lower(fs, v, w, grid_spec, grid_spec.build(fs.breakpoints))


def _hardy_lower(
    fs: StepFunction, v: float, w: float, grid_spec: GridSpec, grid: np.ndarray
) -> MonotoneEnvelope:
    """:func:`hardy_lower` from checked exponents, ``f*`` and the grid
    ``grid_spec.build(fs.breakpoints)``; a diverged envelope keeps its own
    grid around 1."""
    label = f"H_lower(v={v},w={w})"
    if fs.is_zero:
        return _constant_envelope(0.0, grid, label)
    if fs.tail > 0.0:
        return _diverged_envelope(grid_spec, label)
    bp = np.asarray(fs.breakpoints)
    vals = np.asarray(fs.values)
    allv = np.append(vals, 0.0)

    # an overflow in the tables also overflows the values, which
    # _monotone_values rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if w < INF:
            e, edges_pow, seg = _power_segments(bp, vals, w, v)
            # suffix sums keep the integral-from-t positive-term only (no
            # cancellation near the right edge of the support)
            suf = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

            def eval_lower(t: np.ndarray) -> np.ndarray:
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                kk = np.minimum(k, bp.size - 1)
                part = allv[k] ** w * (edges_pow[kk + 1] - t**e) / e
                inner = np.where(k < bp.size, part + suf[np.minimum(k + 1, bp.size)], 0.0)
                return t ** (-1.0 / v) * np.maximum(inner, 0.0) ** (1.0 / w)
        else:
            run = np.maximum.accumulate((vals * bp ** (1.0 / v))[::-1])[::-1]
            suf_max = np.concatenate([run, [0.0]])

            def eval_lower(t: np.ndarray) -> np.ndarray:
                t = np.asarray(t, dtype=float)
                k = np.searchsorted(bp, t, side="left")
                return suf_max[k] * t ** (-1.0 / v)

        values = eval_lower(grid)

    values = _monotone_values(values)
    if w < INF:
        head_hi = PowerLaw(float(suf[0] ** (1.0 / w)), 1.0 / v)
        head_lo = PowerLaw(float(values[0] * grid[0] ** (1.0 / v)), 1.0 / v)
    else:
        head_lo = head_hi = PowerLaw(float(run[0]), 1.0 / v)

    return MonotoneEnvelope(
        grid=grid,
        values=values,
        head_lo=head_lo,
        head_hi=head_hi,
        tail_lo=_ZERO_LAW,
        tail_hi=_ZERO_LAW,
        eval=eval_lower,
        bracket_decay=1.0 / v,
        label=label,
    )


def double_star(f: StepFunction, u: float, grid_spec: GridSpec = DEFAULT_GRID) -> MonotoneEnvelope:
    """u-th power average ``f**_(u)(t) = (t**-1 integral_0^t f*(v)**u dv)**(1/u)``."""
    return hardy_upper(f, u, u, grid_spec)


def _combine_laws(
    a: PowerLaw, b: PowerLaw, boundary: float, side: Literal["head", "tail"], hi: bool
) -> PowerLaw:
    """Single power law bounding ``a + b`` on the head or tail region.

    Upper bounds shift every term to the extreme decay and pay the factor at
    the boundary; lower bounds keep only the dominating term.
    """
    laws = [l for l in (a, b) if l.coef > 0.0]
    if not laws:
        return _ZERO_LAW
    decay = max(l.decay for l in laws) if side == "head" else min(l.decay for l in laws)
    if hi:
        coef = sum(l.coef * boundary ** (decay - l.decay) for l in laws)
        return PowerLaw(coef, decay)
    dominating = [l for l in laws if l.decay == decay]
    return PowerLaw(sum(l.coef for l in dominating), decay)


def add_envelopes(e1: MonotoneEnvelope, e2: MonotoneEnvelope) -> MonotoneEnvelope:
    """Pointwise sum (sums of non-increasing functions are non-increasing)."""
    if e1.diverged or e2.diverged:
        return _diverged_envelope(GridSpec(), f"{e1.label}+{e2.label}")
    if e1.grid.shape != e2.grid.shape or not np.array_equal(e1.grid, e2.grid):
        raise ValueError("envelopes must share a grid to be added")
    f1, f2 = e1.eval, e2.eval
    g0 = float(e1.grid[0])
    gm = float(e1.grid[-1])
    return MonotoneEnvelope(
        grid=e1.grid,
        values=e1.values + e2.values,
        head_lo=_combine_laws(e1.head_lo, e2.head_lo, g0, "head", hi=False),
        head_hi=_combine_laws(e1.head_hi, e2.head_hi, g0, "head", hi=True),
        tail_lo=_combine_laws(e1.tail_lo, e2.tail_lo, gm, "tail", hi=False),
        tail_hi=_combine_laws(e1.tail_hi, e2.tail_hi, gm, "tail", hi=True),
        eval=lambda t: f1(t) + f2(t),
        bracket_decay=None,
        label=f"{e1.label}+{e2.label}",
    )


def power_scale(env: MonotoneEnvelope, extra_decay: float) -> MonotoneEnvelope:
    """Multiply by ``t**(-extra_decay)`` with ``extra_decay >= 0``.

    The product of two non-increasing positive factors stays non-increasing,
    and ``t**(beta + extra_decay) * (t**-extra_decay H(t)) = t**beta H(t)``,
    so the dual bracket survives with shifted decay.
    """
    if extra_decay < 0.0:
        raise ValueError("extra_decay must be >= 0")
    if extra_decay == 0.0 or env.diverged:
        return env
    f = env.eval
    d = extra_decay

    def shift(law: PowerLaw) -> PowerLaw:
        return PowerLaw(law.coef, law.decay + d) if law.coef else _ZERO_LAW

    return MonotoneEnvelope(
        grid=env.grid,
        values=env.values * env.grid ** (-d),
        head_lo=shift(env.head_lo),
        head_hi=shift(env.head_hi),
        tail_lo=shift(env.tail_lo),
        tail_hi=shift(env.tail_hi),
        eval=lambda t: f(t) * np.asarray(t, dtype=float) ** (-d),
        bracket_decay=None if env.bracket_decay is None else env.bracket_decay + d,
        label=f"t^-{d}*{env.label}",
    )


def _law_norm_term(law: PowerLaw, gamma: float, q: float, lo: float, hi: float) -> float:
    """``integral_lo^hi t**(gamma-1) (coef * t**-decay)**q dt`` (extended real)."""
    if law.coef == 0.0:
        return 0.0
    part = power_integral(gamma - q * law.decay, lo, hi)
    return INF if part == INF else law.coef**q * part


def _law_sup_term(law: PowerLaw, beta_p: float, lo: float, hi: float) -> float:
    """``sup over (lo, hi] of t**beta_p * law(t)`` (extended real)."""
    if law.coef == 0.0:
        return 0.0
    ex = beta_p - law.decay
    if ex > 0.0:
        return INF if hi == INF else law.coef * hi**ex
    if ex == 0.0:
        return law.coef
    return INF if lo == 0.0 else law.coef * lo**ex


def envelope_norm(env: MonotoneEnvelope, params: LorentzParams) -> Enclosure:
    """Certified enclosure of the Lorentz quasi-norm of the enveloped function.

    The function is non-increasing, hence equal to its own rearrangement, so
    the norm is a single weighted integral (or weighted sup).  Head and tail
    use the analytic power-law descriptors; every grid interval is squeezed
    between ``min(constant, power law)`` and ``max(constant, power law)``
    from the two monotonicity facts, and each bound integrates exactly after
    splitting at the crossover point.
    """
    if env.diverged:
        return Enclosure(INF, INF)
    p, q = params.p, params.q
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

        def interval_sum(const: np.ndarray, power: np.ndarray | None, upper: bool) -> float:
            if power is None:
                terms = const**q * _power_integral_array(gamma, a, b)
                return float(np.sum(terms))
            # split each interval where the constant and the power law cross;
            # min is constant-then-power, max is power-then-constant
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
            both = np.where(const + power > 0.0, t1 + t2, 0.0)
            return float(np.sum(both))

        s_hi = _law_norm_term(env.head_hi, gamma, q, 0.0, float(g[0]))
        s_lo = _law_norm_term(env.head_lo, gamma, q, 0.0, float(g[0]))
        if s_hi < INF:
            s_hi += interval_sum(c_hi, pw_hi if beta is not None else None, upper=True)
        if s_lo < INF:
            s_lo += interval_sum(c_lo, pw_lo if beta is not None else None, upper=False)
        if s_hi < INF:
            s_hi += _law_norm_term(env.tail_hi, gamma, q, float(g[-1]), INF)
        if s_lo < INF:
            s_lo += _law_norm_term(env.tail_lo, gamma, q, float(g[-1]), INF)
        lo = s_lo ** (1.0 / q) if s_lo < INF else INF
        hi = s_hi ** (1.0 / q) if s_hi < INF else INF
    else:
        beta_p = 0.0 if p == INF else 1.0 / p
        sup_b = b**beta_p
        sup_pow_exp = beta_p - beta if beta is not None else None
        hi = _law_sup_term(env.head_hi, beta_p, 0.0, float(g[0]))
        lo = _law_sup_term(env.head_lo, beta_p, 0.0, float(g[0]))
        mid_hi = c_hi * sup_b
        mid_lo = c_lo * sup_b
        if beta is not None:
            pow_sup = np.where(sup_pow_exp >= 0.0, b**sup_pow_exp, a**sup_pow_exp)
            mid_hi = np.minimum(mid_hi, pw_hi * pow_sup)
            mid_lo = np.maximum(mid_lo, pw_lo * pow_sup)
        if mid_hi.size:
            hi = max(hi, float(np.max(mid_hi)))
            lo = max(lo, float(np.max(mid_lo)))
        hi = max(hi, _law_sup_term(env.tail_hi, beta_p, float(g[-1]), INF))
        lo = max(lo, _law_sup_term(env.tail_lo, beta_p, float(g[-1]), INF))

    return Enclosure(min(lo, hi), hi)


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
