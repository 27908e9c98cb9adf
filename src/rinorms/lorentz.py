"""Lorentz spaces L_{p,q} as concrete rearrangement-invariant quasi-Banach spaces.

Quasi-norms are evaluated in closed form on step functions:

    ||f||_{p,q} = ( integral_0^inf t**(q/p - 1) f*(t)**q dt )**(1/q)   (q < inf)
    ||f||_{p,inf} = sup_t t**(1/p) f*(t)

with the conventions 1/inf = 0 and 1/0 = inf.  The degenerate spaces
L_{inf,q} with q < inf contain only the zero function; their "norm" of any
nonzero element is reported as +inf rather than raising, so that degeneracy
surfaces as a value and can be asserted in tests.

Dilation behaviour, Boyd indices and the Aoki-Rolewicz exponent live here as
well, both in exact form and as corpus-driven estimators that double as
oracles for the exact formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Sequence

from .stepfn import INF, StepFunction, _nonzero_pieces, _power_integral, weighted_power_integral

__all__ = [
    "LorentzParams",
    "SpaceDescriptor",
    "is_nontrivial",
    "lorentz_norm",
    "dilation_operator_norm",
    "estimate_dilation_norm",
    "estimate_boyd_indices",
    "aoki_rolewicz_kappa",
    "estimate_quasi_triangle_constant",
]


def _check_exponent(x, what: str, *, finite: bool = False) -> float:
    """``float(x)`` if it lies in ``(0, inf]``, or in ``(0, inf)`` when ``finite``.

    The one validator for Lorentz exponents, inner Hardy exponents (both may
    be ``inf``), averaging orders and the other positive finite parameters
    (``finite``: K-functional ``t``, functor ``theta`` and ``r``, dilation
    factors); anything else, NaN included, raises ``ValueError``.
    """
    v = float(x)
    if math.isnan(v) or v <= 0.0 or (finite and v == INF):
        raise ValueError(f"{what} must be in (0, inf{')' if finite else ']'}, got {x}")
    return v


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair identifying L_{p,q}; ``inf`` is allowed for both."""

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_exponent(self.p, "p"))
        object.__setattr__(self, "q", _check_exponent(self.q, "q"))

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def is_nontrivial(params: LorentzParams) -> bool:
    """True iff L_{p,q} contains a nonzero function: p < inf, or p = q = inf."""
    return params.p < INF or params.q == INF


_NORM_OVERFLOW = "the Lorentz norm of f overflows the float range"
_NORM_UNRESOLVED = "the Lorentz norm of f cannot be computed in floating point"
_TINY = sys.float_info.min  # smallest normal float
_SUB_ERR = math.ldexp(1.0, -1073)  # error bound of a rounded result below _TINY


def lorentz_norm(f: StepFunction, params: LorentzParams) -> float:
    """Closed-form Lorentz quasi-norm of ``f`` (extended real, never NaN).

    When the integral of a finite norm overflows, or falls below the normal
    float range (the q-th powers of small values underflow), it is summed
    again for ``f`` scaled by a power of two (``||c f|| = c ||f||``); that
    result may differ from exact arithmetic in its last bits.  A norm beyond
    the largest float raises ``ValueError``, and so does one whose smaller
    terms would fall below the float range at that scale, a sup form
    whose weight ``b**(1/p)`` passes the largest float, or an integral that
    floating point gives as NaN.
    """
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    p, q = params.p, params.q
    if q == INF:
        if p == INF:
            return fs.max_value()
        if fs.tail > 0.0:
            return INF  # t**(1/p) f*(t) grows without bound
        try:
            return _weighted_sup(fs, 1.0 / p)
        except OverflowError:  # b**(1/p) at some breakpoint b
            vals, _, his = _nonzero_pieces(fs)
            top = max(math.log2(v) + math.log2(b) / p for v, b in zip(vals, his))
            raise ValueError(_NORM_OVERFLOW if top >= 1024.0 else _NORM_UNRESOLVED) from None
    if p == INF:
        return INF  # degenerate space: no nonzero element has finite norm
    try:
        val = weighted_power_integral(fs, q / p, q, 0.0, INF)
    except OverflowError:
        val = INF
    if math.isnan(val):  # a piece integral whose parts left the float range
        raise ValueError(_NORM_UNRESOLVED)
    if val == INF:
        # with q/p > 0 only a positive tail diverges; otherwise the sum overflowed
        return INF if fs.tail > 0.0 else _rescaled_norm(fs, q / p, q)
    if val < _TINY:
        return _rescaled_norm(fs, q / p, q)
    try:
        return val ** (1.0 / q)
    except OverflowError:
        raise ValueError(_NORM_OVERFLOW) from None


def _rescaled_norm(fs: StepFunction, gamma: float, q: float) -> float:
    """``||f||`` from the integral of ``2**-k f``, with ``k`` chosen so that
    its largest term ``(2**-k v)**q * part`` is near 1.

    Factors below the normal float range carry an absolute error
    (``_SUB_ERR`` for a power or an integral, more when the scaled value is
    below it too).  When these errors could reach the last bit of the sum,
    or an integral over a piece overflows, the norm is refused rather than
    returned wrong; refused as beyond the float range when the log2 of its
    largest term already is.
    """
    vals, los, his = _nonzero_pieces(fs)
    try:
        terms = [(v, _power_integral(gamma, lo, hi)) for v, lo, hi in zip(vals, los, his)]
        k = math.ceil(max(q * math.log2(v) + math.log2(max(part, _TINY)) for v, part in terms) / q)
        if k > 1025:  # the largest term alone makes the norm exceed 2**(k-1)
            raise ValueError(_NORM_OVERFLOW)
        total = lost = 0.0
        for v, part in terms:
            s = math.ldexp(v, -k)
            x = s**q
            total += x * part
            if s < _TINY:
                lost += part * (_TINY**q + _SUB_ERR)  # 0 <= x, x_true <= _TINY**q
            elif x < _TINY:
                lost += part * _SUB_ERR
            if part < _TINY:
                lost += x * _SUB_ERR
    except OverflowError:
        top = max(math.log2(v) + _log2_power_integral(gamma, lo, hi) / q for v, lo, hi in zip(vals, los, his))
        raise ValueError(_NORM_OVERFLOW if top >= 1024.0 else _NORM_UNRESOLVED) from None
    if not lost <= total * 2.0**-53 or total < _TINY:
        raise ValueError(_NORM_UNRESOLVED)
    try:
        return math.ldexp(total ** (1.0 / q), k)
    except OverflowError:
        raise ValueError(_NORM_OVERFLOW) from None


def _log2_power_integral(alpha: float, lo: float, hi: float) -> float:
    """``log2`` of ``power_integral(alpha, lo, hi)`` for ``alpha > 0`` and a
    piece ``0 <= lo < hi < inf``, where the integral itself may overflow.

    The integral is ``hi**alpha * (1 - (lo/hi)**alpha) / alpha``; ``-inf``
    where the last factor underflows.
    """
    shrink = 1.0
    if lo:
        ratio = hi / lo
        d = math.log(ratio) if ratio < INF else math.log(hi) - math.log(lo)
        shrink = -math.expm1(-alpha * d)
    return alpha * math.log2(hi) - math.log2(alpha) + (math.log2(shrink) if shrink else -INF)


def _weighted_sup(fs: StepFunction, expo: float, lo: float = 0.0, hi: float = INF) -> float:
    """``sup over (lo, hi) of s**expo * f*(s)`` for non-increasing step ``fs`` (extended real)."""
    # For expo >= 0 the sup over a piece sits at its right end; b**0 == 1 and
    # inf**expo == inf cover expo == 0 and the tail.  For expo < 0 it sits at
    # the left end, and a piece from 0 makes the sup infinite.
    vals, los, his = _nonzero_pieces(fs, lo, hi)
    if expo >= 0.0:
        return max(chain((0.0,), map(mul, vals, map(pow, his, repeat(expo)))))
    head = ()
    if los and los[0] == 0.0:
        head, vals, los = (INF,), vals[1:], los[1:]
    return max(chain((0.0,), head, map(mul, vals, map(pow, los, repeat(expo)))))


def dilation_operator_norm(params: LorentzParams, a: float) -> float:
    """Operator norm of ``f -> f(a .)`` on a nontrivial L_{p,q}: exactly ``a**(-1/p)``.

    Exactness follows from the change of variables ``s = a t`` in the norm
    integral, which rescales every function's norm by the same factor.
    """
    if not is_nontrivial(params):
        raise ValueError(
            f"{params} is the trivial space {{0}}; dilation operator norm undefined"
        )
    a = _check_exponent(a, "dilation factor", finite=True)
    if params.p == INF:
        return 1.0
    return a ** (-1.0 / params.p)


@dataclass(frozen=True)
class SpaceDescriptor:
    """A concrete r.i. space: Lorentz exponents plus derived metadata.

    ``boyd_lower <= boyd_upper`` are the Boyd indices (for L_{p,q} both equal
    ``p``) and ``quasi_triangle_bound`` is a valid, not necessarily optimal,
    quasi-triangle constant.
    """

    params: LorentzParams
    boyd_lower: float
    boyd_upper: float
    quasi_triangle_bound: float

    def __post_init__(self) -> None:
        if not 0.0 < self.boyd_lower <= self.boyd_upper:
            raise ValueError(
                f"Boyd indices must satisfy 0 < p_E <= q_E <= inf, got "
                f"({self.boyd_lower}, {self.boyd_upper})"
            )
        if not self.quasi_triangle_bound >= 1.0:  # NaN fails it too
            raise ValueError(f"quasi-triangle bound must be >= 1, got {self.quasi_triangle_bound!r}")

    @classmethod
    def for_lorentz(cls, params: LorentzParams) -> "SpaceDescriptor":
        if not is_nontrivial(params):
            raise ValueError(
                f"{params} is the trivial space {{0}} (needs p < inf, or p = q = inf)"
            )
        p, q = params.p, params.q
        if 1.0 <= q <= p:
            c = 1.0  # the functional is an actual norm for 1 <= q <= p
        else:
            c = 2.0 ** (1.0 / p) * (2.0 ** (1.0 / q - 1.0) if q < 1.0 else 1.0)
        return cls(params, p, p, c)

    def __str__(self) -> str:
        return str(self.params)


def estimate_dilation_norm(
    space: SpaceDescriptor, a: float, corpus: Iterable[StepFunction]
) -> float:
    """Certified lower bound on ||D_a||: max of ||f(a.)|| / ||f|| over the corpus."""
    best = None
    for f in corpus:
        n = lorentz_norm(f, space.params)
        if not 0.0 < n < INF:
            continue
        r = lorentz_norm(f.dilate(a), space.params) / n
        best = r if best is None else max(best, r)
    if best is None:
        raise ValueError("corpus contains no function with finite nonzero norm")
    return best


def estimate_boyd_indices(
    space: SpaceDescriptor,
    s_values: Sequence[float],
    corpus: Iterable[StepFunction],
) -> tuple[float, float]:
    """Estimate the Boyd indices from dilation-norm growth.

    The lower index is ``lim_{s->inf} ln s / ln ||D_{1/s}||`` and the upper
    one is the same limit taken along ``s -> 0+``; both are read off at the
    extreme points of ``s_values``, a grid in ``(1, inf)``.  A vanishing
    log-denominator (dilation-invariant norm) yields ``inf``.
    """
    s_values = sorted(float(s) for s in s_values)
    if not s_values or s_values[0] <= 1.0:
        raise ValueError(f"s_values must lie in (1, inf), got {s_values}")
    corpus = list(corpus)
    s = s_values[-1]
    shrink = estimate_dilation_norm(space, 1.0 / s, corpus)  # >= 1
    grow = estimate_dilation_norm(space, s, corpus)  # <= 1
    lower = math.log(s) / math.log(shrink) if shrink != 1.0 else INF
    upper = math.log(1.0 / s) / math.log(grow) if grow != 1.0 else INF
    return lower, upper


def aoki_rolewicz_kappa(c: float) -> float:
    """Exponent ``1 / log2(2C)`` of an equivalent kappa-subadditive quasi-norm."""
    c = float(c)
    if math.isnan(c) or c < 1.0:
        raise ValueError(f"quasi-triangle constant must be >= 1, got {c}")
    return 1.0 / math.log2(2.0 * c)


def estimate_quasi_triangle_constant(
    params: LorentzParams,
    pairs: Iterable[tuple[StepFunction, StepFunction]],
) -> float:
    """Lower bound on the quasi-triangle constant from a corpus of pairs.

    Returns ``max(1, max ||f+g|| / (||f|| + ||g||))``; pairs with zero or
    infinite norms are skipped.
    """
    best = None
    for f, g in pairs:
        nf = lorentz_norm(f, params)
        ng = lorentz_norm(g, params)
        if not (0.0 < nf < INF and 0.0 < ng < INF):
            continue
        r = lorentz_norm(f + g, params) / (nf + ng)
        best = r if best is None else max(best, r)
    if best is None:
        raise ValueError("no pair in the corpus has finite nonzero norms")
    return max(1.0, best)
