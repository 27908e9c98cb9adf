"""Exact calculus of nonnegative piecewise-constant functions on (0, inf).

A :class:`StepFunction` is constant on finitely many half-open pieces
``(t_{i-1}, t_i]`` (with the implicit ``t_0 = 0``) and equal to a constant
``tail`` value on ``(t_n, inf)``.  Every operation in this module is exact in
the sense that it produces the mathematically correct piecewise-constant
result, up to IEEE rounding of the stored floats; no quadrature or sampling
is involved anywhere.

The representation is canonical (adjacent equal values merged, trailing
pieces equal to the tail absorbed), so two step functions are equal as
mathematical functions iff the dataclasses compare equal.  All instances are
immutable and safe to share between threads.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np

INF = math.inf

# Piece count from which StepFunction._sorted_above_tail groups the level
# sets with numpy instead of a dict loop, StepFunction.is_nonincreasing
# compares the values as an array, and StepFunction.from_dict checks the
# fields with numpy before it falls back to the constructor.  On shuffled
# functions loop and numpy cost the same near 200 pieces: 39 vs 46 us at
# 128 pieces, 80 vs 66 us at 256.
_LEVEL_SET_ARRAY_MIN = 200

# orjson's decoder recurses on the C stack: orjson 3.8.3 ends the process
# with SIGSEGV on a text nested 150,000 deep, where json raises
# RecursionError.  A function file holds one object and two arrays, so a
# text with more brackets than that is left to json.
_ORJSON_MAX_BRACKETS = 3

__all__ = [
    "INF",
    "StepFunction",
    "power_integral",
    "weighted_power_integral",
]


def _as_float(x, what: str) -> float:
    v = float(x)
    if math.isnan(v):
        raise ValueError(f"{what} must not be NaN")
    return v


def _evaluation_points(t) -> np.ndarray:
    """``t`` (a point or an array of them) as a float array, every point in
    ``(0, inf)``; raises ``ValueError`` otherwise."""
    ts = np.asarray(t, dtype=float)
    if not ((ts > 0.0) & (ts < INF)).all():
        if np.isnan(ts).any():
            raise ValueError("t must not be NaN")
        raise ValueError(f"evaluation point must be in (0, inf), got {t}")
    return ts


def _floats(xs, what: str) -> tuple[float, ...]:
    """``xs`` as a tuple of floats, none of them NaN.

    Converts in one pass; only on failure are the entries converted again
    one by one, so the first bad entry raises, as an element loop would.
    """
    xs = tuple(xs)
    try:
        out = tuple(map(float, xs))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or any(map(math.isnan, out)):
        for x in xs:
            _as_float(x, what)
    return out


def _read_only(b: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b.flags.writeable = False
    v.flags.writeable = False
    return b, v


def _breakpoint_error(bps: tuple[float, ...]) -> ValueError:
    return ValueError(f"breakpoints must be finite, positive and strictly increasing, got {bps}")


def power_integral(alpha: float, lo: float, hi: float) -> float:
    """Exact value of ``integral_lo^hi t**(alpha-1) dt`` as an extended real.

    ``0 <= lo <= hi <= inf``; divergent cases return ``inf`` rather than
    raising.  The finite-interval branch uses ``expm1`` so that narrow
    intervals do not lose precision to cancellation.
    """
    if math.isnan(alpha) or math.isnan(lo) or math.isnan(hi):
        raise ValueError("power_integral arguments must not be NaN")
    if lo < 0.0 or lo > hi:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    return _power_integral(alpha, lo, hi)


def _power_integral(alpha: float, lo: float, hi: float) -> float:
    """:func:`power_integral` without its argument checks, for a piece
    ``0 <= lo < hi <= inf`` of a step function.

    When ``hi / lo`` passes the largest float, the log ratio is a
    difference of logs, and for ``alpha > 0`` the integral is anchored at
    ``hi**alpha``, so that it overflows only where its value does.
    """
    if lo == 0.0:
        if hi == INF:
            return INF
        return hi**alpha / alpha if alpha > 0.0 else INF
    if hi == INF:
        return -(lo**alpha) / alpha if alpha < 0.0 else INF
    ratio = hi / lo
    if ratio == INF:  # kept off the common path, whose bits it leaves alone
        d = math.log(hi) - math.log(lo)
        if alpha > 0.0:
            return hi**alpha * -math.expm1(-alpha * d) / alpha
        return d if alpha == 0.0 else lo**alpha * math.expm1(alpha * d) / alpha
    if alpha == 0.0:
        return math.log(ratio)
    return lo**alpha * math.expm1(alpha * math.log(ratio)) / alpha


def _power_integral_array(alpha: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised :func:`power_integral` for finite positive endpoints.

    Empty intervals (``lo == hi``) contribute zero.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(hi / lo)
        if alpha == 0.0:
            out = ratio
        else:
            out = lo**alpha * np.expm1(alpha * ratio) / alpha
    return np.where(hi > lo, out, 0.0)


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative piecewise-constant function on ``(0, inf)``.

    ``values[i]`` is the value on ``(breakpoints[i-1], breakpoints[i]]`` and
    ``tail`` is the value on ``(breakpoints[-1], inf)``.  Magnitudes only:
    all values are finite and ``>= 0`` (the quasi-norms computed elsewhere
    depend on a function only through the rearrangement of its absolute
    value, so signs and phases carry no information here).

    ``_arrays``, the breakpoints and values as float64 arrays, is derived,
    not a field: it is built from the tuples on first use, or handed over by
    the operation that computed the fields as arrays (decoding, rearranging,
    dilating), and it is marked read-only, so every numpy reader shares
    it.  Equality, hashing, ``repr``, :meth:`to_dict` and pickles see the
    fields only.  From Python 3.12 on ``cached_property`` takes no lock, so
    two threads may each build the pair; they build equal arrays and one of
    them is kept, which is harmless.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    tail: float = 0.0

    def __post_init__(self) -> None:
        bps = _floats(self.breakpoints, "breakpoint")
        vals = _floats(self.values, "value")
        tail = _as_float(self.tail, "tail")
        if len(bps) != len(vals):
            raise ValueError(
                f"{len(bps)} breakpoints need {len(bps)} values, got {len(vals)}"
            )
        if tail < 0.0 or not math.isfinite(tail):
            raise ValueError(f"tail must be finite and >= 0, got {tail}")
        if bps and not (bps[0] > 0.0 and bps[-1] < INF and all(map(operator.lt, bps, bps[1:]))):
            raise _breakpoint_error(bps)
        if vals and (min(vals) < 0.0 or max(vals) == INF):
            bad = next(v for v in vals if v < 0.0 or v == INF)
            raise ValueError(f"values must be finite and >= 0, got {bad}")
        # Canonical form: merge adjacent equal values, absorb a trailing run
        # equal to the tail.  Uniqueness of the representation is what makes
        # exact equality assertions in the tests meaningful.  A run keeps its
        # last breakpoint and its last value (they differ only as 0.0/-0.0);
        # after merging, at most the last piece can equal the tail.
        if not all(map(operator.ne, vals, vals[1:])):
            last_of_run = tuple(chain(map(operator.ne, vals, vals[1:]), (True,)))
            bps = tuple(compress(bps, last_of_run))
            vals = tuple(compress(vals, last_of_run))
        if vals and vals[-1] == tail:
            bps, vals = bps[:-1], vals[:-1]
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail", tail)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(breakpoints, values)`` as read-only float64 arrays."""
        n = len(self.values)
        return _read_only(np.fromiter(self.breakpoints, float, n), np.fromiter(self.values, float, n))

    def __getstate__(self) -> dict:
        # pickles and copies carry the fields only, whether or not the
        # derived pair was built
        return {k: v for k, v in self.__dict__.items() if k != "_arrays"}

    @classmethod
    def _canonical(cls, bps: tuple, vals: tuple, tail: float, arrays=None) -> "StepFunction":
        """Build from fields already valid and canonical, skipping validation.

        For results canonical by construction: :meth:`rearrange` (values
        strictly decreasing above the tail, cumulative lengths strictly
        increasing), :meth:`dilate` once its breakpoints are checked, and
        :meth:`from_dict` once ``_valid_canonical`` has passed.  The one
        invariant that can still fail is a last breakpoint that overflowed
        to ``inf``; it raises as validation would.  ``arrays``, the fields
        as float64 arrays where the caller has them, become ``_arrays``.
        """
        if bps and bps[-1] == INF:
            raise _breakpoint_error(bps)
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", bps)
        object.__setattr__(f, "values", vals)
        object.__setattr__(f, "tail", tail)
        if arrays is not None:
            f.__dict__["_arrays"] = _read_only(*arrays)
        return f

    def _cut(self, n: int) -> "StepFunction":
        """The first ``n`` pieces, then the tail unchanged.  Canonical for an
        ``f*``, whose values stay above its tail; a built ``_arrays`` is
        sliced, not converted again."""
        arrays = self.__dict__.get("_arrays")
        if arrays is not None:
            arrays = (arrays[0][:n], arrays[1][:n])
        return StepFunction._canonical(self.breakpoints[:n], self.values[:n], self.tail, arrays)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((), (), 0.0)

    @classmethod
    def constant(cls, c: float) -> "StepFunction":
        return cls((), (), c)

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        """Characteristic function of ``(a, b]`` with ``0 <= a < b < inf``."""
        a = _as_float(a, "a")
        b = _as_float(b, "b")
        if not 0.0 <= a < b or not math.isfinite(b):
            raise ValueError(f"need 0 <= a < b < inf, got ({a}, {b}]")
        if a == 0.0:
            return cls((b,), (1.0,), 0.0)
        return cls((a, b), (0.0, 1.0), 0.0)

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints and self.tail == 0.0

    def __call__(self, t):
        """Evaluate at a point ``t > 0`` or elementwise on an array of them.

        Pieces are half-open ``(lo, hi]``, so a breakpoint takes the value of
        the piece it closes.  A point returns a float, an array an array.
        """
        ts = _evaluation_points(t)
        i = np.searchsorted(self.breakpoints, ts, side="left")
        out = np.asarray(self.values + (self.tail,))[i]
        return float(out) if out.ndim == 0 else out

    def pieces(self):
        """Yield ``(lo, hi, value)`` for the finite pieces, then the tail piece."""
        prev = 0.0
        for b, v in zip(self.breakpoints, self.values):
            yield prev, b, v
            prev = b
        yield prev, INF, self.tail

    def max_value(self) -> float:
        return max(self.values + (self.tail,))

    def is_nonincreasing(self) -> bool:
        # canonical values differ from their neighbours and the last from the
        # tail, so non-increasing is strictly decreasing down to the tail
        vals = self.values
        if len(vals) >= _LEVEL_SET_ARRAY_MIN:
            v = self._arrays[1]
            return bool(v[-1] > self.tail and (v[:-1] > v[1:]).all())
        return not vals or (vals[-1] > self.tail and all(map(operator.gt, vals, vals[1:])))

    # -- level-set machinery -------------------------------------------

    def _sorted_above_tail(self) -> "StepFunction":
        """``f*`` from the level sets: the distinct values above the tail
        (descending) over their cumulative lengths.

        Breakpoint ``k`` of the result is the measure of ``{f > lam}`` for
        ``lam`` directly below its value ``k``.  Both :meth:`distribution`
        and :meth:`rearrange` are driven by this single routine, with the
        lengths grouped in piece order and accumulated in descending value
        order, so the two sides of any equimeasurability comparison perform
        the same float additions and agree bit for bit.  A value whose
        length is lost to rounding in the running sum is left out: its level
        set adds no measure, and keeping it would give :meth:`rearrange` a
        repeated breakpoint.

        From ``_LEVEL_SET_ARRAY_MIN`` pieces on, numpy does the grouping
        (``np.unique`` and ``np.bincount``) and the running sum
        (``np.cumsum``) on ``_arrays``, and hands its arrays to the result;
        below it a dict loop is faster.  Both add the same lengths one at a
        time in the same order, so they return the same floats, and the
        choice depends only on the piece count, so :meth:`distribution` and
        :meth:`rearrange` of one function always take the same path.
        """
        if len(self.values) >= _LEVEL_SET_ARRAY_MIN:
            bps, vals = self._arrays
            lens = np.diff(bps, prepend=0.0)
            above = vals > self.tail
            levels, group = np.unique(vals[above], return_inverse=True)
            # bincount adds each group's lengths in piece order, as the loop does
            cum = np.cumsum(np.bincount(group, weights=lens[above], minlength=levels.size)[::-1])
            grows = cum > np.concatenate(([0.0], cum[:-1]))
            cum, levels = cum[grows], levels[::-1][grows]
            return StepFunction._canonical(tuple(cum.tolist()), tuple(levels.tolist()), self.tail, (cum, levels))
        sums: dict[float, float] = {}
        prev = 0.0
        for b, v in zip(self.breakpoints, self.values):
            if v > self.tail:
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
        return StepFunction._canonical(tuple(cumlens), tuple(values_desc), self.tail)

    def distribution(self, lam: float) -> float:
        """Lebesgue measure of ``{t > 0 : f(t) > lam}`` (``inf`` iff ``tail > lam``)."""
        lam = _as_float(lam, "lam")
        if lam < 0.0:
            raise ValueError(f"level must be >= 0, got {lam}")
        if self.tail > lam:
            return INF
        # The measure is a breakpoint of f*, stored (a non-increasing f is
        # its own f*) or summed as rearrange() sums it, so it matches the
        # rearranged function's breakpoints exactly.
        fs = self if self.is_nonincreasing() else self._sorted_above_tail()
        k = 0
        for v in fs.values:
            if v > lam:
                k += 1
            else:
                break
        return fs.breakpoints[k - 1] if k else 0.0

    def rearrange(self) -> "StepFunction":
        """Non-increasing rearrangement ``f*``.

        ``f*(t) = inf{lam >= 0 : |{f > lam}| <= t}``; pieces whose value does
        not exceed the tail are absorbed by it, because the corresponding
        level sets already have infinite measure.
        """
        return self if self.is_nonincreasing() else self._sorted_above_tail()

    # -- algebra --------------------------------------------------------

    def dilate(self, a: float) -> "StepFunction":
        """``(D_a f)(t) = f(a t)``: breakpoints divided by ``a > 0``."""
        a = _as_float(a, "a")
        if a <= 0.0 or a == INF:
            raise ValueError(f"dilation factor must be in (0, inf), got {a}")
        bps, vals = self._arrays
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            bps = bps / a
        if bps.size and not (bps[0] > 0.0 and bps[-1] < INF and (bps[1:] > bps[:-1]).all()):
            raise ValueError(
                f"dilation factor {a} takes breakpoints in [{self.breakpoints[0]}, "
                f"{self.breakpoints[-1]}] out of the float range: b / a must stay "
                f"distinct and within [{math.ulp(0.0)}, {sys.float_info.max}]"
            )
        return StepFunction._canonical(tuple(bps.tolist()), self.values, self.tail, (bps, vals))

    def scale(self, s: float) -> "StepFunction":
        s = _as_float(s, "s")
        if s < 0.0 or s == INF:
            raise ValueError(f"scale factor must be finite and >= 0, got {s}")
        return StepFunction(
            self.breakpoints, tuple(v * s for v in self.values), self.tail * s
        )

    def __add__(self, other: "StepFunction") -> "StepFunction":
        x, y = self.breakpoints, other.breakpoints
        a, c = self.values + (self.tail,), other.values + (other.tail,)
        bps = sorted(set(x) | set(y))
        # each side's value on the piece that a merged breakpoint closes
        vals = [a[bisect_left(x, b)] + c[bisect_left(y, b)] for b in bps]
        return StepFunction(tuple(bps), tuple(vals), self.tail + other.tail)

    def minimum(self, level: float) -> "StepFunction":
        """Pointwise ``min(f, level)`` with ``level >= 0``."""
        level = _as_float(level, "level")
        if level < 0.0:
            raise ValueError(f"level must be >= 0, got {level}")
        return StepFunction(
            self.breakpoints,
            tuple(min(v, level) for v in self.values),
            min(self.tail, level),
        )

    def restrict(self, b: float) -> "StepFunction":
        """``f * chi_(0, b]``: zero beyond ``b > 0``."""
        b = _as_float(b, "b")
        if b <= 0.0 or b == INF:
            raise ValueError(f"restriction bound must be in (0, inf), got {b}")
        bps: list[float] = []
        vals: list[float] = []
        for lo, hi, v in self.pieces():
            if lo >= b:
                break
            bps.append(min(hi, b))
            vals.append(v)
        return StepFunction(tuple(bps), tuple(vals), 0.0)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
            "tail": self.tail,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte, with the floats
        printed through orjson (:func:`_float_texts`)."""
        n = len(self.values)
        texts = _float_texts(np.concatenate((*self._arrays, [self.tail])))
        bps, vals = ", ".join(texts[:n]), ", ".join(texts[n:-1])
        return f'{{"breakpoints": [{bps}], "values": [{vals}], "tail": {texts[-1]}}}'

    @classmethod
    def from_dict(cls, d: dict) -> "StepFunction":
        if not isinstance(d, dict):
            raise ValueError("step function JSON must be an object")
        extra = set(d) - {"breakpoints", "values", "tail"}
        if extra:
            raise ValueError(f"unknown step function fields: {sorted(extra)}")
        bps = d.get("breakpoints", [])
        vals = d.get("values", [])
        if not isinstance(bps, list) or not isinstance(vals, list):
            raise ValueError("breakpoints and values must be arrays")
        bps = _json_numbers(bps, "breakpoints")
        vals = _json_numbers(vals, "values")
        tail = _json_number(d.get("tail", 0.0), "tail")
        if len(vals) >= _LEVEL_SET_ARRAY_MIN:
            arrays = _valid_canonical(bps, vals, tail)
            if arrays is not None:
                return cls._canonical(bps, vals, tail, arrays)
        return cls(bps, vals, tail)

    @classmethod
    def from_json(cls, s: str) -> "StepFunction":
        """The function of a JSON text, decoded by orjson where it can be.

        Where orjson refuses the text, or :meth:`from_dict` refuses what
        orjson made of it, ``json`` decodes it and decides, so that every
        refusal is the one ``json`` gives.  orjson is imported here, not
        at module load, so only callers that decode pay for its import.
        """
        if s.count("[") + s.count("{") <= _ORJSON_MAX_BRACKETS:
            import orjson

            try:
                return cls.from_dict(orjson.loads(s))
            except ValueError:  # orjson.JSONDecodeError is one
                pass
        try:
            d = json.loads(s)
        except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
            raise ValueError(f"malformed step function JSON: {e}") from e
        return cls.from_dict(d)


def _float_texts(xs: np.ndarray) -> list[str]:
    """``repr`` of every entry of a C-contiguous float64 array, printed by
    orjson.

    Both print the shortest text that reads back as the same float, and
    they agree wherever ``repr`` writes no exponent: at zero and at
    magnitudes in [1e-4, 1e16).  The other entries, where orjson writes
    ``1e16`` or ``0.00001`` for ``1e+16`` and ``1e-05``, and ``null`` for
    inf and NaN, are printed again by ``repr``.  orjson is imported here,
    as in :meth:`StepFunction.from_json`, so only callers that print pay
    for its import.
    """
    import orjson

    if not xs.size:
        return []
    texts = orjson.dumps(xs, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    a = np.abs(xs)
    (other,) = np.nonzero(~((a >= 1e-4) & (a < 1e16)) & (xs != 0.0))
    for i, x in zip(other.tolist(), xs[other].tolist()):
        texts[i] = repr(x)
    return texts


def _json_number(x, where: str) -> float:
    """One decoded JSON number as a float; anything else raises, naming ``where``."""
    if type(x) not in (int, float):
        raise ValueError(f"{where} must be a number, got {json.dumps(x)}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{where} is out of the float range") from None


def _json_numbers(xs: list, field: str) -> tuple[float, ...]:
    """Decoded JSON array of numbers as floats; the first bad entry raises."""
    types = set(map(type, xs))
    if types <= {float}:
        return tuple(xs)
    if types <= {int, float}:
        try:
            return tuple(map(float, xs))
        except OverflowError:
            pass
    return tuple(_json_number(x, f"{field}[{i}]") for i, x in enumerate(xs))


def _valid_canonical(
    bps: tuple[float, ...], vals: tuple[float, ...], tail: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The nonempty float fields as arrays if they pass every check of the
    constructor and are already canonical, with one numpy reduction per
    check, else ``None``; a last breakpoint of ``inf`` is left to
    :meth:`StepFunction._canonical`.

    Where it says no, the constructor runs on the fields and raises or
    merges as it always does, so errors and canonical forms do not depend
    on this test.
    """
    if len(bps) != len(vals) or not 0.0 <= tail < INF or vals[-1] == tail:
        return None
    n = len(vals)
    b, v = np.fromiter(bps, float, n), np.fromiter(vals, float, n)
    # each comparison is False at a NaN
    if (
        b[0] > 0.0
        and (b[1:] > b[:-1]).all()
        and v.min() >= 0.0
        and v.max() < INF
        and (v[1:] != v[:-1]).all()
    ):
        return b, v
    return None


def _nonzero_pieces(f: StepFunction, a: float = 0.0, b: float = INF) -> tuple[list, list, list]:
    """``(values, los, his)`` of the pieces of ``f`` with a nonzero value
    that meet ``(a, b)``, ``a < b``, clipped to it, in piece order.

    Only the first and the last piece meeting the window can reach past
    it, so only they are clipped, to ``max(lo, a)`` and ``min(hi, b)``.
    """
    bps = f.breakpoints
    n = len(bps)
    i = bisect_right(bps, a)  # the first piece ending past a
    j = bisect_left(bps, b)  # the last piece starting below b (j == n: the tail)
    if j == n and not f.tail:
        j -= 1  # a zero tail, the common case, is left out without a filter pass
        if j < i:
            return [], [], []
    if j < n:
        his, vals = [*bps[i : j + 1]], [*f.values[i : j + 1]]
    else:
        his, vals = [*bps[i:], INF], [*f.values[i:], f.tail]
    los = [*bps[i - 1 : j]] if i else [0.0, *bps[:j]]
    if a > los[0]:
        los[0] = a
    if b < his[-1]:
        his[-1] = b
    if not all(vals):
        los, his, vals = [*compress(los, vals)], [*compress(his, vals)], [*compress(vals, vals)]
    return vals, los, his


def weighted_power_integral(
    f: StepFunction, gamma: float, w: float, a: float = 0.0, b: float = INF
) -> float:
    """Exact ``integral_a^b t**(gamma-1) f(t)**w dt`` as an extended real.

    Each piece contributes ``c**w * power_integral(gamma, lo, hi)``; head and
    tail divergences are decided analytically, and zero-valued pieces never
    contribute (the integrand vanishes identically there), so ``0 * inf``
    cannot arise.

    The terms are added in piece order in a plain loop (``sum()``
    compensates from Python 3.12 on), so the value is the same float as
    adding the terms of a per-piece :func:`power_integral` loop.  The first
    infinite part returns ``inf`` before any later piece is evaluated, and
    an ``OverflowError`` is raised at the piece where that loop raises it.
    """
    gamma = _as_float(gamma, "gamma")
    w = _as_float(w, "w")
    if w <= 0.0 or w == INF:
        raise ValueError(f"power w must be in (0, inf), got {w}")
    a = _as_float(a, "a")
    b = _as_float(b, "b")
    if not 0.0 <= a < b:
        raise ValueError(f"need 0 <= a < b <= inf, got ({a}, {b})")
    vals, los, his = _nonzero_pieces(f, a, b)
    total = 0.0
    for v, lo, hi in zip(vals, los, his):
        part = _power_integral(gamma, lo, hi)
        if part == INF:
            return INF
        total += v**w * part
    return total
