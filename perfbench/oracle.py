"""Independent closed forms that check the large-query outputs.

These use numpy on the raw input arrays and never call rinorms, so a bug in
the library cannot hide by also appearing in its check.  Each formula is the
textbook one for a nonnegative step function ``f`` with pieces
``(b[k-1], b[k]]`` (``b[-1] = 0``), values ``v[k]`` and tail value ``tail``:

* ``f*`` sorts the values above the tail in decreasing order, with each
  value's total length as its piece width;
* ``||f||_{2,1} = integral t^(-1/2) f*(t) dt`` and
  ``||f||_{2,inf} = sup t^(1/2) f*(t)``;
* ``f**(t) = (1/t) integral_0^t f*``, which is also
  ``t^-1 K(t, f; L_1, L_inf)``, so the ``hardy --U 1 --W 1`` values, the
  L_2 norm of ``f**`` and the ``functor-norm`` over ``(L_1, L_inf)`` with
  ``theta = r = 1`` and ``E = L_{2,2}`` all come from the same primitive.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


class Rearranged:
    """``f*`` of a step function given by plain arrays."""

    def __init__(self, breakpoints, values, tail: float):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        widths = np.diff(np.concatenate([[0.0], b]))
        above = v > tail
        uniq, inverse = np.unique(v[above], return_inverse=True)
        lengths = np.bincount(inverse, weights=widths[above], minlength=uniq.size)
        self.values = uniq[::-1]
        self.breakpoints = np.cumsum(lengths[::-1])
        self.tail = float(tail)
        prev = np.concatenate([[0.0], self.breakpoints[:-1]])
        # C[k] = integral_0^{b[k-1]} f*, the mass left of piece k
        self.mass = np.concatenate([[0.0], np.cumsum(self.values * (self.breakpoints - prev))])
        self._prev = prev

    def norm_2_1(self) -> float:
        if self.tail > 0.0:
            return INF
        return float(np.sum(2.0 * self.values * (np.sqrt(self.breakpoints) - np.sqrt(self._prev))))

    def norm_2_inf(self) -> float:
        if self.tail > 0.0:
            return INF
        return float(np.max(self.values * np.sqrt(self.breakpoints), initial=0.0))

    def k_l1_linf(self, t: float) -> float:
        """``integral_0^t f*``."""
        k = int(np.searchsorted(self.breakpoints, t, side="left"))
        start = self._prev[k] if k < self.values.size else (self.breakpoints[-1] if k else 0.0)
        level = self.values[k] if k < self.values.size else self.tail
        return float(self.mass[k] + level * (t - start))

    def double_star(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self.breakpoints, t, side="left")
        starts = np.append(self._prev, self.breakpoints[-1] if self.values.size else 0.0)
        levels = np.append(self.values, self.tail)
        return (self.mass[k] + levels[k] * (t - starts[k])) / t

    def double_star_l2(self) -> float:
        """``||f**||_{L_2}``: on piece k, ``f** = v + D/t`` with ``D >= 0``."""
        if self.tail > 0.0:
            return INF
        v, a, b = self.values, self._prev, self.breakpoints
        d = self.mass[:-1] - v * a
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(a > 0.0, 2.0 * v * d * np.log(b / a) + d * d * (1.0 / a - 1.0 / b), 0.0)
        total = np.sum(v * v * (b - a) + cross)
        if b.size:
            total += self.mass[-1] ** 2 / b[-1]
        return float(math.sqrt(total))
