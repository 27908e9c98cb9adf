"""Certified intervals for norm values."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stepfn import INF

__all__ = ["Enclosure"]


@dataclass(frozen=True)
class Enclosure:
    """Closed interval ``[lo, hi]`` guaranteed to contain an exact norm value.

    ``+inf`` endpoints are first-class (a divergent norm is ``[inf, inf]``);
    NaN is rejected.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("enclosure endpoints must not be NaN")
        if lo < 0.0 or lo > hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        if self.hi == INF:
            return 0.0 if self.lo == INF else INF
        return self.hi - self.lo

    @property
    def relative_width(self) -> float:
        if self.hi == 0.0:
            return 0.0
        if self.hi == INF:
            return 0.0 if self.lo == INF else INF
        return (self.hi - self.lo) / self.hi

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def __str__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"
