"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rinorms import StepFunction, generate_corpus, lorentz_norm
from rinorms.interp import _default_levels

INF = math.inf


def quad_weighted_power(f: StepFunction, gamma: float, w: float, a: float = 0.0, b: float = INF) -> float:
    """Adaptive-quadrature oracle for ``integral_a^b t**(gamma-1) f(t)**w dt``.

    Integrates each constant piece separately with QUADPACK so the oracle
    never sees a discontinuity; it shares no code with the closed forms
    under test.  Only finite integrals are supported.
    """
    total = 0.0
    for lo, hi, v in f.pieces():
        if v == 0.0:
            continue
        lo2, hi2 = max(lo, a), min(hi, b)
        if lo2 >= hi2:
            continue
        if hi2 == INF:
            raise ValueError("quadrature oracle needs a finite integration range")
        val, _ = quad(
            lambda t, c=v: t ** (gamma - 1.0) * c**w,
            lo2,
            hi2,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=400,
        )
        total += val
    return total


def quad_lorentz_norm(f: StepFunction, p: float, q: float) -> float:
    """Quadrature oracle for finite Lorentz norms with q < inf."""
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    assert fs.tail == 0.0 and p < INF and q < INF
    return quad_weighted_power(fs, q / p, q, 0.0, fs.breakpoints[-1]) ** (1.0 / q)


def loop_k_upper_oracle(f: StepFunction, t: float, couple, levels=None) -> float:
    """Per-level reference for :func:`rinorms.k_upper_oracle`.

    Builds ``(f* - lam)_+`` and ``min(f*, lam)`` as step functions for each
    level and takes their Lorentz norms one at a time; the array oracle must
    agree with it.  O(levels x pieces) Python objects, so keep inputs small.
    """
    fs = f.rearrange()
    if fs.is_zero:
        return 0.0
    best = INF
    for lam in _default_levels(fs) if levels is None else levels:
        cost0 = lorentz_norm(fs.excess(lam), couple.params0)
        if cost0 == INF:
            continue
        cost1 = lorentz_norm(fs.minimum(lam), couple.params1)
        best = min(best, cost0 + t * cost1)
    return best


def loop_canonical(breakpoints, values, tail) -> tuple[tuple, tuple, float]:
    """Element-loop reference for ``StepFunction`` validation and canonical form.

    Returns the ``(breakpoints, values, tail)`` fields the constructor must
    store, or raises the exception it must raise, with the same message.
    """

    def as_float(x, what):
        v = float(x)
        if math.isnan(v):
            raise ValueError(f"{what} must not be NaN")
        return v

    bps = tuple(as_float(b, "breakpoint") for b in breakpoints)
    vals = tuple(as_float(v, "value") for v in values)
    tail = as_float(tail, "tail")
    if len(bps) != len(vals):
        raise ValueError(f"{len(bps)} breakpoints need {len(bps)} values, got {len(vals)}")
    if tail < 0.0 or not math.isfinite(tail):
        raise ValueError(f"tail must be finite and >= 0, got {tail}")
    prev = 0.0
    for b in bps:
        if not math.isfinite(b) or b <= prev:
            raise ValueError(
                f"breakpoints must be finite, positive and strictly increasing, got {bps}"
            )
        prev = b
    for v in vals:
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"values must be finite and >= 0, got {v}")
    merged: list[tuple[float, float]] = []
    for b, v in zip(bps, vals):
        if merged and merged[-1][1] == v:
            merged[-1] = (b, v)
        else:
            merged.append((b, v))
    while merged and merged[-1][1] == tail:
        merged.pop()
    return tuple(b for b, _ in merged), tuple(v for _, v in merged), tail


@pytest.fixture(scope="session")
def unit_indicator() -> StepFunction:
    return StepFunction.indicator(0.0, 1.0)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(7, 60)


@pytest.fixture(scope="session")
def dyadic_corpus():
    return generate_corpus(13, 60, dyadic=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
