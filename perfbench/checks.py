"""Closed-form references and check bounds for the benchmark workloads.

Every reference here is computed by the benchmark itself, independently of
selfnorm_lab.  Bounds are either the suites' pinned tolerances at the
suites' sizes, or derived from the sample size; none is tuned to a seed.

* KS bounds scale a suite's pinned tolerance with the sample size:
  ``pinned * sqrt(suite_reps / reps)`` for samples smaller than the suite's,
  which is how the sampling part of the KS distance scales.
* Mean and frequency checks allow ``Z_CHECK`` standard errors, the two-sided
  normal quantile for a false-alarm rate of 1e-6 per check.  The suites use
  3 s.e. once per run; the benchmark repeats each check in every iteration
  of every run, so it uses a per-check rate that stays negligible over
  thousands of evaluations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

FALSE_ALARM = 1e-6
Z_CHECK = float(special.ndtri(1.0 - FALSE_ALARM / 2.0))  # about 4.89


class Checks:
    """Accumulates named check outcomes; an exception is a failed check."""

    def __init__(self):
        self.records = []

    def add(self, name, value, bound, passed):
        self.records.append((name, value, bound, bool(passed)))

    def le(self, name, value, bound):
        self.add(name, float(value), float(bound), value <= bound)

    def ge(self, name, value, bound):
        self.add(name, float(value), float(bound), value >= bound)

    def true(self, name, cond, detail=""):
        self.add(name, detail, True, bool(cond))

    def error(self, name, exc):
        self.add(name, f"{type(exc).__name__}: {exc}", None, False)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r[3])

    def failures(self):
        return [r for r in self.records if not r[3]]


def scaled_ks_bound(pinned: float, suite_reps: int, reps: int) -> float:
    return pinned * math.sqrt(max(1.0, suite_reps / reps))


def mean_gap_bound(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    return Z_CHECK * float(v.std(ddof=1)) / math.sqrt(len(v))


def frequency_gap_bound(p: float, reps: int) -> float:
    return Z_CHECK * math.sqrt(p * (1.0 - p) / reps)


def ks_statistic(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_values)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n)))


# -- arctan limit law ---------------------------------------------------------


def arctan_cdf(i_s: np.ndarray, i_a: np.ndarray, beta: float) -> np.ndarray:
    ratio = np.clip(i_s / i_a, -1.0, 1.0)
    return 0.5 + np.arctan(ratio * math.tan(math.pi * beta / 2.0)) / (math.pi * beta)


def uniform_limit_cdf(x, beta: float = 0.5) -> np.ndarray:
    """Limit CDF of T_n for X uniform on [0, 1]: the signed and absolute
    fractional moments are (x^(b+1) -/+ (1-x)^(b+1)) / (b+1) inside the
    support, so the CDF is 0 below it and 1 above it."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, 0.0, 1.0)
    lo, hi = xc ** (beta + 1.0), (1.0 - xc) ** (beta + 1.0)
    inside = arctan_cdf(lo - hi, lo + hi, beta)
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, inside))


def atomic_limit_cdf(x, atoms, beta: float = 0.5) -> np.ndarray:
    """Limit CDF for a weight law with atoms only (sgn(0) = 0 at an atom);
    the value 1/2 is returned where the absolute moment vanishes."""
    x = np.asarray(x, dtype=float)
    i_s = sum(m * np.abs(loc - x) ** beta * np.sign(x - loc) for loc, m in atoms)
    i_a = sum(m * np.abs(loc - x) ** beta for loc, m in atoms)
    safe = np.where(i_a > 0.0, i_a, 1.0)
    return np.where(i_a > 0.0, arctan_cdf(i_s, safe, beta), 0.5)


def tail_prefactor(beta: float) -> float:
    t = math.tan(math.pi * beta / 2.0)
    return t / (math.pi * beta * (1.0 + t * t))


def symmetric_pareto_tail(x, gamma: float, beta: float = 0.5) -> np.ndarray:
    """First-order upper tail for X symmetric Pareto(gamma), x >= 1:
    2 pref E[(X/x - 1)^b; X > x] = 2 pref (gamma/2) x^-gamma B(gamma-b, b+1)."""
    x = np.asarray(x, dtype=float)
    return (2.0 * tail_prefactor(beta) * 0.5 * gamma * x ** (-gamma)
            * special.beta(gamma - beta, beta + 1.0))


def cdf_quad_bound(quad_tol: float, pieces: int, min_abs_moment: float,
                   beta: float = 0.5) -> float:
    """Worst CDF error from quadrature: each of i_s and i_a is a sum of
    ``pieces`` integrals with absolute error at most quad_tol, the ratio's
    error is at most the sum over i_a, and the arctan map's slope is at most
    tan(pi b/2) / (pi b)."""
    slope = math.tan(math.pi * beta / 2.0) / (math.pi * beta)
    return slope * 2.0 * pieces * quad_tol / min_abs_moment


def levy_cdf(z, c: float) -> np.ndarray:
    """CDF of the Levy(0, c) law, 2 (1 - Phi(sqrt(c / z))) for z > 0."""
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.0, special.erfc(np.sqrt(c / (2.0 * np.maximum(z, 1e-300)))), 0.0)
