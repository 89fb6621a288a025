"""Analytic limit law of the self-normalized ratio under Pareto multipliers.

Evaluates the arctan-form limit CDF (Breiman's arcsine-law extension), its
upper-tail expansion, the regular-variation tail constant, and the
product-tail ratio that identifies the limit's jump constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    MultiplierLaw,
    ParameterError,
    SeedStream,
    WeightLaw,
    expect_weight,
    vec_eval,
)
from .levy_calculus import ConvergenceReport


@dataclass(frozen=True)
class BreimanLimit:
    """Limit of T_n for Y with tail index beta in (0, 1) and weight law F.

    Requires a fractional absolute moment of X one notch above beta
    (checked at beta + moment_margin).  ``quad_tol`` is the absolute
    tolerance of each moment quadrature piece, whose error estimate may reach
    max(quad_tol, 1e-9 * |piece|) (see :func:`quad_segments`).
    """

    beta: float
    weight: WeightLaw
    quad_tol: float = 1e-9
    moment_margin: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ParameterError("beta must lie in (0, 1)")
        b = self.beta + self.moment_margin
        total = self.weight.beta_moment_pos(b) + self.weight.beta_moment_neg(b)
        if not math.isfinite(total):
            raise ParameterError(
                f"weight law needs a finite absolute moment of order {b:g}")


def _signed_and_abs_moments(lim: BreimanLimit, x: float):
    """I_s = E|X - x|^b sgn(x - X) and I_a = E|X - x|^b (finite sums plus
    split quadrature; the kink at the evaluation point is a split point,
    and an atom exactly there contributes zero to both by the sgn(0) = 0
    convention)."""
    b, law, tol = lim.beta, lim.weight, lim.quad_tol
    i_a = expect_weight(law, lambda u: abs(u - x) ** b,
                        points=(x,), tol=tol)
    i_s = expect_weight(law, lambda u: abs(u - x) ** b * math.copysign(1.0, x - u)
                        if u != x else 0.0,
                        points=(x,), tol=tol)
    return i_s, i_a


def breiman_cdf(lim: BreimanLimit, x: float) -> float:
    """Limit CDF at x: 1/2 + arctan(ratio * tan(pi b / 2)) / (pi b), where
    the ratio is the signed over absolute fractional moment of the weight
    law around x.

    Nondecreasing with limits 0 and 1; for a degenerate weight at c it is
    the step function at c, with the convention value 1/2 returned at x = c
    (the law's ``degenerate`` flag marks this case).
    """
    b = lim.beta
    i_s, i_a = _signed_and_abs_moments(lim, x)
    if i_a <= 0.0:
        return 0.5  # degenerate weight evaluated at its atom
    ratio = min(1.0, max(-1.0, i_s / i_a))
    return 0.5 + math.atan(ratio * math.tan(math.pi * b / 2.0)) / (math.pi * b)


def breiman_cdf_grid(lim: BreimanLimit, grid: Sequence[float]) -> np.ndarray:
    return np.asarray([breiman_cdf(lim, float(t)) for t in grid])


def tabulated_cdf(lim: BreimanLimit, lo: float = math.nan, hi: float = math.nan,
                  points: int = 2001,
                  grid: Optional[np.ndarray] = None) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized CDF via monotone interpolation of a dense table.

    The interpolation error is bounded by the CDF increment per grid cell, so
    the grid must be dense where the law is.  The default linear grid over
    [lo, hi] suits bounded weights; for heavy-tailed weights pass an explicit
    ``grid`` (for example sample quantiles) so resolution follows the mass.
    Use it for sample-sized KS evaluations where per-point quadrature would
    be slow.
    """
    if grid is None:
        grid = np.linspace(lo, hi, points)
    grid = np.unique(np.asarray(grid, dtype=float))
    if grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ParameterError("tabulation grid must hold at least two finite points")
    table = breiman_cdf_grid(lim, grid)
    lo_val, hi_val = table[0], table[-1]

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, grid, table, left=lo_val, right=hi_val)

    return cdf


def quantile_grid(values: np.ndarray, points: int = 2001, pad: float = 1.0,
                  trim: float = 2e-4) -> np.ndarray:
    """Sample-quantile tabulation grid: dense exactly where the sample is.

    The outermost ``trim`` quantile on each side is excluded; for
    heavy-tailed samples those stragglers would stretch the table by orders
    of magnitude while moving the CDF by less than ``trim``.
    """
    qs = np.quantile(np.asarray(values, dtype=float),
                     np.linspace(trim, 1.0 - trim, points))
    return np.unique(np.concatenate([[qs[0] - pad], qs, [qs[-1] + pad]]))


def breiman_density(lim: BreimanLimit, x: float, step: float = 1e-4) -> float:
    """Diagnostic density of the limit law as a central finite difference of
    the CDF.  The exact ratio-density representation needs the joint density
    of the limit pair, which has no closed form here."""
    return (breiman_cdf(lim, x + step) - breiman_cdf(lim, x - step)) / (2.0 * step)


_TAIL_PREF = lambda b: math.tan(math.pi * b / 2.0) / (
    math.pi * b * (1.0 + math.tan(math.pi * b / 2.0) ** 2))


def breiman_tail(lim: BreimanLimit, x: float) -> float:
    """First-order upper-tail value at x > 0:
    2 * E[(X/x - 1)^b 1{X > x}] * tan(pi b/2) / (pi b (1 + tan^2(pi b/2))).
    """
    if x <= 0.0:
        raise ParameterError("x must be positive")
    b, law = lim.beta, lim.weight
    integral = expect_weight(law, lambda u: (u / x - 1.0) ** b,
                             lo=x, hi=math.inf, include_lo=False,
                             tol=lim.quad_tol)
    return 2.0 * integral * _TAIL_PREF(b)


def regvar_tail_constant(beta: float, alpha_rv: float,
                         tol: float = 1e-10) -> float:
    """Limit of P{T > x} / P{X > x} when the weight tail is regularly
    varying with index -alpha_rv (alpha_rv > beta):
    2 beta * integral over (1, inf) of y^-alpha (y-1)^(beta-1) dy * prefactor.

    The integral equals the Beta function B(beta, alpha_rv - beta), which
    serves as an independent oracle for the quadrature.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must lie in (0, 1)")
    if not alpha_rv > beta:
        raise ParameterError("alpha_rv must exceed beta")
    from scipy.integrate import quad

    res = quad(lambda t: t ** (alpha_rv - beta - 1.0) * (1.0 - t) ** (beta - 1.0),
               0.0, 1.0, epsabs=tol, limit=300)
    return 2.0 * beta * res[0] * _TAIL_PREF(beta)


def product_tail_ratio(x: WeightLaw, y: MultiplierLaw, y_grid: Sequence[float],
                       stream: SeedStream, draws: int = 1_000_000,
                       rel_tol: float = 0.05):
    """Estimate P{XY > t}/P{Y > t} (and the mirrored negative branch) along
    y_grid and compare with the fractional-moment limits of the weight law.

    Returns (positive_report, negative_report).  The weight factor is
    integrated out through its CDF, so each point averages tail values of X
    over multiplier draws; with bounded weights the draws restrict to the
    conditional upper tail of Y, which removes rare-event variance.
    """
    if y.tail_class.kind != "pareto":
        raise ParameterError("product-tail ratio is calibrated for Pareto multipliers")
    b = y.tail_class.beta
    lim_pos = x.beta_moment_pos(b)
    lim_neg = x.beta_moment_neg(b)
    hi = x.support[1]
    lo = x.support[0]

    def estimate(t: float, branch: str, substream: SeedStream):
        edge = hi if branch == "pos" else -lo
        if edge <= 0.0:
            return 0.0, 0.0
        if y.tail_sampler is not None and math.isfinite(edge):
            y0 = t / edge
            ys = y.tail_sampler(substream, draws, y0)
            scale = y.survival(max(y0, 1.0))
        else:
            ys = y.sampler(substream, draws)
            scale = 1.0
        with np.errstate(divide="ignore"):
            r = np.where(ys > 0.0, t / np.maximum(ys, 1e-300), math.inf)
        if branch == "pos":
            vals = 1.0 - vec_eval(x.cdf, r)
        else:
            vals = vec_eval(x.cdf, -r)
        vals = scale * vals / y.survival(t)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))

    reports = []
    for branch, limit in (("pos", lim_pos), ("neg", lim_neg)):
        est, ses = [], []
        for i, t in enumerate(y_grid):
            e, s = estimate(float(t), branch, stream.child(i if branch == "pos" else 1000 + i))
            est.append(e)
            ses.append(s)
        tol = max(rel_tol * max(abs(limit), 1e-12), 3.0 * max(ses) if ses else 0.0)
        reports.append(ConvergenceReport.build(
            name=f"product_tail_{branch}", grid=list(y_grid), prelimit=est,
            limit=[limit] * len(est), tol=tol, se=ses))
    return reports[0], reports[1]
