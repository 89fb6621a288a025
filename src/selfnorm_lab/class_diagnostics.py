"""Tail-ratio diagnostics that classify multiplier laws into limit regimes.

Three ratios drive the classification: the truncated-variance tail ratio
(bounded iff partial sums are subsequentially tight after centering), its
centered variant (bounded iff zero centering is admissible), and Griffin's
ratio (bounded iff sum(Y)/sqrt(sum(Y^2)) stays stochastically bounded).
The module also provides the atom detector and the one-sample
Kolmogorov-Smirnov distance used throughout the acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import MultiplierLaw, ParameterError, vec_eval
from .montecarlo import EmpiricalSample


def tail_ratios(y: MultiplierLaw, x):
    """The Feller, centered Feller and Griffin ratios of Y at x, as (F, C, G):

        F = x^2 P{Y > x} / E[Y^2 1{Y <= x}]
        C = (x^2 P{Y > x} + x E[Y 1{Y <= x}]) / E[Y^2 1{Y <= x}]
        G = x E[Y 1{Y <= x}] / (x^2 P{Y > x} + E[Y^2 1{Y <= x}])

    x is a float or an array of floats; an array gives arrays of its shape.
    Any x below the support of Y (zero truncated variance) raises, and so
    does an x where an input or a ratio overflows a double (x * x past
    about 1.34e154).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m2 = y.trunc_second(x)
        tail = x * x * y.survival(x)
        m1 = x * y.trunc_mean(x)
        ratios = tail / m2, (tail + m1) / m2, m1 / (tail + m2)
        bad = ~np.isfinite(tail + m1 + m2 + sum(ratios))  # also a sum's overflow
    if not np.all(m2 > 0.0):
        raise ParameterError("x is below the support of Y (zero truncated variance)")
    if bad.any():
        first = float(np.asarray(x)[bad][0])
        raise ParameterError(f"tail ratios overflow a double at x = {first!r}")
    return ratios


@dataclass
class ClassVerdict:
    """Class label plus the boundedness proxies it was derived from.

    The proxies are maxima over the top decade of the scan grid; 'growing'
    means the top-decade maximum exceeds 4x the bottom-decade maximum and 50
    in absolute size.  The thresholds separate the shipped laws by an order
    of magnitude; for unseen laws the finite-grid proxy is a heuristic.
    """

    feller_limsup_proxy: float
    centered_limsup_proxy: float
    griffin_limsup_proxy: float
    label: str


_GROW_FACTOR = 4.0
_GROW_ABS = 50.0


def ratio_scans(y: MultiplierLaw, x_grid: Sequence[float]):
    """The Feller, centered Feller and Griffin ratios over x_grid.

    The grid must be finite, positive, increasing and span at least six
    decades.  Returns (grid, feller, centered, griffin) as float arrays.
    """
    grid = np.asarray(list(x_grid), dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ParameterError("x_grid must be finite")
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ParameterError("x_grid must be strictly increasing")
    if grid[0] <= 0.0:
        raise ParameterError("x_grid must be positive")
    if grid[-1] / 1e6 < grid[0]:  # grid[-1] / grid[0] can overflow
        raise ParameterError("x_grid must span at least six decades")
    return (grid, *tail_ratios(y, grid))


def classify(y: MultiplierLaw, x_grid: Sequence[float]) -> ClassVerdict:
    """Assign the regime label from ratio scans over x_grid (see
    :func:`ratio_scans` and :func:`verdict_from_scans`)."""
    return verdict_from_scans(*ratio_scans(y, x_grid))


def verdict_from_scans(grid: np.ndarray, fel: np.ndarray, cen: np.ndarray,
                       gri: np.ndarray) -> ClassVerdict:
    """Regime label from the output of :func:`ratio_scans`.

    Decision order: a growing Griffin ratio fails Griffin's condition;
    otherwise a bounded centered ratio keeps zero centering admissible;
    what remains is the heavy-oscillation regime where Griffin's condition
    still holds.  The plain ratio F needs no test of its own: the centered
    ratio is C = F + G (F + 1) with G Griffin's, so a bounded G and an
    unbounded C force an unbounded F.
    """
    top, bottom = grid >= grid[-1] / 10.0, grid <= grid[0] * 10.0
    fel_top, cen_top, gri_top = (float(v[top].max()) for v in (fel, cen, gri))

    def growing(last: float, vals: np.ndarray) -> bool:
        return last > _GROW_FACTOR * vals[bottom].max() and last > _GROW_ABS

    if growing(gri_top, gri):
        label = "griffin_fails"
    elif not growing(cen_top, cen):
        label = "centered_feller"
    else:
        label = "not_feller_griffin_holds"
    return ClassVerdict(feller_limsup_proxy=fel_top, centered_limsup_proxy=cen_top,
                        griffin_limsup_proxy=gri_top, label=label)


# ---------------------------------------------------------------------------
# Atom detection and KS distance
# ---------------------------------------------------------------------------


def atom_scan(sample: EmpiricalSample, eps: float) -> list:
    """Detect atoms of the sampled law at resolution eps.

    For every sample point t the window mass #{|values - t| <= eps}/reps is
    compared against twice the larger of (a) the flanking window masses over
    (t+eps, t+3eps] and [t-3eps, t-eps), which estimate the continuous
    density nearby, and (b) a uniform-spread baseline 2 eps / range.  Window
    centers that clear the threshold are reduced by non-maximum suppression
    at spacing 2 eps; each survivor is reported as (location, mass), where
    the location is the median of the winning window (the atom itself when
    one dominates) and the flank-estimated continuous contribution is
    subtracted from the mass.  Returns [] when no window clears the
    threshold.
    """
    if not 0.0 < eps < np.inf:
        raise ParameterError("eps must be positive and finite")
    v = sample.values
    reps = len(v)
    span = float(v[-1] - v[0])
    baseline = 2.0 * eps / max(span, 8.0 * eps)
    lo_i = np.searchsorted(v, v - eps, side="left")
    hi_i = np.searchsorted(v, v + eps, side="right")
    mass = (hi_i - lo_i) / reps
    flank_hi = (np.searchsorted(v, v + 3.0 * eps, side="right") - hi_i) / reps
    flank_lo = (lo_i - np.searchsorted(v, v - 3.0 * eps, side="left")) / reps
    flank = np.maximum(flank_lo, flank_hi)
    threshold = np.maximum(2.0 * flank, np.maximum(2.0 * baseline, 20.0 / reps))
    cand = np.nonzero(mass > threshold)[0]
    order = cand[np.argsort(mass[cand])[::-1]]
    accepted = []
    for i in order:
        if all(abs(v[i] - v[j]) > 2.0 * eps for j in accepted):
            accepted.append(i)
    out = []
    for i in sorted(accepted, key=lambda j: v[j]):
        est = mass[i] - 0.5 * (flank_lo[i] + flank_hi[i])
        loc = float(np.median(v[lo_i[i]:hi_i[i]]))
        out.append((loc, float(max(est, 0.0))))
    return out


def ks_distance(sample: EmpiricalSample, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov distance, both one-sided gaps.

    ``cdf`` must map the sorted sample to a finite array of the same shape;
    any other result raises :class:`ParameterError` (see :func:`vec_eval`).
    """
    v = sample.values
    reps = len(v)
    f = vec_eval(cdf, v)
    if not np.isfinite(f).all():
        raise ParameterError("cdf returned a value that is not finite")
    i = np.arange(1, reps + 1)
    return float(max(np.max(i / reps - f), np.max(f - (i - 1) / reps)))
