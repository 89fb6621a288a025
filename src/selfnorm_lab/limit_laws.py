"""Analytic limit law of the self-normalized ratio under Pareto multipliers.

Evaluates the arctan-form limit CDF (Breiman's arcsine-law extension), its
upper-tail expansion and the regular-variation tail constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import beta as beta_fn

from .distributions import ParameterError, QuadratureError, WeightLaw

# BreimanLimit checks the weight law's absolute moment at this order above beta.
_MOMENT_MARGIN = 0.05


@dataclass(frozen=True)
class BreimanLimit:
    """Limit of T_n for Y with tail index beta in (0, 1) and weight law F.

    Requires a fractional absolute moment of X one notch above beta
    (checked at beta + _MOMENT_MARGIN).  Every evaluator of the limit CDF
    and its tail uses the grid rule of :func:`breiman_cdf_grid`.
    """

    beta: float
    weight: WeightLaw

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ParameterError("beta must lie in (0, 1)")
        b = self.beta + _MOMENT_MARGIN
        total = self.weight.beta_moment_pos(b) + self.weight.beta_moment_neg(b)
        if not math.isfinite(total):
            raise ParameterError(
                f"weight law needs a finite absolute moment of order {b:g}")


# Grid rule.  I+(x) = E[(X-x)^b; X>x] = integral over s > 0 of
# b s^(b-1) sf(x + s), and I-(x) is the same with cdf(x - s).  With w = s^b
# the weight b s^(b-1) ds becomes dw, leaving the bounded, monotone
# integrands sf(x + w^(1/b)) and cdf(x - w^(1/b)).  They are split where
# x -/+ w^(1/b) crosses an atom, a density break or a support edge.  A
# piece with no mass inside is a constant times its w-length.  Every other
# finite piece gets Gauss-Legendre cells graded geometrically toward both
# ends (a break, or a singularity of the density's continuation just past
# one).  An infinite piece from s0 gets a head up to c = 2 max(s0, |x|, 1),
# graded toward s0, and a tail folded onto t in (0, 1] in graded levels:
# first s = c / t, whose levels span a ratio 8 in s and resolve the law's
# bulk whatever b is, then w = c1^b / t, whose levels span 8^(1/b) in s and
# reach far enough out that the terms below the last level form a
# geometric series; that remainder is added in closed form, exact for
# power-law tails.
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W
_RATIO = 0.125          # geometric grading ratio
_LEVELS = 4             # graded cells toward each end of a finite piece
_NEAR_LEVELS = 2        # tail levels folded in s
_FAR_LEVELS = 10        # tail levels folded in w
_CHUNK = 256            # grid points per pass: each temporary under 0.5 MiB


def _cells(edges: np.ndarray):
    """Gauss-Legendre nodes and weights of the cells between ``edges``."""
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * _GL_T).ravel(), (width * _GL_W).ravel()


_grade = 0.5 * _RATIO ** np.arange(_LEVELS, -1, -1)
_PIECE_T, _PIECE_W = _cells(np.concatenate([[0.0], _grade, 1.0 - _grade[::-1], [1.0]]))
_HEAD_T, _HEAD_W = _cells(np.concatenate([[0.0], _grade, [1.0]]))
_NEAR_T, _NEAR_W = _cells(_RATIO ** np.arange(_NEAR_LEVELS, -1, -1.0))
_FAR_T, _FAR_W = _cells(_RATIO ** np.arange(_FAR_LEVELS, -1, -1.0))
_FAR_W = _FAR_W / (_FAR_T * _FAR_T)   # dw = c1^b dt / t^2
_FAR_T = 1.0 / _FAR_T                 # nodes as w / c1^b


def _rule(tail, x, w_lo, w_hi, t, wt, b):
    """Integral of tail(x + w^(1/b)) over (w_lo, w_hi) by the rule (t, wt)
    on [0, 1]."""
    span = w_hi - w_lo
    u = x[:, None] + (w_lo[:, None] + span[:, None] * t) ** (1.0 / b)
    return (tail(u) * wt).sum(axis=1) * span


def _folded_tail(tail, x, c, b):
    """Integral of b s^(b-1) tail(x + s) over s > c (see the grid rule)."""
    u = x[:, None] + c[:, None] / _NEAR_T
    near = (tail(u) * (b * _NEAR_W * _NEAR_T ** (-b - 1.0))).sum(axis=1) * c ** b
    c1_b = (c * _RATIO ** -_NEAR_LEVELS) ** b
    u = x[:, None] + (c1_b[:, None] * _FAR_T) ** (1.0 / b)
    # one sum per level; level 0 lies next to t = 0
    levels = (tail(u) * _FAR_W).reshape(len(x), _FAR_LEVELS, -1).sum(axis=2)
    last, prev = levels[:, 0], levels[:, 1]
    q = np.divide(last, prev, out=np.zeros_like(last), where=prev > 0.0)
    if np.any((q >= 1.0) & (last > 0.0)):
        raise QuadratureError("tail of the weight law is not resolved by the folded grid")
    far = levels.sum(axis=1) + np.where(q < 1.0, last * q / (1.0 - q), 0.0)
    return near + far * c1_b


def _upper_moment(tail, knots, empty, x, b):
    """E[(Z-x)^b; Z>x] for every x, where tail(u) = P{Z > u}, ``knots``
    are the sorted finite break points of Z and ``empty[j]`` flags the j-th
    piece between -inf, the knots and +inf as holding no mass of Z."""
    out = np.zeros_like(x)
    edges = (-math.inf, *knots, math.inf)
    for lo, hi, no_mass in zip(edges[:-1], edges[1:], empty):
        sel = np.nonzero(x < hi)[0]
        if sel.size == 0:
            continue
        xs = x[sel]
        s0 = np.maximum(lo, xs) - xs  # distance to the piece
        w_lo = s0 ** b
        if no_mass:
            inside = hi - 1.0 if lo == -math.inf else (lo + 1.0 if hi == math.inf else 0.5 * (lo + hi))
            level = float(tail(inside))
            if level > 0.0:  # only a finite piece can hold a non-zero level
                out[sel] += level * ((hi - xs) ** b - w_lo)
        elif hi < math.inf:
            out[sel] += _rule(tail, xs, w_lo, (hi - xs) ** b, _PIECE_T, _PIECE_W, b)
        else:
            c = 2.0 * np.maximum(np.maximum(s0, np.abs(xs)), 1.0)
            out[sel] += _rule(tail, xs, w_lo, c ** b, _HEAD_T, _HEAD_W, b) + _folded_tail(tail, xs, c, b)
    return out


def _fractional_moment(law: WeightLaw, x: np.ndarray, b: float, side: int) -> np.ndarray:
    """I+ = E[(X-x)^b; X>x] (side +1) or I- = E[(x-X)^b; X<x] (side -1)
    over the 1-d array x."""
    if law.pdf is None:
        return sum(m * np.maximum(side * (loc - x), 0.0) ** b for loc, m in law.atoms)
    knots = sorted({p for p in (*(loc for loc, _ in law.atoms), *law.pdf_breaks, *law.support)
                    if math.isfinite(p)})
    edges = (-math.inf, *knots, math.inf)
    empty = [float(law.cdf(lo)) == law.cdf_left(hi) for lo, hi in zip(edges[:-1], edges[1:])]
    tail = law.sf
    if side < 0:  # I- of X is I+ of -X at -x
        cdf = law.cdf
        tail, knots, empty, x = lambda v: cdf(-v), [-k for k in knots[::-1]], empty[::-1], -x
    out = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        out[i:i + _CHUNK] = _upper_moment(tail, knots, empty, x[i:i + _CHUNK], b)
    return out


def _check_finite(x: np.ndarray, *moments: np.ndarray) -> None:
    """Raise QuadratureError at the first point of x where a fractional
    moment is not finite (the rule overflows for |x| beyond about 1e306)."""
    bad = ~np.all(np.isfinite(moments), axis=0)
    if np.any(bad):
        raise QuadratureError(f"fractional moment is not finite at x = {x[bad][0]!r}")


def breiman_cdf_grid(lim: BreimanLimit, grid: Sequence[float]) -> np.ndarray:
    """Limit CDF at every point of ``grid``:
    1/2 + arctan(ratio * tan(pi b / 2)) / (pi b), where the ratio is
    i_s / i_a, the signed over the absolute fractional moment of the weight
    law around the point.

    ``I+ = E[(X-x)^b; X>x]`` and ``I- = E[(x-X)^b; X<x]`` come from the
    grid rule above, or from exact sums for a law with atoms only; then
    ``i_a = I+ + I-`` and ``i_s = I- - I+``.  The rule runs over a fixed
    number of points at a time, and each value depends only on its own
    point.  Nondecreasing with limits 0 and 1; for a degenerate weight at c
    it is the step function at c, with the convention value 1/2 at x = c,
    where i_a is 0.  Non-finite points raise ParameterError; a point whose
    moments are not finite raises QuadratureError.
    """
    x = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError("grid points must be finite")
    b, flat = lim.beta, x.ravel()
    up = _fractional_moment(lim.weight, flat, b, 1)
    down = _fractional_moment(lim.weight, flat, b, -1)
    _check_finite(flat, up, down)
    i_a, i_s = up + down, down - up
    ratio = np.clip(i_s / np.where(i_a > 0.0, i_a, 1.0), -1.0, 1.0)
    cdf = 0.5 + np.arctan(ratio * math.tan(math.pi * b / 2.0)) / (math.pi * b)
    return np.where(i_a > 0.0, cdf, 0.5).reshape(x.shape)


def breiman_cdf(lim: BreimanLimit, x: float) -> float:
    """Limit CDF at one point: the grid rule of :func:`breiman_cdf_grid`
    at ``[x]``."""
    return float(breiman_cdf_grid(lim, [x])[0])


def tabulated_cdf(lim: BreimanLimit, grid: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized CDF via monotone interpolation of a table over ``grid``.

    The interpolation error is bounded by the CDF increment per grid cell, so
    the grid must be dense where the law is: a linear grid suits bounded
    weights, and sample quantiles (:func:`quantile_grid`) let the resolution
    follow the mass of heavy-tailed ones.  Use it for sample-sized KS
    evaluations where per-point evaluation would be slow.
    """
    grid = np.unique(np.asarray(grid, dtype=float))
    if grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ParameterError("tabulation grid must hold at least two finite points")
    table = breiman_cdf_grid(lim, grid)
    lo_val, hi_val = table[0], table[-1]

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, grid, table, left=lo_val, right=hi_val)

    return cdf


_TRIM = 2e-4
_PAD = 1.0


def quantile_grid(values: np.ndarray, points: int) -> np.ndarray:
    """Sample-quantile tabulation grid: dense exactly where the sample is.

    The outermost ``_TRIM`` quantile on each side is excluded; for
    heavy-tailed samples those stragglers would stretch the table by orders
    of magnitude while moving the CDF by less than ``_TRIM``.  The grid
    extends ``_PAD`` beyond the outermost kept quantiles.
    """
    qs = np.quantile(np.asarray(values, dtype=float),
                     np.linspace(_TRIM, 1.0 - _TRIM, points))
    return np.unique(np.concatenate([[qs[0] - _PAD], qs, [qs[-1] + _PAD]]))


_TAIL_PREF = lambda b: math.tan(math.pi * b / 2.0) / (
    math.pi * b * (1.0 + math.tan(math.pi * b / 2.0) ** 2))


def breiman_tail(lim: BreimanLimit, x):
    """First-order upper-tail value at x > 0:
    2 * E[(X/x - 1)^b 1{X > x}] * tan(pi b/2) / (pi b (1 + tan^2(pi b/2))).

    The expectation is ``x^-b I+(x)`` with ``I+`` from the grid rule of
    :func:`breiman_cdf_grid` (exact sums for a law with atoms only).  ``x``
    is a float or an array of positive finite points; an array gives an
    array of the same shape.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise ParameterError("x must be positive and finite")
    b, flat = lim.beta, xs.ravel()
    up = _fractional_moment(lim.weight, flat, b, 1)
    _check_finite(flat, up)
    tail = 2.0 * _TAIL_PREF(b) * xs ** -b * up.reshape(xs.shape)
    return float(tail) if tail.ndim == 0 else tail


def regvar_tail_constant(beta: float, alpha_rv: float) -> float:
    """Limit of P{T > x} / P{X > x} when the weight tail is regularly
    varying with index -alpha_rv (alpha_rv > beta):
    2 beta * integral over (1, inf) of y^-alpha (y-1)^(beta-1) dy * prefactor,
    where the integral is the Beta function B(beta, alpha_rv - beta).
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must lie in (0, 1)")
    if not alpha_rv > beta:
        raise ParameterError("alpha_rv must exceed beta")
    return 2.0 * beta * float(beta_fn(beta, alpha_rv - beta)) * _TAIL_PREF(beta)

