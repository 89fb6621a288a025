"""Analytic limit law of the self-normalized ratio under Pareto multipliers.

Evaluates the arctan-form limit CDF (Breiman's arcsine-law extension), its
upper-tail expansion and the regular-variation tail constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (_FAR_LEVELS, _FAR_T, _FAR_W, _HEAD_T, _HEAD_W, _NEAR_LEVELS,
                            _NEAR_T, _NEAR_W, _PIECE_T, _PIECE_W, _RATIO, ParameterError,
                            QuadratureError, WeightLaw, as_int, stable_index)

# BreimanLimit checks the weight law's absolute moment at this order above beta.
_MOMENT_MARGIN = 0.05


@dataclass(frozen=True)
class _Side:
    """The grid rule's plan for I+ of one side of a law at one b: the same
    for every point, so :class:`BreimanLimit` builds it once.  ``tail(u)``
    is P{Z > u}, where Z is X (side +1) or -X (side -1).  ``pieces`` lists
    (lo, hi, level) in order between -inf, the finite break points of Z and
    +inf: ``level`` is None for a piece holding mass of Z, and P{Z > u} on a
    piece without mass; pieces without mass at level 0 are left out.
    ``weights`` are an infinite piece's node weights in the order of its
    node buffer: the head's, the near fold's b t^(-b-1) dt, the far fold's."""

    tail: Callable[[np.ndarray], np.ndarray]
    pieces: tuple
    weights: np.ndarray


def _make_plan(law: WeightLaw, b: float) -> Optional[tuple]:
    """The plans (I+ side, I- side) of a law with a density, or None for a
    law with atoms only."""
    if law.pdf is None:
        return None
    knots = sorted({p for p in (*(loc for loc, _ in law.atoms), *law.pdf_breaks, *law.support)
                    if math.isfinite(p)})
    edges = (-math.inf, *knots, math.inf)
    atoms = dict(law.atoms)  # no mass in (lo, hi): F(lo) equals the left limit F(hi-)
    empty = [float(law.cdf(lo)) == law.cdf(hi) - atoms.get(hi, 0.0)
             for lo, hi in zip(edges[:-1], edges[1:])]
    weights = np.concatenate([_HEAD_W, b * _NEAR_W * _NEAR_T ** (-b - 1.0), _FAR_W])
    cdf = law.cdf
    sides = []
    # I- of X is I+ of -X at -x
    for tail, side_edges, side_empty in ((law.sf, edges, empty),
                                         (lambda v: cdf(-v), [-e for e in edges[::-1]], empty[::-1])):
        pieces = []
        for lo, hi, no_mass in zip(side_edges[:-1], side_edges[1:], side_empty):
            if not no_mass:
                pieces.append((lo, hi, None))
                continue
            inside = hi - 1.0 if lo == -math.inf else (lo + 1.0 if hi == math.inf else 0.5 * (lo + hi))
            level = float(tail(inside))
            if level > 0.0:  # only a finite piece can hold a non-zero level
                pieces.append((lo, hi, level))
        sides.append(_Side(tail, tuple(pieces), weights))
    return tuple(sides)


@dataclass(frozen=True)
class BreimanLimit:
    """Limit of T_n for Y with tail index beta in (0, 1) and weight law F.

    Requires a fractional absolute moment of X one notch above beta
    (checked at beta + _MOMENT_MARGIN).  Every evaluator of the limit CDF
    and its tail uses the grid rule of :func:`breiman_cdf_grid`, whose plan
    for both sides of the law is built here, once per limit.
    """

    beta: float
    weight: WeightLaw
    _plan: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        b = stable_index(self.beta) + _MOMENT_MARGIN
        if not math.isfinite(self.weight.abs_moment(b)):
            raise ParameterError(
                f"weight law needs a finite absolute moment of order {b:g}")
        object.__setattr__(self, "_plan", _make_plan(self.weight, self.beta))


# Grid rule.  I+(x) = E[(X-x)^b; X>x] = integral over s > 0 of
# b s^(b-1) sf(x + s), and I-(x) is the same with cdf(x - s).  With w = s^b
# the weight b s^(b-1) ds becomes dw, leaving the bounded, monotone
# integrands sf(x + w^(1/b)) and cdf(x - w^(1/b)).  They are split where
# x -/+ w^(1/b) crosses an atom, a density break or a support edge.  A
# piece with no mass inside is a constant times its w-length.  Every other
# finite piece gets the graded cells of distributions (_PIECE_T), toward
# both ends (a break, or a singularity of the density's continuation just
# past one).  An infinite piece from s0 gets a head up to
# c = 2 max(s0, |x|, 1), graded toward s0, and a tail folded onto t in
# (0, 1] in graded levels: first s = c / t, whose levels span a ratio 8 in s
# and resolve the law's bulk whatever b is, then w = c1^b / t, whose levels
# span 8^(1/b) in s and reach far enough out that the terms below the last
# level form a geometric series; that remainder is added in closed form,
# exact for power-law tails.  An infinite piece calls the tail once, on the
# nodes of its head and both folds together.
#
# Grid points per pass: an infinite piece writes its 288 nodes per point
# into one buffer, 64 x 288 doubles = 144 KiB, and then its weighted tail
# values over them; the largest other temporary, a finite piece's 160 nodes
# per point, is smaller.  Above about 200 KiB each temporary came back from
# glibc's malloc as fresh pages (80 page faults per 224 KiB array, 1 at
# 192 KiB), which made every elementwise pass over it about 4x slower.
_CHUNK = 64
_HEAD_END = _HEAD_T.size
_NEAR_END = _HEAD_END + _NEAR_T.size
_NODES = _NEAR_END + _FAR_T.size
_DOUBLE = np.finfo(float)


def _rule(tail, x, w_lo, w_hi, b):
    """Integral of tail(x + w^(1/b)) over (w_lo, w_hi) by the graded cells
    of a finite piece."""
    span = w_hi - w_lo
    u = x[:, None] + (w_lo[:, None] + span[:, None] * _PIECE_T) ** (1.0 / b)
    return (tail(u) * _PIECE_W).sum(axis=1) * span


def _infinite_piece(side, x, s0, b, strict):
    """Integral of b s^(b-1) tail(x + s) over s > s0: the head up to c and
    the folded tail beyond (see the grid rule).  The far fold's largest
    node, about c 8^(2 + 10/b), overflows a double for large |x| or small b.
    Its nodes past a double read tail(inf) = 0 and drop the mass there,
    which is at most tail(largest double) times their w-length.  With
    ``strict``, a point where that bound exceeds the rounding of the value
    raises QuadratureError."""
    c = 2.0 * np.maximum(np.maximum(s0, np.abs(x)), 1.0)
    c_b = c ** b
    w_lo = s0 ** b
    span = c_b - w_lo
    c1_b = (c * _RATIO ** -_NEAR_LEVELS) ** b
    nodes = np.empty((x.size, _NODES))
    head_u, near_u, far_u = (nodes[:, :_HEAD_END], nodes[:, _HEAD_END:_NEAR_END],
                             nodes[:, _NEAR_END:])
    np.add(w_lo[:, None], np.multiply(span[:, None], _HEAD_T, out=head_u), out=head_u)
    np.power(head_u, 1.0 / b, out=head_u)
    np.divide(c[:, None], _NEAR_T, out=near_u)
    np.power(np.multiply(c1_b[:, None], _FAR_T, out=far_u), 1.0 / b, out=far_u)
    nodes += x[:, None]
    over = np.isinf(far_u[:, 0]) if strict else None  # the far fold's largest node
    v = np.multiply(side.tail(nodes), side.weights, out=nodes)
    head = v[:, :_HEAD_END].sum(axis=1) * span
    near = v[:, _HEAD_END:_NEAR_END].sum(axis=1) * c_b
    # one sum per level; level 0 lies next to t = 0
    levels = v[:, _NEAR_END:].reshape(x.size, _FAR_LEVELS, -1).sum(axis=2)
    last, prev = levels[:, 0], levels[:, 1]
    q = np.divide(last, prev, out=np.zeros_like(last), where=prev > 0.0)
    if np.any((q >= 1.0) & (last > 0.0)):
        raise QuadratureError("tail of the weight law is not resolved by the folded grid")
    far = levels.sum(axis=1) + np.where(q < 1.0, last * q / (1.0 - q), 0.0)
    value = head + (near + far * c1_b)
    if strict and over.any():
        dropped = float(side.tail(np.array([_DOUBLE.max]))[0]) * _FAR_W.sum() * c1_b
        lost = over & (dropped > _DOUBLE.eps * value)
        if lost.any():
            raise QuadratureError(f"the folded grid overflows a double at x = "
                                  f"{float(x[lost][0])!r}, dropping tail mass beyond it")
    return value


def _upper_moment(side: _Side, x: np.ndarray, b: float, strict: bool) -> np.ndarray:
    """E[(Z-x)^b; Z>x] for every x of a non-empty chunk, by the plan of Z's
    side."""
    out = np.zeros_like(x)
    x_min, x_max = float(x.min()), float(x.max())
    for lo, hi, level in side.pieces:
        if x_min >= hi:  # the piece lies below every point
            continue
        if x_max < hi:  # no copy when the piece covers every point
            sel, xs = slice(None), x
        else:
            sel = np.nonzero(x < hi)[0]
            xs = x[sel]
        s0 = np.maximum(lo, xs) - xs  # distance to the piece
        if level is not None:
            out[sel] += level * ((hi - xs) ** b - s0 ** b)
        elif hi < math.inf:
            out[sel] += _rule(side.tail, xs, s0 ** b, (hi - xs) ** b, b)
        else:
            out[sel] += _infinite_piece(side, xs, s0, b, strict)
    return out


def _fractional_moment(lim: BreimanLimit, x: np.ndarray, side: int,
                       strict: bool = False) -> np.ndarray:
    """I+ = E[(X-x)^b; X>x] (side +1) or I- = E[(x-X)^b; X<x] (side -1)
    over the 1-d array x, ``_CHUNK`` points at a time.  ``strict`` is that
    of :func:`_infinite_piece`.  Overflow does not warn: a far fold past a
    double drops its mass as :func:`_infinite_piece` describes, and further
    out the moment is not finite."""
    b = lim.beta
    if lim._plan is None:
        return sum(m * np.maximum(side * (loc - x), 0.0) ** b for loc, m in lim.weight.atoms)
    plan = lim._plan[0 if side > 0 else 1]
    if side < 0:
        x = -x
    with np.errstate(over="ignore", invalid="ignore"):
        if 0 < x.size <= _CHUNK:
            return _upper_moment(plan, x, b, strict)
        out = np.empty_like(x)
        for i in range(0, x.size, _CHUNK):
            out[i:i + _CHUNK] = _upper_moment(plan, x[i:i + _CHUNK], b, strict)
    return out


def _check_finite(x: np.ndarray, values: np.ndarray, what: str) -> None:
    """Raise QuadratureError at the first point of x where ``values`` is not
    finite (the rule's moments on an unbounded piece stop being finite for
    |x| beyond about 1.4e306)."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values)
        raise QuadratureError(f"{what} is not finite at x = {float(x[bad][0])!r}")


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
    up = _fractional_moment(lim, flat, 1)
    down = _fractional_moment(lim, flat, -1)
    i_a, i_s = up + down, down - up
    _check_finite(flat, i_a, "fractional moment")
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
    extends ``_PAD`` beyond the outermost kept quantiles.  ``points`` is
    the number of quantiles, at least 1; ``values`` must be a non-empty
    sample of finite numbers.

    The quantiles are numpy's default (linear) ones, bit for bit, from one
    sort: quantile q of the sorted sample s of size n sits at index
    h = (n - 1) q; with i = floor(h), g = h - i and d = s[i+1] - s[i] it is
    s[i] + d g, or s[i+1] - d (1 - g) where g >= 1/2.
    """
    as_int(points, "points", 1)
    s = np.sort(np.asarray(values, dtype=float), axis=None)
    if s.size == 0 or not (math.isfinite(s[0]) and math.isfinite(s[-1])):  # NaN sorts last
        raise ParameterError("values must be a non-empty sample of finite numbers")
    h = (s.size - 1) * np.linspace(_TRIM, 1.0 - _TRIM, points)
    # h < n - 1, so i + 1 is an index; for n = 1, i = -1 and g = 1, which is
    # numpy's rule at the last index
    i = np.minimum(np.floor(h), s.size - 2)
    g = h - i
    i = i.astype(np.intp)
    lo, hi = s[i], s[i + 1]
    d = hi - lo
    qs = lo + d * g
    np.subtract(hi, d * (1.0 - g), out=qs, where=g >= 0.5)
    return np.unique(np.concatenate([[qs[0] - _PAD], qs, [qs[-1] + _PAD]]))


_TAIL_PREF = lambda b: math.tan(math.pi * b / 2.0) / (
    math.pi * b * (1.0 + math.tan(math.pi * b / 2.0) ** 2))


def breiman_tail(lim: BreimanLimit, x):
    """First-order upper-tail value at x > 0:
    2 * E[(X/x - 1)^b 1{X > x}] * tan(pi b/2) / (pi b (1 + tan^2(pi b/2))).

    The expectation is ``x^-b I+(x)`` with ``I+`` from the grid rule of
    :func:`breiman_cdf_grid` (exact sums for a law with atoms only).  ``x``
    is a float or an array of positive finite points; an array gives an
    array of the same shape.  On a law with an unbounded upper tail the
    rule's far fold passes a double beyond some x (about 1.3e288 at
    b = 1/2 for a power-law tail); a point where the mass it would drop
    can exceed the value's rounding raises QuadratureError naming it.  So
    does a point whose tail is not finite: beyond about 1.4e306, or so close
    to 0 that the tail overflows a double (x = 5e-324 once b > 0.953).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise ParameterError("x must be positive and finite")
    b, flat = lim.beta, xs.ravel()
    up = _fractional_moment(lim, flat, 1, strict=True)
    with np.errstate(over="ignore", invalid="ignore"):  # x^-b overflows near x = 0
        tail = 2.0 * _TAIL_PREF(b) * xs ** -b * up.reshape(xs.shape)
    _check_finite(flat, tail.ravel(), "tail")
    return float(tail) if tail.ndim == 0 else tail


def regvar_tail_constant(beta: float, alpha_rv: float) -> float:
    """Limit of P{T > x} / P{X > x} when the weight tail is regularly
    varying with index -alpha_rv (alpha_rv > beta):
    2 beta * integral over (1, inf) of y^-alpha (y-1)^(beta-1) dy * prefactor,
    where the integral is the Beta function B(beta, alpha_rv - beta).
    """
    stable_index(beta)
    if not alpha_rv > beta:
        raise ParameterError("alpha_rv must exceed beta")
    from scipy.special import beta as beta_fn  # bound here: importing scipy is slow

    return 2.0 * beta * float(beta_fn(beta, alpha_rv - beta)) * _TAIL_PREF(beta)

