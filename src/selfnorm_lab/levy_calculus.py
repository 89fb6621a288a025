"""Jump-measure calculus for the bivariate limit of weighted sums.

Builds the one-dimensional jump intensity of the multiplier limit, the
bivariate measure it induces jointly with the weight law, and the tail and
truncated-moment integrals that characterise convergence of the triangular
array ``(X_i Y_i / a_n, Y_i / a_n)``.  Each limit quantity integrates the
jump size out in closed form for every weight value (Tonelli) and is one
``expect_weight`` of a vectorized integrand over the weight law; prelimit
quantities are exact closed forms where the law allows and variance-reduced
Monte Carlo otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    MultiplierLaw,
    ParameterError,
    SeedStream,
    WeightLaw,
    as_int,
    expect_weight,
    finite_norming,
    stable_index,
    vec_eval,
)


# ---------------------------------------------------------------------------
# Measure records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTail:
    """One-dimensional jump measure Lambda on (0, inf) described by its tail.

    ``tail(v)`` is the measure of (v, inf) and ``tail_inverse(w)`` its
    generalized inverse.  ``truncated_moment(k, c)`` is the integral of s^k
    against the measure over (0, c], for k >= 1 and c >= 0; it is finite at
    k = 1 for a non-negative infinitely divisible limit.  Every functional
    of the bivariate measure reduces to ``tail`` and ``truncated_moment``,
    and ``truncated_moment(1, eps)`` bounds the mean of the jumps a cutoff
    at eps discards.  The measure has no drift: its limit is the sum of its
    jumps.  ``tail``, ``tail_inverse`` and ``truncated_moment`` (in ``c``)
    map a float to a float and an ndarray to one of the same shape, so that
    every quadrature node or jump is evaluated in one call.
    """

    label: str
    tail: Callable[[np.ndarray], np.ndarray]
    truncated_moment: Callable[[int, np.ndarray], np.ndarray]
    tail_inverse: Callable[[np.ndarray], np.ndarray]


def stable_levy_tail(beta: float) -> LevyTail:
    """Jump measure with tail v^-beta (normalised so the tail is 1 at v=1).

    This is the measure of the positive stable limit of Pareto(beta) sums
    under quantile norming.
    """
    b = stable_index(beta)
    return LevyTail(
        label=f"stable(beta={b:g})",
        tail=lambda v: v ** (-b),
        truncated_moment=lambda k, c: b * c ** (k - b) / (k - b),
        tail_inverse=lambda w: w ** (-1.0 / b),
    )


@dataclass(frozen=True)
class BivariateLevyView:
    """The pair (weight law F, jump measure Lambda) defining the bivariate
    limit measure, the image of F(dx) Lambda(ds) under (x, s) -> (x s, s):
    mass of (a,b] x (c,d] is the integral over s in (c,d] of
    F(b/s) - F(a/s) against the jump measure.  Its functionals integrate s
    out for each fixed x through ``LevyTail.tail`` and
    ``LevyTail.truncated_moment`` and take one expectation over X."""

    weight: WeightLaw
    levy: LevyTail


def limit_view(x: WeightLaw, y: MultiplierLaw) -> Optional[BivariateLevyView]:
    """The limit measure of the rows ``(X Y / a_n, Y / a_n)``, which the
    multiplier's tail class alone decides: the stable jump measure of index
    beta for a Pareto(beta) multiplier with beta < 1, and None for the slowly
    varying multiplier, whose row measure has no non-degenerate limit.  Any
    other multiplier raises ParameterError."""
    tc = y.tail_class
    if tc.kind == "pareto" and tc.beta < 1.0:
        return BivariateLevyView(x, stable_levy_tail(tc.beta))
    if tc.kind != "slowly_varying":
        raise ParameterError(f"{y.label} has no limit jump measure; only a pareto "
                             "multiplier with beta < 1 or a slowly varying one is checked")
    return None


@dataclass
class ConvergenceReport:
    """Grid-indexed comparison of a prelimit quantity against its limit."""

    name: str
    grid: list
    prelimit: list
    limit: list
    gaps: list
    sup_abs_gap: float
    tol: float
    verdict: bool
    se: list = field(default_factory=list)
    note: str = ""

    @classmethod
    def build(cls, name, grid, prelimit, limit, tol, se=None, note=""):
        prelimit = [float(p) for p in prelimit]
        limit = [float(l) for l in limit]
        gaps = [abs(p - l) for p, l in zip(prelimit, limit)]
        sup = max(gaps) if gaps else 0.0
        return cls(name=name, grid=list(grid), prelimit=prelimit, limit=limit,
                   gaps=gaps, sup_abs_gap=sup, tol=float(tol), verdict=sup <= tol,
                   se=[float(s) for s in se] if se is not None else [], note=note)


# ---------------------------------------------------------------------------
# Tail functions
# ---------------------------------------------------------------------------


def lambda_bar(levy: LevyTail, v: float) -> float:
    """Tail mass of the jump measure beyond v (v > 0)."""
    if not v > 0.0:
        raise ParameterError("v must be positive")
    return float(levy.tail(v))


def _check_level(h: float) -> None:
    """Raise ParameterError unless the truncation level h is positive and finite."""
    if not 0.0 < h < math.inf:
        raise ParameterError("h must be positive and finite")


def prelimit_lambda_n(y: MultiplierLaw, n: int, v: float) -> float:
    """n P{Y > a_n v}, the row tail of the triangular array.

    Evaluated in log space when the law provides the hooks, so it stays
    finite even when a_n itself overflows (slowly varying law, large n).
    """
    n = as_int(n, "n", 1)
    if not v > 0.0:
        raise ParameterError("v must be positive")
    if y.survival_logarg is not None and y.log_norming is not None:
        return n * y.survival_logarg(y.log_norming(n) + math.log(v))
    return n * y.survival(y.norming(n) * v)


def pi_bar(view: BivariateLevyView, u: float, v: float) -> float:
    """Tail of the bivariate measure on the side of u: the mass it gives
    {(a, b): a > u, b > v} for u >= 0 and {(a, b): a <= u, b > v} for u < 0.

    For each weight value x the jump size is integrated out, so the mass is
    E[lambda_bar(max(v, u/X)); X > 0] for u >= 0 and the same expectation
    over X < 0 for u < 0.  Finite for every u != 0 even at v = 0 because the
    weight law has a finite absolute mean and the jump measure integrates s
    near zero.
    """
    if not v >= 0.0 or math.isnan(u) or (u == 0.0 and v == 0.0):
        raise ParameterError("need v >= 0 and (u, v) != (0, 0)")
    tail = view.levy.tail
    lo, hi = (0.0, math.inf) if u >= 0.0 else (-math.inf, 0.0)
    return expect_weight(view.weight, lambda x: tail(np.maximum(v, u / x)), lo, hi,
                         points=[u / v] if v > 0.0 else [])


# ---------------------------------------------------------------------------
# Prelimit bivariate tails (Monte Carlo with X integrated out)
# ---------------------------------------------------------------------------


def _mean_se(vals: np.ndarray) -> tuple:
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def prelimit_pi_n(x: WeightLaw, y: MultiplierLaw, n: int, u: float, v: float,
                  stream: SeedStream, draws: int = 1_000_000):
    """Estimate n P{XY > a_n u, Y > a_n v} (u > 0) or
    n P{XY <= -a_n |u|, Y > a_n v} (u < 0), returning (estimate, std error).

    X is integrated out analytically through its tail (``sf`` for u > 0,
    ``cdf`` for u < 0), so the Monte Carlo averages n * F-tail(a_n u / Y)
    over Y draws.  When the weight has bounded
    support and the multiplier law can sample its conditional tail exactly,
    sampling restricts to the sub-event where the integrand can be non-zero,
    which removes the rare-event variance entirely.
    """
    n, draws = as_int(n, "n", 1), as_int(draws, "draws", 2)
    if not math.isfinite(u):
        raise ParameterError("u must be finite")
    if u == 0.0 and v == 0.0:
        raise ParameterError("(u, v) must differ from (0, 0)")
    if not v >= 0.0:
        raise ParameterError("v must be non-negative")
    a_n = finite_norming(y, n)
    if u == 0.0:
        return prelimit_lambda_n(y, n, v) * x.sf(0.0), 0.0

    if u > 0.0:
        edge = x.support[1]
        weight_tail = lambda t: vec_eval(x.sf, t)
    else:
        edge = -x.support[0]
        weight_tail = lambda t: vec_eval(x.cdf, -t)
    au = a_n * abs(u)

    if math.isfinite(edge) and edge > 0.0:
        # restrict to Y > y0 where the X-tail factor can be positive
        c0 = max(v, abs(u) / edge)
        y0 = a_n * c0
        ys = y.tail_sampler(stream, draws, y0)
        scale = prelimit_lambda_n(y, n, c0)
    else:
        ys = y.sampler(stream, draws)
        scale = float(n)
    with np.errstate(divide="ignore"):
        ratio = np.where(ys > 0.0, au / np.maximum(ys, 1e-300), math.inf)
    vals = weight_tail(ratio) * (ys > a_n * v)
    return _mean_se(scale * vals)


# ---------------------------------------------------------------------------
# Truncated moments
# ---------------------------------------------------------------------------


def alpha_h(levy: LevyTail, h: float) -> float:
    """Truncated first moment of the jump measure up to level h, the
    integral of s over (0, h]."""
    _check_level(h)
    return levy.truncated_moment(1, h)


def prelimit_alpha_h(y: MultiplierLaw, n: int, h: float) -> float:
    """(n / a_n) E[Y 1{Y <= a_n h}], the row counterpart of :func:`alpha_h`,
    computed from the law's truncated mean."""
    _check_level(h)
    n = as_int(n, "n", 1)
    a_n = finite_norming(y, n)
    return n * y.trunc_mean(a_n * h) / a_n


def _half_disk(view: BivariateLevyView, h: float, j: int, k: int) -> float:
    """Integral of x^j s^k against F(dx) Lambda(ds) over the half-disk
    {(x s, s): s^2 (1 + x^2) <= h^2}, which is E[X^j m_k(h / sqrt(1 + X^2))]
    with m_k the jump measure's ``truncated_moment(k, .)``."""
    m = view.levy.truncated_moment
    return expect_weight(view.weight, lambda x: x ** j * m(k, h / np.hypot(1.0, x)))


def truncated_first_moments(view: BivariateLevyView, h: float):
    """Limits of the truncated first moments of the scaled pair.

    Returns (y_part, xy_part), the half-disk integrals of v and u:
    y_part  = E[m_1(h / sqrt(1 + X^2))],
    xy_part = E[X m_1(h / sqrt(1 + X^2))].
    These are the limit targets of (n/a_n) E[Y 1{|(XY, Y)| <= a_n h}] and
    (n/a_n) E[XY 1{...}].
    """
    _check_level(h)
    if not math.isfinite(view.weight.abs_moment(1.0)):
        raise ParameterError("weight law must have finite absolute mean")
    return _half_disk(view, h, 0, 1), _half_disk(view, h, 1, 1)


def truncated_second_moments(view: BivariateLevyView, h: float):
    """Quadratic integrals of the bivariate measure over the half-disk of
    radius h: returns (uu, vv, uv) for the integrands u^2, v^2 and u v."""
    _check_level(h)
    return tuple(_half_disk(view, h, j, 2) for j in (2, 0, 1))


def second_moment_smallh_scan(view: BivariateLevyView, k_max: int = 10) -> dict:
    """Evaluate the quadratic integrals at h = 2^-k, k = 0..k_max.

    Documents the vanishing-variance property of the limit: all three
    integrals must decay to zero as h shrinks.
    """
    k_max = as_int(k_max, "k_max", 0)
    return {2.0 ** (-k): truncated_second_moments(view, 2.0 ** (-k))
            for k in range(k_max + 1)}


# ---------------------------------------------------------------------------
# Prelimit truncated moments (Monte Carlo over X, Y integrated analytically)
# ---------------------------------------------------------------------------


def _prelimit_half_disk(x: WeightLaw, y: MultiplierLaw, n: int, h: float,
                        stream: SeedStream, draws: int, k: int, js: Sequence[int]):
    """Monte Carlo estimates of (n/a_n^k) E[X^j Y^k 1{|(XY,Y)| <= a_n h}]
    for each j in ``js``, the triangular-array counterparts of
    :func:`_half_disk` (k = 1 or 2, j = 0, 1 or 2).

    The joint truncation event is Y sqrt(1+X^2) <= a_n h, so conditionally
    on X the Y integral is the law's truncated k-th moment; only X is
    simulated.  Returns one (value, se) pair per j.
    """
    _check_level(h)
    n, draws = as_int(n, "n", 1), as_int(draws, "draws", 2)
    a_n = finite_norming(y, n)
    xs = x.sampler(stream, draws)
    cap = a_n * h / np.sqrt(1.0 + xs * xs)
    if k == 1:
        scale, moment = n / a_n, vec_eval(y.trunc_mean, cap)
    else:
        scale, moment = n / (a_n * a_n), vec_eval(y.trunc_second, cap)

    def weighted(j: int) -> np.ndarray:
        if j == 0:
            return scale * moment
        return scale * (xs if j == 1 else xs * xs) * moment

    return tuple(_mean_se(weighted(j)) for j in js)


def prelimit_truncated_first_moments(x: WeightLaw, y: MultiplierLaw, n: int,
                                     h: float, stream: SeedStream,
                                     draws: int = 1_000_000):
    """Monte Carlo estimates of the prelimit truncated first moments
    (n/a_n) E[Y 1{|(XY,Y)| <= a_n h}] and (n/a_n) E[XY 1{...}].
    Returns ((y_part, y_se), (xy_part, xy_se)).
    """
    return _prelimit_half_disk(x, y, n, h, stream, draws, 1, (0, 1))


def prelimit_truncated_second_moments(x: WeightLaw, y: MultiplierLaw, n: int,
                                      h: float, stream: SeedStream,
                                      draws: int = 1_000_000):
    """Monte Carlo estimates of the prelimit quadratic moments
    (n/a_n^2) E[(XY)^2 1{|(XY,Y)| <= a_n h}], (n/a_n^2) E[Y^2 1{...}] and
    (n/a_n^2) E[XY^2 1{...}], the triangular-array counterparts of the
    half-disk integrals of u^2, v^2 and u v.  Returns three (value, se)
    pairs ordered (uu, vv, uv).
    """
    return _prelimit_half_disk(x, y, n, h, stream, draws, 2, (2, 0, 1))


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LevyConvergenceResult:
    """Per-n comparison of triangular-array tails against their limits."""

    n_list: list
    lambda_reports: list
    pi_reports: list
    monotone_improving: bool
    verdict: bool
    note: str = ""


def check_levy_convergence(x: WeightLaw, y: MultiplierLaw, n_list: Sequence[int],
                           v_grid: Sequence[float], u_grid: Sequence[float],
                           stream: SeedStream, draws: int) -> LevyConvergenceResult:
    """Compare row tails n P{Y > a_n v} and n P{XY > a_n u, Y > 0}
    against their limit counterparts along n_list, the limit measure being
    :func:`limit_view`'s.

    The slowly varying multiplier has no non-degenerate limit measure: the
    interval masses of the row measure are then compared against zero and
    the report documents the escaping mass.
    """
    n_list = [as_int(n, "n_list entry", 1) for n in n_list]
    draws = as_int(draws, "draws", 2)
    if not n_list or not len(v_grid):
        raise ParameterError("n_list and v_grid must not be empty")
    view = limit_view(x, y)
    lam_reports = []
    pi_reports = []
    if view is None:
        # document non-convergence: interval masses vanish on every compact
        for n in n_list:
            vals = [prelimit_lambda_n(y, n, v) for v in v_grid]
            masses = [vals[i] - vals[i + 1] for i in range(len(vals) - 1)]
            rep = ConvergenceReport.build(
                name=f"interval_mass_n={n}",
                grid=[[v_grid[i], v_grid[i + 1]] for i in range(len(v_grid) - 1)],
                prelimit=masses, limit=[0.0] * len(masses),
                tol=max(10.0 / n, 1e-6),
                note=("no nondegenerate limit measure: row tails approach a "
                      f"constant ({vals[0]:.6g} at v={v_grid[0]:g}) while every "
                      "interval mass vanishes"))
            lam_reports.append(rep)
        gaps = [r.sup_abs_gap for r in lam_reports]
        mono = all(g2 <= g1 * 1.5 for g1, g2 in zip(gaps[:-1], gaps[1:]))
        return LevyConvergenceResult(n_list, lam_reports, [], mono,
                                     all(r.verdict for r in lam_reports),
                                     note="non-Feller multiplier: documented escape of mass")

    for n in n_list:
        pre = [prelimit_lambda_n(y, n, v) for v in v_grid]
        lim = [lambda_bar(view.levy, v) for v in v_grid]
        scale = max(abs(l) for l in lim) or 1.0
        lam_reports.append(ConvergenceReport.build(
            name=f"lambda_n={n}", grid=list(v_grid), prelimit=pre, limit=lim,
            tol=1e-9 * scale))
    for j, n in enumerate(n_list if len(u_grid) else ()):  # no u point, no pi report
        pre, ses, lim = [], [], []
        for i, u in enumerate(u_grid):
            est, se = prelimit_pi_n(x, y, n, u, 0.0, stream.child(j * len(u_grid) + i),
                                    draws=draws)
            pre.append(est)
            ses.append(se)
            lim.append(pi_bar(view, u, 0.0))
        pi_reports.append(ConvergenceReport.build(
            name=f"pi_n={n}", grid=[[u, 0.0] for u in u_grid],
            prelimit=pre, limit=lim, tol=3.0 * max(ses) + 1e-9, se=ses))
    gaps = [r.sup_abs_gap for r in (pi_reports or lam_reports)]
    mono = all(g2 <= g1 + 3.0 * 1e-3 for g1, g2 in zip(gaps[:-1], gaps[1:]))
    verdict = all(r.verdict for r in lam_reports + pi_reports)
    return LevyConvergenceResult(n_list, lam_reports, pi_reports, mono, verdict)
