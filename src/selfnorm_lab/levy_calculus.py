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
    """The limit measure of the rows ``(X Y / a_n, Y / a_n)``: the stable
    jump measure of index beta for a Pareto(beta) multiplier with beta < 1,
    which exists only when E|X|^beta is finite (its first-coordinate tail is
    u^-beta E|X|^beta), and None for the slowly varying multiplier, whose row
    measure has no non-degenerate limit.  Any other multiplier, or a weight
    law with E|X|^beta infinite, raises ParameterError."""
    tc = y.tail_class
    if tc.kind == "pareto" and tc.beta < 1.0:
        if not math.isfinite(x.abs_moment(tc.beta)):
            raise ParameterError(f"{x.label} has no limit measure with {y.label}: "
                                 f"E|X|^{tc.beta:g} is infinite")
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


def _row_tail(y: MultiplierLaw, n: int, log_v):
    """n P{Y > a_n e^log_v} for a float or an array ``log_v``, in log space
    when the law has the hooks, so that it stays finite when a_n v overflows."""
    if y.survival_logarg is not None and y.log_norming is not None:
        return n * vec_eval(y.survival_logarg, y.log_norming(n) + log_v)
    with np.errstate(over="ignore"):  # a_n v = inf: no Y exceeds it
        return n * vec_eval(y.survival, y.norming(n) * np.exp(log_v))


def prelimit_lambda_n(y: MultiplierLaw, n: int, v: float) -> float:
    """n P{Y > a_n v}, the row tail of the triangular array."""
    n = as_int(n, "n", 1)
    if not v > 0.0:
        raise ParameterError("v must be positive")
    return float(_row_tail(y, n, math.log(v)))


def pi_bar(view: BivariateLevyView, u: float) -> float:
    """Tail of the bivariate measure at v = 0 on the side of u: the mass it
    gives {(a, b): a > u, b > 0} for u > 0 and {(a, b): a <= u, b > 0} for
    u < 0.

    For each weight value x the jump size is integrated out, so the mass is
    E[lambda_bar(u/X); X > 0] for u > 0 and the same expectation over X < 0
    for u < 0.  Finite for every u != 0 exactly when E|X|^beta is, which
    :func:`limit_view` checks.  A u so far out that u / x overflows a double
    at a node raises ParameterError.
    """
    if math.isnan(u) or u == 0.0:
        raise ParameterError(f"u must be a non-zero number, got {u!r}")
    tail = view.levy.tail

    def integrand(x):
        with np.errstate(over="ignore"):
            ratio = u / x
        if np.isinf(ratio).any():
            raise ParameterError(f"u = {u!r} is too far out: u / x overflows near x = 0")
        return tail(ratio)

    lo, hi = (0.0, math.inf) if u > 0.0 else (-math.inf, 0.0)
    return expect_weight(view.weight, integrand, lo, hi)


# ---------------------------------------------------------------------------
# Prelimit bivariate tails (Monte Carlo over X, Y integrated analytically)
# ---------------------------------------------------------------------------


def _mean_se(vals: np.ndarray) -> tuple:
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


# Draws per pass of the Monte Carlo prelimits: a pass's temporaries are
# 128 KiB each, so they stay in cache and are reused rather than handed back
# to the system and faulted in again, as whole-array temporaries of 2e5 to
# 1e6 draws were.
_MC_CHUNK = 2**14


def _mc_estimates(x: WeightLaw, stream: SeedStream, draws: int, width: int,
                  fill: Callable[[np.ndarray, np.ndarray], None], context: str):
    """(mean, standard error) of each of ``width`` per-draw quantities of X
    over ``draws`` draws of ``x``.

    X is drawn in passes of at most _MC_CHUNK values from one generator of
    ``stream``, each pass continuing it, so the draws are those of one
    ``x.sampler(stream, draws)`` call.  ``fill(xs, out)`` writes the
    quantities of a pass's draws ``xs`` into the ``(width, len(xs))`` array
    ``out``; it must work value by value.  Each mean and standard error is
    taken over a full row, so no estimate depends on the pass size.  A
    non-finite value in a row makes its mean non-finite: then
    ParameterError naming ``context`` is raised, and no floating-point
    warning is issued on the way.
    """
    rng = stream.generator()
    rows = np.empty((width, draws))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, draws, _MC_CHUNK):
            stop = min(start + _MC_CHUNK, draws)
            fill(x.sampler(rng, stop - start), rows[:, start:stop])
        estimates = tuple(_mean_se(row) for row in rows)
    if not all(math.isfinite(m) and math.isfinite(se) for m, se in estimates):
        raise ParameterError(f"Monte Carlo prelimit of {context} is not finite "
                             "(a per-draw value overflows a double or is NaN)")
    return estimates


def prelimit_pi_n(x: WeightLaw, y: MultiplierLaw, n: int, u: float, stream: SeedStream,
                  draws: int = 1_000_000):
    """Estimate n P{XY > a_n u, Y > 0} (u > 0) or n P{XY <= -a_n |u|, Y > 0}
    (u < 0), the row counterpart of :func:`pi_bar`, as (estimate, std error).

    As in :func:`pi_bar`, the multiplier is integrated out for each weight
    value: the Monte Carlo averages the row tail n P{Y > a_n |u| / |X|} over
    X draws on the side of u and counts 0 elsewhere.  The ratio is formed
    in log space, so the estimate stays finite wherever the row tail does;
    a non-finite estimate raises ParameterError.
    """
    n, draws = as_int(n, "n", 1), as_int(draws, "draws", 2)
    if not (math.isfinite(u) and u != 0.0):
        raise ParameterError(f"u must be finite and non-zero, got {u!r}")
    log_u = math.log(abs(u))

    def fill(xs, out):
        log_v = log_u - np.log(np.abs(xs))  # X = 0 gives log v = inf, a row tail of 0
        side = xs > 0.0 if u > 0.0 else xs < 0.0
        out[0] = np.where(side, _row_tail(y, n, log_v), 0.0)

    return _mc_estimates(x, stream, draws, 1, fill,
                         f"{x.label} under {y.label} at n={n}, u={u!r}")[0]


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
    computed from the law's truncated mean.  Raises ParameterError when the
    level a_n h or the value overflows a double."""
    _check_level(h)
    n = as_int(n, "n", 1)
    a_n = finite_norming(y, n)
    level = a_n * h
    if not math.isfinite(level):  # a Python float overflows to inf in silence
        raise ParameterError(f"h = {h!r} is too large: the level a_n h of {y.label} at "
                             f"n={n} overflows a double (a_n = {a_n!r})")
    with np.errstate(over="ignore"):  # a float64 overflows to inf, checked below
        value = n * y.trunc_mean(level) / a_n
    if not math.isfinite(value):
        raise ParameterError(f"h = {h!r} is too large: the prelimit alpha_h of {y.label} "
                             f"at n={n} is {float(value)!r}")
    return value


def _check_half_disk_level(view: BivariateLevyView, h: float, k: int) -> None:
    """Raise ParameterError unless h is positive and finite and the jump
    measure's truncated k-th moment at h is finite: it bounds every
    m_k(h / sqrt(1 + x^2)) of the half-disk integrands, so this one value
    stands for every quadrature node."""
    _check_level(h)
    with np.errstate(over="ignore"):  # a float64 overflows to inf, a Python float raises
        top = view.levy.truncated_moment(k, np.float64(h))
    if not np.isfinite(top):
        raise ParameterError(f"h = {h!r} is too large: the truncated moment of order {k} "
                             f"of {view.levy.label} at h overflows a double")


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
    _check_half_disk_level(view, h, 1)
    return _half_disk(view, h, 0, 1), _half_disk(view, h, 1, 1)


def truncated_second_moments(view: BivariateLevyView, h: float):
    """Quadratic integrals of the bivariate measure over the half-disk of
    radius h: returns (uu, vv, uv) for the integrands u^2, v^2 and u v."""
    _check_half_disk_level(view, h, 2)
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
    simulated.  Returns one (value, se) pair per j; a non-finite one (n / a_n^k
    underflows to 0 where a_n^(k - beta) overflows) raises ParameterError.
    """
    _check_level(h)
    n, draws = as_int(n, "n", 1), as_int(draws, "draws", 2)
    a_n = finite_norming(y, n)
    scale, trunc = (n / a_n, y.trunc_mean) if k == 1 else (n / (a_n * a_n), y.trunc_second)

    def fill(xs, out):
        moment = vec_eval(trunc, a_n * h / np.sqrt(1.0 + xs * xs))
        for row, j in zip(out, js):
            if j == 0:
                np.multiply(scale, moment, out=row)
            else:
                np.multiply(scale, xs if j == 1 else xs * xs, out=row)
                np.multiply(row, moment, out=row)

    return _mc_estimates(x, stream, draws, len(js), fill,
                         f"{x.label} under {y.label} at n={n}, h={h!r}")


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
        return LevyConvergenceResult(n_list, lam_reports, [],
                                     all(r.verdict for r in lam_reports),
                                     note="non-Feller multiplier: documented escape of mass")

    # the limits do not depend on n
    lam_lim = [lambda_bar(view.levy, v) for v in v_grid]
    pi_lim = [pi_bar(view, u) for u in u_grid]
    scale = max(abs(l) for l in lam_lim) or 1.0
    for n in n_list:
        pre = [prelimit_lambda_n(y, n, v) for v in v_grid]
        lam_reports.append(ConvergenceReport.build(
            name=f"lambda_n={n}", grid=list(v_grid), prelimit=pre, limit=lam_lim,
            tol=1e-9 * scale))
    for j, n in enumerate(n_list if len(u_grid) else ()):  # no u point, no pi report
        pre, ses = [], []
        for i, u in enumerate(u_grid):
            est, se = prelimit_pi_n(x, y, n, u, stream.child(j * len(u_grid) + i),
                                    draws=draws)
            pre.append(est)
            ses.append(se)
        pi_reports.append(ConvergenceReport.build(
            name=f"pi_n={n}", grid=list(u_grid),
            prelimit=pre, limit=pi_lim, tol=3.0 * max(ses) + 1e-9, se=ses))
    verdict = all(r.verdict for r in lam_reports + pi_reports)
    return LevyConvergenceResult(n_list, lam_reports, pi_reports, verdict)
