import json
import math
import re
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from selfnorm_lab.distributions import (
    ParameterError,
    QuadratureError,
    SeedStream,
    make_finite_mean_multiplier,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
)
from selfnorm_lab.levy_calculus import (
    _MC_CHUNK,
    BivariateLevyView,
    ConvergenceReport,
    LevyTail,
    alpha_h,
    check_levy_convergence,
    lambda_bar,
    limit_view,
    pi_bar,
    prelimit_alpha_h,
    prelimit_lambda_n,
    prelimit_pi_n,
    prelimit_truncated_first_moments,
    prelimit_truncated_second_moments,
    second_moment_smallh_scan,
    stable_levy_tail,
    truncated_first_moments,
    truncated_second_moments,
)
from selfnorm_lab.scenarios import _write_json


@pytest.fixture(scope="module")
def stable_half():
    return stable_levy_tail(0.5)


@pytest.fixture(scope="module")
def view_u01(stable_half):
    return BivariateLevyView(make_weight_law("uniform01"), stable_half)


@pytest.fixture(scope="module")
def view_rademacher(stable_half):
    return BivariateLevyView(make_weight_law("rademacher"), stable_half)


# ---------------------------------------------------------------------------
# One-dimensional tails
# ---------------------------------------------------------------------------


def test_lambda_bar_stable_values(stable_half):
    assert lambda_bar(stable_half, 4.0) == pytest.approx(0.5)
    assert lambda_bar(stable_half, 1.0) == pytest.approx(1.0)
    assert lambda_bar(stable_half, 1e12) < 1e-5
    with pytest.raises(ParameterError):
        lambda_bar(stable_half, 0.0)


def test_lambda_bar_rejects_nan(stable_half):
    with pytest.raises(ParameterError):
        lambda_bar(stable_half, math.nan)


def test_prelimit_lambda_rejects_nan_v():
    with pytest.raises(ParameterError):
        prelimit_lambda_n(make_pareto_multiplier(0.5), 10, math.nan)


def test_prelimit_lambda_rejects_non_integer_n():
    y = make_pareto_multiplier(0.5)
    with pytest.raises(ParameterError):
        prelimit_lambda_n(y, 10.5, 1.0)
    assert prelimit_lambda_n(y, np.int64(100), 4.0) == pytest.approx(0.5, rel=1e-12)


_GAUSS, _PARETO = make_weight_law("standard_gaussian"), make_pareto_multiplier(0.5)
PRELIMIT_N_CALLS = {
    "alpha_h": lambda n: prelimit_alpha_h(_PARETO, n, 1.0),
    "prelimit_pi_n": lambda n: prelimit_pi_n(_GAUSS, _PARETO, n, 1.0, SeedStream(3),
                                             draws=100),
    "prelimit_truncated_first_moments": lambda n: prelimit_truncated_first_moments(
        _GAUSS, _PARETO, n, 1.0, SeedStream(3), draws=100),
    "prelimit_truncated_second_moments": lambda n: prelimit_truncated_second_moments(
        _GAUSS, _PARETO, n, 1.0, SeedStream(3), draws=100),
}


@pytest.mark.parametrize("name", sorted(PRELIMIT_N_CALLS))
@pytest.mark.parametrize("bad", [10.5, 10.0, 0, math.nan])
def test_prelimit_routines_reject_non_integer_n(name, bad):
    call = PRELIMIT_N_CALLS[name]
    with pytest.raises(ParameterError, match="n must"):
        call(bad)
    call(np.int64(10))  # numpy integers pass


PRELIMIT_DRAWS_CALLS = {
    "prelimit_pi_n": lambda d: prelimit_pi_n(_GAUSS, _PARETO, 10, 1.0, SeedStream(3),
                                             draws=d),
    "prelimit_truncated_first_moments": lambda d: prelimit_truncated_first_moments(
        _GAUSS, _PARETO, 10, 1.0, SeedStream(3), draws=d),
    "prelimit_truncated_second_moments": lambda d: prelimit_truncated_second_moments(
        _GAUSS, _PARETO, 10, 1.0, SeedStream(3), draws=d),
    "check_levy_convergence": lambda d: check_levy_convergence(
        _GAUSS, _PARETO, (10,), (1.0,), (1.0,), SeedStream(3), draws=d),
}


@pytest.mark.parametrize("name", sorted(PRELIMIT_DRAWS_CALLS))
@pytest.mark.parametrize("bad", [1, 0, 2.7, 2.0])
def test_prelimit_routines_reject_bad_draws(name, bad):
    # a standard error needs two draws, and a fraction is no count
    call = PRELIMIT_DRAWS_CALLS[name]
    with pytest.raises(ParameterError, match="draws must"):
        call(bad)
    call(np.int64(2))


def test_prelimit_lambda_pareto_exact():
    y = make_pareto_multiplier(0.5)
    for n in (10, 10_000):
        for v in (0.25, 1.0, 4.0):
            assert prelimit_lambda_n(y, n, v) == pytest.approx(v ** -0.5, rel=1e-12)
    assert prelimit_lambda_n(y, 100, 1e9) < 1e-4


def test_prelimit_lambda_slowly_varying_quantile_identity():
    # with a_n the upper 1/n quantile, n * survival(a_n) = 1 exactly,
    # evaluated in log space since a_n = e^n overflows
    y = make_slowly_varying_multiplier()
    assert prelimit_lambda_n(y, 1_000_000, 1.0) == pytest.approx(1.0, rel=1e-12)
    # for fixed v the row tail tends to one: no mass escapes to any (v, inf]
    vals = [prelimit_lambda_n(y, n, 4.0) for n in (10, 100, 10_000)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Bivariate tails
# ---------------------------------------------------------------------------


def test_pi_bar_uniform01_values(view_u01):
    # substitution gives u^-beta * E[X^beta] = 1 * 2/3 at u=1, v=0
    assert pi_bar(view_u01, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
    for bad in (0.0, -0.0, math.nan):
        with pytest.raises(ParameterError, match="u must be a non-zero number"):
            pi_bar(view_u01, bad)


def test_pi_bar_substitution_identity(stable_half):
    # pi_bar(u) = u^-beta E[(X+)^beta], pi_bar(-u) = u^-beta E[(X-)^beta];
    # the half moments of order 1/2 are (E[(X+)^b], E[(X-)^b]) in closed form
    gaussian_half = 2.0 ** -0.75 * math.gamma(0.75) / math.sqrt(math.pi)
    for kind, pos, neg in (("uniform01", 2.0 / 3.0, 0.0), ("rademacher", 0.5, 0.5),
                           ("standard_gaussian", gaussian_half, gaussian_half)):
        view = BivariateLevyView(make_weight_law(kind), stable_half)
        for u in (0.5, 1.0, 2.0):
            assert pi_bar(view, u) == pytest.approx(u ** -0.5 * pos, rel=1e-7), (kind, u)
            assert pi_bar(view, -u) == pytest.approx(u ** -0.5 * neg, rel=1e-7), (kind, u)


@pytest.mark.parametrize("kind,u", [("uniform01", 1e308), ("standard_gaussian", 1e308),
                                    ("standard_gaussian", -1e308)])
def test_pi_bar_far_u_overflow_raises(stable_half, kind, u):
    # u / x overflows a double at the nodes next to x = 0 once u is near the
    # largest double; a tail of 0 there read 41% low for uniform01 at 1e308.
    # At 1e290 the value is u^-1/2 E[(X+)^1/2] as in the substitution identity
    view = BivariateLevyView(make_weight_law(kind), stable_half)
    gaussian_half = 2.0 ** -0.75 * math.gamma(0.75) / math.sqrt(math.pi)
    want = 1e-145 * (2.0 / 3.0 if kind == "uniform01" else gaussian_half)
    assert pi_bar(view, 1e290) == pytest.approx(want, rel=1e-7)
    with pytest.raises(ParameterError, match=re.escape(f"u = {u!r}")):
        pi_bar(view, u)


def test_pi_neg_nonnegative_weight_is_zero(view_u01):
    for u in (0.5, 1.0, 3.0):
        assert pi_bar(view_u01, -u) == 0.0


def test_pi_neg_rademacher_value(view_rademacher):
    # F(-1/s) = 1/2 exactly when s >= 1, so the integral is half the tail at 1
    assert pi_bar(view_rademacher, -1.0) == pytest.approx(0.5, abs=1e-9)


def test_pi_monotonicity(view_u01, view_rademacher):
    us = [0.25, 0.5, 1.0, 2.0]
    vals_u = [pi_bar(view_u01, u) for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(vals_u[:-1], vals_u[1:]))
    neg_u = [pi_bar(view_rademacher, -u) for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(neg_u[:-1], neg_u[1:]))


def test_prelimit_pi_point_mass_reduces_to_lambda():
    x = make_weight_law("point_mass", c=1.0)
    y = make_pareto_multiplier(0.5)
    est, se = prelimit_pi_n(x, y, 10_000, 1.0, SeedStream(3, 1), draws=200_000)
    want = prelimit_lambda_n(y, 10_000, 1.0)
    assert abs(est - want) <= 3.0 * se + 1e-9


def test_prelimit_pi_matches_limit():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    est, se = prelimit_pi_n(x, y, 10_000, 1.0, SeedStream(3, 2), draws=400_000)
    assert se < 5e-3
    assert abs(est - 2.0 / 3.0) <= 3.0 * se + 1e-9


def test_prelimit_pi_negative_branch(stable_half):
    x = make_weight_law("rademacher")
    y = make_pareto_multiplier(0.5)
    view = BivariateLevyView(x, stable_half)
    est, se = prelimit_pi_n(x, y, 10_000, -1.0, SeedStream(3, 4), draws=400_000)
    assert abs(est - pi_bar(view, -1.0)) <= 3.0 * se + 1e-6


# each id names the rejected point (u, v) of the v = 0 slice
@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 0.0],
                         ids=["nan-0.0", "inf-0.0", "-inf-0.0", "0.0-0.0"])
def test_prelimit_pi_rejects_non_finite_input(u):
    y = make_pareto_multiplier(0.5)
    for kind in ("uniform01", "standard_gaussian"):
        with pytest.raises(ParameterError, match="u must be finite and non-zero"):
            prelimit_pi_n(make_weight_law(kind), y, 100, u, SeedStream(3, 6), draws=1_000)


def test_prelimit_pi_variance_reported():
    x = make_weight_law("standard_gaussian")
    y = make_pareto_multiplier(0.5)
    est, se = prelimit_pi_n(x, y, 100, 1.0, SeedStream(3, 5), draws=100_000)
    assert se > 0.0


@pytest.mark.parametrize("u", [1e25, 1e30])
def test_prelimit_pi_reads_far_weight_tail_through_sf(u):
    # X symmetric Pareto(g), Y Pareto(1/2), c = a_n u: integrating Y out for
    # X > 0 gives (n/2)[c^(-1/2) g/(g - 1/2)(1 - c^(1/2 - g)) + c^(-g)]
    x, y, g = make_weight_law("symmetric_pareto", gamma=0.8), make_pareto_multiplier(0.5), 0.8
    est, se = prelimit_pi_n(x, y, 10, u, SeedStream(5), draws=10_000)
    c = y.norming(10) * u
    want = 5.0 * (c ** -0.5 * g / (g - 0.5) * (1.0 - c ** (0.5 - g)) + c ** -g)
    assert se > 0.0
    assert abs(est - want) <= 4.89 * se  # the two-sided 1e-6 quantile


def test_prelimit_pi_with_tail_draws_past_a_double():
    # beta = 0.01 at n = 100: a_n = 1e200, and Y draws would pass a double
    # for about 8% of them; at u = 1e200 so does a_n u.  Y is integrated out
    # in log space, and the estimate keeps its exact value
    # u^-beta E[X^beta] = u^-beta / (1 + beta) for X uniform on (0, 1)
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.01)
    for u in (2.0, 1e200):
        est, se = prelimit_pi_n(x, y, 100, u, SeedStream(8), draws=10_000)
        assert se > 0.0
        assert abs(est - u ** -0.01 / 1.01) <= 4.89 * se


def test_prelimit_pi_gaussian_weight_far_u():
    # n P{Y > a_n u / X} = n (a_n u / X)^(-1/2) for X > 0, so the exact value
    # is n (a_n u)^(-1/2) E[|X|^(1/2)] / 2; sampling Y instead read 0 here
    x, y, u = make_weight_law("standard_gaussian"), make_pareto_multiplier(0.5), 1e30
    est, se = prelimit_pi_n(x, y, 10, u, SeedStream(5), draws=10_000)
    want = 10.0 * (y.norming(10) * u) ** -0.5 * x.abs_moment(0.5) / 2.0
    assert want > 0.0 and se > 0.0
    assert abs(est - want) <= 4.89 * se


def test_prelimit_pi_slowly_varying_past_finite_norming():
    # a_n = e^1000 overflows a double; the row tail is n / (n - log X), whose
    # mean over X uniform on (0, 1) is the integral of n e^-l / (n + l)
    x, y, n = make_weight_law("uniform01"), make_slowly_varying_multiplier(), 1000
    est, se = prelimit_pi_n(x, y, n, 1.0, SeedStream(8), draws=10_000)
    want = quad(lambda l: n * math.exp(-l) / (n + l), 0.0, math.inf)[0]
    assert se > 0.0
    assert abs(est - want) <= 4.89 * se


@pytest.mark.parametrize("kind,want", [("exponential", 10.0 * math.exp(-1.0)),
                                       ("uniform01", 5.0)])
def test_prelimit_lambda_finite_mean_multiplier(kind, want):
    # no log-space hooks: n P{Y > a_n v} with a_n = n E Y, at n = 10, v = 0.1
    y = make_finite_mean_multiplier(kind)
    assert prelimit_lambda_n(y, 10, 0.1) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Truncated first moment of the jump part
# ---------------------------------------------------------------------------


def test_alpha_h_stable_closed_form(stable_half):
    assert alpha_h(stable_half, 1.0) == pytest.approx(1.0, abs=1e-9)
    for h in (0.25, 1.0, 4.0):
        want = 0.5 * h ** 0.5 / 0.5  # beta h^(1-beta) / (1-beta)
        assert alpha_h(stable_half, h) == pytest.approx(want, rel=1e-8)


def test_alpha_h_monotone_limit_is_drift(stable_half):
    hs = [2.0 ** -k for k in range(12)]
    vals = [alpha_h(stable_half, h) for h in hs]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 0.05  # tends to 0: the measure has no drift


def test_alpha_h_small_mean_bound(stable_half):
    # truncated_moment(k, c) against quadrature of s^k beta s^(-beta-1) over (0, c]
    for k in (1, 2):
        for c in (0.25, 1.0, 4.0):
            want = quad(lambda s: s ** k * 0.5 * s ** -1.5, 0.0, c)[0]
            assert stable_half.truncated_moment(k, c) == pytest.approx(want, rel=1e-9)
    # integral of z over (0,1] is finite and below alpha at h=1
    assert stable_half.truncated_moment(1, 1.0) <= alpha_h(stable_half, 1.0) + 1e-12


def test_alpha_h_prelimit_pareto():
    y = make_pareto_multiplier(0.5)
    for n in (100, 10_000):
        for h in (0.5, 1.0):
            got = prelimit_alpha_h(y, n, h)
            want = (h ** 0.5 - n ** -1.0)  # beta/(1-beta) (h^(1-b) - n^(1-1/b))
            assert got == pytest.approx(want, rel=1e-10)
    # converges to the limit form as n grows
    assert prelimit_alpha_h(y, 10**8, 1.0) == pytest.approx(1.0, abs=1e-7)


def test_prelimit_alpha_h_rejects_overflowing_norming():
    # a_n = n^100 overflows a double at n = 1e4; it reads inf, and the
    # prelimit raises ParameterError instead of OverflowError
    y = make_pareto_multiplier(0.01)
    assert y.norming(100) == 100.0 ** 100.0
    assert y.norming(10_000) == math.inf
    with pytest.raises(ParameterError, match="norming overflows"):
        prelimit_alpha_h(y, 10_000, 1.0)


def test_prelimit_alpha_h_rejects_level_past_a_double():
    # a_n h = 1e10 * 1e308 and 1e200 * 1e150 are inf as Python floats, with
    # no warning; the prelimit returned inf
    for beta, n, h in ((0.5, 100_000, 1e308), (0.01, 100, 1e150)):
        with pytest.raises(ParameterError, match="level a_n h .* overflows a double"):
            prelimit_alpha_h(make_pareto_multiplier(beta), n, h)
    # a finite level whose value overflows: n E[Y 1{Y <= a_n h}] passes a double
    y = replace(make_pareto_multiplier(0.5), trunc_mean=lambda t: np.float64(1e308))
    with pytest.raises(ParameterError, match="prelimit alpha_h .* is inf"):
        prelimit_alpha_h(y, 100, 1.0)
    assert prelimit_alpha_h(make_pareto_multiplier(0.01), 100, 1e100) < math.inf


def test_alpha_h_validation(stable_half, view_u01):
    for bad in (0.0, math.nan, math.inf, -1.0):
        for call in (lambda: alpha_h(stable_half, bad),
                     lambda: prelimit_alpha_h(_PARETO, 100, bad),
                     lambda: truncated_first_moments(view_u01, bad),
                     lambda: truncated_second_moments(view_u01, bad)):
            with pytest.raises(ParameterError, match="h must be"):
                call()


# ---------------------------------------------------------------------------
# Truncated moments of the bivariate measure
# ---------------------------------------------------------------------------


def test_truncated_first_moments_point_mass(stable_half):
    # X = 1: the half-disk condition s sqrt(1 + X^2) <= h becomes s <= h/sqrt(2),
    # so both parts equal beta (h/sqrt(2))^(1-beta) / (1-beta)
    view = BivariateLevyView(make_weight_law("point_mass", c=1.0), stable_half)
    h = 1.0
    want = (h / math.sqrt(2.0)) ** 0.5
    y_part, xy_part = truncated_first_moments(view, h)
    assert y_part == pytest.approx(want, rel=1e-7)
    assert xy_part == pytest.approx(want, rel=1e-7)


def test_truncated_first_moments_symmetric_weight(view_rademacher):
    _, xy_part = truncated_first_moments(view_rademacher, 1.0)
    assert xy_part == pytest.approx(0.0, abs=1e-9)


def test_truncated_first_moments_small_h(view_u01):
    vals = [truncated_first_moments(view_u01, h) for h in (1.0, 0.25, 0.05)]
    ys = [v[0] for v in vals]
    xys = [v[1] for v in vals]
    assert all(b < a for a, b in zip(ys[:-1], ys[1:]))
    assert ys[-1] < 0.3 and abs(xys[-1]) < 0.3  # tend to (drift, drift * EX) = (0, 0)


def test_truncated_first_moments_vs_mc_prelimit(view_u01):
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    for h in (0.25, 1.0):
        y_lim, xy_lim = truncated_first_moments(view_u01, h)
        (y_pre, y_se), (xy_pre, xy_se) = prelimit_truncated_first_moments(
            x, y, 100_000, h, SeedStream(9, 1), draws=400_000)
        # finite-n defect is O(n/a_n) = O(1e-5) for the Pareto half law
        assert abs(y_lim - y_pre) <= 3.0 * y_se + 1e-4
        assert abs(xy_lim - xy_pre) <= 3.0 * xy_se + 1e-4


def test_truncated_second_moments_inequalities(view_u01):
    h = 1.0
    uu, vv, uv = truncated_second_moments(view_u01, h)
    y_part, xy_part = truncated_first_moments(view_u01, h)
    assert 0.0 < vv <= h * y_part + 1e-9
    # u^2 <= h |u| on the half-disk, and |u| = u for a non-negative weight
    assert 0.0 < uu <= h * xy_part + 1e-9
    assert abs(uv) <= math.sqrt(uu * vv) + 1e-12


def test_truncated_second_moments_vs_mc_prelimit(view_u01):
    # two independent routes: one expectation over X of the limit measure vs
    # the weight-conditional truncated second moment of the multiplier
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    for h in (0.5, 1.0):
        limits = truncated_second_moments(view_u01, h)
        pres = prelimit_truncated_second_moments(x, y, 100_000, h,
                                                 SeedStream(9, 7), draws=400_000)
        for (lim_val, (pre_val, se)) in zip(limits, pres):
            assert abs(lim_val - pre_val) <= 3.0 * se + 1e-4


def _mean_se(vals):
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def _one_shot_prelimits(x, y, n, stream, draws, u, h):
    """pi_n at u and the first and second half-disk moments at h, the
    whole-array way: one sampler call and every formula on all draws."""
    xs = x.sampler(stream, draws)
    with np.errstate(divide="ignore"):
        log_v = math.log(abs(u)) - np.log(np.abs(xs))
    side = xs > 0.0 if u > 0.0 else xs < 0.0
    pi = _mean_se(np.where(side, n * y.survival_logarg(y.log_norming(n) + log_v), 0.0))
    a_n = y.norming(n)
    cap = a_n * h / np.sqrt(1.0 + xs * xs)
    s1, m1 = n / a_n, y.trunc_mean(cap)
    s2, m2 = n / (a_n * a_n), y.trunc_second(cap)
    first = (_mean_se(s1 * m1), _mean_se(s1 * xs * m1))
    second = (_mean_se(s2 * (xs * xs) * m2), _mean_se(s2 * m2), _mean_se(s2 * xs * m2))
    return pi, first, second


_ONE_SHOT_WEIGHTS = {
    "uniform01": lambda: make_weight_law("uniform01"),
    # the ziggurat takes a varying number of raw outputs per draw
    "standard_gaussian": lambda: make_weight_law("standard_gaussian"),
    "bernoulli": lambda: make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=2.0),
    "symmetric_pareto": lambda: make_weight_law("symmetric_pareto", gamma=1.5),
}


@pytest.mark.parametrize("draws", [2, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5])
@pytest.mark.parametrize("kind", list(_ONE_SHOT_WEIGHTS))
def test_prelimits_equal_one_shot_reference(kind, draws):
    # the prelimits draw X in passes of _MC_CHUNK from one generator: every
    # estimate equals the one-shot one bit for bit, on either side of a pass edge
    x, y, n = _ONE_SHOT_WEIGHTS[kind](), make_pareto_multiplier(0.5), 10_000
    for u, h in ((1.0, 0.25), (-0.5, 1.0)):
        stream = SeedStream(41, 3, (draws,))
        pi, first, second = _one_shot_prelimits(x, y, n, stream, draws, u, h)
        assert prelimit_pi_n(x, y, n, u, stream, draws=draws) == pi
        assert prelimit_truncated_first_moments(x, y, n, h, stream, draws=draws) == first
        assert prelimit_truncated_second_moments(x, y, n, h, stream, draws=draws) == second


def test_prelimit_overflow_raises_parameter_error():
    # a_n = 1000^100 = 1e300: a_n^(2 - beta) overflows and n / a_n^2 is 0, so
    # each estimate was NaN, after two RuntimeWarnings
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"prelimit of uniform01 under "
                           r"pareto\(beta=0.01\) at n=1000, h=1.0 is not finite"):
            prelimit_truncated_second_moments(x, y, 1000, 1.0, SeedStream(1), draws=100)


def test_truncated_moments_reject_level_past_a_double(view_u01):
    # h^(2 - 1/2) overflows at h = 1e308: the quadrature warned, then read
    # "quadrature result is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"h = 1e\+308 is too large: the truncated "
                           r"moment of order 2 of stable\(beta=0.5\)"):
            truncated_second_moments(view_u01, 1e308)
        # the first moments take h^(1/2) only
        assert all(math.isfinite(v) for v in truncated_first_moments(view_u01, 1e308))


def test_quadrature_cell_cap_stops_a_budget_below_rounding(view_u01):
    # at h = 2^-684 the quadratic integrals are subnormal (about 1e-310) and
    # quad's budget is below rounding: every cell was cut in every round
    # until memory ran out.  At 2^-680 (7.1e-309) the budget still holds.
    assert all(v > 0.0 for v in truncated_second_moments(view_u01, 2.0 ** -680))
    with pytest.raises(QuadratureError, match="the next round needs more than 65536 cells"):
        truncated_second_moments(view_u01, 2.0 ** -684)


def test_second_moment_smallh_scan(view_u01):
    scan = second_moment_smallh_scan(view_u01, k_max=10)
    top = np.asarray(scan[1.0])
    bottom = np.asarray(scan[2.0 ** -10])
    assert np.all(bottom <= 1e-3 * top)
    hs = sorted(scan.keys())
    for a, b in zip(hs[:-1], hs[1:]):
        assert all(x <= y + 1e-15 for x, y in zip(scan[a], scan[b]))
    # the stable(1/2) measure scales: each integral is h^(3/2) times its h = 1 value
    for h in hs:
        np.testing.assert_allclose(scan[h], h ** 1.5 * top, rtol=1e-12, atol=0.0)
    for bad in (-1, 2.5, math.nan):
        with pytest.raises(ParameterError, match="k_max"):
            second_moment_smallh_scan(view_u01, k_max=bad)


def _slice_moments(kind, r):
    """P{|X| <= r}, E[X; |X| <= r] and E[X^2; |X| <= r] in closed form."""
    if kind == "uniform01":
        c = min(r, 1.0)
        return c, c * c / 2.0, c ** 3 / 3.0
    if kind == "symmetric_pareto":  # gamma = 1.5: density 0.75 |x|^-2.5 on |x| >= 1
        if r < 1.0:
            return 0.0, 0.0, 0.0
        return 1.0 - r ** -1.5, 0.0, 1.5 * (r ** 0.5 - 1.0) / 0.5
    mass = special.erf(r / math.sqrt(2.0))  # 2 Phi(r) - 1
    return mass, 0.0, mass - 2.0 * r * math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)


def test_half_disk_moments_match_slice_order_oracle(stable_half):
    # the other order of integration: quad over the jump size s outside, and
    # inside it the weight moments over the slice |X| <= sqrt(h^2 - s^2) / s
    # in closed form
    def outer(kind, h, moment, power):
        def f(s):
            r = math.sqrt(max(h * h - s * s, 0.0)) / s
            return s ** power * _slice_moments(kind, r)[moment] * 0.5 * s ** -1.5
        return quad(f, 0.0, h, points=[h / math.sqrt(2.0)],
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    for kind in ("uniform01", "standard_gaussian", "symmetric_pareto"):
        view = BivariateLevyView(make_weight_law(kind, gamma=1.5), stable_half)
        for h in (0.25, 1.0, 4.0):
            first = (outer(kind, h, 0, 1), outer(kind, h, 1, 1))
            second = (outer(kind, h, 2, 2), outer(kind, h, 0, 2), outer(kind, h, 1, 2))
            np.testing.assert_allclose(truncated_first_moments(view, h), first,
                                       rtol=0.0, atol=1e-9, err_msg=f"{kind} h={h}")
            np.testing.assert_allclose(truncated_second_moments(view, h), second,
                                       rtol=0.0, atol=1e-9, err_msg=f"{kind} h={h}")


# ---------------------------------------------------------------------------
# Convergence report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.99])
def test_limit_view_of_pareto_is_stable(beta):
    x = make_weight_law("uniform01")
    view = limit_view(x, make_pareto_multiplier(beta))
    assert view.weight is x
    assert view.levy.tail(2.0) == pytest.approx(2.0 ** -beta, rel=1e-15)


@pytest.mark.parametrize("y", [make_pareto_multiplier(1.0), make_pareto_multiplier(1.5),
                               make_finite_mean_multiplier("exponential"),
                               make_finite_mean_multiplier("uniform01")],
                         ids=["pareto1.0", "pareto1.5", "exponential", "uniform01"])
def test_limit_view_rejects_multiplier_without_limit_measure(y):
    with pytest.raises(ParameterError, match="no limit jump measure") as err:
        limit_view(make_weight_law("uniform01"), y)
    assert y.label in str(err.value)


def test_limit_view_of_slowly_varying_is_none():
    assert limit_view(make_weight_law("uniform01"), make_slowly_varying_multiplier()) is None


@pytest.mark.parametrize("kind,gamma,beta", [("abs_pareto", 0.4, 0.5),
                                             ("symmetric_pareto", 0.5, 0.5),
                                             ("symmetric_pareto", 0.3, 0.9)])
def test_limit_view_rejects_weight_without_limit_measure(kind, gamma, beta):
    # the first-coordinate tail is u^-beta E|X|^beta, infinite once gamma <= beta
    x, y = make_weight_law(kind, gamma=gamma), make_pareto_multiplier(beta)
    message = f"{x.label} has no limit measure with {y.label}: E|X|^{beta:g} is infinite"
    with pytest.raises(ParameterError, match=re.escape(message)):
        limit_view(x, y)


def test_limit_view_accepts_infinite_mean_weight():
    # symmetric_pareto(0.8) has E|X| = inf but E|X|^(1/2) = 8/3, which is all
    # the limit measure of a Pareto(1/2) multiplier needs
    view = limit_view(make_weight_law("symmetric_pareto", gamma=0.8), make_pareto_multiplier(0.5))
    assert pi_bar(view, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    y_part, xy_part = truncated_first_moments(view, 1.0)
    assert y_part == pytest.approx(0.5704, abs=1e-4)
    assert abs(xy_part) <= 1e-12  # X is symmetric


def test_pi_bar_quadrature_miss_raises():
    # E|X|^(1/2) = 6 is finite, but the folded t^-0.9 end singularity keeps
    # quad just over its budget (2.999999999997 against 3, error estimate 3.2e-13)
    view = limit_view(make_weight_law("symmetric_pareto", gamma=0.6), make_pareto_multiplier(0.5))
    with pytest.raises(QuadratureError, match="missed its error budget after 30 rounds"):
        pi_bar(view, 1.0)


def test_check_levy_convergence_pareto():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    res = check_levy_convergence(
        x, y, n_list=(1_000, 10_000, 100_000), v_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
        u_grid=(0.5, 1.0, 2.0), stream=SeedStream(11, 0), draws=100_000)
    assert res.verdict
    for rep in res.lambda_reports:
        assert rep.sup_abs_gap < 1e-10
    for rep in res.pi_reports:
        assert rep.verdict


def test_check_levy_convergence_pi_grid_is_u_grid():
    res = check_levy_convergence(make_weight_law("uniform01"), make_pareto_multiplier(0.5),
                                 (10, 100), (1.0,), (0.5, 2.0), SeedStream(11), 100)
    assert [rep.grid for rep in res.pi_reports] == [[0.5, 2.0]] * 2
    assert [f.name for f in fields(res)] == ["n_list", "lambda_reports", "pi_reports",
                                             "verdict", "note"]


def test_check_levy_convergence_computes_each_limit_once(monkeypatch):
    # the limits do not depend on n: one lambda_bar per v and one pi_bar per u
    import selfnorm_lab.levy_calculus as lc
    calls = []
    for name in ("lambda_bar", "pi_bar"):
        real = getattr(lc, name)
        monkeypatch.setattr(lc, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    check_levy_convergence(make_weight_law("uniform01"), make_pareto_multiplier(0.5),
                           (10, 100, 1000), (0.5, 1.0), (0.5, 2.0), SeedStream(11), 100)
    assert sorted(calls) == ["lambda_bar"] * 2 + ["pi_bar"] * 2


def test_check_levy_convergence_slowly_varying_documents_escape(tmp_path):
    x = make_weight_law("uniform01")
    y = make_slowly_varying_multiplier()
    res = check_levy_convergence(x, y, n_list=(100, 10_000), v_grid=(0.25, 1.0, 4.0),
                                 u_grid=(1.0,), stream=SeedStream(11), draws=100)
    assert res.verdict
    assert "non-Feller" in res.note
    _write_json(tmp_path / "conv.json", asdict(res))
    payload = json.loads((tmp_path / "conv.json").read_text())
    assert payload["lambda_reports"][0]["name"].startswith("interval_mass")
    assert set(payload) == {"n_list", "lambda_reports", "pi_reports", "verdict", "note"}


@pytest.mark.parametrize("n_list", [(10.5, 100), (10, 100.0), (0, 100), ()])
def test_check_levy_convergence_rejects_bad_n(n_list):
    with pytest.raises(ParameterError):
        check_levy_convergence(make_weight_law("uniform01"),
                               make_slowly_varying_multiplier(),
                               n_list=n_list, v_grid=(0.25, 1.0), u_grid=(1.0,),
                               stream=SeedStream(11), draws=100)


def test_convergence_report_roundtrip(tmp_path):
    rep = ConvergenceReport.build("demo", [1.0, 2.0], [0.1, 0.2], [0.1, 0.25],
                                  tol=0.1)
    assert rep.sup_abs_gap == pytest.approx(0.05)
    assert rep.gaps == pytest.approx([0.0, 0.05])
    assert rep.verdict
    _write_json(tmp_path / "rep.json", asdict(rep))
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["name"] == "demo"
    assert payload["gaps"] == pytest.approx([0.0, 0.05])
