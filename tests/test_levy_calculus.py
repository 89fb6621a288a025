import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from selfnorm_lab.distributions import (
    ParameterError,
    SeedStream,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
)
from selfnorm_lab.levy_calculus import (
    BivariateLevyView,
    ConvergenceReport,
    LevyTail,
    alpha_h,
    check_levy_convergence,
    lambda_bar,
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
    "prelimit_pi_n": lambda n: prelimit_pi_n(_GAUSS, _PARETO, n, 1.0, 0.0,
                                             SeedStream(3), draws=100),
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
    assert pi_bar(view_u01, 1.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert pi_bar(view_u01, 0.0, 1.0) == pytest.approx(1.0)
    assert pi_bar(view_u01, 1.0, 1e10) < 1e-4
    # v > u: (2/3) u^-1/2 (u/v)^3/2 from X <= u/v plus (1 - u/v) v^-1/2 above
    u, v = 0.5, 0.7
    want = 2.0 / 3.0 * u ** -0.5 * (u / v) ** 1.5 + (1.0 - u / v) * v ** -0.5
    assert want == pytest.approx(0.91065036901668, abs=1e-14)
    assert pi_bar(view_u01, u, v) == pytest.approx(want, rel=1e-12)
    for bad in ((0.0, 0.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            pi_bar(view_u01, *bad)


def test_pi_bar_substitution_identity(stable_half):
    # pi_bar(u, 0) = u^-beta E[(X+)^beta], pi_bar(-u, 0) = u^-beta E[(X-)^beta]
    for kind in ("uniform01", "rademacher", "standard_gaussian"):
        x = make_weight_law(kind)
        view = BivariateLevyView(x, stable_half)
        for u in (0.5, 1.0, 2.0):
            want = u ** -0.5 * x.beta_moment_pos(0.5)
            assert pi_bar(view, u, 0.0) == pytest.approx(want, rel=1e-7), (kind, u)
            if x.support[0] < 0.0:
                want_n = u ** -0.5 * x.beta_moment_neg(0.5)
                assert pi_bar(view, -u, 0.0) == pytest.approx(want_n, rel=1e-7)


def test_pi_neg_nonnegative_weight_is_zero(view_u01):
    for u in (0.5, 1.0, 3.0):
        assert pi_bar(view_u01, -u, 0.0) == 0.0


def test_pi_neg_rademacher_value(view_rademacher):
    # F(-1/s) = 1/2 exactly when s >= 1, so the integral is half the tail at 1
    assert pi_bar(view_rademacher, -1.0, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert pi_bar(view_rademacher, -1.0, 1e8) < 1e-3


def test_pi_monotonicity(view_u01, view_rademacher):
    us = [0.25, 0.5, 1.0, 2.0]
    vs = [0.0, 0.5, 1.0, 4.0]
    vals_u = [pi_bar(view_u01, u, 0.1) for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(vals_u[:-1], vals_u[1:]))
    vals_v = [pi_bar(view_u01, 1.0, v) for v in vs]
    assert all(b <= a + 1e-12 for a, b in zip(vals_v[:-1], vals_v[1:]))
    neg_u = [pi_bar(view_rademacher, -u, 0.0) for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(neg_u[:-1], neg_u[1:]))


def test_pi_consistency_at_origin(stable_half):
    # pi_bar(0+, v) + pi_bar(0-, v) <= lambda_bar(v); equality without an atom at 0
    v = 0.7
    lam = lambda_bar(stable_half, v)
    for kind in ("uniform01", "rademacher"):
        view = BivariateLevyView(make_weight_law(kind), stable_half)
        total = pi_bar(view, 1e-9, v) + pi_bar(view, -1e-9, v)
        assert total <= lam + 1e-9
        assert total == pytest.approx(lam, rel=1e-4)
    view_atom0 = BivariateLevyView(
        make_weight_law("bernoulli", p=0.5, x0=0.0, x1=1.0), stable_half)
    total = pi_bar(view_atom0, 1e-9, v) + pi_bar(view_atom0, -1e-9, v)
    assert total <= lam * (1.0 - 0.5 + 1e-6)


def test_prelimit_pi_point_mass_reduces_to_lambda():
    x = make_weight_law("point_mass", c=1.0)
    y = make_pareto_multiplier(0.5)
    for (u, v) in ((1.0, 0.0), (0.5, 2.0), (2.0, 0.5)):
        est, se = prelimit_pi_n(x, y, 10_000, u, v, SeedStream(3, 1), draws=200_000)
        want = prelimit_lambda_n(y, 10_000, max(u, v))
        assert abs(est - want) <= 3.0 * se + 1e-9


def test_prelimit_pi_matches_limit(view_u01):
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    est, se = prelimit_pi_n(x, y, 10_000, 1.0, 0.0, SeedStream(3, 2), draws=400_000)
    assert se < 5e-3
    assert abs(est - 2.0 / 3.0) <= 3.0 * se + 1e-9
    # v > u branch against quadrature of the limit
    est2, se2 = prelimit_pi_n(x, y, 10_000, 0.5, 2.0, SeedStream(3, 3), draws=400_000)
    want = pi_bar(view_u01, 0.5, 2.0)
    assert abs(est2 - want) <= 3.0 * se2 + 1e-6


def test_prelimit_pi_negative_branch(stable_half):
    x = make_weight_law("rademacher")
    y = make_pareto_multiplier(0.5)
    view = BivariateLevyView(x, stable_half)
    est, se = prelimit_pi_n(x, y, 10_000, -1.0, 0.0, SeedStream(3, 4), draws=400_000)
    assert abs(est - pi_bar(view, -1.0, 0.0)) <= 3.0 * se + 1e-6


def test_prelimit_pi_variance_reported():
    x = make_weight_law("standard_gaussian")  # unbounded: plain MC path
    y = make_pareto_multiplier(0.5)
    est, se = prelimit_pi_n(x, y, 100, 1.0, 0.0, SeedStream(3, 5), draws=100_000)
    assert se > 0.0


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


def _slice_moments(kind, r):
    """P{|X| <= r}, E[X; |X| <= r] and E[X^2; |X| <= r] in closed form."""
    if kind == "uniform01":
        c = min(r, 1.0)
        return c, c * c / 2.0, c ** 3 / 3.0
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

    for kind in ("uniform01", "standard_gaussian"):
        view = BivariateLevyView(make_weight_law(kind), stable_half)
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


def test_check_levy_convergence_pareto(view_u01):
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    res = check_levy_convergence(
        x, y, view_u01, n_list=(1_000, 10_000, 100_000),
        v_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
        uv_grid=((0.5, 0.0), (1.0, 0.0), (2.0, 0.0)),
        stream=SeedStream(11, 0), draws=100_000)
    assert res.verdict
    for rep in res.lambda_reports:
        assert rep.sup_abs_gap < 1e-10
    for rep in res.pi_reports:
        assert rep.verdict


def test_check_levy_convergence_slowly_varying_documents_escape(tmp_path):
    x = make_weight_law("uniform01")
    y = make_slowly_varying_multiplier()
    res = check_levy_convergence(x, y, None, n_list=(100, 10_000),
                                 v_grid=(0.25, 1.0, 4.0))
    assert res.verdict
    assert "non-Feller" in res.note
    _write_json(tmp_path / "conv.json", asdict(res))
    payload = json.loads((tmp_path / "conv.json").read_text())
    assert payload["lambda_reports"][0]["name"].startswith("interval_mass")


@pytest.mark.parametrize("n_list", [(10.5, 100), (10, 100.0), (0, 100)])
def test_check_levy_convergence_rejects_bad_n(n_list):
    with pytest.raises(ParameterError):
        check_levy_convergence(make_weight_law("uniform01"),
                               make_slowly_varying_multiplier(), None,
                               n_list=n_list, v_grid=(0.25, 1.0))


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
