import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import levy

from selfnorm_lab.distributions import (
    ParameterError,
    QuadratureError,
    SeedStream,
    _atom_index,
    _atomic_weight,
    _pareto_power,
    expect_weight,
    levy_cdf,
    make_finite_mean_multiplier,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
    vec_eval,
)

DKW_BAND_1E6 = math.sqrt(math.log(2.0 / 0.001) / (2.0 * 1_000_000))  # 99.9% band


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def test_seed_stream_is_pure():
    a = SeedStream(42, 7).generator().random(100)
    b = SeedStream(42, 7).generator().random(100)
    assert np.array_equal(a, b)


def test_seed_stream_independent_indices():
    a = SeedStream(42, 0).generator().random(100)
    b = SeedStream(42, 1).generator().random(100)
    assert not np.array_equal(a, b)


def test_seed_stream_child_distinct():
    s = SeedStream(42, 3)
    assert s.child(0) != s.child(1)
    assert s.child(5) == s.child(5)


def test_seed_stream_validation():
    with pytest.raises(ParameterError):
        SeedStream(-1)
    with pytest.raises(ParameterError):
        SeedStream(1, -2)


def test_seed_stream_rejects_non_integer_master_seed():
    for bad in (1.7, 1.0, "1", np.float64(3.0)):
        with pytest.raises(ParameterError):
            SeedStream(bad)
    for ok in (np.int64(5), np.uint64(5)):
        assert np.array_equal(SeedStream(ok).generator().random(4),
                              SeedStream(5).generator().random(4))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SeedStream(1, 2**32), id="index_2**32"),  # one key word each
    pytest.param(lambda: SeedStream(1, 0, (2**32,)), id="path_2**32"),
    pytest.param(lambda: SeedStream(1).child(2**32), id="child_2**32"),
    pytest.param(lambda: SeedStream(1).child(-1), id="child_negative"),
    pytest.param(lambda: SeedStream(1).child(1.0), id="child_float"),
    pytest.param(lambda: SeedStream(1, 1.5), id="index_float"),
])
def test_seed_stream_rejects_keys_outside_one_word(make):
    with pytest.raises(ParameterError):
        make()


def test_seed_stream_root_layout_and_path():
    # root streams keep spawn key (stream_index,); child(k) appends k
    ref = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(42, spawn_key=(7,)))).random(8)
    assert np.array_equal(SeedStream(42, 7).generator().random(8), ref)
    s = SeedStream(42, 7).child(3).child(0)
    assert s == SeedStream(42, 7, (3, 0)) and s.path == (3, 0)
    ref = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(42, spawn_key=(7, 3, 0)))).random(8)
    assert np.array_equal(s.generator().random(8), ref)


def test_seed_stream_children_do_not_alias():
    root = SeedStream(42)
    assert root.child(0) != root
    a = root.child(0).child(5).generator().random(16)
    b = root.child(5).generator().random(16)
    c = root.generator().random(16)
    d = root.child(0).generator().random(16)
    assert not np.array_equal(a, b) and not np.array_equal(c, d)


def _stream_state(index, path):
    stream = SeedStream(20260808, index)
    for k in path:
        stream = stream.child(k)
    return stream.generator().bit_generator.state["state"]["state"]


_KEY = st.tuples(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2**32 - 1), max_size=4))


@settings(max_examples=300, deadline=None)
@given(_KEY, _KEY)
@example((0, []), (0, [0]))          # a child and its parent
@example((0, [5]), (0, [0, 5]))      # child(5) against child(0).child(5)
@example((1, []), (0, [1]))
@example((0, [1, 0]), (0, [1]))
def test_seed_stream_distinct_paths_give_distinct_states(a, b):
    if a[0] == b[0] and list(a[1]) == list(b[1]):
        assert _stream_state(*a) == _stream_state(*b)
    else:
        assert _stream_state(*a) != _stream_state(*b)


# ---------------------------------------------------------------------------
# Pareto multiplier
# ---------------------------------------------------------------------------


def test_pareto_survival_values():
    y = make_pareto_multiplier(0.5)
    assert y.survival(4.0) == pytest.approx(0.5)
    assert y.survival(1.0) == 1.0
    assert y.survival(0.3) == 1.0


def test_pareto_norming_is_quantile():
    y = make_pareto_multiplier(0.5)
    assert y.norming(100) == pytest.approx(10_000.0)
    ns = [1, 2, 10, 100, 10_000]
    a = [y.norming(n) for n in ns]
    assert all(b >= c for b, c in zip(a[1:], a[:-1]))


def test_pareto_row_tail_identity_machine_precision():
    y = make_pareto_multiplier(0.5)
    for n in (2, 10, 1_000, 100_000):
        for v in (0.25, 0.5, 1.0, 2.0, 4.0):
            if y.norming(n) * v >= 1.0:
                val = n * y.survival(y.norming(n) * v)
                assert val == pytest.approx(v ** -0.5, rel=1e-12)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0, 1.5])
def test_pareto_truncated_moments_match_quadrature(beta):
    y = make_pareto_multiplier(beta)
    dens = lambda t: beta * t ** (-beta - 1.0)
    for x in (1.5, 4.0, 50.0):
        assert y.trunc_mean(x) == pytest.approx(
            quad(lambda t: t * dens(t), 1.0, x)[0], rel=1e-9)
        assert y.trunc_second(x) == pytest.approx(
            quad(lambda t: t * t * dens(t), 1.0, x)[0], rel=1e-9)


def test_pareto_rejects_bad_beta():
    for bad in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ParameterError):
            make_pareto_multiplier(bad)


# ---------------------------------------------------------------------------
# Slowly varying multiplier
# ---------------------------------------------------------------------------


def test_slowly_varying_survival_values():
    y = make_slowly_varying_multiplier()
    assert y.survival(math.e) == 1.0
    assert y.survival(math.e ** 2) == pytest.approx(0.5)


def test_slowly_varying_truncated_moments_match_quadrature():
    y = make_slowly_varying_multiplier()
    dens = lambda t: 1.0 / (t * math.log(t) ** 2)
    for x in (10.0, 1e3, 1e6):
        assert y.trunc_mean(x) == pytest.approx(
            quad(lambda t: t * dens(t), math.e, x, limit=200)[0], rel=1e-8)
        assert y.trunc_second(x) == pytest.approx(
            quad(lambda t: t * t * dens(t), math.e, x, limit=200)[0], rel=1e-8)


def test_slowly_varying_tail_dominates_truncated_second_moment():
    # x^2 survival(x) / trunc_second(x) grows without bound along x = 10^k
    y = make_slowly_varying_multiplier()
    vals = [x * x * y.survival(x) / y.trunc_second(x) for x in 10.0 ** np.arange(2, 9)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] > vals[0] * 3


def test_slowly_varying_log_sampler_consistent():
    y = make_slowly_varying_multiplier()
    s = SeedStream(5, 1)
    logs = y.log_sampler(s, 1000)
    raw = y.sampler(s, 1000)
    finite = np.isfinite(raw)
    assert np.allclose(np.exp(logs[finite]), raw[finite], rtol=1e-12)
    assert np.all(logs >= 1.0)


# ---------------------------------------------------------------------------
# Finite-mean multipliers
# ---------------------------------------------------------------------------


def test_exponential_basics():
    y = make_finite_mean_multiplier("exponential", rate=1.0)
    assert y.survival(0.0) == 1.0
    assert y.trunc_mean(1e3) == pytest.approx(1.0, rel=1e-10)


def test_uniform01_trunc_second():
    y = make_finite_mean_multiplier("uniform01")
    assert y.trunc_second(1.0) == pytest.approx(1.0 / 3.0)
    assert y.trunc_mean(0.5) == pytest.approx(0.125)


def test_finite_mean_norming_grows():
    for y in (make_finite_mean_multiplier("exponential", rate=2.0),
              make_finite_mean_multiplier("uniform01")):
        a = [y.norming(n) for n in (1, 10, 100, 10_000)]
        assert all(b > c for b, c in zip(a[1:], a[:-1]))
        assert a[-1] > 100.0


def test_trunc_second_bounded_by_x_trunc_mean():
    laws = [make_pareto_multiplier(0.5), make_slowly_varying_multiplier(),
            make_finite_mean_multiplier("exponential", rate=1.0),
            make_finite_mean_multiplier("uniform01")]
    for y in laws:
        for x in (0.5, 2.0, 10.0, 1e4):
            assert y.trunc_second(x) <= x * y.trunc_mean(x) + 1e-12


def test_finite_mean_rejects_bad_rate():
    with pytest.raises(ParameterError):
        make_finite_mean_multiplier("exponential", rate=0.0)


@pytest.mark.parametrize("maker,args", [
    (make_pareto_multiplier, (0.5,)),
    (make_slowly_varying_multiplier, ()),
    (make_finite_mean_multiplier, ("exponential",)),
    (make_finite_mean_multiplier, ("uniform01",)),
])
def test_empirical_survival_within_dkw_band(maker, args):
    y = maker(*args)
    draws = y.sampler(SeedStream(2024, 11), 1_000_000)
    draws = np.sort(draws)
    grid = np.quantile(draws[np.isfinite(draws)], np.linspace(0.001, 0.999, 200))
    emp = 1.0 - np.searchsorted(draws, grid, side="right") / len(draws)
    ana = np.asarray([y.survival(g) for g in grid])
    assert np.max(np.abs(emp - ana)) <= DKW_BAND_1E6


# ---------------------------------------------------------------------------
# Vectorized law interface
# ---------------------------------------------------------------------------

BUILTIN_MULTIPLIERS = [
    make_pareto_multiplier(0.5),
    make_pareto_multiplier(1.0),
    make_pareto_multiplier(1.5),
    make_slowly_varying_multiplier(),
    make_finite_mean_multiplier("exponential", rate=2.0),
    make_finite_mean_multiplier("uniform01"),
]
# support edges (0, 1, e), points below the support and an extreme argument
EDGE_GRID = np.array([-1e3, -1.0, -0.0, 0.0, 0.25, 1.0, 1.5, math.e, 3.0, 10.0,
                      1e3, 1e300])
# values at 1e300 where x * x overflows: exponential E[Y^2] = 2 / rate^2; the
# slowly varying truncated second moment is about x^2 / (2 log^2 x)
AT_1E300 = {"exponential(rate=2)-trunc_second": 0.5,
            "slowly_varying-trunc_second": math.inf}


POINT_CALLABLES = [pytest.param(y, name, AT_1E300.get(f"{y.label}-{name}"),
                                id=f"{y.label}-{name}")
                   for y in BUILTIN_MULTIPLIERS
                   for name in ("survival", "survival_logarg", "trunc_mean", "trunc_second")
                   if getattr(y, name) is not None]


@pytest.mark.parametrize("y,name,at_1e300", POINT_CALLABLES)
def test_multiplier_callable_array_matches_scalar(y, name, at_1e300):
    fn = getattr(y, name)
    with np.errstate(over="ignore", invalid="ignore"):
        scalar = [fn(float(t)) for t in EDGE_GRID]
        arr = fn(EDGE_GRID)
        through_vec_eval = vec_eval(fn, EDGE_GRID)
    assert all(isinstance(v, float) for v in scalar)  # never a 0-d array
    assert isinstance(arr, np.ndarray) and arr.shape == EDGE_GRID.shape
    np.testing.assert_allclose(arr, scalar, rtol=1e-15, atol=0.0)
    assert np.array_equal(through_vec_eval, arr, equal_nan=True)
    assert not np.any(np.isnan(arr))
    if at_1e300 is not None:
        assert arr[-1] == pytest.approx(at_1e300, rel=1e-15)


@pytest.mark.parametrize("y", BUILTIN_MULTIPLIERS, ids=lambda y: y.label)
def test_multiplier_callables_vanish_below_support(y):
    below = np.array([-1e3, -1.0, 0.0])
    assert np.all(y.survival(below) == 1.0)
    for fn in (y.trunc_mean, y.trunc_second):
        vals = fn(below)
        assert np.all(vals == 0.0) and not np.any(np.signbit(vals))


def test_vec_eval_rejects_scalar_only_callable():
    # a callable that ignores the array shape used to be looped silently
    with pytest.raises(ParameterError, match="not vectorized"):
        vec_eval(lambda t: 0.0, np.linspace(0.5, 2.0, 4))
    # one that branches on its argument fails loudly instead of being looped
    with pytest.raises(ValueError, match="ambiguous"):
        vec_eval(lambda t: 1.0 if t <= 1.0 else t ** -0.5, np.linspace(0.5, 2.0, 4))


# ---------------------------------------------------------------------------
# Weight laws
# ---------------------------------------------------------------------------


def test_uniform01_beta_moment():
    x = make_weight_law("uniform01")
    assert x.beta_moment_pos(0.5) == pytest.approx(2.0 / 3.0)
    assert x.beta_moment_neg(0.5) == 0.0


def test_rademacher_atoms():
    x = make_weight_law("rademacher")
    assert x.mean == 0.0
    assert x.atoms == ((-1.0, 0.5), (1.0, 0.5))
    assert x.beta_moment_pos(0.77) == pytest.approx(0.5)


def test_point_mass_moments():
    x = make_weight_law("point_mass", c=1.0)
    for b in (0.1, 0.5, 1.3):
        assert x.beta_moment_pos(b) == pytest.approx(1.0)


def test_gaussian_beta_moment_matches_quadrature():
    x = make_weight_law("standard_gaussian")
    for b in (0.5, 1.0, 1.7):
        oracle = quad(lambda t: t ** b * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                      0, np.inf)[0]
        assert x.beta_moment_pos(b) == pytest.approx(oracle, rel=1e-9)


def test_symmetric_pareto_infinite_mean_flags():
    x = make_weight_law("symmetric_pareto", gamma=0.8)
    assert math.isinf(x.abs_mean)
    assert x.beta_moment_pos(0.5) == pytest.approx(0.8 / (2 * 0.3))
    assert math.isinf(x.beta_moment_pos(0.9))
    x2 = make_weight_law("symmetric_pareto", gamma=1.5)
    assert x2.abs_mean == pytest.approx(3.0)
    assert x2.mean == 0.0


def test_cdf_jump_equals_atom_mass():
    for kind, kwargs in (("rademacher", {}), ("point_mass", {"c": 2.0}),
                         ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 5.0})):
        x = make_weight_law(kind, **kwargs)
        for loc, m in x.atoms:
            jump = x.cdf(loc) - x.cdf(loc - 1e-9)
            assert jump == pytest.approx(m, abs=1e-12)


def test_cdf_monotone_with_limits():
    spans = {"uniform01": 50.0, "standard_gaussian": 50.0, "rademacher": 50.0,
             "symmetric_pareto": 1e5}
    for kind, span in spans.items():
        x = make_weight_law(kind, gamma=0.8)
        grid = np.concatenate([np.linspace(-span, span, 401),
                               np.linspace(-2.0, 2.0, 201)])
        grid.sort()
        vals = np.asarray([float(x.cdf(t)) for t in grid])
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] <= 0.01 and vals[-1] >= 0.99


# (law, point, P{X > point} in closed form): far tails where 1 - cdf
# cancels, points next to atoms and support edges, and points outside
SF_CASES = [
    (make_weight_law("symmetric_pareto", gamma=0.8), 1e30, 0.5 * 1e30 ** -0.8),
    (make_weight_law("symmetric_pareto", gamma=0.8), 1e300, 0.5 * 1e300 ** -0.8),
    (make_weight_law("symmetric_pareto", gamma=0.8), -1e30, 1.0 - 0.5 * 1e30 ** -0.8),
    (make_weight_law("symmetric_pareto", gamma=0.8), 0.3, 0.5),
    (make_weight_law("abs_pareto", gamma=0.4), 1e30, 1e30 ** -0.4),
    (make_weight_law("abs_pareto", gamma=0.4), 0.5, 1.0),
    (make_weight_law("standard_gaussian"), 30.0, 0.5 * math.erfc(30.0 / math.sqrt(2.0))),
    (make_weight_law("standard_gaussian"), -3.0, 0.5 * math.erfc(-3.0 / math.sqrt(2.0))),
    (make_weight_law("uniform01"), 1.0 - 2.0 ** -40, 2.0 ** -40),
    (make_weight_law("uniform01"), -5.0, 1.0),
    (make_weight_law("uniform01"), 1.5, 0.0),
    (make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=5.0), 5.0 - 1e-12, 0.3),
    (make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=5.0), 5.0, 0.0),
    (make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=5.0), -1.0, 0.3),
    (make_weight_law("rademacher"), -1.0 - 1e-12, 1.0),
]


@pytest.mark.parametrize("x,t,want", SF_CASES,
                         ids=[f"{x.label}@{t:g}" for x, t, _ in SF_CASES])
def test_sf_matches_closed_form(x, t, want):
    got = x.sf(t)
    assert isinstance(got, float)  # np.float64 included, never a 0-d array
    assert got == pytest.approx(want, rel=1e-12, abs=0.0 if want else 1e-300)
    arr = x.sf(np.array([t, t]))
    assert arr.shape == (2,)
    assert arr == pytest.approx([got, got], rel=1e-15, abs=0.0 if want else 1e-300)


@pytest.mark.parametrize("kind,kwargs", [
    ("uniform01", {}), ("standard_gaussian", {}), ("rademacher", {}),
    ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 5.0}), ("symmetric_pareto", {"gamma": 0.8}),
    ("abs_pareto", {"gamma": 0.9}), ("point_mass", {"c": 2.0}),
])
def test_sf_complements_cdf(kind, kwargs):
    x = make_weight_law(kind, **kwargs)
    grid = np.concatenate([np.linspace(-6.0, 6.0, 241), [-1.0, 0.0, 1.0, 2.0, 5.0]])
    assert np.max(np.abs(x.sf(grid) + x.cdf(grid) - 1.0)) <= 2e-16


@pytest.mark.parametrize("kind,kwargs,var_known", [
    ("uniform01", {}, True),
    ("standard_gaussian", {}, True),
    ("rademacher", {}, True),
    ("bernoulli", {"p": 0.25, "x0": 0.0, "x1": 1.0}, True),
])
def test_empirical_mean_within_five_se(kind, kwargs, var_known):
    x = make_weight_law(kind, **kwargs)
    draws = x.sampler(SeedStream(99, 5), 1_000_000)
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - x.mean) <= 5.0 * max(se, 1e-9)


ATOM_LAWS = [
    make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=5.0),
    make_weight_law("rademacher"),
    _atomic_weight("three_atoms", [(0.0, 0.2), (1.0, 0.5), (2.0, 0.3)]),
    _atomic_weight("ten_tenths", [(float(k), 0.1) for k in range(10)]),  # cumsum ends below 1
]


@pytest.mark.parametrize("x", ATOM_LAWS, ids=lambda x: x.label)
def test_atomic_sampler_frequencies_within_4_89_se(x):
    draws = x.sampler(SeedStream(77, 2), 1_000_000)
    locs = np.array([loc for loc, _ in x.atoms])
    assert np.all(np.isin(draws, locs))
    for loc, m in x.atoms:
        se = math.sqrt(m * (1.0 - m) / 1_000_000)
        assert abs(float((draws == loc).mean()) - m) <= 4.89 * se


@pytest.mark.parametrize("x", ATOM_LAWS, ids=lambda x: x.label)
def test_atom_index_equals_searchsorted(x):
    inner_cum = np.cumsum([m for _, m in x.atoms])[:-1]
    cuts = np.concatenate([inner_cum, np.nextafter(inner_cum, 0.0),
                           np.nextafter(inner_cum, 1.0)])
    u = np.concatenate([SeedStream(78).generator().random(100_000), cuts,
                        [0.0, 1.0 - 2.0**-53]])
    assert np.array_equal(_atom_index(inner_cum, u),
                          np.searchsorted(inner_cum, u, side="right"))


def test_point_mass_sampler_returns_constant():
    x = make_weight_law("point_mass", c=-2.5)
    assert np.all(x.sampler(SeedStream(3), 10_000) == -2.5)
    assert x.sampler(SeedStream(3), 0).shape == (0,)


def test_weight_law_validation():
    with pytest.raises(ParameterError):
        make_weight_law("bernoulli", p=1.5)
    with pytest.raises(ParameterError):
        make_weight_law("symmetric_pareto", gamma=2.5)
    with pytest.raises(ParameterError):
        make_weight_law("no_such_kind")


def test_expect_weight_mixes_atoms_and_density():
    x = make_weight_law("uniform01")
    assert expect_weight(x, lambda t: t) == pytest.approx(0.5, abs=1e-10)
    r = make_weight_law("rademacher")
    assert expect_weight(r, lambda t: t * t) == pytest.approx(1.0)
    # the interval is open: atoms on its edges do not count
    assert expect_weight(r, lambda t: 1.0, lo=-1.0, hi=1.0) == 0.0
    assert expect_weight(r, lambda t: t, lo=-1.0) == 0.5


@pytest.mark.parametrize("kind", ["uniform01", "standard_gaussian"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_expect_weight_rejects_non_finite_integrand(kind, value):
    x = make_weight_law(kind)
    with pytest.raises(QuadratureError, match="not finite"):
        expect_weight(x, lambda t: value)


def test_expect_weight_wide_finite_interval():
    # E[X^2; |X| <= r] = 2 Phi(r) - 1 - 2 r phi(r); on a wide finite piece
    # the nodes must still find the bulk near the origin
    x = make_weight_law("standard_gaussian")
    for r in (1.0, 10.0, 1e3, 1e6, 1e8):
        want = 2.0 * special.ndtr(r) - 1.0 - 2.0 * r * math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
        assert expect_weight(x, lambda t: t * t, -r, r) == pytest.approx(want, rel=1e-12), r


# ---------------------------------------------------------------------------
# Levy CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [0.5, math.pi / 2.0])
def test_levy_cdf_matches_scipy(c):
    z = np.logspace(-6, 12, 1801)
    assert np.max(np.abs(levy_cdf(z, c) - levy(scale=c).cdf(z))) <= 1e-14
    assert levy_cdf(np.array([-1.0, 0.0]), c).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Sampler sources and fast transforms
# ---------------------------------------------------------------------------

BUILTIN_WEIGHTS = [
    make_weight_law("uniform01"),
    make_weight_law("standard_gaussian"),
    make_weight_law("rademacher"),
    make_weight_law("point_mass", c=2.0),
    make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=5.0),
    make_weight_law("symmetric_pareto", gamma=0.8),
    make_weight_law("abs_pareto", gamma=1.5),
]
SAMPLERS = ([pytest.param(x.sampler, (), id=f"{x.label}-sampler") for x in BUILTIN_WEIGHTS]
            + [pytest.param(getattr(y, name), args, id=f"{y.label}-{name}")
               for y in BUILTIN_MULTIPLIERS
               for name, args in (("sampler", ()), ("log_sampler", ()), ("tail_sampler", (3.0,)))
               if getattr(y, name) is not None])


@pytest.mark.parametrize("sampler,args", SAMPLERS)
def test_sampler_stream_equals_its_generator(sampler, args):
    stream = SeedStream(41, 3, (2, 7))
    with np.errstate(over="ignore"):
        a = sampler(stream, 1_000, *args)
        b = sampler(stream.generator(), 1_000, *args)
    assert a.dtype == np.float64 and np.array_equal(a, b)


def test_sampler_continues_a_generator():
    x = make_weight_law("uniform01")
    gen = SeedStream(42).generator()
    parts = np.concatenate([x.sampler(gen, 3), x.sampler(gen, 4)])
    assert np.array_equal(parts, SeedStream(42).generator().random(7))


@pytest.mark.parametrize("beta", [0.5, 1.0, 0.8])
def test_pareto_fast_path_within_two_ulp_of_power(beta):
    v = 1.0 - SeedStream(43).generator().random(100_000)
    v = np.concatenate([v, [2.0**-53, 2.0**-52, 0.5, np.nextafter(1.0, 0.0), 1.0]])
    fast, exact = _pareto_power(v, beta), v ** (-1.0 / beta)
    assert np.all(fast >= 1.0)
    assert np.all(np.abs(fast - exact) <= 2.0 * np.spacing(exact))
    assert _pareto_power(np.array([2.0**-53]), beta)[0] == 2.0 ** (53 / beta)

