import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from selfnorm_lab.distributions import (
    ParameterError,
    QuadratureError,
    WeightLaw,
    make_weight_law,
)
from selfnorm_lab.levy_calculus import stable_levy_tail
from selfnorm_lab.limit_laws import (
    BreimanLimit,
    breiman_cdf,
    breiman_cdf_grid,
    breiman_tail,
    quantile_grid,
    regvar_tail_constant,
    tabulated_cdf,
)


@pytest.fixture(scope="module")
def lim_u01():
    return BreimanLimit(0.5, make_weight_law("uniform01"))


# ---------------------------------------------------------------------------
# CDF values
# ---------------------------------------------------------------------------


def test_symmetric_weight_is_centered():
    for kind in ("rademacher", "standard_gaussian"):
        lim = BreimanLimit(0.5, make_weight_law(kind))
        assert breiman_cdf(lim, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_point_mass_step_function():
    lim = BreimanLimit(0.5, make_weight_law("point_mass", c=1.0))
    assert breiman_cdf(lim, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert breiman_cdf(lim, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert breiman_cdf(lim, 1.0) == 0.5  # degeneracy convention at the atom


def test_nonnegative_weight_vanishes_below_zero(lim_u01):
    for x in (-0.01, -1.0, -7.3):
        assert breiman_cdf(lim_u01, x) == pytest.approx(0.0, abs=1e-12)
    assert breiman_cdf(lim_u01, 1.2) == pytest.approx(1.0, abs=1e-12)


def test_uniform01_closed_form(lim_u01):
    # for beta=1/2 the moment integrals of uniform01 have closed forms:
    # I_a = (2/3)(x^1.5 + (1-x)^1.5), I_s = (2/3)(x^1.5 - (1-x)^1.5)
    for x in (0.2, 0.5, 0.77):
        ia = (2.0 / 3.0) * (x ** 1.5 + (1 - x) ** 1.5)
        isgn = (2.0 / 3.0) * (x ** 1.5 - (1 - x) ** 1.5)
        want = 0.5 + math.atan(isgn / ia * math.tan(math.pi / 4)) / (math.pi * 0.5)
        assert breiman_cdf(lim_u01, x) == pytest.approx(want, abs=1e-10)
    assert breiman_cdf(lim_u01, 0.5) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("uniform01", {}),
    ("rademacher", {}),
    ("standard_gaussian", {}),
    ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 2.0}),
    ("symmetric_pareto", {"gamma": 0.8}),
])
def test_cdf_monotone_on_grid(kind, kwargs):
    lim = BreimanLimit(0.5, make_weight_law(kind, **kwargs))
    grid = np.linspace(-4.0, 4.0, 1000)
    vals = breiman_cdf_grid(lim, grid)
    assert np.all(np.diff(vals) >= -1e-10)
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


def _quad_piece(f, lo, hi):
    """scipy's adaptive quad of f over (lo, hi) at the reference tolerance;
    a run that QUADPACK flags counts only if its error bound meets it."""
    res = quad(f, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=300, full_output=1)
    assert math.isfinite(res[0]) and (len(res) < 4 or res[1] <= 1e-9), res[1:]
    return res[0]


def _adaptive_expect(law, g, x):
    """E[g(X)]: finite sums over the atoms plus adaptive quadrature of the
    density, split at x, the density breaks and |u| = 1.  The parts beyond
    |u| = 1 are folded onto [-1, 1] by u = 1/t, so that power-law tails end
    in integrable endpoint singularities and QUADPACK's nodes find the bulk."""
    total = sum(m * g(loc) for loc, m in law.atoms)
    if law.pdf is None:
        return total
    f = lambda u: g(u) * float(law.pdf(u))
    lo, hi = law.support
    knots = sorted({lo, hi, *(p for p in (x, *law.pdf_breaks, -1.0, 1.0) if lo < p < hi)})
    for a, b in zip(knots[:-1], knots[1:]):
        if a >= 1.0 or b <= -1.0:
            total += _quad_piece(lambda t: f(1.0 / t) / (t * t), 1.0 / b, 1.0 / a)
        else:
            total += _quad_piece(f, a, b)
    return total


def _adaptive_cdf(lim, x):
    """Independent reference for the grid rule: I_s = E|X - x|^b sgn(x - X)
    and I_a = E|X - x|^b by :func:`_adaptive_expect` (the kink at the
    evaluation point is a split point, and an atom exactly there
    contributes zero to both by the sgn(0) = 0 convention), then the arctan
    map."""
    b, law = lim.beta, lim.weight
    i_a = _adaptive_expect(law, lambda u: abs(u - x) ** b, x)
    i_s = _adaptive_expect(law, lambda u: abs(u - x) ** b * math.copysign(1.0, x - u)
                           if u != x else 0.0, x)
    if i_a <= 0.0:
        return 0.5  # degenerate weight evaluated at its atom
    ratio = min(1.0, max(-1.0, i_s / i_a))
    return 0.5 + math.atan(ratio * math.tan(math.pi * b / 2.0)) / (math.pi * b)


# Grid path (breiman_cdf_grid) against the adaptive reference and closed
# forms; the grid holds atoms, density breaks, support edges, points next to
# them, points beyond every support and +-1e4.
EDGE_GRID = np.unique(np.concatenate([
    [-1e4, -1e3, -20.0, -2.0, -1.0 - 1e-9, -1.0, -1.0 + 1e-12, -1e-13, 0.0, 1e-13,
     0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-7, 20.0, 1e3, 1e4],
    np.linspace(-3.0, 3.0, 25),
]))
GRID_LAWS = [
    ("uniform01", {}),
    ("rademacher", {}),
    ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 2.0}),
    ("standard_gaussian", {}),
    ("symmetric_pareto", {"gamma": 0.8}),
]


@pytest.mark.parametrize("kind,kwargs", GRID_LAWS)
def test_grid_matches_adaptive_cdf(kind, kwargs):
    lim = BreimanLimit(0.5, make_weight_law(kind, **kwargs))
    want = np.array([_adaptive_cdf(lim, float(t)) for t in EDGE_GRID])
    assert np.max(np.abs(breiman_cdf_grid(lim, EDGE_GRID) - want)) <= 1e-9


@pytest.mark.parametrize("beta", [0.2, 0.3, 0.8])
def test_grid_matches_adaptive_cdf_other_beta(beta):
    for kind, kwargs in (("standard_gaussian", {}), ("symmetric_pareto", {"gamma": 0.95}),
                         ("abs_pareto", {"gamma": 0.9})):
        lim = BreimanLimit(beta, make_weight_law(kind, **kwargs))
        want = np.array([_adaptive_cdf(lim, float(t)) for t in EDGE_GRID])
        assert np.max(np.abs(breiman_cdf_grid(lim, EDGE_GRID) - want)) <= 1e-9


def _arctan_cdf(i_s, i_a, b):
    ratio = np.clip(i_s / np.where(i_a > 0.0, i_a, 1.0), -1.0, 1.0)
    cdf = 0.5 + np.arctan(ratio * math.tan(math.pi * b / 2.0)) / (math.pi * b)
    return np.where(i_a > 0.0, cdf, 0.5)


def _uniform_cdf(x, beta):
    # E[(X-x)^b; X>x] = ((1-x)^(b+1) - (-x)_+^(b+1)) / (b+1) for x < 1
    up = (np.maximum(1.0 - x, 0.0) ** (beta + 1.0) - np.maximum(-x, 0.0) ** (beta + 1.0))
    down = (np.maximum(x, 0.0) ** (beta + 1.0) - np.maximum(x - 1.0, 0.0) ** (beta + 1.0))
    return _arctan_cdf(down - up, down + up, beta)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_grid_matches_uniform_closed_form(beta):
    lim = BreimanLimit(beta, make_weight_law("uniform01"))
    assert np.max(np.abs(breiman_cdf_grid(lim, EDGE_GRID) - _uniform_cdf(EDGE_GRID, beta))) <= 1e-12


@pytest.mark.parametrize("kind,kwargs", [
    ("rademacher", {}),
    ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 2.0}),
    ("point_mass", {"c": 1.0}),
])
def test_grid_matches_atomic_closed_form(kind, kwargs):
    law = make_weight_law(kind, **kwargs)
    x, b = EDGE_GRID, 0.5
    i_s = sum(m * np.abs(loc - x) ** b * np.sign(x - loc) for loc, m in law.atoms)
    i_a = sum(m * np.abs(loc - x) ** b for loc, m in law.atoms)
    got = breiman_cdf_grid(BreimanLimit(b, law), x)
    assert np.max(np.abs(got - _arctan_cdf(i_s, i_a, b))) <= 1e-12


@pytest.mark.parametrize("kind,kwargs", GRID_LAWS + [("abs_pareto", {"gamma": 0.9})])
def test_grid_cdf_monotone(kind, kwargs):
    lim = BreimanLimit(0.5, make_weight_law(kind, **kwargs))
    grid = np.unique(np.concatenate([EDGE_GRID, np.linspace(-4.0, 4.0, 2001),
                                     -np.logspace(0.0, 5.0, 301), np.logspace(0.0, 5.0, 301)]))
    vals = breiman_cdf_grid(lim, grid)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


def test_grid_chunks_are_independent():
    # a grid over several evaluation chunks equals its two halves (cut off a
    # chunk boundary) evaluated on their own, bit for bit
    from selfnorm_lab.limit_laws import _CHUNK
    lim = BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.8))
    grid = np.linspace(-30.0, 30.0, 2 * _CHUNK + 77)
    cut = _CHUNK + 41
    whole = breiman_cdf_grid(lim, grid)
    halves = np.concatenate([breiman_cdf_grid(lim, grid[:cut]), breiman_cdf_grid(lim, grid[cut:])])
    assert np.array_equal(whole, halves)


def test_grid_raises_on_unresolved_tail():
    # P{X > u} = 1/log u on [e, inf) has no fractional moment; a law that
    # claims one gets past BreimanLimit, and the folded tail must refuse it
    law = WeightLaw(
        label="log_tail", cdf=lambda u: 1.0 - 1.0 / np.log(np.maximum(u, math.e)),
        sf=lambda u: 1.0 / np.log(np.maximum(u, math.e)),
        sampler=lambda stream, count, out=None: np.full(count, math.e),
        abs_moment=lambda b: 1.0,
        pdf=lambda u: np.where(u >= math.e,
                               1.0 / (u * np.log(np.maximum(u, math.e)) ** 2), 0.0),
        pdf_breaks=(math.e,), support=(math.e, math.inf))
    with pytest.raises(QuadratureError):
        breiman_cdf_grid(BreimanLimit(0.5, law), [0.0, 5.0])
    with pytest.raises(QuadratureError):
        breiman_tail(BreimanLimit(0.5, law), 5.0)


# (symmetric_pareto(0.8) has no limit at beta 0.8: it lacks the 0.85 moment)
PLAN_LAWS = [("uniform01", {}), ("standard_gaussian", {}), ("symmetric_pareto", {"gamma": 0.9}),
             ("abs_pareto", {"gamma": 0.9}), ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 2.0})]


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("kind,kwargs", PLAN_LAWS)
def test_scalar_calls_equal_grid_elements(kind, kwargs, beta):
    # the plan built with the limit serves every call the same way: a point
    # alone gives the bits it gets anywhere in a grid of several chunks
    from selfnorm_lab.limit_laws import _CHUNK
    lim = BreimanLimit(beta, make_weight_law(kind, **kwargs))
    grid = np.concatenate([EDGE_GRID, np.linspace(-5.0, 5.0, 2 * _CHUNK + 3)])
    cdf = breiman_cdf_grid(lim, grid)
    for i in range(0, grid.size, 7):
        assert breiman_cdf(lim, float(grid[i])) == cdf[i], grid[i]
    xs = grid[grid > 0.0]
    tails = breiman_tail(lim, xs)
    for i in range(0, xs.size, 7):
        assert breiman_tail(lim, float(xs[i])) == tails[i], xs[i]


def test_replaced_limit_builds_its_own_plan():
    # dataclasses.replace runs __post_init__ again: the copy evaluates its
    # own law and beta, never the plan of the limit it was made from
    gauss, unif = make_weight_law("standard_gaussian"), make_weight_law("uniform01")
    lim = BreimanLimit(0.5, gauss)
    want = breiman_cdf_grid(lim, EDGE_GRID)
    for beta in (0.5, 0.3):
        got = breiman_cdf_grid(dataclasses.replace(lim, beta=beta, weight=unif), EDGE_GRID)
        assert np.max(np.abs(got - _uniform_cdf(EDGE_GRID, beta))) <= 1e-12, beta
    back = dataclasses.replace(dataclasses.replace(lim, weight=unif), weight=gauss)
    assert np.array_equal(breiman_cdf_grid(back, EDGE_GRID), want)


def test_grid_validation(lim_u01):
    with pytest.raises(ParameterError):
        breiman_cdf_grid(lim_u01, [0.1, math.nan])
    with pytest.raises(ParameterError):
        breiman_cdf_grid(lim_u01, [0.1, math.inf])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            breiman_cdf(lim_u01, bad)
    assert breiman_cdf_grid(lim_u01, np.array([[0.2, 0.5], [0.7, 2.0]])).shape == (2, 2)
    # far tail: the rule's moments stop being finite beyond about 1e306 on an
    # unbounded piece, without a warning (pytest turns RuntimeWarnings into errors)
    for kind in ("symmetric_pareto", "standard_gaussian", "abs_pareto"):
        lim = BreimanLimit(0.5, make_weight_law(kind, gamma=0.8))
        assert breiman_cdf(lim, 1e306) == 1.0
        for far in (2e306, 1e307, -1e307):
            with pytest.raises(QuadratureError, match=re.escape(repr(far))):
                breiman_cdf(lim, far)
        with pytest.raises(QuadratureError):
            breiman_cdf_grid(lim, [0.5, 1e307])
        with pytest.raises(QuadratureError, match=re.escape(repr(1e307))):
            breiman_tail(lim, 1e307)
    assert breiman_cdf_grid(lim_u01, [1e306, 2e306, 1e307, -1e307]).tolist() == [1.0, 1.0, 1.0, 0.0]


def test_breiman_tail_raises_where_far_fold_drops_mass():
    # at b = 1/2 the far fold's largest node, about 2x 8^22, passes a double
    # near x = 1.3e288; the nodes past it read tail(inf) = 0, which drops
    # 0.23% of the tail at 1e300 and 16% at 1e306.  The CDF keeps its values.
    lim = BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.8))
    exact = lambda x: _tail_pref(0.5) * 0.5 * beta_fn(0.5, 0.3) * x ** -0.8
    assert breiman_tail(lim, 1e288) == pytest.approx(exact(1e288), rel=1e-10)
    for far in (1e300, 1e306):
        with pytest.raises(QuadratureError, match=re.escape(repr(far))):
            breiman_tail(lim, far)
        with pytest.raises(QuadratureError, match=re.escape(repr(far))):
            breiman_tail(lim, [2.0, far])
        assert breiman_cdf(lim, far) == 1.0 and breiman_cdf(lim, -far) == 0.0
    # nothing to drop: a tail that is 0 past a double, and a small b whose
    # fold passes a double at every x while the mass there is below rounding
    assert breiman_tail(BreimanLimit(0.5, make_weight_law("standard_gaussian")), 1e300) == 0.0
    small = BreimanLimit(0.1, make_weight_law("symmetric_pareto", gamma=0.8))
    want = _tail_pref(0.1) * 0.1 * beta_fn(0.1, 0.7) * 1e10 ** -0.8
    assert breiman_tail(small, 1e10) == pytest.approx(want, rel=1e-10)
    assert breiman_tail(BreimanLimit(0.02, lim.weight), 2.0) > 0.0


BIT_LAWS = [("uniform01", {}), ("standard_gaussian", {}), ("symmetric_pareto", {"gamma": 1.2}),
            ("abs_pareto", {"gamma": 1.2}), ("bernoulli", {"p": 0.3, "x0": -1.0, "x1": 2.0})]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(BIT_LAWS),
       b=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
       size=st.sampled_from([1, 64, 65, 200]), data=st.data())
@example(law=BIT_LAWS[2], b=0.5, size=200, data=None)
@example(law=BIT_LAWS[4], b=0.3, size=65, data=None)
@example(law=BIT_LAWS[0], b=0.96875, size=64, data=None)
def test_scalar_calls_equal_vector_entries_bit_for_bit(law, b, size, data):
    # one code path for every input size: a point alone gives the bits it
    # gets in a vector call of 1, 64 (one chunk), 65 or 200 points, whose
    # points straddle every piece edge of the law.  A point whose tail
    # overflows (5e-324, next to uniform01's knot at 0, once b > 0.953)
    # raises alone and in the vector call that holds it.
    kind, kwargs = law
    weight = make_weight_law(kind, **kwargs)
    lim = BreimanLimit(b, weight)
    knots = {*(loc for loc, _ in weight.atoms), *weight.pdf_breaks, *weight.support}
    edges = [float(t) for k in knots if math.isfinite(k)
             for t in (np.nextafter(k, -math.inf), k, np.nextafter(k, math.inf))]
    if data is None:
        pts = edges + list(np.linspace(-50.0, 50.0, size))
    else:
        spread = st.floats(-1e6, 1e6) | st.floats(-3.0, 3.0)
        pts = data.draw(st.permutations(edges + data.draw(
            st.lists(spread, min_size=size, max_size=size), label="points")), label="order")
    xs = np.array(pts[:size])
    cdf = breiman_cdf_grid(lim, xs)
    assert np.array_equal(_bits([breiman_cdf(lim, t) for t in xs]), _bits(cdf))
    pos = xs[xs > 0.0]
    tails, over = [], []
    for t in pos:
        try:
            tails.append(breiman_tail(lim, float(t)))
        except QuadratureError:
            over.append(float(t))
    if over:
        with pytest.raises(QuadratureError, match=re.escape(repr(over[0]))):
            breiman_tail(lim, pos)
        pos = pos[~np.isin(pos, over)]
    assert np.array_equal(_bits(tails), _bits(breiman_tail(lim, pos)))


def test_breiman_tail_raises_where_tail_overflows():
    # x^-b passes a double at x = 5e-324 once b > 0.953
    lim = BreimanLimit(0.96875, make_weight_law("uniform01"))
    for x in (5e-324, [5e-324, 0.5], [0.5, 5e-324]):
        with pytest.raises(QuadratureError, match=re.escape(repr(5e-324))):
            breiman_tail(lim, x)
    assert breiman_tail(lim, 0.5) > 0.0


@pytest.mark.parametrize("beta", [5e-324, 1e-310, float(np.nextafter(np.finfo(float).tiny, 0.0))])
def test_subnormal_stable_index_is_rejected(beta):
    # at a subnormal beta, arctan(ratio tan(pi b / 2)) / (pi b) is rounded to
    # CDF values outside [0, 1] (-0.1667 and 1.1667 at 5e-324)
    for make in (lambda: BreimanLimit(beta, make_weight_law("uniform01")),
                 lambda: stable_levy_tail(beta), lambda: regvar_tail_constant(beta, 0.8)):
        with pytest.raises(ParameterError, match="normal double"):
            make()
    tiny = float(np.finfo(float).tiny)  # the smallest normal double is accepted
    cdf = breiman_cdf_grid(BreimanLimit(tiny, make_weight_law("uniform01")), [-3.0, 2.0])
    assert cdf.tolist() == [0.0, 1.0]
    assert stable_levy_tail(tiny).tail(1.0) == 1.0


def test_symmetric_weight_reflection():
    for kind, kwargs in (("rademacher", {}), ("standard_gaussian", {}),
                         ("symmetric_pareto", {"gamma": 0.8})):
        lim = BreimanLimit(0.5, make_weight_law(kind, **kwargs))
        for x in (0.3, 1.0, 2.5):
            assert breiman_cdf(lim, -x) == pytest.approx(
                1.0 - breiman_cdf(lim, x), abs=1e-8)


def test_tabulated_cdf_matches_pointwise(lim_u01):
    cdf = tabulated_cdf(lim_u01, np.linspace(-0.1, 1.1, 1201))
    xs = np.asarray([0.1, 0.35, 0.72])
    direct = breiman_cdf_grid(lim_u01, xs)
    assert np.allclose(cdf(xs), direct, atol=2e-4)


def test_breiman_limit_validates_moment():
    with pytest.raises(ParameterError):
        BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.5))
    with pytest.raises(ParameterError):
        BreimanLimit(1.2, make_weight_law("uniform01"))


# ---------------------------------------------------------------------------
# Tail expansion
# ---------------------------------------------------------------------------


def test_tail_prefactor_half():
    # at beta = 1/2 the prefactor reduces to 1/pi
    lim = BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.8))
    x = 3.0
    integral = quad(lambda u: (u / x - 1.0) ** 0.5 * 0.4 * u ** -1.8, x, np.inf)[0]
    assert breiman_tail(lim, x) == pytest.approx(2.0 * integral / math.pi, rel=1e-7)


def test_breiman_tail_accuracy_at_small_b():
    # the grid rule loses digits as b shrinks (README): on symmetric_pareto(0.8)
    # from 1.6 to 1e200 the relative error is 1.6e-13 at b = 0.1, 1.5e-11 at
    # b = 0.05 and 2.2e-6 at b = 0.01
    lim = BreimanLimit(0.05, make_weight_law("symmetric_pareto", gamma=0.8))
    xs = np.geomspace(1.6, 1e200, 2000)
    exact = _tail_pref(0.05) * 0.05 * beta_fn(0.05, 0.75) * xs ** -0.8
    np.testing.assert_allclose(breiman_tail(lim, xs), exact, rtol=1e-10, atol=0.0)


def test_tail_bounds():
    lim = BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.8))
    x = 4.0
    cdf_x = lambda t: float(lim.weight.cdf(t))
    pref = math.tan(math.pi / 4) / (math.pi * 0.5 * (1 + math.tan(math.pi / 4) ** 2))
    lower = 2.0 * pref * (1.0 - cdf_x(2 * x))
    upper_int = (1.0 - cdf_x(x)) + 0.5 * x ** -0.5 * quad(
        lambda u: (1.0 - cdf_x(u)) * u ** -0.5, x, np.inf)[0]
    upper = 2.0 * pref * upper_int
    val = breiman_tail(lim, x)
    assert lower <= val <= upper


def test_cdf_plus_tail_consistency():
    # relative gap between 1 - cdf and the tail expansion shrinks along x = 2^k
    lim = BreimanLimit(0.5, make_weight_law("symmetric_pareto", gamma=0.8))
    rel = []
    for k in (4, 6, 8):
        x = 2.0 ** k
        tail = breiman_tail(lim, x)
        rel.append(abs(1.0 - breiman_cdf(lim, x) - tail) / tail)
    assert all(b < a for a, b in zip(rel[:-1], rel[1:]))
    assert rel[-1] < 0.02
    # far tail: finite values on both sides, and the expansion still holds
    for x in (5e5, 1e6, 1e7):
        upper, lower = breiman_cdf(lim, x), breiman_cdf(lim, -x)
        assert math.isfinite(upper) and math.isfinite(lower)
        assert 1.0 - upper == pytest.approx(breiman_tail(lim, x), rel=0.02)


@pytest.mark.parametrize("points", [0, -3, 2.5, 3.0])
def test_quantile_grid_rejects_bad_points(points):
    with pytest.raises(ParameterError):
        quantile_grid(np.linspace(0.0, 1.0, 11), points)
    assert len(quantile_grid(np.linspace(0.0, 1.0, 11), 1)) == 3  # one quantile, padded


@pytest.mark.parametrize("values", [[], np.empty((0, 3)), [0.5, math.nan], [0.5, math.inf],
                                    [-math.inf, 0.5, 1.0]])
def test_quantile_grid_rejects_bad_samples(values):
    # unchecked, np.quantile raises IndexError on an empty sample and gives
    # NaN or inf grid points for the others
    with pytest.raises(ParameterError, match="finite"):
        quantile_grid(values, 5)


def _np_quantile_grid(values, points):
    """The grid from np.quantile, the oracle for quantile_grid's one sort."""
    from selfnorm_lab.limit_laws import _PAD, _TRIM
    qs = np.quantile(np.asarray(values, dtype=float), np.linspace(_TRIM, 1.0 - _TRIM, points))
    return np.unique(np.concatenate([[qs[0] - _PAD], qs, [qs[-1] + _PAD]]))


# |values| <= 1e300: a sample spanning more than a double overflows the
# interpolation's difference, in np.quantile as in quantile_grid
_SAMPLE = st.lists(st.floats(-1e300, 1e300) | st.sampled_from([-1.0, 0.0, 0.25, 3.0]),
                   min_size=1, max_size=300)


@settings(max_examples=300, deadline=None)
@given(values=_SAMPLE, points=st.integers(1, 500))
@example(values=[2.5], points=1)
@example(values=[-0.0], points=4)
@example(values=[1.0, 1.0, 1.0], points=1)
@example(values=list(np.random.default_rng(3).standard_cauchy(20000)), points=3001)
def test_quantile_grid_equals_numpy_quantile(values, points):
    got, want = quantile_grid(values, points), _np_quantile_grid(values, points)
    # bit for bit; + 0.0 maps -0.0 to 0.0, since among tied zeros
    # np.quantile's partial sort leaves the sign of a zero to chance
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_breiman_tail_validation(lim_u01):
    with pytest.raises(ParameterError):
        breiman_tail(lim_u01, 0.0)
    for bad in (math.inf, math.nan, [1.0, -2.0]):
        with pytest.raises(ParameterError):
            breiman_tail(lim_u01, bad)


@pytest.mark.parametrize("kind", ["uniform01", "symmetric_pareto", "standard_gaussian"])
def test_breiman_tail_array_matches_scalar_calls(kind):
    lim = BreimanLimit(0.5, make_weight_law(kind, gamma=0.8))
    xs = np.concatenate([np.linspace(0.05, 3.0, 40), np.logspace(0.5, 4.0, 300)])
    tails = breiman_tail(lim, xs)
    assert tails.shape == xs.shape
    assert np.array_equal(tails, [breiman_tail(lim, float(t)) for t in xs])
    assert isinstance(breiman_tail(lim, 2.0), float)
    assert breiman_tail(lim, xs.reshape(20, -1)).shape == (20, 17)


def test_breiman_tail_atomic_law_exact_sum():
    # mass 0.3 at 2.5 and 0.7 at -1: only the atom at 2.5 lies above x > 0
    lim = BreimanLimit(0.4, make_weight_law("bernoulli", p=0.3, x0=-1.0, x1=2.5))
    pref = math.tan(math.pi * 0.2) / (math.pi * 0.4 * (1.0 + math.tan(math.pi * 0.2) ** 2))
    xs = np.array([0.1, 0.5, 1.0, 2.0, 2.4999, 2.5, 3.0, 40.0])
    exact = [2.0 * pref * 0.3 * ((2.5 - t) / t) ** 0.4 if t < 2.5 else 0.0 for t in xs]
    assert breiman_tail(lim, xs) == pytest.approx(exact, rel=1e-13, abs=1e-300)
    assert breiman_tail(lim, 1.0) == pytest.approx(exact[2], rel=1e-13)


# ---------------------------------------------------------------------------
# Regular-variation constant
# ---------------------------------------------------------------------------


def _tail_pref(b):
    return math.tan(math.pi * b / 2) / (math.pi * b * (1 + math.tan(math.pi * b / 2) ** 2))


def test_regvar_constant_beta_identity():
    # 2 beta * integral of t^(alpha-beta-1) (1-t)^(beta-1) over (0, 1) * prefactor
    for b, a in ((0.5, 1.0), (0.5, 0.8), (0.3, 1.1)):
        integral = quad(lambda t: t ** (a - b - 1.0) * (1.0 - t) ** (b - 1.0),
                        0.0, 1.0, epsabs=1e-10, limit=300)[0]
        want = 2.0 * b * integral * _tail_pref(b)
        assert regvar_tail_constant(b, a) == pytest.approx(want, abs=1e-8)
    # at alpha = 1e6 that quadrature returns 0; the Beta function does not
    want = 2.0 * 0.5 * beta_fn(0.5, 1e6 - 0.5) * _tail_pref(0.5)
    assert regvar_tail_constant(0.5, 1e6) == pytest.approx(want, rel=1e-12)


def test_regvar_constant_half_one_is_unity():
    # B(1/2, 1/2) = pi and the half prefactor is 1/pi
    assert regvar_tail_constant(0.5, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_regvar_constant_positive_and_decreasing_in_alpha():
    vals = [regvar_tail_constant(0.5, a) for a in (0.6, 1.0, 3.0, 10.0, 100.0)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert regvar_tail_constant(0.5, 1e6) < 1e-3  # vanishes as alpha grows


def test_regvar_constant_validation():
    with pytest.raises(ParameterError):
        regvar_tail_constant(0.5, 0.4)
    with pytest.raises(ParameterError):
        regvar_tail_constant(1.1, 2.0)
