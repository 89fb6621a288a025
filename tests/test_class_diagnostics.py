import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from selfnorm_lab.class_diagnostics import (
    atom_scan,
    classify,
    ks_distance,
    ratio_scans,
    tail_ratios,
    verdict_from_scans,
)
from selfnorm_lab.distributions import (
    ParameterError,
    SeedStream,
    make_finite_mean_multiplier,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
)
from selfnorm_lab.montecarlo import EmpiricalSample
from selfnorm_lab.scenarios import _write_json

GRID = np.logspace(2, 16, 57)


# ---------------------------------------------------------------------------
# Ratios
# ---------------------------------------------------------------------------


def test_pareto_ratio_limits():
    fel, cen, gri = tail_ratios(make_pareto_multiplier(0.5), 1e6)
    # closed-form limits: (2-b)/b = 3 and (2-b)/b + (2-b)/(1-b) = 6
    assert fel == pytest.approx(3.0, rel=0.01)
    assert cen == pytest.approx(6.0, rel=0.01)
    # griffin limit: [b/(1-b)] / [2/(2-b)] = 3/4 for b = 1/2
    assert gri == pytest.approx(0.75, rel=0.01)


def test_pareto_beta_one_feller_limit():
    assert tail_ratios(make_pareto_multiplier(1.0), 1e6)[0] == pytest.approx(1.0, rel=0.01)


def test_exponential_ratios_diverge_linearly():
    fel, cen, gri = tail_ratios(make_finite_mean_multiplier("exponential", rate=1.0), 50.0)
    # griffin ratio ~ x E Y / E Y^2 = x/2
    assert gri == pytest.approx(25.0, rel=0.01)
    assert cen == pytest.approx(25.0, rel=0.01)
    assert fel < 1e-6


def test_slowly_varying_feller_grows_griffin_bounded():
    y = make_slowly_varying_multiplier()
    fel = [tail_ratios(y, 10.0 ** k)[0] for k in range(3, 9)]
    assert all(b > a for a, b in zip(fel[:-1], fel[1:]))
    gri = [tail_ratios(y, 10.0 ** k)[2] for k in range(3, 9)]
    assert all(g <= 1.0 for g in gri)


def test_centered_dominates_plain_ratio():
    laws = [make_pareto_multiplier(0.5), make_slowly_varying_multiplier(),
            make_finite_mean_multiplier("exponential", rate=1.0)]
    for y in laws:
        for x in (10.0, 1e4, 1e8):
            fel, cen, _ = tail_ratios(y, x)
            assert cen >= fel


def test_tail_ratios_reject_overflow():
    # x * x passes a double just above 1.34e154; past it the ratios read
    # Infinity or NaN, which flipped the class label
    y = make_pareto_multiplier(0.5)
    assert tail_ratios(y, 1e154) == pytest.approx((3.0, 6.0, 0.75), rel=1e-12)
    for x in (1.4e154, np.array([1e2, 1e154, 1.4e154, 1e160])):
        with pytest.raises(ParameterError, match=r"overflow a double at x = 1\.4e\+154"):
            tail_ratios(y, x)


def test_ratio_validation():
    y = make_pareto_multiplier(0.5)
    # below the support the truncated variance is zero: all three ratios
    # raise, Griffin's too although its own denominator is positive there
    for x in (0.5, np.array([10.0, 0.0, 100.0]), np.array([10.0, 0.5, 100.0])):
        with pytest.raises(ParameterError, match="below the support"):
            tail_ratios(y, x)
    # a grid must be positive before its decades are counted
    for grid in ([0.0, 1e2, 1e10], [-1e3, 1e2, 1e10]):
        with pytest.raises(ParameterError, match="positive"):
            ratio_scans(y, grid)


@pytest.mark.parametrize("y", [make_pareto_multiplier(0.5), make_slowly_varying_multiplier(),
                               make_finite_mean_multiplier("exponential", rate=1.0),
                               *(make_pareto_multiplier(b) for b in (0.3, 0.8, 1.0, 1.5))],
                         ids=lambda y: y.label)
def test_centered_ratio_identity(y):
    # C = F + G (F + 1): with G bounded, an unbounded C forces an unbounded F,
    # which is why the classifier never tests F on its own
    grid, fel, cen, gri = ratio_scans(y, GRID)
    np.testing.assert_allclose(cen, fel + gri * (fel + 1.0), rtol=1e-12, atol=0.0)
    for i in (0, 28, 56):
        f, c, g = tail_ratios(y, grid[i])
        assert fel[i] == pytest.approx(f, rel=1e-14)
        assert cen[i] == pytest.approx(c, rel=1e-14)
        assert gri[i] == pytest.approx(g, rel=1e-14)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_shipped_laws():
    assert classify(make_pareto_multiplier(0.5), GRID).label == "centered_feller"
    assert classify(make_slowly_varying_multiplier(), GRID).label == \
        "not_feller_griffin_holds"
    assert classify(make_finite_mean_multiplier("exponential", rate=1.0),
                    GRID).label == "griffin_fails"


def test_classify_verdict_consistency(tmp_path):
    v = classify(make_pareto_multiplier(0.5), GRID)
    assert v.feller_limsup_proxy == pytest.approx(3.0, rel=0.01)
    assert v.centered_limsup_proxy == pytest.approx(6.0, rel=0.01)
    assert v.label in ("centered_feller",)
    _write_json(tmp_path / "verdict.json", asdict(v))
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["label"] == "centered_feller"
    assert payload["centered_limsup_proxy"] == v.centered_limsup_proxy


def test_classify_scale_invariant():
    y = make_pareto_multiplier(0.5)
    c = 7.0
    scaled = replace(
        y,
        survival=lambda t: y.survival(t / c),
        trunc_mean=lambda t: c * y.trunc_mean(t / c),
        trunc_second=lambda t: c * c * y.trunc_second(t / c),
        sampler=lambda stream, count: c * y.sampler(stream, count),
        norming=lambda n: c * y.norming(n),
    )
    # ratios are exactly invariant under the paired rescaling x -> c x
    for x in (10.0, 1e4):
        np.testing.assert_allclose(tail_ratios(scaled, c * x), tail_ratios(y, x),
                                   rtol=1e-12, atol=0.0)
    assert classify(scaled, c * GRID).label == classify(y, GRID).label


@pytest.mark.parametrize("lo,hi,label", [
    (5.0, 45.0, "centered_feller"),            # over 4x its bottom decade, under 50
    (5.0, 55.0, "not_feller_griffin_holds"),   # over 4x and over 50: growing
    (20.0, 60.0, "centered_feller"),           # over 50, under 4x
])
def test_verdict_growth_thresholds(lo, hi, label):
    # a ratio grows when its top-decade maximum is over 4x its bottom-decade
    # maximum and over 50; F = G = 1 leaves the centered ratio C to decide
    one = np.ones_like(GRID)
    assert verdict_from_scans(GRID, one, np.geomspace(lo, hi, GRID.size), one).label == label


def test_classify_rejects_short_grid():
    with pytest.raises(ParameterError):
        classify(make_pareto_multiplier(0.5), np.logspace(2, 5, 10))
    with pytest.raises(ParameterError):
        classify(make_pareto_multiplier(0.5), [10.0, 5.0, 20.0])
    # a NaN compares False in the increasing check; an inf end passes it
    for bad in ([1e2, math.nan, 1e10], [1e2, 1e5, math.inf]):
        with pytest.raises(ParameterError, match="finite"):
            ratio_scans(make_pareto_multiplier(0.5), bad)


# ---------------------------------------------------------------------------
# Atom scan
# ---------------------------------------------------------------------------


def _sample(values):
    return EmpiricalSample(np.asarray(values, dtype=float), 0, {})


def test_atom_scan_point_mass():
    s = _sample(np.full(5_000, 1.25))
    atoms = atom_scan(s, 0.01)
    assert len(atoms) == 1
    loc, mass = atoms[0]
    assert loc == pytest.approx(1.25)
    assert mass == pytest.approx(1.0, abs=0.01)


def test_atom_scan_mixture_mass_within_three_se():
    m, reps = 0.5, 20_000
    gen = SeedStream(55, 0).generator()
    coins = gen.random(reps) < m
    vals = np.where(coins, 2.0, gen.random(reps))  # atom at 2, uniform01 background
    atoms = atom_scan(_sample(vals), 0.01)
    masses = [mm for loc, mm in atoms if abs(loc - 2.0) <= 0.01]
    assert masses, f"atom at 2 missed: {atoms!r}"
    se = math.sqrt(m * (1 - m) / reps)
    assert abs(masses[0] - m) <= 3.0 * se + 0.01


def test_atom_scan_continuous_sample_empty():
    gen = SeedStream(55, 1).generator()
    vals = gen.normal(size=20_000)
    assert atom_scan(_sample(vals), 0.01) == []
    vals_u = gen.random(20_000)
    assert atom_scan(_sample(vals_u), 0.01) == []


def test_atom_scan_two_atoms():
    gen = SeedStream(55, 2).generator()
    coins = gen.random(20_000)
    vals = np.where(coins < 0.45, 0.0, np.where(coins < 0.9, 1.0, gen.random(20_000)))
    atoms = atom_scan(_sample(vals), 0.01)
    locs = [round(loc, 2) for loc, _ in atoms]
    assert 0.0 in locs and 1.0 in locs


def test_atom_scan_count_floor():
    # no grid point lies within eps of 50, and no flank holds a point, so
    # the copies of 50 alone meet the count floor 20 / reps: 15 of 1015
    # (mass 0.0148) fall short of it, 25 of 1025 clear it
    grid = np.linspace(0.0, 100.0, 1000)
    assert atom_scan(_sample(np.append(grid, np.full(15, 50.0))), 0.01) == []
    atoms = atom_scan(_sample(np.append(grid, np.full(25, 50.0))), 0.01)
    assert [loc for loc, _ in atoms] == [50.0]


def test_atom_scan_validation():
    for eps in (0.0, math.nan, math.inf):  # NaN or inf would read as "no atoms"
        with pytest.raises(ParameterError):
            atom_scan(_sample([1.0]), eps)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_distance_calibrated():
    gen = SeedStream(66, 0).generator()
    reps = 20_000
    s = _sample(gen.random(reps))
    d = ks_distance(s, lambda t: np.clip(t, 0.0, 1.0))
    assert d <= 1.63 / math.sqrt(reps)  # 99% Kolmogorov critical value


def test_ks_distance_constant_sample():
    s = _sample(np.full(1000, 0.25))
    d = ks_distance(s, lambda t: np.clip(t, 0.0, 1.0))
    assert d == pytest.approx(0.75, abs=1e-3)
    assert d >= 0.5


def test_ks_distance_shifted_sample_saturates():
    gen = SeedStream(66, 1).generator()
    s = _sample(gen.random(1000) + 1e9)
    d = ks_distance(s, lambda t: np.clip(t, 0.0, 1.0))
    assert d == pytest.approx(1.0, abs=1e-3)


def test_ks_distance_rejects_non_finite_cdf():
    s = _sample(np.linspace(0.0, 1.0, 100))
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="not finite"):
            ks_distance(s, lambda t, bad=bad: np.full_like(t, bad))
