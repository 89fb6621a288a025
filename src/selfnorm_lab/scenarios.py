"""Named verification suites covering every regime of the classification.

Each suite runs a fixed scenario with pinned tolerances and returns a list of
check records ``{name, value, bound, kind, passed}``.  The command line's
``reproduce`` subcommand executes a suite and writes its artifacts; the
acceptance test module drives the same functions.

Suite map
---------
S1  ratio law, three routes: finite-n ratio vs the arctan limit CDF, the
    jump-sum limit pair ratio vs the same CDF, and the plain-sum marginal vs
    the exact half-stable law.
S2  row-tail convergence of the triangular array (exact Pareto identity plus
    Monte Carlo product tails).
S3  truncated first moments, limit quadratures vs prelimit Monte Carlo, and
    the small-h decay of the quadratic integrals.
S4  continuity dichotomy: atom scans across the three multiplier regimes.
S5  divergence of the ratio when the weight tail is heavier than the
    multiplier tail, with an equal-index control.
S6  classification table, max-share statistics, and the infinite-mean weight
    regime of the arctan limit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from . import class_diagnostics as cd
from . import levy_calculus as lc
from . import limit_laws as ll
from . import montecarlo as mc
from .distributions import (
    ParameterError,
    SeedStream,
    levy_cdf,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_finite_mean_multiplier,
    make_weight_law,
)

SUITES = ("S1", "S2", "S3", "S4", "S5", "S6")

# Pareto(1/2) partial sums under a_n = n^2 converge to the jump law with
# tail v^(-1/2) and zero drift, whose Laplace exponent is sqrt(pi lambda),
# i.e. the Levy(0, pi/2) law.
_W2_LEVY_SCALE = math.pi / 2.0


def _check(name: str, value, bound, kind: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "value": value, "bound": bound, "kind": kind,
            "passed": bool(passed), "detail": detail}


def _le(name, value, bound, detail=""):
    return _check(name, float(value), float(bound), "<=", value <= bound, detail)


def _ge(name, value, bound, detail=""):
    return _check(name, float(value), float(bound), ">=", value >= bound, detail)


def _eq(name, value, expected, detail=""):
    return _check(name, value, expected, "==", value == expected, detail)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_sample_csv(path: Path, header: list, columns: list,
                      meta: Optional[dict] = None) -> None:
    """CSV of equal-length columns at 17 significant digits, plus a
    ``.meta.json`` sidecar when ``meta`` is given."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(format(float(c), ".17g") for c in row) + "\n")
    if meta is not None:
        _write_json(path.with_suffix(".meta.json"), meta)


# ---------------------------------------------------------------------------


def suite_s1(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Three-route agreement for X uniform01, Y Pareto(1/2), plus the exact
    half-stable marginal of the plain sums."""
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    view = lc.BivariateLevyView(x, lc.stable_levy_tail(0.5))
    lim = ll.BreimanLimit(0.5, x)
    cdf = ll.tabulated_cdf(lim, -0.05, 1.05, points=2201)

    cfg = mc.SimConfig(n=10_000, reps=20_000, seed=seed.child(1), threads=threads)
    tn = mc.simulate_tn(x, y, cfg)
    ks_tn = cd.ks_distance(tn, cdf)

    cfg_pair = mc.SimConfig(n=1, reps=20_000, seed=seed.child(2),
                            cutoff=1e-4, threads=threads)
    pair = mc.simulate_limit_pair(view, cfg_pair)
    ratio = mc.EmpiricalSample(pair.ratio(), 0, pair.meta)
    ks_ratio = cd.ks_distance(ratio, cdf)

    cfg_np = mc.SimConfig(n=10_000, reps=20_000, seed=seed.child(3), threads=threads)
    npair = mc.simulate_normed_pair(x, y, cfg_np)
    w2 = mc.EmpiricalSample(npair.w2, cfg_np.n, npair.meta)
    ks_w2 = cd.ks_distance(w2, lambda z: levy_cdf(z, _W2_LEVY_SCALE))

    if outdir is not None:
        _write_sample_csv(outdir / "s1_tn_sample.csv", ["tn"], [tn.values],
                          meta=tn.law_meta)
        _write_sample_csv(outdir / "s1_limit_pair.csv", ["w1", "w2"],
                          [pair.w1, pair.w2], meta=pair.meta)
        _write_sample_csv(outdir / "s1_normed_pair.csv", ["w1", "w2"],
                          [npair.w1, npair.w2], meta=npair.meta)
    return [
        _le("tn_vs_limit_cdf_ks", ks_tn, 0.02),
        _le("limit_pair_ratio_ks", ks_ratio, 0.03,
            detail=f"cutoff=1e-4, bias_bound_w2={pair.meta['bias_bound_w2']:.4g}"),
        _le("plain_sum_marginal_ks", ks_w2, 0.02,
            detail="vs Levy(0, pi/2), zero drift implied"),
    ]


def suite_s2(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Row-tail convergence: exact Pareto identity and product-tail limits."""
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    view = lc.BivariateLevyView(x, lc.stable_levy_tail(0.5))
    checks = []

    v_grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for n in (10, 1_000, 100_000):
        for v in v_grid:
            pre = lc.prelimit_lambda_n(y, n, v)
            limit = lc.lambda_bar(view.levy, v)
            worst = max(worst, abs(pre - limit) / limit)
    checks.append(_le("pareto_row_tail_rel_gap", worst, 1e-12,
                      detail="n in {10,1e3,1e5}, v in {1/4..4}"))

    est, se = lc.prelimit_pi_n(x, y, 100_000, 1.0, 0.0, seed.child(1))
    gap = abs(est - 2.0 / 3.0)
    checks.append(_le("product_tail_at_(1,0)_gap", gap, 3.0 * se + 1e-12,
                      detail=f"estimate={est:.6f}, se={se:.2e}, limit=2/3"))

    result = lc.check_levy_convergence(
        x, y, view, n_list=(1_000, 10_000, 100_000), v_grid=v_grid,
        uv_grid=((0.5, 0.0), (1.0, 0.0), (2.0, 0.0)),
        stream=seed.child(2), draws=200_000)
    checks.append(_eq("levy_convergence_verdict", result.verdict, True,
                      detail=f"sup gaps {[r.sup_abs_gap for r in result.pi_reports]}"))
    if outdir is not None:
        (outdir / "s2_levy_convergence.json").write_text(result.to_json())
    return checks


def suite_s3(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Truncated moments: quadrature limits vs Monte Carlo prelimits at
    n = 1e6, and the small-h decay of the quadratic integrals."""
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    view = lc.BivariateLevyView(x, lc.stable_levy_tail(0.5))
    checks = []
    for i, h in enumerate((0.25, 1.0)):
        y_lim, xy_lim = lc.truncated_first_moments(view, h)
        (y_pre, y_se), (xy_pre, xy_se) = lc.prelimit_truncated_first_moments(
            x, y, 1_000_000, h, seed.child(i))
        checks.append(_le(f"trunc_mean_y_gap_h={h:g}", abs(y_lim - y_pre),
                          3.0 * y_se + 1e-6,
                          detail=f"limit={y_lim:.6f}, mc={y_pre:.6f}, se={y_se:.2e}"))
        checks.append(_le(f"trunc_mean_xy_gap_h={h:g}", abs(xy_lim - xy_pre),
                          3.0 * xy_se + 1e-6,
                          detail=f"limit={xy_lim:.6f}, mc={xy_pre:.6f}, se={xy_se:.2e}"))
    scan = lc.second_moment_smallh_scan(view, k_max=10)
    top = scan[1.0]
    bottom = scan[2.0 ** -10]
    worst = max(b / t for b, t in zip(bottom, top))
    checks.append(_le("second_moment_smallh_ratio", worst, 1e-3,
                      detail=f"h=2^-10 vs h=1 componentwise, uu/vv/uv={bottom}"))
    if outdir is not None:
        (outdir / "s3_smallh_scan.json").write_text(json.dumps(
            {format(h, ".10g"): list(v) for h, v in scan.items()}, sort_keys=True))
    return checks


def suite_s4(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Continuity dichotomy: continuous regime has no atoms; the slowly
    varying and finite-mean regimes concentrate where the theory says."""
    checks = []
    eps = 0.01

    x1 = make_weight_law("uniform01")
    y1 = make_pareto_multiplier(0.5)
    s1 = mc.simulate_tn(x1, y1, mc.SimConfig(10_000, 20_000, seed.child(1),
                                             threads=threads))
    atoms1 = cd.atom_scan(s1, eps)
    checks.append(_eq("continuous_regime_atoms", len(atoms1), 0,
                      detail=f"found {atoms1!r}"))

    x2 = make_weight_law("bernoulli", p=0.5, x0=0.0, x1=1.0)
    y2 = make_slowly_varying_multiplier()
    s2 = mc.simulate_tn(x2, y2, mc.SimConfig(10_000, 20_000, seed.child(2),
                                             threads=threads))
    atoms2 = cd.atom_scan(s2, eps)
    near0 = [m for loc, m in atoms2 if abs(loc) <= 2 * eps]
    near1 = [m for loc, m in atoms2 if abs(loc - 1.0) <= 2 * eps]
    checks.append(_ge("weight_atom_mass_near_0", max(near0, default=0.0), 0.4))
    checks.append(_ge("weight_atom_mass_near_1", max(near1, default=0.0), 0.4))

    y3 = make_finite_mean_multiplier("exponential", rate=1.0)
    s3 = mc.simulate_tn(x1, y3, mc.SimConfig(10_000, 20_000, seed.child(3),
                                             threads=threads))
    atoms3 = cd.atom_scan(s3, eps)
    near_mean = [m for loc, m in atoms3 if abs(loc - 0.5) <= 2 * eps]
    checks.append(_ge("degenerate_atom_mass_at_mean", max(near_mean, default=0.0),
                      0.95, detail=f"atoms={atoms3!r}"))
    if outdir is not None:
        _write_sample_csv(outdir / "s4_tn_continuous.csv", ["tn"], [s1.values])
    return checks


def suite_s5(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Unbounded ratio when the weight tail index (0.4) beats the multiplier
    tail index (0.8); growth rate 1/0.4 - 1/0.8 = 1.25 decades per decade.
    The equal-index control stays flat."""
    n_list = (100, 1_000, 10_000, 100_000)
    x = make_weight_law("abs_pareto", gamma=0.4)
    y = make_pareto_multiplier(0.8)
    probe = mc.divergence_probe(x, y, mc.SimConfig(100, 1_000, seed.child(1),
                                                   threads=threads), n_list)
    checks = [_le("divergence_slope_gap", abs(probe.loglog_slope - 1.25), 0.15,
                  detail=f"slope={probe.loglog_slope:.4f}, medians={probe.medians}")]

    x_c = make_weight_law("abs_pareto", gamma=0.8)
    control = mc.divergence_probe(x_c, y, mc.SimConfig(100, 1_000, seed.child(2),
                                                       threads=threads), n_list)
    checks.append(_le("control_slope_abs", abs(control.loglog_slope), 0.15,
                      detail=f"slope={control.loglog_slope:.4f}"))
    if outdir is not None:
        (outdir / "s5_divergence.json").write_text(json.dumps(
            {"medians": {str(k): v for k, v in probe.medians.items()},
             "slope": probe.loglog_slope,
             "control_slope": control.loglog_slope}, sort_keys=True))
    return checks


def suite_s6(seed: SeedStream, threads: int = 1, outdir: Optional[Path] = None) -> list:
    """Classification table, max-share statistics, and the infinite-mean
    weight regime of the arctan limit."""
    checks = []
    x_grid = np.logspace(2, 16, 57)
    expected = {
        "pareto": ("centered_feller", make_pareto_multiplier(0.5)),
        "slowly_varying": ("not_feller_griffin_holds", make_slowly_varying_multiplier()),
        "exponential": ("griffin_fails", make_finite_mean_multiplier("exponential", rate=1.0)),
    }
    verdicts = {}
    for key, (want, law) in expected.items():
        got = cd.classify(law, x_grid).label
        verdicts[key] = got
        checks.append(_eq(f"classify_{key}", got, want))
    ratio = cd.feller_ratio(make_pareto_multiplier(0.5), 1e6)
    checks.append(_le("pareto_feller_ratio_rel_gap", abs(ratio - 3.0) / 3.0, 0.01,
                      detail=f"ratio(1e6)={ratio:.6f}, limit=3"))

    xg = make_weight_law("standard_gaussian")
    ysv = make_slowly_varying_multiplier()
    stats = mc.max_share_stats(xg, ysv, mc.SimConfig(10_000, 20_000, seed.child(1),
                                                     threads=threads), (0.1,))
    p_share = stats.a_n_eps_prob[0.1]
    p_delta = float((stats.delta_sample <= 0.1).mean())
    checks.append(_ge("max_share_prob_eps=0.1", p_share, 0.9))
    checks.append(_ge("delta_small_prob", p_delta, 0.8))

    xsp = make_weight_law("symmetric_pareto", gamma=0.8)
    ysp = make_pareto_multiplier(0.5)
    lim = ll.BreimanLimit(0.5, xsp)
    tn = mc.simulate_tn(xsp, ysp, mc.SimConfig(10_000, 20_000, seed.child(2),
                                               threads=threads))
    cdf = ll.tabulated_cdf(lim, grid=ll.quantile_grid(tn.values, points=3001))
    ks = cd.ks_distance(tn, cdf)
    checks.append(_le("infinite_mean_weight_ks", ks, 0.03))

    x_star = brentq(lambda t: ll.breiman_cdf(lim, t) - 0.995, 1.0, 1e5)
    tail_ratio = (1.0 - ll.breiman_cdf(lim, x_star)) / (0.5 * x_star ** -0.8)
    const = ll.regvar_tail_constant(0.5, 0.8)
    checks.append(_le("regvar_tail_ratio_rel_gap", abs(tail_ratio / const - 1.0),
                      0.10, detail=f"x*={x_star:.2f}, ratio={tail_ratio:.5f}, "
                                   f"const={const:.5f}"))
    if outdir is not None:
        (outdir / "s6_classification.json").write_text(
            json.dumps(verdicts, sort_keys=True))
    return checks


_SUITE_FNS = {"S1": suite_s1, "S2": suite_s2, "S3": suite_s3,
              "S4": suite_s4, "S5": suite_s5, "S6": suite_s6}


def run_suite(suite: str, seed: SeedStream, threads: int = 1,
              outdir: Optional[Path] = None) -> dict:
    """Run one named suite; returns {suite, seed, checks, passed}."""
    if suite not in _SUITE_FNS:
        raise ParameterError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks = _SUITE_FNS[suite](seed, threads=threads, outdir=outdir)
    return {
        "suite": suite,
        "seed": {"master_seed": seed.master_seed, "stream_index": seed.stream_index,
                 "path": list(seed.path)},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
