"""Acceptance criteria 1-9 and the named verification suites built from them.

Each criterion is one function that holds the laws, sizes and pinned
tolerances of its checks, draws only from the streams it is given, and
returns check records ``{name, value, bound, kind, passed, detail}`` plus any
sample a suite writes as an artifact.  The suites run the criteria at their
own streams and add a few suite-only checks; the command line's
``reproduce`` subcommand executes a suite and writes its artifacts, and the
acceptance tests call the criteria at theirs.

Suite map
---------
S1  criteria 1 and 2: the ratio law by three routes (finite-n ratio and
    jump-sum limit-pair ratio vs the arctan limit CDF) and the plain-sum
    marginal vs the exact half-stable law.
S2  criterion 3 (row tails and the product tail at (1, 0)) plus the full
    triangular-array convergence report.
S3  criterion 4: truncated first moments, limit quadratures vs prelimit
    Monte Carlo, and the small-h decay of the quadratic integrals.
S4  criterion 5: continuity dichotomy, atom scans across the three
    multiplier regimes.
S5  criterion 6: divergence of the ratio when the weight tail is heavier
    than the multiplier tail, plus an equal-index control.
S6  criteria 8, 9 and 7: classification table, max-share statistics, and
    the infinite-mean weight regime of the arctan limit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

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

# Pareto(1/2) partial sums under a_n = n^2 converge to the jump law with
# tail v^(-1/2) and zero drift, whose Laplace exponent is sqrt(pi lambda),
# i.e. the Levy(0, pi/2) law.
_W2_LEVY_SCALE = math.pi / 2.0
_V_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)           # row-tail points v (S2)
_DIVERGENCE_N = (100, 1_000, 10_000, 100_000)  # row lengths of the S5 probes


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
    """Standard JSON: a NaN or an infinity raises ValueError (exit 3 in cli)."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _write_sample_csv(path: Path, header: list, columns: list,
                      meta: Optional[dict] = None) -> None:
    """CSV of equal-length columns at 17 significant digits, plus a
    ``.meta.json`` sidecar when ``meta`` is given."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(c, dtype=float).tolist()
                                            for c in columns)))
    if meta is not None:
        _write_json(path.with_suffix(".meta.json"), meta)


# ---------------------------------------------------------------------------
# Acceptance criteria 1-9: one function each, holding every law, size and
# bound of its checks.  A criterion draws only from the streams it is given
# and returns its check records plus whatever a suite writes as an artifact.


def criterion_1(tn_stream: SeedStream, pair_stream: SeedStream, threads: int = 1) -> tuple:
    """Finite-n ratio and jump-sum limit-pair ratio against the arctan limit
    CDF, for X uniform01 and Y Pareto(1/2).  Returns (checks, T_n sample,
    limit pair)."""
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.5)
    cdf = ll.tabulated_cdf(ll.BreimanLimit(y.tail_class.beta, x),
                           np.linspace(-0.05, 1.05, 2201))
    tn = mc.simulate_tn(x, y, mc.SimConfig(10_000, 20_000, tn_stream, threads=threads))
    pair = mc.simulate_limit_pair(lc.limit_view(x, y), mc.SimConfig(
        1, 20_000, pair_stream, cutoff=1e-4, threads=threads))
    ratio = mc.EmpiricalSample(pair.ratio(), 0, pair.meta)
    checks = [
        _le("tn_vs_limit_cdf_ks", cd.ks_distance(tn, cdf), 0.02),
        _le("limit_pair_ratio_ks", cd.ks_distance(ratio, cdf), 0.03,
            detail=f"cutoff=1e-4, bias_bound_w2={pair.meta['bias_bound_w2']:.4g}"),
    ]
    return checks, tn, pair


def criterion_2(stream: SeedStream, threads: int = 1) -> tuple:
    """Plain-sum marginal of the normed pair against the exact half-stable
    law.  Returns (checks, normed pair)."""
    cfg = mc.SimConfig(10_000, 20_000, stream, threads=threads)
    npair = mc.simulate_normed_pair(make_weight_law("uniform01"),
                                    make_pareto_multiplier(0.5), cfg)
    w2 = mc.EmpiricalSample(npair.w2, cfg.n, npair.meta)
    ks = cd.ks_distance(w2, lambda z: levy_cdf(z, _W2_LEVY_SCALE))
    return [_le("plain_sum_marginal_ks", ks, 0.02,
                detail="vs Levy(0, pi/2), zero drift implied")], npair


def criterion_3(stream: SeedStream) -> list:
    """Row tails against the limit jump measure (exact Pareto identity) and
    the product tail at (1, 0) against its moment constant."""
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    levy = lc.limit_view(x, y).levy
    worst = 0.0
    for n in (10, 1_000, 100_000):
        for v in _V_GRID:
            limit = lc.lambda_bar(levy, v)
            worst = max(worst, abs(lc.prelimit_lambda_n(y, n, v) - limit) / limit)
    est, se = lc.prelimit_pi_n(x, y, 100_000, 1.0, stream)
    return [
        _le("pareto_row_tail_rel_gap", worst, 1e-12,
            detail="n in {10,1e3,1e5}, v in {1/4..4}"),
        _le("product_tail_at_(1,0)_gap", abs(est - 2.0 / 3.0), 3.0 * se + 1e-12,
            detail=f"estimate={est:.6f}, se={se:.2e}, limit=2/3"),
    ]


def criterion_4(streams) -> tuple:
    """Truncated first moments at h = 1/4 and 1 (one stream each): limit
    quadratures against n = 1e6 Monte Carlo prelimits; then the small-h decay
    of the quadratic integrals.  Returns (checks, small-h scan)."""
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    view = lc.limit_view(x, y)
    checks = []
    for h, stream in zip((0.25, 1.0), streams, strict=True):
        y_lim, xy_lim = lc.truncated_first_moments(view, h)
        (y_pre, y_se), (xy_pre, xy_se) = lc.prelimit_truncated_first_moments(
            x, y, 1_000_000, h, stream)
        checks.append(_le(f"trunc_mean_y_gap_h={h:g}", abs(y_lim - y_pre),
                          3.0 * y_se + 1e-6,
                          detail=f"limit={y_lim:.6f}, mc={y_pre:.6f}, se={y_se:.2e}"))
        checks.append(_le(f"trunc_mean_xy_gap_h={h:g}", abs(xy_lim - xy_pre),
                          3.0 * xy_se + 1e-6,
                          detail=f"limit={xy_lim:.6f}, mc={xy_pre:.6f}, se={xy_se:.2e}"))
    scan = lc.second_moment_smallh_scan(view, k_max=10)
    bottom = scan[2.0 ** -10]
    worst = max(b / t for b, t in zip(bottom, scan[1.0]))
    checks.append(_le("second_moment_smallh_ratio", worst, 1e-3,
                      detail=f"h=2^-10 vs h=1 componentwise, uu/vv/uv={bottom}"))
    return checks, scan


def criterion_5(streams, threads: int = 1) -> tuple:
    """Continuity dichotomy over three streams: no atoms in the continuous
    regime, the weight's atoms under a slowly varying multiplier, one atom at
    the weight mean under a finite-mean multiplier.  Returns (checks,
    continuous-regime T_n sample)."""
    eps = 0.01
    x_u = make_weight_law("uniform01")
    cases = ((x_u, make_pareto_multiplier(0.5)),
             (make_weight_law("bernoulli", p=0.5, x0=0.0, x1=1.0),
              make_slowly_varying_multiplier()),
             (x_u, make_finite_mean_multiplier("exponential", rate=1.0)))
    samples = [mc.simulate_tn(x, y, mc.SimConfig(10_000, 20_000, stream, threads=threads))
               for (x, y), stream in zip(cases, streams, strict=True)]
    atoms_cont, atoms_atom, atoms_dgn = (cd.atom_scan(s, eps) for s in samples)

    def mass_near(atoms, loc0):
        return max((m for loc, m in atoms if abs(loc - loc0) <= 2 * eps), default=0.0)

    checks = [
        _eq("continuous_regime_atoms", len(atoms_cont), 0, detail=f"found {atoms_cont!r}"),
        _ge("weight_atom_mass_near_0", mass_near(atoms_atom, 0.0), 0.4),
        _ge("weight_atom_mass_near_1", mass_near(atoms_atom, 1.0), 0.4),
        _ge("degenerate_atom_mass_at_mean", mass_near(atoms_dgn, 0.5), 0.95,
            detail=f"atoms={atoms_dgn!r}"),
    ]
    return checks, samples[0]


def criterion_6(stream: SeedStream, threads: int = 1) -> tuple:
    """Weight tail index 0.4 against multiplier tail index 0.8: the median
    |T_n| grows like n^(1/0.4 - 1/0.8) = n^1.25.  Returns (checks, probe)."""
    probe = mc.divergence_probe(make_weight_law("abs_pareto", gamma=0.4),
                                make_pareto_multiplier(0.8),
                                mc.SimConfig(100, 1_000, stream, threads=threads),
                                _DIVERGENCE_N)
    return [_le("divergence_slope_gap", abs(probe.loglog_slope - 1.25), 0.15,
                detail=f"slope={probe.loglog_slope:.4f}, medians={probe.medians}")], probe


def criterion_7(stream: SeedStream, threads: int = 1) -> list:
    """Infinite-mean weight (symmetric Pareto(0.8)): T_n still follows the
    arctan limit CDF, whose upper tail tracks the regular-variation
    constant."""
    x = make_weight_law("symmetric_pareto", gamma=0.8)
    lim = ll.BreimanLimit(0.5, x)
    tn = mc.simulate_tn(x, make_pareto_multiplier(0.5),
                        mc.SimConfig(10_000, 20_000, stream, threads=threads))
    cdf = ll.tabulated_cdf(lim, grid=ll.quantile_grid(tn.values, points=3001))
    from scipy.optimize import brentq  # bound here: importing scipy is slow

    x_star = brentq(lambda t: ll.breiman_cdf(lim, t) - 0.995, 1.0, 1e5)
    tail_ratio = (1.0 - ll.breiman_cdf(lim, x_star)) / (0.5 * x_star ** -0.8)
    const = ll.regvar_tail_constant(0.5, 0.8)
    return [
        _le("infinite_mean_weight_ks", cd.ks_distance(tn, cdf), 0.03),
        _le("regvar_tail_ratio_rel_gap", abs(tail_ratio / const - 1.0), 0.10,
            detail=f"x*={x_star:.2f}, ratio={tail_ratio:.5f}, const={const:.5f}"),
    ]


def criterion_8() -> tuple:
    """The three shipped multipliers land in their regimes, and the Pareto
    Feller ratio hits its closed-form limit 3.  Returns (checks, labels)."""
    x_grid = np.logspace(2, 16, 57)
    expected = {
        "pareto": ("centered_feller", make_pareto_multiplier(0.5)),
        "slowly_varying": ("not_feller_griffin_holds", make_slowly_varying_multiplier()),
        "exponential": ("griffin_fails", make_finite_mean_multiplier("exponential", rate=1.0)),
    }
    labels = {key: cd.classify(law, x_grid).label for key, (_, law) in expected.items()}
    checks = [_eq(f"classify_{key}", labels[key], want)
              for key, (want, _) in expected.items()]
    ratio = cd.tail_ratios(make_pareto_multiplier(0.5), 1e6)[0]
    checks.append(_le("pareto_feller_ratio_rel_gap", abs(ratio - 3.0) / 3.0, 0.01,
                      detail=f"ratio(1e6)={ratio:.6f}, limit=3"))
    return checks, labels


def criterion_9(stream: SeedStream, threads: int = 1) -> list:
    """Under a slowly varying multiplier the largest multiplier dominates its
    row, and T_n sticks to the weight drawn at the argmax."""
    stats = mc.max_share_stats(make_weight_law("standard_gaussian"),
                               make_slowly_varying_multiplier(),
                               mc.SimConfig(10_000, 20_000, stream, threads=threads),
                               (0.1,))
    return [
        _ge("max_share_prob_eps=0.1", stats.a_n_eps_prob[0.1], 0.9),
        _ge("delta_small_prob", float((stats.delta_sample <= 0.1).mean()), 0.8),
    ]


# ---------------------------------------------------------------------------
# Suites: the criteria at the suites' own streams, plus suite-only checks.


def suite_s1(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criteria 1 and 2: three-route agreement for X uniform01, Y
    Pareto(1/2), plus the exact half-stable marginal of the plain sums."""
    checks, tn, pair = criterion_1(seed.child(1), seed.child(2), threads)
    marginal, npair = criterion_2(seed.child(3), threads)
    _write_sample_csv(outdir / "s1_tn_sample.csv", ["tn"], [tn.values], meta=tn.law_meta)
    _write_sample_csv(outdir / "s1_limit_pair.csv", ["w1", "w2"], [pair.w1, pair.w2],
                      meta=pair.meta)
    _write_sample_csv(outdir / "s1_normed_pair.csv", ["w1", "w2"], [npair.w1, npair.w2],
                      meta=npair.meta)
    return checks + marginal


def suite_s2(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criterion 3, plus the full row-tail and product-tail convergence
    report along n = 1e3, 1e4, 1e5."""
    checks = criterion_3(seed.child(1))
    result = lc.check_levy_convergence(
        make_weight_law("uniform01"), make_pareto_multiplier(0.5), (1_000, 10_000, 100_000),
        _V_GRID, (0.5, 1.0, 2.0), seed.child(2), draws=200_000)
    checks.append(_eq("levy_convergence_verdict", result.verdict, True,
                      detail=f"sup gaps {[r.sup_abs_gap for r in result.pi_reports]}"))
    _write_json(outdir / "s2_levy_convergence.json", dataclasses.asdict(result))
    return checks


def suite_s3(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criterion 4: truncated moments and the small-h decay."""
    checks, scan = criterion_4((seed.child(0), seed.child(1)))
    _write_json(outdir / "s3_smallh_scan.json",
                {format(h, ".10g"): list(v) for h, v in scan.items()})
    return checks


def suite_s4(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criterion 5: the continuity dichotomy."""
    checks, continuous = criterion_5((seed.child(1), seed.child(2), seed.child(3)), threads)
    _write_sample_csv(outdir / "s4_tn_continuous.csv", ["tn"], [continuous.values])
    return checks


def suite_s5(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criterion 6, plus the equal-index control (weight tail index 0.8),
    whose median ratio stays flat."""
    checks, probe = criterion_6(seed.child(1), threads)
    control = mc.divergence_probe(make_weight_law("abs_pareto", gamma=0.8),
                                  make_pareto_multiplier(0.8),
                                  mc.SimConfig(100, 1_000, seed.child(2), threads=threads),
                                  _DIVERGENCE_N)
    checks.append(_le("control_slope_abs", abs(control.loglog_slope), 0.15,
                      detail=f"slope={control.loglog_slope:.4f}"))
    _write_json(outdir / "s5_divergence.json",
                {"medians": {str(k): v for k, v in probe.medians.items()},
                 "slope": probe.loglog_slope,
                 "control_slope": control.loglog_slope})
    return checks


def suite_s6(seed: SeedStream, threads: int, outdir: Path) -> list:
    """Criteria 8, 9 and 7: classification table, max-share statistics and
    the infinite-mean weight regime."""
    checks, labels = criterion_8()
    checks += criterion_9(seed.child(1), threads)
    checks += criterion_7(seed.child(2), threads)
    _write_json(outdir / "s6_classification.json", labels)
    return checks


_SUITE_FNS = {"S1": suite_s1, "S2": suite_s2, "S3": suite_s3,
              "S4": suite_s4, "S5": suite_s5, "S6": suite_s6}
SUITES = tuple(_SUITE_FNS)


def run_suite(suite: str, seed: SeedStream, threads: int, outdir: Path) -> dict:
    """Run one named suite; returns {suite, seed, stream_layout, checks, passed}."""
    if suite not in _SUITE_FNS:
        raise ParameterError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks = _SUITE_FNS[suite](seed, threads=threads, outdir=outdir)
    return {
        "suite": suite,
        "seed": seed.record(),
        "stream_layout": mc.STREAM_LAYOUT,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
