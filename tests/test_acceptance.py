"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
per check record.

Criteria 1-9 are defined once, in the scenarios module, with every law, size
and tolerance; each test here calls its criterion at its own ``SEED.child(k)``
streams and asserts the returned records.  Only criterion 1's runtime bound
and criterion 10 live here.  Run with ``pytest -s`` to see the lines.
"""

import subprocess
import sys
import time

from selfnorm_lab import scenarios as sc
from selfnorm_lab.distributions import SeedStream

SEED = SeedStream(20260808)


def report(num: int, desc: str, checks: list) -> None:
    lines = [f"ACCEPTANCE {num:>2} {'PASS' if c['passed'] else 'FAIL'} - {desc}: "
             f"{c['name']}={c['value']!r} {c['kind']} {c['bound']!r}"
             + (f" ({c['detail']})" if c["detail"] else "")
             for c in checks]
    print("\n".join(lines))
    assert checks and all(c["passed"] for c in checks), "\n".join(lines)


def test_criterion_1_three_route_agreement():
    """Finite-n ratio, limit-pair ratio and the arctan CDF agree."""
    start = time.time()
    checks, _, _ = sc.criterion_1(SEED.child(1), SEED.child(2))
    checks.append(sc._le("runtime_s", time.time() - start, 120.0))
    report(1, "three-route agreement, ratio law", checks)


def test_criterion_2_stable_marginal():
    """Plain-sum marginal matches the exact half-stable law (zero drift)."""
    checks, _ = sc.criterion_2(SEED.child(3))
    report(2, "half-stable marginal of the plain sums", checks)


def test_criterion_3_levy_measure_convergence():
    """Row tails match the limit measure; product tail hits the moment
    constant within Monte Carlo error."""
    report(3, "jump-measure convergence", sc.criterion_3(SEED.child(4)))


def test_criterion_4_truncated_moments():
    """Limit quadratures match n=1e6 Monte Carlo prelimits; quadratic
    integrals collapse as h shrinks."""
    checks, _ = sc.criterion_4((SEED.child(5), SEED.child(6)))
    report(4, "truncated moments and small-h decay", checks)


def test_criterion_5_continuity_dichotomy():
    """Atoms appear exactly where the classification says they must."""
    checks, _ = sc.criterion_5((SEED.child(7), SEED.child(8), SEED.child(9)))
    report(5, "continuity dichotomy", checks)


def test_criterion_6_divergence_counterexample():
    """Weight tail heavier than multiplier tail: median ratio grows like
    n^(1/0.4 - 1/0.8)."""
    checks, _ = sc.criterion_6(SEED.child(10))
    report(6, "unbounded-ratio counterexample", checks)


def test_criterion_7_infinite_mean_weight_regime():
    """The arctan limit still governs T_n when E|X| is infinite, and its tail
    tracks the regular-variation constant."""
    report(7, "infinite-mean weight regime", sc.criterion_7(SEED.child(11)))


def test_criterion_8_classification_table():
    """The three shipped multipliers land in their regimes; the Pareto ratio
    hits its closed-form limit."""
    checks, _ = sc.criterion_8()
    report(8, "classification table", checks)


def test_criterion_9_max_share_statistics():
    """The largest multiplier dominates under a slowly varying tail and the
    ratio sticks to the weight drawn at the argmax."""
    report(9, "max-share statistics", sc.criterion_9(SEED.child(12)))


def test_criterion_10_determinism_across_threads(tmp_path):
    """reproduce S1 yields byte-identical artifacts for 1 and 8 threads."""
    outs = []
    for name, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "selfnorm_lab", "reproduce", "S1",
             "--out", str(out), "--seed", "20260808", "--threads", threads],
            capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    same_names = files1 == files2 and len(files1) >= 4
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in files1)
    report(10, "thread-count determinism of reproduce S1",
           [sc._eq("byte_identical_artifacts", same_names and identical, True,
                   detail=f"files={files1}")])
