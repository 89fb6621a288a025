"""Mutation check: every mutant in the table must make one of its tests fail.

Each entry of ``MUTANTS`` names a file of the checkout, an exact piece of
its text, the text that replaces it, one line on what the change breaks and
the pytest ids that must catch it.  For each entry the script copies
``src``, ``tests``, ``configs`` and ``pyproject.toml`` into a fresh temporary
directory, applies the one change there and runs only the entry's tests on
that copy, with ``PYTHONPATH`` pointing at the copy's ``src`` and pytest's
own ``pythonpath`` setting cleared (``-o pythonpath=``):

    python scripts/mutants.py

Before any mutant runs, the tests of all entries run once on an unchanged
copy and must pass, so a failure under a mutant is the mutant's doing.  A
mutant is killed when pytest exits 1 (its tests ran and one failed) or runs
past TIMEOUT_S, and survives when it exits 0.  Any other exit (2 to 5:
interrupted, internal error, usage error, no tests collected) is an ERROR:
the tests did not run, so a mutant that breaks an import or an entry with a
stale test id cannot count as killed.  An entry whose old text does not
occur exactly once in its file is stale and an error.  The exit code is 0
when every mutant is killed and 1 otherwise.

To add a mutant, append a ``Mutant`` to ``MUTANTS``: a short name, the
file, an old text that occurs once in it (take in a neighbouring line when
a fragment repeats), the new text, what the change breaks, and the
narrowest test ids that fail on it.  Then run ``python scripts/mutants.py``
and check that the new entry's line reads ``killed``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
PKG = "src/selfnorm_lab/"
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    breaks: str
    tests: tuple


MUTANTS = [
    Mutant("x_sub", PKG + "montecarlo.py",
           "_X_SUB = 1   #", "_X_SUB = 0   #",
           "weights drawn from the multiplier's generator, coupled to Y",
           ("tests/test_montecarlo.py::test_tn_exact_law_at_n_2",)),
    Mutant("atom_index_ge", PKG + "distributions.py",
           "idx += u >= c", "idx += u > c",
           "a uniform equal to a cumulative mass goes to the lower atom",
           ("tests/test_distributions.py::test_atom_index_equals_searchsorted",)),
    Mutant("min_block_rows", PKG + "montecarlo.py",
           "MIN_BLOCK_ROWS = 16", "MIN_BLOCK_ROWS = 8",
           "large-n blocks change size, so the stream layout moves",
           ("tests/test_montecarlo.py::test_block_kernel_equals_per_replication_loop"
            "[rademacher-pareto(beta=1)-3000-35]",)),
    Mutant("grow_abs", PKG + "class_diagnostics.py",
           "_GROW_ABS = 50.0", "_GROW_ABS = 40.0",
           "a centered ratio that tops out at 45 counts as growing",
           ("tests/test_class_diagnostics.py::test_verdict_growth_thresholds",)),
    Mutant("grow_factor", PKG + "class_diagnostics.py",
           "_GROW_FACTOR = 4.0", "_GROW_FACTOR = 2.0",
           "a threefold rise of the centered ratio counts as growing",
           ("tests/test_class_diagnostics.py::test_verdict_growth_thresholds",)),
    Mutant("atom_floor", PKG + "class_diagnostics.py",
           "20.0 / reps", "10.0 / reps",
           "atom_scan reports windows of 10 to 20 points as atoms",
           ("tests/test_class_diagnostics.py::test_atom_scan_count_floor",)),
    Mutant("quad_fold_jacobian", PKG + "distributions.py",
           "np.where(folded, x * x, 1.0)", "np.where(folded, 1.0, 1.0)",
           "quad drops the Jacobian of the fold u = 1/x beyond |x| = 1",
           ("tests/test_levy_calculus.py::test_limit_view_accepts_infinite_mean_weight",)),
    Mutant("quad_budget_raise", PKG + "distributions.py",
           'raise QuadratureError(f"quadrature missed its error budget after {_ROUNDS} rounds "\n'
           '                          f"(value {float(value)!r}, error estimate {float(err)!r})")',
           "return float(value), float(err)",
           "quad returns a value that missed its error budget in silence",
           ("tests/test_levy_calculus.py::test_pi_bar_quadrature_miss_raises",)),
    Mutant("pareto_gamma_abs", PKG + "distributions.py",
           "        if not 0.0 < gamma < 2.0:\n            raise ParameterError(f\"{kind} gamma",
           "        if kind == \"symmetric_pareto\" and not 0.0 < gamma < 2.0:\n"
           "            raise ParameterError(f\"{kind} gamma",
           "abs_pareto accepts a tail index outside (0, 2)",
           ("tests/test_distributions.py::test_pareto_weight_gamma_range",)),
    Mutant("finite_mean_unknown_kind", PKG + "distributions.py",
           'raise ParameterError(f"unknown finite-mean multiplier kind {kind!r}")',
           "return None",
           "an unknown finite-mean multiplier kind returns None",
           ("tests/test_distributions.py::test_finite_mean_multiplier_rejects_unknown_kind",)),
    Mutant("levy_cdf_nan", PKG + "distributions.py",
           "if np.isnan(z).any():", "if False:",
           "levy_cdf reads a NaN point as 0",
           ("tests/test_distributions.py::test_levy_cdf_rejects_nan_and_takes_infinities",)),
    Mutant("empirical_sample_last", PKG + "montecarlo.py",
           "np.isfinite(self.values[[0, -1]])", "np.isfinite(self.values[[0]])",
           "a sample keeps the NaN that sorting moves to its end",
           ("tests/test_montecarlo.py::test_empirical_sample_rejects_empty_or_non_finite",)),
    Mutant("limit_view_moment", PKG + "levy_calculus.py",
           "if not math.isfinite(x.abs_moment(tc.beta)):", "if False:",
           "limit_view returns a measure for a weight with E|X|^beta infinite",
           ("tests/test_levy_calculus.py::test_limit_view_rejects_weight_without_limit_measure",
            "tests/test_cli.py::test_levy_weight_without_limit_measure_exits_3")),
    Mutant("levy_quadrature_exit", PKG + "cli.py",
           "except QuadratureError as exc:  # near E|X|^beta",
           "except ZeroDivisionError as exc:  # near E|X|^beta",
           "levy ends with a QuadratureError traceback (exit 1) near the moment boundary",
           ("tests/test_cli.py::test_levy_limit_quadrature_miss_exits_3_before_output",)),
    Mutant("limit_beta_regime", PKG + "cli.py",
           'if y.tail_class.kind != "pareto" or y.tail_class.beta >= 1.0:',
           'if y.tail_class.kind != "pareto":',
           "limit at beta >= 1 fails with a message naming neither the law nor the key",
           ("tests/test_cli.py::test_limit_needs_beta_below_one",)),
    Mutant("limit_grid_order", PKG + "cli.py",
           "if hi <= lo:\n        raise ParameterError(f\"grid.hi",
           "if False:\n        raise ParameterError(f\"grid.hi",
           "limit writes a table over an empty or reversed grid",
           ("tests/test_cli.py::test_limit_empty_grid_exits_3_before_output",)),
    Mutant("tabulated_two_points", PKG + "limit_laws.py",
           "if grid.size < 2 or not np.all(np.isfinite(grid)):",
           "if not np.all(np.isfinite(grid)):",
           "tabulated_cdf interpolates a one-point table as a constant",
           ("tests/test_limit_laws.py::test_tabulated_cdf_needs_two_finite_points",)),
    Mutant("run_suite_unknown", PKG + "scenarios.py",
           "if suite not in _SUITE_FNS:", "if False:",
           "run_suite raises KeyError, not ParameterError, on an unknown suite",
           ("tests/test_cli.py::test_run_suite_rejects_unknown_suite",)),
    Mutant("far_sum_order", PKG + "limit_laws.py",
           "value = head + (near + far * c1_b)", "value = (head + near) + far * c1_b",
           "an infinite piece adds its head, near fold and far fold in another order",
           ("tests/test_limit_laws.py::test_one_point_values_are_pinned",)),
    Mutant("folded_grid_raise", PKG + "limit_laws.py",
           'raise QuadratureError("tail of the weight law is not resolved by the folded grid")',
           "pass",
           "a tail that does not fall off gets a geometric completion with a ratio of 1 or more",
           ("tests/test_limit_laws.py::test_grid_raises_on_unresolved_tail",)),
    Mutant("regvar_alpha_finite", PKG + "limit_laws.py",
           "if not math.isfinite(alpha_rv):", "if False:",
           "regvar_tail_constant returns 0 at alpha_rv = inf and misnames a NaN",
           ("tests/test_limit_laws.py::test_regvar_constant_validation",)),
    Mutant("max_share_argmax", PKG + "montecarlo.py",
           "m = ys.argmax(axis=1)  # first max index",
           "m = np.zeros(ys.shape[0], dtype=np.intp)  # first max index",
           "max_share_stats reads the first multiplier of each row as its maximum",
           ("tests/test_montecarlo.py::test_max_share_exact_law_at_n_2",)),
    Mutant("limit_pair_owner", PKG + "montecarlo.py",
           "owner = np.repeat(np.arange(counts.size), counts)",
           "owner = np.roll(np.repeat(np.arange(counts.size), counts), 1)",
           "each row's first jump goes to the row before it (the last jump to row 0)",
           ("tests/test_montecarlo.py::test_limit_pair_kernel_matches_per_replication_loop"
            "[0.01-5000]",)),
    Mutant("block_seeds_reused", PKG + "distributions.py",
           "for k, word in enumerate((np.arange(blocks, dtype=np.uint32)[:, None, None],",
           "for k, word in enumerate((np.zeros(blocks, dtype=np.uint32)[:, None, None],",
           "every block reuses block 0's seed words, so all blocks draw the same numbers",
           ("tests/test_distributions.py::test_block_seeds_equal_seed_sequence",)),
    Mutant("sums_einsum", PKG + "montecarlo.py",
           "return np.multiply(xs, ys, out=xs).sum(axis=1), sy",
           'return np.einsum("ij,ij->i", xs, ys), sy',
           "sum XY adds in another order than sum Y, so T_n can leave the weights' hull",
           ("tests/test_montecarlo.py::test_convex_combination_bounds_are_exact[10-bernoulli]",)),
    Mutant("threads_drop_block", PKG + "montecarlo.py",
           "parts = list(_pool(threads).map(fn, range(tasks)))",
           "parts = list(_pool(threads).map(fn, range(tasks - 1)))",
           "more than one thread drops the last task",
           ("tests/test_montecarlo.py::test_tn_deterministic_and_thread_invariant",)),
    Mutant("atoms_moment_errstate", PKG + "limit_laws.py",
           '    with np.errstate(over="ignore", invalid="ignore"):\n'
           "        if lim._plan is None:\n"
           "            return sum(m * np.maximum(side * (loc - x), 0.0) ** b"
           " for loc, m in lim.weight.atoms)\n",
           "    if lim._plan is None:\n"
           "        return sum(m * np.maximum(side * (loc - x), 0.0) ** b"
           " for loc, m in lim.weight.atoms)\n"
           '    with np.errstate(over="ignore", invalid="ignore"):\n',
           "the exact sums of an atoms-only law warn when loc - x overflows a double",
           ("tests/test_limit_laws.py::test_atoms_only_moments_past_a_double_do_not_warn",)),
    Mutant("diagnose_grid_positive", PKG + "cli.py",
           "if min(lo, hi) <= 0.0:", "if lo <= 0.0:",
           "diagnose at diag.hi <= 0 fails in log10 with a message naming no key",
           ("tests/test_cli.py::test_diagnose_bad_grid_exits_3_before_output[diag.hi-0]",)),
    Mutant("mc_chunk_restarts_stream", PKG + "levy_calculus.py",
           "fill(x.sampler(rng, stop - start), rows[:, start:stop])",
           "fill(x.sampler(stream, stop - start), rows[:, start:stop])",
           "each Monte Carlo pass restarts the stream, so every pass repeats the first one's draws",
           ("tests/test_levy_calculus.py::test_prelimits_equal_one_shot_reference"
            "[uniform01-16385]",)),
    Mutant("mc_chunk_drops_last", PKG + "levy_calculus.py",
           "for start in range(0, draws, _MC_CHUNK):",
           "for start in range(0, draws - draws % _MC_CHUNK, _MC_CHUNK):",
           "the short last Monte Carlo pass is dropped, leaving its draws' row entries unset",
           ("tests/test_levy_calculus.py::test_prelimits_equal_one_shot_reference"
            "[uniform01-16385]",)),
    Mutant("run_first_block_gens", PKG + "montecarlo.py",
           "_draw(y_sampler, y_gen, bufs[0][seg])\n"
           "                _draw(x.sampler, x_gen, bufs[1][seg])",
           "_draw(y_sampler, blocks[0][0], bufs[0][seg])\n"
           "                _draw(x.sampler, blocks[0][1], bufs[1][seg])",
           "every block of a task draws on from the task's first block's generators",
           ("tests/test_montecarlo.py::test_block_kernel_equals_per_replication_loop"
            "[standard_gaussian-pareto(beta=0.5)-100-1000]",)),
    Mutant("run_drops_short_block", PKG + "montecarlo.py",
           "min((t + 1) * per_task, blocks)", "min((t + 1) * per_task, cfg.reps // rows)",
           "a task drops its last, short block, so the call returns fewer replications",
           ("tests/test_montecarlo.py::test_block_kernel_equals_per_replication_loop"
            "[symmetric_pareto-pareto(beta=1)-300-300]",)),
    Mutant("task_threads_cap", PKG + "montecarlo.py",
           "per_task = max(1, min(per_task, blocks // cfg.threads))",
           "per_task = max(1, per_task)",
           "a small call is one task, so its other threads stay idle",
           ("tests/test_montecarlo.py::test_small_call_gives_every_thread_a_task",)),
    Mutant("v_grid_order", PKG + "levy_calculus.py",
           "if any(b <= a for a, b in zip(v_grid, v_grid[1:])):",
           "if False:",
           "check_levy_convergence reports negative interval masses of an unsorted v_grid",
           ("tests/test_levy_calculus.py::test_check_levy_convergence_rejects_unsorted_v_grid",)),
    Mutant("half_disk_finite", PKG + "levy_calculus.py",
           "if not math.isfinite(value):\n        raise QuadratureError(f\"a half-disk moment",
           "if False:\n        raise QuadratureError(f\"a half-disk moment",
           "levy writes an infinite second moment of a far atom and ends in a traceback",
           ("tests/test_cli_contract.py::test_exit_contract",)),
    Mutant("half_disk_blames_h", PKG + "levy_calculus.py",
           'raise QuadratureError(f"a half-disk moment', 'raise ParameterError(f"a half-disk moment',
           "levy blames levy.h_list for a far atom whose x^2 overflows at every h",
           ("tests/test_cli.py::test_levy_far_atom_blames_the_weight_not_the_level",)),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests) -> tuple:
    """(exit code, end of the output) of pytest on ``tests`` at the copy
    ``tree``; a run past TIMEOUT_S gives exit code -1."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "pythonpath=", *tests]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    return run.returncode, (run.stdout + run.stderr)[-3000:]


def _stale(m: Mutant) -> str:
    """Why ``m`` cannot be applied, or '' if it can."""
    path = ROOT / m.file
    if not path.is_file():
        return f"{m.file} does not exist"
    count = path.read_text().count(m.old)
    return "" if count == 1 else f"its old text occurs {count} times in {m.file}"


def main() -> int:
    stale = [(m.name, why) for m in MUTANTS if (why := _stale(m))]
    for name, why in stale:
        print(f"STALE     {name}: {why}")
    if stale:
        return 1
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        start = time.perf_counter()
        code, output = _pytest(base, tests)
        if code != 0:
            print(output, file=sys.stderr)
            print(f"error: the tests fail on the unchanged copy (pytest exit {code})",
                  file=sys.stderr)
            return 1
        print(f"baseline  {len(tests)} test ids pass on the unchanged copy "
              f"({time.perf_counter() - start:.1f} s)")
        killed = 0
        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            code, output = _pytest(tree, m.tests)
            verdict = {0: "SURVIVED", 1: "killed", -1: "killed"}.get(code, "ERROR")
            note = ""
            if verdict == "ERROR":  # the tests did not run
                print(output, file=sys.stderr)
                note = f", pytest exit {code}"
            killed += verdict == "killed"
            print(f"{verdict:9s} {m.name} ({time.perf_counter() - start:.1f} s{note}): "
                  f"{m.breaks}")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
