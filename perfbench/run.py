"""selfnorm-lab benchmark: one workload per run, metrics as JSON on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_large_n --seed 20260808 --seconds 25 --trace 0

The package is imported from ``src/`` of the current directory; without it
the run fails with exit code 2 and prints no result.  ``--trace 0`` reports
the end-to-end metrics named in ``BENCHMARK.json`` from a timed pass of
``--seconds``, with times scaled to reference machine speed (see
``calibrate.py``); ``--trace 1`` instead runs the first iteration untraced
and then traced on the same inputs (see ``tracing.py``), reports the
per-layer metrics and prints them as a table before the JSON line.
Lines before the JSON line start with ``#``.  Artifacts and the span file go
to ``.perfbench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibrate import SHARE, Reference  # noqa: E402
from checks import Checks  # noqa: E402
from tracing import ENGINES, SpanIndex, Tracer, self_test, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20260808
WARM_SETUPS = 7
MODULES = ("distributions", "levy_calculus", "montecarlo", "limit_laws",
           "class_diagnostics", "scenarios", "cli")
DRAW_KINDS = ("uniform01", "bernoulli", "standard_gaussian", "symmetric_pareto",
              "pareto", "slowly_varying", "exponential")
CDF_KINDS = ("uniform01", "symmetric_pareto", "bernoulli")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fresh_import(src: Path):
    """Import the package from scratch (dependencies stay loaded)."""
    for name in [m for m in sys.modules if m.startswith("selfnorm_lab")]:
        del sys.modules[name]
    lab = types.SimpleNamespace(**{m: importlib.import_module(f"selfnorm_lab.{m}")
                                   for m in MODULES})
    origin = Path(lab.distributions.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"selfnorm_lab imported from {origin}, not from {src}")
    return lab


def iteration_seeds(seed: int):
    """Endless per-iteration SeedSequences; the same seed gives the same list."""
    parent = np.random.SeedSequence(seed).spawn(2)[1]
    while True:
        yield parent.spawn(1)[0]


class Pass:
    """Iteration times and work units of one pass over the workload.

    ``wall`` and ``rate`` are means over the pass, not medians: on a shared
    machine whose speed flips between two levels every few seconds, a
    run's median iteration jumps between the levels while the mean averages
    them.  ``ref`` holds the reference loop's unit times measured between
    the iterations (see ``calibrate.py``).
    """

    def __init__(self):
        self.times, self.work = [], []
        self.ref = Reference()

    @property
    def wall(self):
        return statistics.fmean(self.times)

    @property
    def rate(self):
        return sum(self.work) / sum(self.times)


def timed_pass(wl, lab, state, seed, threads, seconds, checks, out, max_iter=None,
               reference=False):
    """Iterate until ``seconds`` have passed, finishing the iteration under
    way, so a run measures at least ``seconds`` and at least one iteration.
    With ``reference``, the reference loop runs after each iteration for
    ``SHARE`` of its time, inside the ``seconds``."""
    p = Pass()
    start = time.perf_counter()
    for ss in iteration_seeds(seed):
        t0 = time.perf_counter()
        try:
            work = wl.iteration(lab, state, ss, threads, checks, out)
        except Exception as exc:  # a crashing iteration is a failed check
            checks.error(f"{wl.name}.iteration", exc)
            work = 0.0
        p.times.append(time.perf_counter() - t0)
        p.work.append(work)
        if reference:
            p.ref.run(SHARE * p.times[-1])
        if max_iter is not None and len(p.times) >= max_iter:
            break
        if time.perf_counter() - start >= seconds:
            break
    return p


def timed_setup(wl, src: Path):
    """One set-up: fresh import, law and limit construction, warm-up."""
    gc.collect()
    t0 = time.perf_counter()
    lab = fresh_import(src)
    state = wl.setup(lab)
    return time.perf_counter() - t0, lab, state


def layer_metrics(idx, wall_total, n_iter):
    """Per-module metrics from a span index; values are (value, unit).

    Every metric is reported on every workload, 0 where the workload makes
    no call it would be taken from.  Times suffixed ``_s`` are per
    iteration.  ``busy_frac`` is a module's busy time (summed across
    threads) over the traced wall time.
    """
    m = {}
    per_it = 1.0 / n_iter
    ratio = lambda a, b: a / b if b else 0.0
    sp = idx.spans
    self_per = lambda spans, per: ratio(sum(idx.self_time[s.id] for s in spans), per)
    mean_dur = lambda spans: ratio(sum(s.end - s.start for s in spans), len(spans))

    streams = [s for s in sp if s.name == "distributions.stream"]
    reps = [s for s in sp if s.name == "montecarlo.rep"]
    m["distributions.stream_us"] = (mean_dur(streams) * 1e6, "us")
    m["distributions.streams_per_rep"] = (
        ratio(sum(1 for s in streams if idx.has_ancestor(s, "montecarlo.rep")), len(reps)), "count")
    draws = [s for s in sp if s.name.startswith("distributions.draw.")]
    m["distributions.draw_ns"] = (self_per(draws, sum(s.count for s in draws)) * 1e9, "ns")
    for kind in DRAW_KINDS:
        ks = [s for s in draws if s.name == f"distributions.draw.{kind}"]
        m[f"distributions.draw_ns.{kind}"] = (self_per(ks, sum(s.count for s in ks)) * 1e9, "ns")
    quads = [s for s in sp if s.name == "distributions.quad"]
    m["distributions.quad_calls"] = (len(quads) * per_it, "count")
    quad_self = self_per(quads, 1.0)
    m["distributions.quad_self_s"] = (quad_self * per_it, "s")
    m["distributions.quad_frac"] = (ratio(quad_self, wall_total), "frac")
    m["distributions.quad_abserr_max"] = (max((s.extra for s in quads), default=0.0), "abs")
    vecs = [s for s in sp if s.name == "distributions.vec_eval"]
    m["distributions.vec_eval_fallback_frac"] = (ratio(sum(1 for s in vecs if s.extra), len(vecs)), "frac")

    engines = [s for s in sp if s.name in {f"montecarlo.{e}" for e in ENGINES}]
    for e in ENGINES:
        m[f"montecarlo.{e}_s"] = (idx.duration(f"montecarlo.{e}") * per_it, "s")
    m["montecarlo.rep_us"] = (mean_dur(reps) * 1e6, "us")
    m["distributions.stream_share"] = (ratio(
        sum(s.end - s.start for s in streams if idx.has_ancestor(s, "montecarlo.rep")),
        sum(s.end - s.start for s in engines)), "frac")
    m["montecarlo.self_frac"] = (ratio(idx.busy("montecarlo"), idx.subtree_self(engines)), "frac")
    m["montecarlo.jumps_per_rep"] = (ratio(idx.count("levy_calculus.tail_inverse"),
                                           idx.count("montecarlo.simulate_limit_pair")), "count")

    inv = [s for s in sp if s.name == "levy_calculus.tail_inverse"]
    m["levy_calculus.tail_inverse_ns_per_jump"] = (self_per(inv, sum(s.count for s in inv)) * 1e9, "ns")
    m["levy_calculus.trunc_first_s"] = (idx.duration("levy_calculus.truncated_first_moments") * per_it, "s")
    m["levy_calculus.smallh_scan_s"] = (idx.duration("levy_calculus.second_moment_smallh_scan") * per_it, "s")
    name = "levy_calculus.prelimit_truncated_first_moments"
    m["levy_calculus.prelimit_moments_ns_per_draw"] = (ratio(idx.duration(name), idx.count(name)) * 1e9, "ns")
    m["levy_calculus.prelimit_fallback_frac"] = (ratio(
        sum(s.end - s.start for s in vecs if s.extra and idx.has_ancestor(s, name)),
        idx.duration(name)), "frac")

    cdfs = [s for s in sp if s.name == "limit_laws.breiman_cdf"]
    for kind in CDF_KINDS:
        m[f"limit_laws.cdf_us_per_point.{kind}"] = (mean_dur([s for s in cdfs if s.extra == kind]) * 1e6, "us")
    m["limit_laws.quad_calls_per_point"] = (
        ratio(sum(1 for s in quads if idx.has_ancestor(s, "limit_laws.breiman_cdf")), len(cdfs)), "count")
    m["limit_laws.tail_us_per_point"] = (mean_dur([s for s in sp if s.name == "limit_laws.breiman_tail"]) * 1e6, "us")
    for name, key in (("ks_distance", "ks_ns_per_point"), ("atom_scan", "atom_scan_ns_per_point")):
        full = f"class_diagnostics.{name}"
        m[f"class_diagnostics.{key}"] = (ratio(idx.duration(full), idx.count(full)) * 1e9, "ns")
    m["scenarios.self_s"] = (idx.busy("scenarios") * per_it, "s")
    m["cli.self_s"] = (idx.busy("cli") * per_it, "s")
    for mod in MODULES:
        m[f"{mod}.busy_frac"] = (ratio(idx.busy(mod), wall_total), "frac")
    top = idx.top_level()
    m["trace.gap_frac"] = (1.0 - ratio(union_length((s.start, s.end) for s in top), wall_total), "frac")
    return m


def engine_time(spans):
    names = {f"montecarlo.{e}" for e in ENGINES}
    return sum(s.end - s.start for s in spans if s.name in names)


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,op,tid,name,start,end,count\n")
        t0 = min((s.start for s in spans), default=0.0)
        for s in spans:
            fh.write(f"{s.id},{s.parent},{s.op},{s.tid},{s.name},"
                     f"{s.start - t0:.9f},{s.end - t0:.9f},{s.count}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    root = Path.cwd()
    src = root / "src"
    if not (src / "selfnorm_lab" / "__init__.py").is_file():
        print(f"error: no selfnorm_lab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)

    cores = nproc()
    wl = WORKLOADS[args.workload](cores)
    checks = Checks()

    # the first set-up also imports scipy's submodules; it is printed as
    # cold_setup_s and left out of setup_s, the median of the warm set-ups
    # that follow it, each followed by as long a run of the reference loop;
    # the run goes on with the last set-up's modules
    cold_setup, lab, state = timed_setup(wl, src)
    setup_times, setup_ref = [], Reference()
    for _ in range(WARM_SETUPS):
        dt, lab, state = timed_setup(wl, src)
        setup_times.append(dt)
        setup_ref.run(dt)

    guard_ss = np.random.SeedSequence(args.seed).spawn(2)[0]
    try:
        wl.guard(lab, state, guard_ss, checks)
    except Exception as exc:
        checks.error("guard", exc)

    threads = wl.threads
    unit_name = "points_per_s" if wl.name == "limit_quad" else "pairs_per_s"
    print(f"# perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"threads={threads} nproc={cores} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"machine={platform.machine()} platform={platform.platform()}")
    gc.collect()

    if args.trace == 0:
        main_pass = timed_pass(wl, lab, state, args.seed, threads, args.seconds, checks, out,
                               reference=True)
        # times at reference speed: scaled by the reference loop measured
        # alongside them
        scale, setup_scale = main_pass.ref.scale, setup_ref.scale
        wall, work_rate = main_pass.wall * scale, main_pass.rate / scale
        raw_setup = statistics.median(setup_times)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (raw_setup * setup_scale, "s"),
            "work_per_s": (work_rate, "1/s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
        print(f"# iterations={len(main_pass.times)} wall_s per iteration: "
              + " ".join(f"{t:.4f}" for t in main_pass.times)
              + f"; cold_setup_s={cold_setup:.4f}; warm setups: "
              + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"# as measured: wall_s={main_pass.wall:.6g} s setup_s={raw_setup:.6g} s "
              f"{unit_name}={main_pass.rate:.6g} 1/s; reference unit "
              f"{main_pass.ref.unit_s * 1e3:.4g} ms over {len(main_pass.ref.times)} units "
              f"(scale {scale:.4g}), {setup_ref.unit_s * 1e3:.4g} ms over "
              f"{len(setup_ref.times)} units at set-up (scale {setup_scale:.4g})")
        print(f"# {wl.name} at reference speed: wall_s={wall:.6g} s setup_s={metrics['setup_s'][0]:.6g} s "
              f"{unit_name}={work_rate:.6g} 1/s peak_rss_mib={peak_rss:.6g} MiB "
              f"check_fail_frac={checks.failed / max(1, checks.attempted):.6g} "
              f"({checks.failed}/{checks.attempted})")
    else:
        for name, ok in self_test():
            checks.true(name, ok)
        # the first iteration untraced (a warm-up run, then the timed one),
        # then the same inputs traced right after it; one traced iteration
        # only: a reproduce_s1 iteration records ~330k spans
        for _ in range(2):
            untraced = timed_pass(wl, lab, state, args.seed, threads, 0.0, checks, out,
                                  max_iter=1)
        tracer = Tracer()
        tracer.instrument(lab)
        traced_state = tracer.trace_state(state, lab)
        traced = timed_pass(wl, lab, traced_state, args.seed, threads, 0.0, checks, out,
                            max_iter=1)
        idx = SpanIndex(tracer.spans)
        tracer.spans.clear()
        speedup = 0.0
        if wl.pooled:
            # engine time of the traced iteration against a rerun of the
            # same inputs at the other thread count
            t_here = engine_time(idx.spans)
            other = 1 if threads > 1 else cores
            timed_pass(wl, lab, traced_state, args.seed, other, 0.0, checks, out, max_iter=1)
            t_other = engine_time(SpanIndex(tracer.spans).spans)
            tracer.spans.clear()
            t_one, t_many = (t_other, t_here) if threads > 1 else (t_here, t_other)
            speedup = t_one / t_many if t_many else 0.0
        metrics = layer_metrics(idx, traced.times[0], 1)
        metrics["montecarlo.pool_speedup"] = (speedup, "x")
        metrics["trace_overhead_frac"] = (
            (traced.times[0] - untraced.times[0]) / untraced.times[0], "frac")
        metrics["scenarios.artifact_bytes"] = (float(getattr(wl, "artifact_bytes", 0)), "B")
        write_spans(out / f"spans_{wl.name}.csv", idx.spans)
        print(f"# traced wall_s={traced.times[0]:.6g} s untraced wall_s={untraced.times[0]:.6g} s "
              f"(one iteration each, same inputs); module times are busy time summed "
              f"across threads ({threads} thread(s)); '_s' metrics are per iteration; "
              f"trace.gap_frac is traced wall not under a top-level module span "
              f"(the benchmark's own check arithmetic)")
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"# layer {name} = {value:.6g} {unit}")
        print(f"# check_fail_frac={checks.failed / max(1, checks.attempted):.6g} "
              f"({checks.failed}/{checks.attempted})")

    for name, value, bound, _ in checks.failures():
        print(f"# FAILED {name}: value={value} bound={bound}")

    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
