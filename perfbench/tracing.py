"""In-memory spans recorded around calls into selfnorm_lab's modules.

The package itself is not edited: ``Tracer.instrument`` rebinds module
attributes (public functions, ``SeedStream.generator``, the scipy ``quad``
used by ``distributions``) and ``Tracer.trace_law`` rebuilds law records with
traced callables.  Every span carries a name, start, end, parent span,
operation id (the id of its top-level span) and thread id.  Worker-thread
spans opened while the caller thread is inside a span take that span as
parent, so pooled replications hang under the engine call that spawned them.

Self time of a span is its duration minus the measure of the union of its
children's intervals.  A module's busy time is the sum of the self times of
its spans, summed across threads, so on threaded workloads it can exceed the
wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

ENGINES = ("simulate_tn", "simulate_normed_pair", "max_share_stats", "simulate_limit_pair")


class Span:
    """One closed span, built from a recorded tuple for analysis."""

    __slots__ = ("id", "name", "parent", "op", "tid", "start", "end", "count", "extra")

    def __init__(self, sid, name, parent, op, tid, start, end, count=1, extra=None):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.tid = tid
        self.start = start
        self.end = end
        self.count = count
        self.extra = extra

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def union_length(intervals) -> float:
    """Measure of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span recorder for the calls made through ``wrap``.

    Closed spans are appended to ``spans`` as flat tuples
    ``(id, name, parent, op, tid, start, end, count, extra)``; tuples of
    atoms drop out of the cyclic garbage collector's scans, which keeps
    hundreds of thousands of recorded spans from slowing the traced code.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_tid = threading.get_ident()
        self._root_stack = []

    def wrap(self, name, fn, count=None, extra=None):
        """Return fn wrapped in a span named ``name``.

        ``count(args, kwargs, result)`` gives the work count recorded on the
        span; ``extra(args, kwargs, result)`` an optional annotation.
        """
        clock, ident, root_tid = time.perf_counter, threading.get_ident, self._root_tid
        ids, spans, root_stack, local = self._ids, self.spans, self._root_stack, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = ident()
            if tid == root_tid:
                stack = root_stack
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else (0, 0))
            sid = next(ids)
            op = parent[1] or sid
            stack.append((sid, op))
            n, note = 1, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                if extra is not None:
                    note = extra(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent[0], op, tid, start, end, n, note))

        return traced

    # -- rebinding ---------------------------------------------------------

    def _rebind(self, owner, attr, name, count=None, extra=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, fn, count=count, extra=extra))

    def trace_law(self, law):
        """Copy of a weight or multiplier law whose samplers are traced as
        ``distributions.draw.<kind>`` with the draw count as span count."""
        kind = law.label.split("(", 1)[0]
        draws = lambda a, k, r: int(a[1])
        changes = {"sampler": self.wrap(f"distributions.draw.{kind}", law.sampler, draws)}
        if getattr(law, "log_sampler", None) is not None:
            changes["log_sampler"] = self.wrap(f"distributions.draw.{kind}",
                                               law.log_sampler, draws)
        return dataclasses.replace(law, **changes)

    def trace_levy(self, levy):
        if levy.tail_inverse is None:
            return levy
        return dataclasses.replace(levy, tail_inverse=self.wrap(
            "levy_calculus.tail_inverse", levy.tail_inverse,
            lambda a, k, r: int(getattr(a[0], "size", 1))))

    def trace_value(self, value, lab):
        """Traced copy of a law, jump measure or view; other values pass."""
        d, lc = lab.distributions, lab.levy_calculus
        if isinstance(value, (d.WeightLaw, d.MultiplierLaw)):
            return self.trace_law(value)
        if isinstance(value, lc.LevyTail):
            return self.trace_levy(value)
        if isinstance(value, lc.BivariateLevyView):
            return dataclasses.replace(value, weight=self.trace_law(value.weight),
                                       levy=self.trace_levy(value.levy))
        return value

    def trace_state(self, state: dict, lab) -> dict:
        """Workload state with every law, jump measure and view traced;
        tuple values are traced element by element."""
        return {k: tuple(self.trace_value(v, lab) for v in val) if isinstance(val, tuple)
                else self.trace_value(val, lab) for k, val in state.items()}

    def instrument(self, lab):
        """Rebind the module attributes of ``lab`` (a namespace holding the
        imported selfnorm_lab modules) so calls through them are traced."""
        d, mc, lc = lab.distributions, lab.montecarlo, lab.levy_calculus
        ll, cd, sc, cli = lab.limit_laws, lab.class_diagnostics, lab.scenarios, lab.cli
        tracer = self

        # distributions: stream derivation, quadrature, vectorized evaluation
        self._rebind(d.SeedStream, "generator", "distributions.stream")
        self._rebind(d, "quad", "distributions.quad",
                     extra=lambda a, k, r: float(r[1]))
        orig_vec_eval = d.vec_eval

        fallback = threading.local()

        def vec_eval(fn, arr):
            calls = [0]

            def counted(t):
                calls[0] += 1
                return fn(t)

            out = orig_vec_eval(counted, arr)
            fallback.ran = calls[0] > 1  # more than the one vectorized call
            return out

        traced_vec_eval = self.wrap("distributions.vec_eval", vec_eval,
                                    extra=lambda a, k, r: fallback.ran)
        for mod in (d, lc, ll, cd):
            mod.vec_eval = traced_vec_eval

        # montecarlo: engines and one span per replication
        for fn in ENGINES:
            self._rebind(mc, fn, f"montecarlo.{fn}",
                         count=_argument(getattr(mc, fn), "cfg", lambda cfg: cfg.reps))
        orig_run = mc._run_replications

        def run_replications(fn, reps, width, threads):
            return orig_run(tracer.wrap("montecarlo.rep", fn), reps, width, threads)

        mc._run_replications = run_replications

        # levy_calculus: moment quadratures, prelimit Monte Carlo, jump laws
        self._rebind(lc, "truncated_first_moments", "levy_calculus.truncated_first_moments")
        self._rebind(lc, "truncated_second_moments", "levy_calculus.truncated_second_moments")
        self._rebind(lc, "second_moment_smallh_scan", "levy_calculus.second_moment_smallh_scan")
        self._rebind(lc, "prelimit_truncated_first_moments",
                     "levy_calculus.prelimit_truncated_first_moments",
                     count=_argument(lc.prelimit_truncated_first_moments, "draws", int))
        orig_stable = lc.stable_levy_tail
        lc.stable_levy_tail = lambda beta: tracer.trace_levy(orig_stable(beta))

        # limit_laws: per-point CDF and tail evaluations
        self._rebind(ll, "tabulated_cdf", "limit_laws.tabulated_cdf")
        self._rebind(ll, "breiman_cdf_grid", "limit_laws.breiman_cdf_grid",
                     count=lambda a, k, r: len(r))
        self._rebind(ll, "breiman_cdf", "limit_laws.breiman_cdf",
                     extra=lambda a, k, r: a[0].weight.label.split("(", 1)[0])
        self._rebind(ll, "breiman_tail", "limit_laws.breiman_tail")
        self._rebind(ll, "quantile_grid", "limit_laws.quantile_grid")

        # class_diagnostics: scans over a sample
        n_values = lambda a, k, r: len(a[0].values)
        self._rebind(cd, "ks_distance", "class_diagnostics.ks_distance", count=n_values)
        self._rebind(cd, "atom_scan", "class_diagnostics.atom_scan", count=n_values)

        # scenarios and cli: suites, artifact writers, the command front end
        for fn in ("make_weight_law", "make_pareto_multiplier",
                   "make_slowly_varying_multiplier", "make_finite_mean_multiplier"):
            orig = getattr(sc, fn)
            setattr(sc, fn, functools.partial(
                lambda orig, *a, **k: tracer.trace_law(orig(*a, **k)), orig))
        self._rebind(sc, "run_suite", "scenarios.run_suite")
        for key, fn in list(sc._SUITE_FNS.items()):
            sc._SUITE_FNS[key] = self.wrap(f"scenarios.suite_{key.lower()}", fn)
        self._rebind(sc, "_write_sample_csv", "scenarios.write_csv")
        self._rebind(cli, "main", "cli.main")
        self._rebind(cli, "run_reproduce", "cli.run_reproduce")
        self._rebind(cli, "_write_json", "cli.write_json")

def _argument(fn, name, get):
    """Span count taken from argument ``name`` of fn, defaults included."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return get(bound.arguments[name])

    return count


class SpanIndex:
    """Children lists, self times and module roll-ups over a span set."""

    def __init__(self, records):
        self.spans = [Span(*r) for r in records]
        self.by_id = {s.id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent:
                self.children[s.parent].append(s)
        self.self_time = {}
        for s in self.spans:
            kids = self.children.get(s.id, ())
            covered = union_length((max(c.start, s.start), min(c.end, s.end))
                                   for c in kids if c.end > s.start and c.start < s.end)
            self.self_time[s.id] = (s.end - s.start) - covered

    def busy(self, module):
        return sum(self.self_time[s.id] for s in self.spans if s.module == module)

    def duration(self, name):
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name):
        return sum(s.count for s in self.spans if s.name == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def has_ancestor(self, span, name):
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name == name:
                return True
            p = self.by_id.get(p.parent)
        return False

    def subtree_self(self, roots):
        """Sum of self times over the given spans and all their descendants."""
        total, todo = 0.0, list(roots)
        while todo:
            s = todo.pop()
            total += self.self_time[s.id]
            todo.extend(self.children.get(s.id, ()))
        return total

    def top_level(self):
        return [s for s in self.spans if not s.parent]


def self_test() -> list:
    """Check the self-time arithmetic on hand-built and on live tiny spans.

    Returns a list of (name, passed) pairs.
    """
    results = []
    mk = lambda sid, parent, lo, hi, tid=0: (sid, "t.fixed", parent, 1, tid, lo, hi)
    # parent [0, 10]; children [1, 3], [2, 5] (overlapping, another thread)
    # and [7, 8]; a grandchild [7.2, 7.5] must not count against the parent
    spans = [mk(1, 0, 0.0, 10.0), mk(2, 1, 1.0, 3.0), mk(3, 1, 2.0, 5.0, 1),
             mk(4, 1, 7.0, 8.0), mk(5, 4, 7.2, 7.5)]
    idx = SpanIndex(spans)
    expect = {1: 5.0, 2: 2.0, 3: 3.0, 4: 0.7, 5: 0.3}
    results.append(("selftest.fixed_self_times",
                    all(abs(idx.self_time[k] - v) < 1e-12 for k, v in expect.items())))
    results.append(("selftest.union_length",
                    abs(union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) - 3.0) < 1e-12))

    # live: nested single-thread spans; self times must add up to the
    # root's duration exactly (up to rounding)
    tr = Tracer()
    leaf = tr.wrap("t.leaf", lambda: sum(range(200)))
    mid = tr.wrap("t.mid", lambda: [leaf() for _ in range(3)])
    root = tr.wrap("t.root", lambda: [mid() for _ in range(4)])
    root()
    idx = SpanIndex(tr.spans)
    (top,) = idx.top_level()
    total_self = sum(idx.self_time.values())
    results.append(("selftest.live_self_sum",
                    abs(total_self - (top.end - top.start)) < 1e-9
                    and len(idx.spans) == 1 + 4 + 12
                    and all(v >= -1e-12 for v in idx.self_time.values())
                    and all(s.op == top.id for s in idx.spans)))

    # live: spans opened in worker threads attach to the caller's open span
    tr = Tracer()
    barrier = threading.Barrier(2)  # both workers alive at once: distinct ids
    work = tr.wrap("t.work", lambda: barrier.wait(timeout=10.0))

    def fan_out():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        return not any(t.is_alive() for t in threads)

    finished = tr.wrap("t.fan", fan_out)()
    idx = SpanIndex(tr.spans)
    (top,) = idx.top_level()
    kids = idx.children.get(top.id, [])
    results.append(("selftest.thread_parenting",
                    finished and len(kids) == 2 and all(k.op == top.id for k in kids)
                    and len({k.tid for k in kids} | {top.tid}) == 3))
    return results
