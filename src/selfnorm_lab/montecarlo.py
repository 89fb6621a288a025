"""Monte Carlo engines for the finite-n objects and the limit pair.

Simulates the self-normalized ratio, the normed pair of partial sums, and the
limit pair through a compound-Poisson cut of its jump representation.  Every
engine is a pure function of its :class:`SimConfig`, and raises
ParameterError when its output holds a non-finite value.

Stream layout (``STREAM_LAYOUT``, recorded in every sample's metadata):
replications are drawn in blocks of ``rows`` consecutive replications, with
``rows`` fixed by the input alone.  Block b covers replications
``[b * rows, min((b + 1) * rows, reps))``, derives one multiplier generator
from ``seed.child(b).child(0)`` and one weight generator from
``seed.child(b).child(1)``, and draws its rows in order from these two.  An
engine call derives the seed words of all its blocks in one pass
(``SeedStream.block_seeds``, bit-identical to the streams' own generators)
and builds no ``SeedStream`` per block.  For
the finite-n engines ``rows = max(16, BLOCK_ELEMS // n)``.  The limit pair
draws ``max(1, BLOCK_ELEMS // ceil(poisson_mean))`` rows per block as one
array.  Blocks are stacked in block order, so output is bit-identical for any
thread count.  Layout 3 draws symmetric_pareto's sign and magnitude from one
uniform.

The engines hand out work in tasks: runs of consecutive whole blocks, the
unit of work on the worker pool (and of perfbench's ``montecarlo.rep``
span).  ``_run_blocks`` sizes them once per call: a task holds as many
blocks as fit in ``SUB_ELEMS`` values, or more for about eight tasks per
thread, but never so many that there are fewer tasks than threads.  Tasks
group blocks without changing what any block draws, so they are not part
of the layout.

Engines on more than one thread share one worker pool per thread count,
created on first use and kept for the life of the process (importing the
module starts no thread; a forked child starts without the parent's pools).
Several caller threads may run engines at once.

The finite-n engines fill a task in one pass over its blocks: sub-chunks of
up to ``max(1, SUB_ELEMS // n)`` rows in replication order, across block
boundaries, each reduced once it is full (the last one at the end of the
task).  Each piece of a sub-chunk that lies in one block takes one sampler
call per generator, drawn into its slice of the buffers.
Every built-in sampler fills its output in order, so the sub-chunk size
bounds memory only and is not part of the layout.  Each worker thread draws
into one pair of buffers of at most ``max(SUB_ELEMS, n)`` values that it
reuses for the whole engine call (it grows them once if a short last task
was its first), so no sub-chunk allocates fresh draw arrays.  A sampler call
still covers at most one block, about 2**14 values at small n; the rescale
and the reduction cover the whole sub-chunk, about 2**16 values.  The limit
pair draws one block at a time inside its task: its per-jump temporaries
grow with the rows drawn at once, and past about 200 KB glibc hands them
back as fresh pages, so grouping its blocks made a call slower.

Each sub-chunk is reduced per row.  ``sum X Y`` is taken as
``np.multiply(xs, ys, out=xs).sum(axis=1)``, which adds the products in the
same order as ``ys.sum(axis=1)`` adds the multipliers.  Keep the two sums in
the same order: T_n is a convex combination of the weights and then stays in
``[min X, max X]`` exactly (a dot product next to a pairwise sum can land
one ulp outside).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    MultiplierLaw,
    ParameterError,
    SeedStream,
    WeightLaw,
    as_int,
    finite_norming,
    seeded_generator,
)
from .levy_calculus import BivariateLevyView

_Y_SUB = 0   # substream for multiplier draws (and Poisson counts) within a block
_X_SUB = 1   # substream for weight draws

# Values per block, which fixes the stream layout (module docstring).
BLOCK_ELEMS = 2**14
# Rows per finite-n block at any n, so that large-n blocks share the cost
# of deriving their two generators.
MIN_BLOCK_ROWS = 16
# Values per finite-n sub-chunk and draw buffer, and about the fewest a task
# holds where its blocks allow: numpy calls over 2**16 doubles (512 KiB) are
# long enough for two threads to overlap, where calls over one 2**14-value
# block mostly serialise on the GIL; above it one thread gets slower.
SUB_ELEMS = 2**16
# Version of the stream layout described in the module docstring; it changes
# whenever the same (seed, config) starts to produce different draws.
STREAM_LAYOUT = 3
# Most worker threads an engine call may use: a pool keeps its threads for
# the life of the process, one pool per thread count.
MAX_THREADS = 256


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: sample size n, number of replications, master
    stream, small-jump cutoff (required by :func:`simulate_limit_pair`,
    unused by the finite-n engines) and thread count (at most MAX_THREADS;
    must not affect results)."""

    n: int
    reps: int
    seed: SeedStream
    cutoff: Optional[float] = None
    threads: int = 1

    def __post_init__(self) -> None:
        for name, most in (("n", None), ("reps", None), ("threads", MAX_THREADS)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 1, most))
        if self.cutoff is not None and not 0.0 < self.cutoff < 1.0:
            raise ParameterError("cutoff must lie in (0, 1)")


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted, finite and non-empty replication values with provenance metadata."""

    values: np.ndarray
    n_meta: int
    law_meta: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, dtype=float)))
        # sorting puts -inf first and inf and NaN last
        if not (self.values.size and np.isfinite(self.values[[0, -1]]).all()):
            raise ParameterError("an empirical sample must be non-empty and finite")


@dataclass(frozen=True)
class PairSample:
    """Aligned draws of the scaled pair (weighted sum, plain sum)."""

    w1: np.ndarray
    w2: np.ndarray
    meta: dict

    def ratio(self) -> np.ndarray:
        """Elementwise w1/w2 with the 0/0 := 0 convention."""
        return _ratios(self.w2, self.w1)[0]


def _run_replications(fn: Callable[[int], Sequence[np.ndarray]], tasks: int, width: int,
                      threads: int) -> np.ndarray:
    """Evaluate fn(t) for t in range(tasks) into a (width, reps) array.

    fn(t) returns ``width`` statistics, each an array with one value per
    replication of task t; tasks are joined in task order and depend only
    on their index, so scheduling cannot change the result.  With more than
    one thread they run on the process's persistent pool (:func:`_pool`);
    fn never calls an engine on more than one thread, so no task submits to it.
    """
    if threads <= 1:
        parts = [fn(t) for t in range(tasks)]
    else:
        parts = list(_pool(threads).map(fn, range(tasks)))
    return np.concatenate([np.reshape(p, (width, -1)) for p in parts], axis=1)


# thread count -> executor; a forked child has none of the parent's worker
# threads, so it starts with an empty cache
_POOLS: dict = {}
os.register_at_fork(after_in_child=_POOLS.clear)


def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's executor with ``threads`` workers.  Callers in several
    threads may share it; a task must never submit to it (a worker waiting
    on a task queued behind it would deadlock the pool)."""
    pool = _POOLS.get(threads)
    if pool is None:
        # setdefault is atomic: a racing caller's spare executor, which has
        # started no thread yet, is dropped
        pool = _POOLS.setdefault(threads, ThreadPoolExecutor(max_workers=threads))
    return pool


def _run_blocks(cfg: SimConfig, values_per_rep: int, min_rows: int, width: int,
                body: Callable[..., Sequence[np.ndarray]], what: str) -> np.ndarray:
    """``body(task)`` for every task of the stream layout's blocks (module
    docstring), as a (width, reps) array in replication order.

    ``task`` lists the task's blocks in order as ``(y_gen, x_gen, rows_b)``:
    the block's multiplier and weight generators and its row count,
    ``max(min_rows, BLOCK_ELEMS // values_per_rep)``, fewer in the last block.
    A task holds as many blocks as fit in ``SUB_ELEMS`` values, or enough
    for about eight tasks per thread if that is more, but at most
    ``blocks // threads`` (and at least one), so that no thread is left idle.
    A non-finite value in the output (a draw that overflows a double) raises
    ParameterError naming ``what``: the laws and the size drawn.  The tasks
    execute with numpy's floating-point warnings off, so that this error is
    the one report of an overflow.
    """
    values_per_rep = max(1, values_per_rep)
    rows = max(min_rows, BLOCK_ELEMS // values_per_rep)
    blocks = -(-cfg.reps // rows)
    per_task = max(SUB_ELEMS // (rows * values_per_rep), -(-blocks // (cfg.threads * 8)))
    per_task = max(1, min(per_task, blocks // cfg.threads))
    seeds = cfg.seed.block_seeds(blocks)

    def task(t: int) -> Sequence[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return body([(seeded_generator(seeds[b, _Y_SUB]), seeded_generator(seeds[b, _X_SUB]),
                          min(rows, cfg.reps - b * rows))
                         for b in range(t * per_task, min((t + 1) * per_task, blocks))])

    out = _run_replications(task, -(-blocks // per_task), width, cfg.threads)
    if not np.isfinite(out).all():
        raise ParameterError(f"draws of {what} hold non-finite values")
    return out


def _law_meta(x: WeightLaw, y: Optional[MultiplierLaw], cfg: SimConfig) -> dict:
    meta = {"n": cfg.n, "reps": cfg.reps, "stream_layout": STREAM_LAYOUT,
            "seed": cfg.seed.record(), "x_law": x.label}
    if y is not None:
        meta["y_law"] = y.label
    return meta


# ---------------------------------------------------------------------------
# Finite-n engines
# ---------------------------------------------------------------------------


def _draw(sampler: Callable[..., np.ndarray], gen: np.random.Generator,
          out: np.ndarray) -> None:
    """Fill ``out`` with the next ``out.size`` draws of ``sampler`` from
    ``gen``, copying them in when the sampler ignores ``out=``."""
    got = sampler(gen, out.size, out=out)
    if got is not out:
        out[...] = got


def _finite_n(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
              reduce: Callable[..., Sequence[np.ndarray]], width: int,
              scale_free: bool) -> np.ndarray:
    """``reduce(xs, ys, m)`` over every sub-chunk of every task, as a
    (width, reps) array in replication order.

    ``xs`` and ``ys`` are the sub-chunk's weights and multipliers as
    ``(k, n)`` arrays in the calling thread's buffers, which ``reduce`` may
    overwrite, and ``m`` is the first argmax of each log-multiplier row when
    the multipliers come from the law's log sampler (else None).  Scale-free
    draws of a law with a log sampler are rescaled by the row maximum
    (exactly neutral for ratios of sums) and exponentiated in place, which
    keeps the weights representable even when raw draws overflow a double.
    """
    n = cfg.n
    chunk = max(1, SUB_ELEMS // n)  # rows per sub-chunk
    log = scale_free and y.log_sampler is not None
    y_sampler = y.log_sampler if log else y.sampler
    local = threading.local()  # one buffer pair per worker thread and call

    def task(blocks: list) -> np.ndarray:
        left = sum(rows_b for *_, rows_b in blocks)  # rows still to draw
        rows = min(chunk, left)  # rows per sub-chunk
        bufs = getattr(local, "bufs", None)
        if bufs is None or bufs[0].size < rows * n:
            bufs = local.bufs = (np.empty(rows * n), np.empty(rows * n))
        parts, k = [], 0  # k: rows drawn into the current sub-chunk
        for y_gen, x_gen, rows_b in blocks:
            while rows_b:
                take = min(rows_b, rows - k)
                seg = slice(k * n, (k + take) * n)
                _draw(y_sampler, y_gen, bufs[0][seg])
                _draw(x.sampler, x_gen, bufs[1][seg])
                k, rows_b, left = k + take, rows_b - take, left - take
                if k < rows and left:
                    continue  # the sub-chunk is neither full nor the task's last
                ys, xs = (buf[:k * n].reshape(k, n) for buf in bufs)
                m = None
                if log:
                    m = ys.argmax(axis=1)
                    ys -= ys[np.arange(k), m][:, None]
                    # exp underflows to exactly 0 below -746; skip those (most) entries
                    keep = ys > -746.0
                    np.exp(ys, out=ys, where=keep)
                    np.copyto(ys, 0.0, where=~keep)
                parts.append(reduce(xs, ys, m))
                k = 0
        return np.concatenate(parts, axis=1)

    return _run_blocks(cfg, n, MIN_BLOCK_ROWS, width, task,
                       f"{x.label} x {y.label} at n={n}")


def _ratios(den: np.ndarray, *nums: np.ndarray) -> list:
    """num / den for each numerator where den > 0, else 0 (0/0 := 0)."""
    pos = den > 0.0
    safe = np.where(pos, den, 1.0)
    return [np.where(pos, num / safe, 0.0) for num in nums]


def _sums(xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Row sums (sum X Y, sum Y) in the same order; overwrites xs."""
    sy = ys.sum(axis=1)
    return np.multiply(xs, ys, out=xs).sum(axis=1), sy


def simulate_tn(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig) -> EmpiricalSample:
    """Draws of the self-normalized ratio sum(X Y) / sum(Y), with 0/0 := 0."""
    def reduce(xs, ys, _):
        sxy, sy = _sums(xs, ys)
        return _ratios(sy, sxy)

    (vals,) = _finite_n(x, y, cfg, reduce, width=1, scale_free=True)
    return EmpiricalSample(vals, cfg.n, _law_meta(x, y, cfg))


def simulate_normed_pair(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig) -> PairSample:
    """Draws of (sum(X Y)/a_n, sum(Y)/a_n) under the law's norming."""
    a_n = finite_norming(y, cfg.n)

    def reduce(xs, ys, _):
        sxy, sy = _sums(xs, ys)
        return sxy / a_n, sy / a_n

    w1, w2 = _finite_n(x, y, cfg, reduce, width=2, scale_free=False)
    meta = _law_meta(x, y, cfg)
    meta["norming"] = a_n
    return PairSample(w1, w2, meta)


# ---------------------------------------------------------------------------
# Limit pair via compound-Poisson cut
# ---------------------------------------------------------------------------


def simulate_limit_pair(view: BivariateLevyView, cfg: SimConfig) -> PairSample:
    """Draws of the limit pair by summing jumps above a cutoff.

    Each replication draws a Poisson number of jump heights from the
    normalized tail beyond ``cfg.cutoff`` (through ``LevyTail.tail_inverse``)
    and multiplies each by an independent weight draw.  A block draws its
    rows' counts, then all their jumps and weights as flat arrays, and sums
    them per row; rows per block follow from the Poisson mean, and a task
    draws its blocks one after another.  Jumps below the
    cutoff are dropped without compensation, which is legitimate because the
    jump measure integrates s near zero; the discarded mass has mean total at
    most truncated_moment(1, cutoff) * (E|X|, 1), reported in the metadata.
    A config without a cutoff raises ParameterError.
    """
    eps = cfg.cutoff
    if eps is None:
        raise ParameterError("simulate_limit_pair needs SimConfig.cutoff")
    lam = view.levy.tail(eps)
    if not math.isfinite(lam) or lam > 1e7:
        raise ParameterError("cutoff too small: Poisson jump count overflows")
    inverse, x = view.levy.tail_inverse, view.weight
    from .distributions import vec_eval  # looked up per call: a rebinding applies

    def block(y_gen, x_gen, rows_b: int) -> tuple:
        counts = y_gen.poisson(lam, rows_b)
        jumps = vec_eval(inverse, (1.0 - y_gen.random(int(counts.sum()))) * lam)
        xs = x.sampler(x_gen, jumps.size)
        owner = np.repeat(np.arange(counts.size), counts)
        return np.bincount(owner, xs * jumps, counts.size), np.bincount(owner, jumps, counts.size)

    def task(blocks: list) -> np.ndarray:  # one block per draw: module docstring
        return np.concatenate([block(*b) for b in blocks], axis=1)

    w1, w2 = _run_blocks(cfg, math.ceil(lam), 1, 2, task,
                         f"{x.label} x {view.levy.label} at cutoff={eps!r}")
    bias_y = view.levy.truncated_moment(1, eps)
    abs_mean = x.abs_moment(1.0)
    meta = _law_meta(x, None, cfg)
    meta.update({
        "levy": view.levy.label,
        "cutoff": eps,
        "poisson_mean": lam,
        "bias_bound_w2": bias_y,
        "bias_bound_w1": bias_y * abs_mean if math.isfinite(abs_mean) else math.inf,
    })
    return PairSample(w1, w2, meta)


# ---------------------------------------------------------------------------
# Order-statistic functionals
# ---------------------------------------------------------------------------


@dataclass
class MaxShareStats:
    """Empirical statistics of the dominance of the largest multiplier.

    ``a_n_eps_prob[eps]`` estimates the probability that the largest Y
    carries more than a 1-eps share of the total; ``delta_sample`` holds the
    distances |T_n - X at the argmax| (ties broken toward the smallest
    index); ``r_n_sample`` holds sqrt(sum Y^2)/sum Y.
    """

    a_n_eps_prob: dict
    delta_sample: np.ndarray
    r_n_sample: np.ndarray


def max_share_stats(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
                    eps_list: Sequence[float]) -> MaxShareStats:
    eps_list = [float(e) for e in eps_list]
    if any(not 0.0 < e < 1.0 for e in eps_list):
        raise ParameterError("eps values must lie in (0, 1)")

    def reduce(xs, ys, m):
        if m is None:
            m = ys.argmax(axis=1)  # first max index
        at_max = np.arange(m.size), m
        y_max, x_max = ys[at_max], xs[at_max]
        sxy, sy = _sums(xs, ys)
        syy = np.multiply(ys, ys, out=ys).sum(axis=1)
        share, tn, rn = _ratios(sy, y_max, sxy, np.sqrt(syy))
        return share, np.abs(tn - x_max), rn

    shares, deltas, rns = _finite_n(x, y, cfg, reduce, width=3, scale_free=True)
    deltas, rns = np.sort(deltas), np.sort(rns)
    probs = {e: float((shares > 1.0 - e).mean()) for e in eps_list}
    return MaxShareStats(probs, deltas, rns)


@dataclass
class DivergenceProbe:
    """Median growth of |T_n| along a schedule of sample sizes."""

    medians: dict
    loglog_slope: float


def divergence_probe(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
                     n_list: Sequence[int]) -> DivergenceProbe:
    """Median |T_n| per n and the least-squares slope on log-log scale.

    A positive slope close to the gap of the two tail exponents flags the
    regime where the ratio escapes to infinity; bounded weights pin the
    slope at zero.  A median of 0 at some n raises ParameterError.
    """
    n_list = [as_int(n, "n_list entry", 1) for n in n_list]
    if len(n_list) < 2:
        raise ParameterError("n_list needs at least two sizes for a slope")
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ParameterError("n_list must be strictly increasing")
    medians = {}
    for j, n in enumerate(n_list):
        sub = SimConfig(n=n, reps=cfg.reps, seed=cfg.seed.child(j), threads=cfg.threads)
        sample = simulate_tn(x, y, sub)
        medians[n] = float(np.median(np.abs(sample.values)))
        if medians[n] == 0.0:
            raise ParameterError(f"median |T_n| is 0 at n={n}, so the log-log slope is undefined")
    slope = float(np.polyfit(np.log(n_list), np.log(list(medians.values())), 1)[0])
    return DivergenceProbe(medians, slope)
