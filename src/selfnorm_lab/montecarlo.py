"""Monte Carlo engines for the finite-n objects and the limit pair.

Simulates the self-normalized ratio, the normed pair of partial sums, and the
limit pair through a compound-Poisson cut of its jump representation.  Every
engine is a pure function of its :class:`SimConfig`.

Stream layout (``STREAM_LAYOUT``, recorded in every sample's metadata):
replications are drawn in blocks of ``rows`` consecutive replications, with
``rows`` fixed by the input alone.  Block b covers replications
``[b * rows, min((b + 1) * rows, reps))``, derives one multiplier generator
from ``seed.child(b).child(0)`` and one weight generator from
``seed.child(b).child(1)``, and draws its rows in order from these two.  For
the finite-n engines ``rows = max(16, BLOCK_ELEMS // n)``, drawn in
sub-chunks of ``max(1, BLOCK_ELEMS // n)`` rows: one ``(k, n)`` sampler call
per generator and sub-chunk, so no array holds more than
``max(BLOCK_ELEMS, n)`` values, and up to n = 1024 a block is a single
sub-chunk.  The limit pair draws ``max(1, BLOCK_ELEMS // ceil(poisson_mean))``
rows per block as one array.  Blocks are stacked in block order, so output is
bit-identical for any thread count.

Each sub-chunk is reduced per row.  ``sum X Y`` is taken as
``np.multiply(xs, ys, out=xs).sum(axis=1)``, which adds the products in the
same order as ``ys.sum(axis=1)`` adds the multipliers.  Keep the two sums in
the same order: T_n is a convex combination of the weights and then stays in
``[min X, max X]`` exactly (a dot product next to a pairwise sum can land
one ulp outside).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    MultiplierLaw,
    ParameterError,
    SeedStream,
    WeightLaw,
    as_int,
)
from .levy_calculus import BivariateLevyView

_Y_SUB = 0   # substream for multiplier draws (and Poisson counts) within a block
_X_SUB = 1   # substream for weight draws

# Values in one draw array: 2**14 doubles (128 KiB) keep a sub-chunk in
# cache; from n = 2**14 on, a sub-chunk is a single replication.
BLOCK_ELEMS = 2**14
# Rows per finite-n block at any n, so that large-n blocks share the cost
# of deriving their two generators.
MIN_BLOCK_ROWS = 16
# Version of the stream layout described in the module docstring; it changes
# whenever the same (seed, config) starts to produce different draws.
STREAM_LAYOUT = 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: sample size n, number of replications, master
    stream, small-jump cutoff (required by :func:`simulate_limit_pair`,
    unused by the finite-n engines) and thread count (must not affect
    results)."""

    n: int
    reps: int
    seed: SeedStream
    cutoff: Optional[float] = None
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "reps", "threads"):
            value = as_int(getattr(self, name), name)
            if value < 1:
                raise ParameterError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)
        if self.cutoff is not None and not 0.0 < self.cutoff < 1.0:
            raise ParameterError("cutoff must lie in (0, 1)")


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted replication values with provenance metadata."""

    values: np.ndarray
    n_meta: int
    law_meta: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, dtype=float)))


@dataclass(frozen=True)
class PairSample:
    """Aligned draws of the scaled pair (weighted sum, plain sum)."""

    w1: np.ndarray
    w2: np.ndarray
    meta: dict

    def ratio(self) -> np.ndarray:
        """Elementwise w1/w2 with the 0/0 := 0 convention."""
        return _ratios(self.w2, self.w1)[0]


def _block_layout(reps: int, values_per_rep: int, min_rows: int = 1) -> tuple:
    """Rows per block and number of blocks for ``reps`` replications that
    draw about ``values_per_rep`` values each."""
    rows = max(min_rows, BLOCK_ELEMS // max(1, values_per_rep))
    return rows, -(-reps // rows)


def _run_replications(fn: Callable[[int], Sequence[np.ndarray]], blocks: int, width: int,
                      threads: int) -> np.ndarray:
    """Evaluate fn(b) for b in range(blocks) into a (width, reps) array.

    fn(b) returns ``width`` statistics, each an array with one value per
    replication of block b; blocks are joined in block order.  Threads take
    contiguous chunks of blocks and every block depends only on its index,
    so scheduling cannot change the result.
    """
    step = max(1, math.ceil(blocks / (threads * 8)))

    def chunk(lo: int) -> np.ndarray:
        return np.concatenate([np.asarray(fn(b)).reshape(width, -1)
                               for b in range(lo, min(lo + step, blocks))], axis=1)

    starts = range(0, blocks, step)
    if threads <= 1:
        parts = [chunk(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk, starts))
    return np.concatenate(parts, axis=1)


def _law_meta(x: Optional[WeightLaw], y: Optional[MultiplierLaw], cfg: SimConfig) -> dict:
    meta = {"n": cfg.n, "reps": cfg.reps, "stream_layout": STREAM_LAYOUT,
            "seed": {"master_seed": cfg.seed.master_seed,
                     "stream_index": cfg.seed.stream_index,
                     "path": list(cfg.seed.path)}}
    if x is not None:
        meta["x_law"] = x.label
    if y is not None:
        meta["y_law"] = y.label
    return meta


# ---------------------------------------------------------------------------
# Finite-n engines
# ---------------------------------------------------------------------------


def _draw_rows(x: WeightLaw, y: MultiplierLaw, y_gen: np.random.Generator,
               x_gen: np.random.Generator, shape: tuple, scale_free: bool) -> tuple:
    """The next ``shape = (k, n)`` weights and multipliers from the block's
    generators, plus the first argmax of each log-multiplier row when the
    multipliers come from the law's log sampler (else None).

    Scale-free draws of a law with a log sampler are rescaled by the row
    maximum (exactly neutral for ratios of sums), which keeps the weights
    representable even when raw draws overflow a double.
    """
    size = shape[0] * shape[1]
    m = None
    if scale_free and y.log_sampler is not None:
        d = y.log_sampler(y_gen, size).reshape(shape)
        m = d.argmax(axis=1)
        d -= d[np.arange(m.size), m][:, None]
        # exp underflows to exactly 0 below -746; skip those (most) entries
        ys = np.zeros_like(d)
        np.exp(d, out=ys, where=d > -746.0)
    else:
        ys = y.sampler(y_gen, size).reshape(shape)
    xs = x.sampler(x_gen, size).reshape(shape)
    return xs, ys, m


def _finite_n(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
              reduce: Callable[..., Sequence[np.ndarray]], width: int,
              scale_free: bool) -> np.ndarray:
    """``reduce(xs, ys, m)`` over every sub-chunk of ``_draw_rows``, as a
    (width, reps) array in replication order.  ``reduce`` may overwrite
    ``xs`` and ``ys``."""
    chunk = max(1, BLOCK_ELEMS // cfg.n)
    rows, blocks = _block_layout(cfg.reps, cfg.n, MIN_BLOCK_ROWS)

    def block(b: int) -> np.ndarray:
        stream = cfg.seed.child(b)
        y_gen, x_gen = stream.child(_Y_SUB).generator(), stream.child(_X_SUB).generator()
        rows_b = min(rows, cfg.reps - b * rows)
        return np.concatenate([
            reduce(*_draw_rows(x, y, y_gen, x_gen, (min(chunk, rows_b - lo), cfg.n), scale_free))
            for lo in range(0, rows_b, chunk)], axis=1)

    return _run_replications(block, blocks, width, cfg.threads)


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
    """Draws of (sum(X Y)/a_n, sum(Y)/a_n) under the law's norming.

    Raises ParameterError when any drawn value is not finite (a raw
    multiplier draw that overflows, as the slowly varying law's can).
    """
    a_n = y.norming(cfg.n)
    if not math.isfinite(a_n) or a_n <= 0.0:
        raise ParameterError("norming must be finite and positive at this n")

    def reduce(xs, ys, _):
        sxy, sy = _sums(xs, ys)
        return sxy / a_n, sy / a_n

    pair = _finite_n(x, y, cfg, reduce, width=2, scale_free=False)
    if not np.isfinite(pair).all():
        raise ParameterError(f"normed pair of {x.label} x {y.label} at n={cfg.n} "
                             "holds non-finite values")
    w1, w2 = pair
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
    them per row; rows per block follow from the Poisson mean.  Jumps below the
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

    rows, blocks = _block_layout(cfg.reps, math.ceil(lam))

    def block(b: int) -> tuple:
        stream = cfg.seed.child(b)
        gen = stream.child(_Y_SUB).generator()
        counts = gen.poisson(lam, min(rows, cfg.reps - b * rows))
        jumps = vec_eval(inverse, (1.0 - gen.random(int(counts.sum()))) * lam)
        xs = x.sampler(stream.child(_X_SUB), jumps.size)
        owner = np.repeat(np.arange(counts.size), counts)
        return np.bincount(owner, xs * jumps, counts.size), np.bincount(owner, jumps, counts.size)

    w1, w2 = _run_replications(block, blocks, 2, cfg.threads)
    bias_y = view.levy.truncated_moment(1, eps)
    meta = _law_meta(x, None, cfg)
    meta.update({
        "levy": view.levy.label,
        "cutoff": eps,
        "poisson_mean": lam,
        "bias_bound_w2": bias_y,
        "bias_bound_w1": bias_y * x.abs_mean if math.isfinite(x.abs_mean) else math.inf,
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
    meta: dict = field(default_factory=dict)


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
    return MaxShareStats(probs, deltas, rns, _law_meta(x, y, cfg))


@dataclass
class DivergenceProbe:
    """Median growth of |T_n| along a schedule of sample sizes."""

    medians: dict
    loglog_slope: float
    meta: dict = field(default_factory=dict)


def divergence_probe(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
                     n_list: Sequence[int]) -> DivergenceProbe:
    """Median |T_n| per n and the least-squares slope on log-log scale.

    A positive slope close to the gap of the two tail exponents flags the
    regime where the ratio escapes to infinity; bounded weights pin the
    slope at zero.
    """
    n_list = [as_int(n, "n_list entry") for n in n_list]
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ParameterError("n_list must be strictly increasing")
    medians = {}
    for j, n in enumerate(n_list):
        sub = SimConfig(n=n, reps=cfg.reps, seed=cfg.seed.child(j), threads=cfg.threads)
        sample = simulate_tn(x, y, sub)
        medians[n] = float(np.median(np.abs(sample.values)))
    slope = float(np.polyfit(np.log(n_list), np.log(list(medians.values())), 1)[0])
    return DivergenceProbe(medians, slope, _law_meta(x, y, cfg))
