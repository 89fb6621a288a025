"""Monte Carlo engines for the finite-n objects and the limit pair.

Simulates the self-normalized ratio, the normed pair of partial sums, and the
limit pair through a compound-Poisson cut of its jump representation.  Every
engine is a pure function of its :class:`SimConfig`.  Replications are drawn
in blocks of ``rows`` consecutive replications, with ``rows`` fixed by the
input alone (``BLOCK_ELEMS`` values per block array): block b covers
replications ``[b * rows, min((b + 1) * rows, reps))`` and draws all its
multipliers from ``seed.child(b).child(0)`` and all its weights from
``seed.child(b).child(1)``, as one array each, then reduces per row.  Blocks
are stacked in block order, so output is bit-identical for any thread count.
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

# Values in one block array: 2**14 doubles (128 KiB) keep a block in cache;
# from n = 2**14 on, a block is a single replication.
BLOCK_ELEMS = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: sample size n, number of replications, master
    stream, small-jump cutoff for limit simulation (None = auto from the
    bias budget) and thread count (must not affect results)."""

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
        out = np.zeros_like(self.w1)
        nz = self.w2 != 0.0
        out[nz] = self.w1[nz] / self.w2[nz]
        return out


def _block_layout(reps: int, values_per_rep: int) -> tuple:
    """Rows per block and number of blocks for ``reps`` replications that
    draw about ``values_per_rep`` values each."""
    rows = max(1, BLOCK_ELEMS // max(1, values_per_rep))
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
    meta = {"n": cfg.n, "reps": cfg.reps,
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


def _draw_block(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig, rows: int, b: int,
                scale_free: bool) -> tuple:
    """Weights and multipliers of block b as (rows_b, n) arrays, plus the
    first argmax of each multiplier row when ``scale_free``.

    Scale-free draws of a law with a log sampler are rescaled by the row
    maximum (exactly neutral for ratios of sums), which keeps the weights
    representable even when raw draws overflow a double.
    """
    shape = (min(rows, cfg.reps - b * rows), cfg.n)
    size = shape[0] * shape[1]
    block = cfg.seed.child(b)
    if scale_free and y.log_sampler is not None:
        ls = y.log_sampler(block.child(_Y_SUB), size).reshape(shape)
        m = ls.argmax(axis=1)
        ys = np.exp(ls - ls[np.arange(m.size), m][:, None])
    else:
        ys = y.sampler(block.child(_Y_SUB), size).reshape(shape)
        m = ys.argmax(axis=1) if scale_free else None
    xs = x.sampler(block.child(_X_SUB), size).reshape(shape)
    return xs, ys, m


def _ratios(den: np.ndarray, *nums: np.ndarray) -> list:
    """num / den for each numerator where den > 0, else 0 (0/0 := 0)."""
    pos = den > 0.0
    safe = np.where(pos, den, 1.0)
    return [np.where(pos, num / safe, 0.0) for num in nums]


def simulate_tn(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig) -> EmpiricalSample:
    """Draws of the self-normalized ratio sum(X Y) / sum(Y), with 0/0 := 0."""
    rows, blocks = _block_layout(cfg.reps, cfg.n)

    def block(b: int) -> list:
        xs, ys, _ = _draw_block(x, y, cfg, rows, b, scale_free=True)
        return _ratios(ys.sum(axis=1), (xs * ys).sum(axis=1))

    (vals,) = _run_replications(block, blocks, 1, cfg.threads)
    return EmpiricalSample(vals, cfg.n, _law_meta(x, y, cfg))


def simulate_normed_pair(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig) -> PairSample:
    """Draws of (sum(X Y)/a_n, sum(Y)/a_n) under the law's norming."""
    a_n = y.norming(cfg.n)
    if not math.isfinite(a_n) or a_n <= 0.0:
        raise ParameterError("norming must be finite and positive at this n")
    rows, blocks = _block_layout(cfg.reps, cfg.n)

    def block(b: int) -> tuple:
        xs, ys, _ = _draw_block(x, y, cfg, rows, b, scale_free=False)
        return (xs * ys).sum(axis=1) / a_n, ys.sum(axis=1) / a_n

    w1, w2 = _run_replications(block, blocks, 2, cfg.threads)
    meta = _law_meta(x, y, cfg)
    meta["norming"] = a_n
    return PairSample(w1, w2, meta)


# ---------------------------------------------------------------------------
# Limit pair via compound-Poisson cut
# ---------------------------------------------------------------------------


def _auto_cutoff(view: BivariateLevyView, budget: float = 1e-3) -> float:
    """Largest cutoff whose discarded-jump bias stays within budget."""
    small = view.levy.small_mean_below
    if small is None:
        raise ParameterError("automatic cutoff needs LevyTail.small_mean_below")
    scale = max(1.0, view.weight.abs_mean) if math.isfinite(view.weight.abs_mean) else 1.0
    lo, hi = 1e-15, 1.0 - 1e-12
    if small(hi) * scale <= budget:
        return hi
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if small(mid) * scale <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _jump_inverse(view: BivariateLevyView, eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """Map uniforms to jumps above eps by inverting the normalized tail."""
    from .distributions import vec_eval

    levy = view.levy
    lam = levy.tail(eps)
    if levy.tail_inverse is not None:
        inv = levy.tail_inverse
        return lambda w: vec_eval(inv, w * lam)

    def bisect(wi: float) -> float:
        lo, hi = eps, max(2.0 * eps, 1.0)
        while levy.tail(hi) > wi:
            hi *= 2.0
            if hi > 1e300:
                break
        for _ in range(100):  # ~1e-12 relative bracket
            mid = 0.5 * (lo + hi)
            if levy.tail(mid) > wi:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return lambda w: np.asarray([bisect(wi) for wi in w * lam])


def simulate_limit_pair(view: BivariateLevyView, cfg: SimConfig) -> PairSample:
    """Draws of the limit pair by summing jumps above a cutoff.

    Each replication draws a Poisson number of jump heights from the
    normalized tail beyond the cutoff, multiplies each by an independent
    weight draw, and adds the drift (alpha * E X, alpha).  A block draws its
    rows' counts, then all their jumps and weights as flat arrays, and sums
    them per row; rows per block follow from the Poisson mean.  Jumps below the
    cutoff are dropped without compensation, which is legitimate because the
    jump measure integrates s near zero; the discarded mass has mean total at
    most small_mean_below(cutoff) * (E|X|, 1), reported in the metadata.
    """
    eps = cfg.cutoff if cfg.cutoff is not None else _auto_cutoff(view)
    lam = view.levy.tail(eps)
    if not math.isfinite(lam) or lam > 1e7:
        raise ParameterError("cutoff too small: Poisson jump count overflows")
    alpha = view.levy.drift_alpha
    drift1 = alpha * view.weight.mean if alpha != 0.0 else 0.0
    invert = _jump_inverse(view, eps)
    x = view.weight

    rows, blocks = _block_layout(cfg.reps, math.ceil(lam))

    def block(b: int) -> tuple:
        stream = cfg.seed.child(b)
        gen = stream.child(_Y_SUB).generator()
        counts = gen.poisson(lam, min(rows, cfg.reps - b * rows))
        jumps = invert(1.0 - gen.random(int(counts.sum())))
        xs = x.sampler(stream.child(_X_SUB), jumps.size)
        owner = np.repeat(np.arange(counts.size), counts)
        return (drift1 + np.bincount(owner, xs * jumps, counts.size),
                alpha + np.bincount(owner, jumps, counts.size))

    w1, w2 = _run_replications(block, blocks, 2, cfg.threads)
    bias_y = view.levy.small_mean_below(eps) if view.levy.small_mean_below else math.nan
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
    delta_quantiles: dict
    delta_sample: np.ndarray
    r_n_sample: np.ndarray
    meta: dict = field(default_factory=dict)


def max_share_stats(x: WeightLaw, y: MultiplierLaw, cfg: SimConfig,
                    eps_list: Sequence[float]) -> MaxShareStats:
    eps_list = [float(e) for e in eps_list]
    if any(not 0.0 < e < 1.0 for e in eps_list):
        raise ParameterError("eps values must lie in (0, 1)")
    rows, blocks = _block_layout(cfg.reps, cfg.n)

    def block(b: int) -> tuple:
        xs, ys, m = _draw_block(x, y, cfg, rows, b, scale_free=True)  # first max index
        at_max = np.arange(m.size), m
        share, tn, rn = _ratios(ys.sum(axis=1), ys[at_max], (xs * ys).sum(axis=1),
                                np.sqrt((ys * ys).sum(axis=1)))
        return share, np.abs(tn - xs[at_max]), rn

    shares, deltas, rns = _run_replications(block, blocks, 3, cfg.threads)
    deltas, rns = np.sort(deltas), np.sort(rns)
    probs = {e: float((shares > 1.0 - e).mean()) for e in eps_list}
    qs = {q: float(np.quantile(deltas, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)}
    return MaxShareStats(probs, qs, deltas, rns, _law_meta(x, y, cfg))


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
        sub = SimConfig(n=n, reps=cfg.reps, seed=cfg.seed.child(j),
                        cutoff=cfg.cutoff, threads=cfg.threads)
        sample = simulate_tn(x, y, sub)
        medians[n] = float(np.median(np.abs(sample.values)))
    slope = float(np.polyfit(np.log(n_list), np.log(list(medians.values())), 1)[0])
    return DivergenceProbe(medians, slope, _law_meta(x, y, cfg))
