"""Weight and multiplier law abstractions with reproducible sampling.

A *weight law* is the distribution of the (possibly signed) factors X of a
randomly weighted sum; a *multiplier law* is the distribution of the
non-negative factors Y.  Both are immutable records bundling the analytic
descriptors needed downstream (CDF or survival function, truncated and
fractional moments, norming sequence) together with an exact inverse-transform
style sampler driven by a :class:`SeedStream` or a numpy ``Generator``.

All built-in samplers drawn from a stream are pure functions of
``(master_seed, stream_index, path, count)``: the same stream always
reproduces the same draws bit for bit, independent of thread count or call
order.  Drawn from a ``Generator``, they continue its sequence, which lets
an engine take many draws from one generator without deriving a new one.
Every built-in ``sampler`` and ``log_sampler`` fills its output in order,
one value at a time, so ``count = a + b`` draws from a generator equal
``a`` draws followed by ``b``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class ParameterError(ValueError):
    """A law or operation parameter is outside its admissible range."""


def as_int(value, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` as an int in [least, most] (each bound when given); numpy
    integers pass, floats (even 10.0) raise ParameterError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ParameterError(f"{name} must be at most {most}, got {value}")
    return value


def stable_index(beta) -> float:
    """``beta`` as a float stable index in (0, 1), or ParameterError.  The
    floor is the smallest normal double: at a subnormal beta the limit CDF's
    arctan(ratio tan(pi b / 2)) / (pi b) is rounded to values outside [0, 1]."""
    if not np.finfo(float).tiny <= beta < 1.0:
        raise ParameterError(f"stable index beta must be a normal double in (0, 1), "
                             f"got {beta!r}")
    return float(beta)


class QuadratureError(RuntimeError):
    """A quadrature value is not finite or misses its error budget."""


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedStream:
    """Named, splittable random stream.

    The generator is seeded by :class:`numpy.random.SeedSequence` with
    entropy ``master_seed`` and spawn key ``(stream_index, *path)``;
    ``child(k)`` appends ``k`` to the path.  Every key element is below
    2**32, so it takes exactly one word of the key and distinct paths of any
    depth give distinct keys: a child never aliases its parent or a stream
    with a different path.
    """

    master_seed: int
    stream_index: int = 0
    path: tuple = ()

    def __post_init__(self) -> None:
        if not 0 <= as_int(self.master_seed, "master_seed") < 2**64:
            raise ParameterError("master_seed must be a 64-bit unsigned integer")
        for k in (self.stream_index, *self.path):
            if not 0 <= as_int(k, "stream index") < 2**32:
                raise ParameterError("stream_index and substream indices must be in [0, 2**32)")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._sequence()))

    def _sequence(self) -> np.random.SeedSequence:
        """numpy's seed sequence of key ``(stream_index, *path)``."""
        # one uint32 array contributes the same key words as the tuple of
        # one-word ints, and numpy coerces it in one step
        key = np.array((self.stream_index, *self.path), dtype=np.uint32)
        return np.random.SeedSequence(entropy=int(self.master_seed), spawn_key=(key,))

    def child(self, k: int) -> "SeedStream":
        """Derive substream ``k`` (k < 2**32) without state sharing."""
        return SeedStream(self.master_seed, self.stream_index,
                          (*self.path, as_int(k, "substream index")))

    def record(self) -> dict:
        """The stream as the ``seed`` record of a run's metadata."""
        return {"master_seed": self.master_seed, "stream_index": self.stream_index,
                "path": list(self.path)}

    def block_seeds(self, blocks: int) -> np.ndarray:
        """The PCG64 seed words of ``child(b).child(s)`` for every
        ``b < blocks`` and ``s`` in {0, 1}, as a (blocks, 2, 4) uint64 array.

        Row ``[b, s]`` is ``SeedSequence(master_seed, spawn_key=(stream_index,
        *path, b, s)).generate_state(4, np.uint64)``, the words that
        ``child(b).child(s).generator()`` seeds its PCG64 with;
        :func:`seeded_generator` turns a row into that generator.  numpy's
        ``SeedSequence`` hashes the shared key prefix once (its ``pool``);
        the two trailing key words and ``generate_state`` are numpy's hash
        steps, applied to every block at once.
        """
        if not 1 <= as_int(blocks, "blocks") <= 2**32:
            raise ParameterError("blocks must be in [1, 2**32]")
        pool = self._sequence().pool
        # the prefix took 4 + 12 + 4 * (1 + len(path)) hashmix steps; each
        # trailing word takes 4 more, one per pool word (uint32 arrays wrap
        # mod 2**32)
        a = _hash_consts(_INIT_A, _MULT_A, 20 + 4 * len(self.path), 9)
        # mix(pool, hashmix(word)) for the block word, then the sub-stream
        # word: pool broadcasts from (4,) to (blocks, 1, 4) to (blocks, 2, 4)
        for k, word in enumerate((np.arange(blocks, dtype=np.uint32)[:, None, None],
                                  np.arange(2, dtype=np.uint32)[:, None])):
            h = (word ^ a[4 * k:4 * k + 4]) * a[4 * k + 1:4 * k + 5]
            h ^= h >> 16
            pool = _MIX_L * pool - _MIX_R * h
            pool ^= pool >> 16
        # generate_state(4, uint64): 8 words hashed from the pool in cycle
        words = np.concatenate([pool, pool], axis=2)
        words ^= _STATE[:8]
        words *= _STATE[1:]
        words ^= words >> 16
        return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# k-th hashmix step xors with INIT * MULT**k and multiplies by INIT *
# MULT**(k + 1), mod 2**32, A for mixing entropy and B for generate_state.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The xor constants of hashmix steps ``start .. start + count - 1``."""
    c = [init * pow(mult, start, 2**32) % 2**32]
    for _ in range(count - 1):
        c.append(c[-1] * mult % 2**32)
    return np.array(c, dtype=np.uint32)


_STATE = _hash_consts(_INIT_B, _MULT_B, 0, 9)


class _StateWords(ISeedSequence):
    """A seed sequence that hands its bit generator fixed state words: PCG64
    asks for ``generate_state(4, np.uint64)``, which ``words`` holds."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seeded_generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded with one row of
    :meth:`SeedStream.block_seeds`: it draws what the generator of the
    row's stream draws."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


RandomSource = Union[SeedStream, np.random.Generator]


def _rng(source: RandomSource) -> np.random.Generator:
    """The generator a sampler draws from: a stream's fresh generator, or a
    ``Generator`` as it stands, continuing where it left off."""
    if isinstance(source, np.random.Generator):
        return source
    return source.generator()


def _open_uniform(source: RandomSource, count: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """``count`` uniforms on (0, 1], one minus the generator's [0, 1) draws,
    written into ``out`` when it is given."""
    u = _rng(source).random(count, out=out)
    return np.subtract(1.0, u, out=u)


# ---------------------------------------------------------------------------
# Law records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailClass:
    """Upper-tail regime label: 'pareto' (with index), 'slowly_varying' or
    'finite_mean'."""

    kind: str
    beta: Optional[float] = None


@dataclass(frozen=True)
class WeightLaw:
    """Distribution of the weight factor X.

    ``abs_moment(b)`` is the absolute moment E|X|**b of order b > 0, inf
    where it is infinite.  ``pdf`` is the density of the continuous part, zero
    outside ``support``; ``pdf_breaks`` lists points where the density is
    kinked or discontinuous (quadrature split points).  ``atoms`` holds the
    discrete part as (location, mass) pairs.  ``cdf`` is P{X <= x} and
    ``sf`` is P{X > x}.  ``pdf``, ``cdf`` and ``sf`` map a float to a float
    and an ndarray to one of the same shape.  ``sf`` is its own closed form,
    not ``1 - cdf``, so it keeps its relative accuracy in the far upper
    tail, where ``1 - cdf`` cancels to zero.
    ``sampler(source, count, out=None)`` draws ``count`` values from a
    :class:`SeedStream` (a fresh generator from its key) or a numpy
    ``Generator`` (continuing its sequence).  As in numpy, ``out`` is an
    optional float64 array of shape ``(count,)``: the built-in samplers draw
    into it, apply their transform in place and return it.  Without ``out``
    they return a fresh array that the caller may overwrite.  Callers use
    the returned array, so a sampler that ignores ``out`` still works.
    """

    label: str
    cdf: Callable[[float], float]
    sf: Callable[[float], float]
    sampler: Callable[..., np.ndarray]
    abs_moment: Callable[[float], float]
    atoms: tuple = ()
    pdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    pdf_breaks: tuple = ()
    support: tuple = (-math.inf, math.inf)


def vec_eval(fn: Callable, arr: np.ndarray) -> np.ndarray:
    """Evaluate a law callable over an array in one call.

    A law callable must map an ndarray to an array of the same shape; any
    other result, or a TypeError from a callable that takes only scalars,
    raises :class:`ParameterError` naming the callable.
    """
    arr = np.asarray(arr, dtype=float)
    name = getattr(fn, "__qualname__", fn)
    try:
        out = fn(arr)
    except TypeError as exc:
        raise ParameterError(f"law callable {name} is not vectorized: {exc}") from exc
    out = np.asarray(out, dtype=float)
    if out.shape != arr.shape:
        raise ParameterError(f"law callable {name} is not vectorized: "
                             f"shape {out.shape} for input shape {arr.shape}")
    return out


@dataclass(frozen=True)
class MultiplierLaw:
    """Distribution of the non-negative multiplier Y.

    ``survival`` is P{Y > y}, ``trunc_mean(x)`` is E[Y 1{Y <= x}] and
    ``trunc_second(x)`` is E[Y^2 1{Y <= x}].  ``norming(n)`` is the sequence
    a_n used to rescale partial sums.
    ``survival_logarg`` and ``log_norming`` are optional log-space
    companions (P{Y > e^t} and log a_n) that keep tail evaluations finite
    when a_n overflows a double, as it does for the slowly varying law.
    ``log_sampler`` draws log Y coupled to the same uniforms as ``sampler``;
    scale-free engines use it so that laws whose raw draws overflow a double
    still sum correctly.  Both samplers take a :class:`SeedStream` (a
    fresh generator from its key) or a numpy ``Generator`` (continuing its
    sequence) as ``source`` and return a fresh float array that the caller
    may overwrite.  ``sampler(source, count, out=None)`` and
    ``log_sampler(source, count, out=None)`` also take numpy's ``out``: a
    float64 array of shape ``(count,)`` that the built-in samplers draw
    into, transform in place and return, as :class:`WeightLaw` describes.
    ``survival``, ``survival_logarg``, ``trunc_mean`` and ``trunc_second`` map
    a float to a float and an ndarray to one of the same shape.
    """

    label: str
    survival: Callable[[float], float]
    sampler: Callable[..., np.ndarray]
    trunc_mean: Callable[[float], float]
    trunc_second: Callable[[float], float]
    norming: Callable[[int], float]
    tail_class: TailClass
    log_norming: Optional[Callable[[int], float]] = None
    survival_logarg: Optional[Callable[[float], float]] = None
    log_sampler: Optional[Callable[..., np.ndarray]] = None


def finite_norming(y: MultiplierLaw, n: int) -> float:
    """a_n of ``y`` at n; raises ParameterError unless 0 < a_n < inf."""
    a_n = y.norming(n)
    if not 0.0 < a_n < math.inf:
        raise ParameterError(f"{y.label} norming overflows a double or is not positive "
                             f"at n={n}: a_n = {a_n!r}")
    return a_n


# ---------------------------------------------------------------------------
# Quadrature: graded Gauss-Legendre cells
# ---------------------------------------------------------------------------

# 16-point Gauss-Legendre cells on [0, 1], graded geometrically toward the
# ends of a piece: quad starts each piece as the cells of _PIECE_EDGES, and
# the grid rule of limit_laws builds its node tables from the same cells.
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W
_RATIO = 0.125          # geometric grading ratio
_LEVELS = 4             # graded cells toward each end of a finite piece
_grade = 0.5 * _RATIO ** np.arange(_LEVELS, -1, -1)
_PIECE_EDGES = np.concatenate([[0.0], _grade, 1.0 - _grade[-2::-1], [1.0]])

# The lower-order rule embedded in the 16 nodes is the interpolatory rule on
# all of them but the 4th and 11th, exact to degree 13.  _NULL_W is the 16-node
# rule minus that one: |sum of f * _NULL_W| is a cell's error estimate.  The
# dropped pair is not mirror-symmetric: a symmetric null rule sums to zero
# over either half of the nodes, so it misses a jump at the cell's middle.
_KEEP = np.delete(np.arange(16), (3, 10))
_NULL_W = _GL_W.copy()
_NULL_W[_KEEP] -= np.linalg.solve(
    np.polynomial.legendre.legvander(2.0 * _GL_T[_KEEP] - 1.0, _KEEP.size - 1).T,
    np.eye(_KEEP.size)[0])  # Legendre moments on [-1, 1], halved for [0, 1]
_PIECE_LO, _PIECE_WIDTH = _PIECE_EDGES[:-1], np.diff(_PIECE_EDGES)
_EPSREL = 1e-13         # error budget of quad, relative to the integral of |f|
_ROUNDS = 30            # refinement rounds before quad gives up
# live cells before quad gives up: 18 times the most that any test or shipped
# run needs (3638), and about 30 MB of node arrays in the round that reaches it
_MAX_CELLS = 2**16


def quad(f: Callable[[np.ndarray], np.ndarray], edges: Sequence[float]) -> tuple:
    """Integral of ``f`` over (edges[0], edges[-1]) and its error estimate.

    ``f`` maps an array to one of the same shape; each round calls it once,
    on the nodes of all new cells.  ``edges`` are sorted; only the outer two
    may be infinite.  Pieces are split again at |x| = 1, and a piece beyond
    is folded onto (-1, 1) by u = 1/x, so a power-law tail ends in an
    integrable singularity at u = 0 and the bulk of a law stays near the
    nodes.  Each piece starts as the cells of _PIECE_EDGES.  Each round cuts
    every cell whose error estimate is above an even share of the budget,
    _EPSREL times the integral of |f|, the same way, until the estimates sum
    to at most the budget.  A node value that is not finite, a budget missed
    after _ROUNDS rounds, or a next round that would hold more than
    _MAX_CELLS cells (as a budget below rounding does: every cell is cut in
    every round) raises QuadratureError.
    """
    a, b = edges[0], edges[-1]
    knots = sorted({*edges, *(k for k in (-1.0, 1.0) if a < k < b)})
    todo = []  # cells to cut: (lo, width, folded)
    for p, q in zip(knots[:-1], knots[1:]):
        folded = p >= 1.0 or q <= -1.0
        if folded:
            p, q = 1.0 / q, 1.0 / p  # 1/inf is 0
        todo.append((p, q - p, folded))
    todo = np.array(todo, dtype=float)
    cells = None  # lo, width, folded, value, error estimate, integral of |f|
    for _ in range(_ROUNDS):
        new = np.empty((len(todo) * _PIECE_WIDTH.size, 6))
        new[:, 0] = (todo[:, :1] + todo[:, 1:2] * _PIECE_LO).ravel()
        new[:, 1] = (todo[:, 1:2] * _PIECE_WIDTH).ravel()
        new[:, 2] = np.repeat(todo[:, 2], _PIECE_WIDTH.size)
        x = new[:, :1] + new[:, 1:2] * _GL_T
        folded = new[:, 2:3] > 0.0  # an unfolded cell keeps x and a Jacobian of exactly 1
        with np.errstate(invalid="ignore"):  # a NaN (inf * 0) raises just below
            np.divide(1.0, x, out=x, where=folded)
            fx = f(x.ravel()).reshape(x.shape) * np.where(folded, x * x, 1.0) * new[:, 1:2]
        if not np.isfinite(fx).all():
            raise QuadratureError("quadrature result is not finite")
        new[:, 3] = (fx * _GL_W).sum(axis=1)
        new[:, 4] = np.abs((fx * _NULL_W).sum(axis=1))
        new[:, 5] = (np.abs(fx) * _GL_W).sum(axis=1)
        cells = new if cells is None else np.concatenate([cells, new])
        # the axis-0 sums add the cells in order
        value, err, budget = cells[:, 3:].sum(axis=0) * (1.0, 1.0, _EPSREL)
        if err <= budget:
            return float(value), float(err)
        cut = cells[:, 4] > budget / len(cells)  # over an even share of the budget
        todo, cells = cells[cut, :3], cells[~cut]
        if len(cells) + len(todo) * _PIECE_WIDTH.size > _MAX_CELLS:
            raise QuadratureError(f"quadrature missed its error budget: the next round needs "
                                  f"more than {_MAX_CELLS} cells (value {float(value)!r}, "
                                  f"error estimate {float(err)!r})")
    raise QuadratureError(f"quadrature missed its error budget after {_ROUNDS} rounds "
                          f"(value {float(value)!r}, error estimate {float(err)!r})")


def expect_weight(law: WeightLaw, g: Callable[[np.ndarray], np.ndarray],
                  lo: float = -math.inf, hi: float = math.inf) -> float:
    """Integral of g against the law of X over the open interval (lo, hi).

    ``g`` maps an ndarray to one of the same shape, like a law callable;
    :func:`vec_eval` evaluates it and ``pdf``.  Atoms count only strictly
    inside (lo, hi).  The continuous part is one :func:`quad` of g times
    the density, split at the density breaks; g must be smooth between them
    (a jump of g can go unseen).  NaN bounds raise :class:`ParameterError`;
    an empty interval gives 0.
    """
    if math.isnan(lo) or math.isnan(hi):
        raise ParameterError("expect_weight bounds must not be NaN")
    total = 0.0
    inside = [(loc, m) for loc, m in law.atoms if lo < loc < hi]
    if inside:
        locs, masses = np.array(inside).T
        total = float((masses * vec_eval(g, locs)).sum())
    a, b = max(lo, law.support[0]), min(hi, law.support[1])
    if law.pdf is not None and b > a:
        inner = sorted(p for p in law.pdf_breaks if a < p < b)
        total += quad(lambda x: vec_eval(g, x) * vec_eval(law.pdf, x), [a, *inner, b])[0]
    return total


# ---------------------------------------------------------------------------
# Built-in weight laws
# ---------------------------------------------------------------------------

def _uniform01_weight() -> WeightLaw:
    def cdf(x):
        return np.clip(x, 0.0, 1.0)

    return WeightLaw(
        label="uniform01",
        cdf=cdf,
        sf=lambda x: np.clip(1.0 - x, 0.0, 1.0),
        sampler=lambda source, count, out=None: _rng(source).random(count, out=out),
        abs_moment=lambda b: 1.0 / (1.0 + b),
        pdf=lambda x: np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0),
        pdf_breaks=(0.0, 1.0),
        support=(0.0, 1.0),
    )


def _gaussian_weight() -> WeightLaw:
    from scipy.special import ndtr  # bound here: importing scipy is slow

    return WeightLaw(
        label="standard_gaussian",
        cdf=ndtr,
        sf=lambda x: ndtr(np.negative(x)),
        sampler=lambda source, count, out=None: _rng(source).standard_normal(count, out=out),
        abs_moment=lambda b: 2.0 ** (b / 2.0) * math.gamma((b + 1.0) / 2.0) / math.sqrt(math.pi),
        pdf=lambda x: np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi),
        support=(-math.inf, math.inf),
    )


def _atom_index(inner_cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of cumulative masses at or below each uniform, which is
    ``searchsorted(inner_cum, u, side="right")``.  One comparison pass per
    cut is cheaper than a binary search for the few atoms a law has."""
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in inner_cum:
        idx += u >= c
    return idx


def _atomic_weight(label: str, atoms: Sequence) -> WeightLaw:
    atoms = tuple(sorted(atoms))

    def cdf(x):
        return sum(m * (np.asarray(x) >= loc) for loc, m in atoms)

    def sf(x):
        return sum(m * (np.asarray(x) < loc) for loc, m in atoms)

    locs = np.array([loc for loc, _ in atoms])
    # atom j takes U in [cum[j-1], cum[j]); counting all but the last
    # cumulative mass sends U >= cum[-2] to the last atom, rounding included
    inner_cum = np.cumsum([m for _, m in atoms])[:-1]

    def sampler(source, count, out=None):
        u = _rng(source).random(count, out=out)
        # "clip" lets take write into u unbuffered; every index is in range
        return np.take(locs, _atom_index(inner_cum, u), out=u, mode="clip")

    return WeightLaw(
        label=label, cdf=cdf, sf=sf, sampler=sampler, atoms=atoms, pdf=None,
        abs_moment=lambda b: sum(m * abs(loc) ** b for loc, m in atoms),
        support=(atoms[0][0], atoms[-1][0]),
    )


def _pareto_moment(gamma: float, b: float) -> float:
    """E|X|**b for P{|X| > x} = x^-gamma on [1, inf)."""
    return gamma / (gamma - b) if b < gamma else math.inf


def _symmetric_pareto_weight(gamma: float) -> WeightLaw:
    # P{|X| > x} = x^-gamma on [1, inf), sign is an independent fair coin
    def half_tail(x):
        return 0.5 * np.maximum(np.abs(x), 1.0) ** (-gamma)  # 0.5 on (-1, 1)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        tail = np.asarray(half_tail(x))
        return np.subtract(1.0, tail, out=tail, where=x >= 1.0)[()]

    def sampler(source, count, out=None):
        # one uniform U per draw: the sign is - for U < 1/2, and the
        # magnitude's uniform, 1 - 2U there and 2 - 2U above, lies in (0, 1]
        # (every step is exact).  No masked ufunc: those are slow on random masks.
        u = _rng(source).random(count, out=out)
        neg = u < 0.5
        np.multiply(u, -2.0, out=u)
        np.add(u, 2.0, out=u)
        np.subtract(u, neg, out=u)
        np.power(u, -1.0 / gamma, out=u)
        return np.copysign(u, np.negative(neg, dtype=np.int8), out=u)  # -1 or +0

    return WeightLaw(
        label=f"symmetric_pareto({gamma:g})",
        cdf=cdf,
        sf=lambda x: cdf(np.negative(x)),  # P{X > x} = P{X <= -x}: symmetric, no atoms
        sampler=sampler,
        abs_moment=lambda b: _pareto_moment(gamma, b),
        pdf=lambda x: np.where(np.abs(x) >= 1.0,
                               0.5 * gamma * np.maximum(np.abs(x), 1.0) ** (-gamma - 1.0), 0.0),
        pdf_breaks=(-1.0, 1.0),
        support=(-math.inf, math.inf),
    )


def _abs_pareto_weight(gamma: float) -> WeightLaw:
    # |symmetric_pareto(gamma)|: one-sided Pareto on [1, inf)
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 1.0, 1.0 - np.maximum(x, 1.0) ** (-gamma), 0.0)

    def sampler(source, count, out=None):
        v = _open_uniform(source, count, out)
        return np.power(v, -1.0 / gamma, out=v)

    return WeightLaw(
        label=f"abs_pareto({gamma:g})",
        cdf=cdf,
        sf=lambda x: np.maximum(x, 1.0) ** (-gamma),
        sampler=sampler,
        abs_moment=lambda b: _pareto_moment(gamma, b),
        pdf=lambda x: np.where(x >= 1.0, gamma * np.maximum(x, 1.0) ** (-gamma - 1.0), 0.0),
        pdf_breaks=(1.0,),
        support=(1.0, math.inf),
    )


def make_weight_law(kind: str, *, c: float = 1.0, p: float = 0.5,
                    x0: float = 0.0, x1: float = 1.0,
                    gamma: float = 0.5) -> WeightLaw:
    """Construct one of the built-in weight laws.

    Kinds: ``uniform01``, ``standard_gaussian``, ``rademacher``,
    ``point_mass`` (location ``c``), ``bernoulli`` (mass ``p`` at ``x1``,
    mass ``1-p`` at ``x0``), ``symmetric_pareto`` and ``abs_pareto``
    (tail index ``gamma`` in (0, 2)).
    """
    if kind == "uniform01":
        return _uniform01_weight()
    if kind == "standard_gaussian":
        return _gaussian_weight()
    if kind == "rademacher":
        return _atomic_weight("rademacher", [(-1.0, 0.5), (1.0, 0.5)])
    if kind == "point_mass":
        if not math.isfinite(c):
            raise ParameterError("point_mass c must be finite")
        return _atomic_weight(f"point_mass({c:g})", [(float(c), 1.0)])
    if kind == "bernoulli":
        if not 0.0 < p < 1.0:
            raise ParameterError("bernoulli p must lie in (0, 1)")
        if not (math.isfinite(x0) and math.isfinite(x1)) or x0 == x1:
            raise ParameterError("bernoulli locations must be finite and differ")
        return _atomic_weight(f"bernoulli({p:g},{x0:g},{x1:g})",
                              [(float(x0), 1.0 - p), (float(x1), p)])
    if kind in ("symmetric_pareto", "abs_pareto"):
        if not 0.0 < gamma < 2.0:
            raise ParameterError(f"{kind} gamma must lie in (0, 2)")
        pareto = _symmetric_pareto_weight if kind == "symmetric_pareto" else _abs_pareto_weight
        return pareto(float(gamma))
    raise ParameterError(f"unknown weight law kind {kind!r}")


# ---------------------------------------------------------------------------
# Built-in multiplier laws
# ---------------------------------------------------------------------------


def _pareto_power(v: np.ndarray, b: float) -> np.ndarray:
    """v ** (-1/b) for v in (0, 1], written over v: Pareto(b) draws from
    v = 1 - U.  For b = 1/2 it takes 1 / (v * v), which is cheaper than the
    power, stays >= 1 and lies within 2 ulp of it.  A draw past the largest
    double is inf, without a warning: a Y beyond every finite bound."""
    if b == 0.5:
        np.multiply(v, v, out=v)
        return np.divide(1.0, v, out=v)
    with np.errstate(over="ignore"):
        return np.power(v, -1.0 / b, out=v)


def make_pareto_multiplier(beta: float) -> MultiplierLaw:
    """Pareto multiplier, P{Y > y} = y^-beta on [1, inf), beta in (0, 2).

    The norming sequence is the upper 1/n quantile, a_n = n**(1/beta), which
    makes n * P{Y > a_n v} = v^-beta exactly whenever a_n v >= 1.
    """
    if not np.finfo(float).tiny <= beta < 2.0:  # a subnormal beta: 1 / beta overflows
        raise ParameterError("pareto beta must be a normal double in (0, 2)")
    b = float(beta)

    def survival(y):
        return np.maximum(y, 1.0) ** (-b)

    def trunc_mean(x):
        xm = np.maximum(x, 1.0)
        mean = np.log(xm) if b == 1.0 else b * (xm ** (1.0 - b) - 1.0) / (1.0 - b)
        return np.where(x <= 1.0, 0.0, mean)[()]  # no -0.0 below the support

    def trunc_second(x):
        return b * (np.maximum(x, 1.0) ** (2.0 - b) - 1.0) / (2.0 - b)

    def norming(n):
        try:
            return float(n) ** (1.0 / b)
        except OverflowError:  # inf, as for the slowly varying law
            return math.inf

    return MultiplierLaw(
        label=f"pareto(beta={b:g})",
        survival=survival,
        sampler=lambda source, count, out=None: _pareto_power(
            _open_uniform(source, count, out), b),
        trunc_mean=trunc_mean,
        trunc_second=trunc_second,
        norming=norming,
        tail_class=TailClass("pareto", b),
        log_norming=lambda n: math.log(n) / b,
        survival_logarg=lambda t: np.exp(-b * np.maximum(t, 0.0)),
    )


def make_slowly_varying_multiplier() -> MultiplierLaw:
    """Multiplier with slowly varying tail, P{Y > y} = 1/log(y) on [e, inf).

    Truncated moments come from the closed forms
    E[Y 1{Y<=x}]   = Ei(log x) - x/log x + e - Ei(1),
    E[Y^2 1{Y<=x}] = 2 Ei(2 log x) - x^2/log x + e^2 - 2 Ei(2),
    where Ei is the exponential integral.  The quantile norming a_n = e^n
    overflows doubles for n > 709, so the log-space hooks are essential here.
    """
    from scipy.special import expi  # bound here: importing scipy is slow

    e = math.e

    def survival(y):
        return 1.0 / np.log(np.maximum(y, e))

    def trunc_mean(x):
        xm = np.maximum(x, e)
        lx = np.log(xm)
        return np.where(x <= e, 0.0, expi(lx) - xm / lx + e - expi(1.0))[()]

    def trunc_second(x):
        xm = np.maximum(x, e)
        lx = np.log(xm)
        z = 2.0 * lx
        with np.errstate(over="ignore", invalid="ignore"):
            direct = 2.0 * expi(z) - xm * xm / lx + e * e - 2.0 * expi(2.0)
            # past z = 700 both terms overflow; their difference is
            # (x^2 / log x) sum_{k>=1} k!/z^k (asymptotic series of Ei, ten
            # terms reach 1e-19 there), overflowing only with the value
            term, series = 1.0, 0.0
            for k in range(1, 11):
                term = term * k / z
                series = series + term
            far = xm * (xm * (series / lx))
        return np.where(x <= e, 0.0, np.where(z > 700.0, far, direct))[()]

    def log_sampler(source, count, out=None):
        u = _open_uniform(source, count, out)
        return np.divide(1.0, u, out=u)

    def sampler(source, count, out=None):
        t = log_sampler(source, count, out)
        with np.errstate(over="ignore"):
            return np.exp(t, out=t)  # inf beyond e^709; see log_sampler

    return MultiplierLaw(
        label="slowly_varying",
        survival=survival,
        sampler=sampler,
        trunc_mean=trunc_mean,
        trunc_second=trunc_second,
        norming=lambda n: math.exp(n) if n < 709 else math.inf,
        tail_class=TailClass("slowly_varying"),
        log_norming=lambda n: float(n),
        survival_logarg=lambda t: 1.0 / np.maximum(t, 1.0),
        log_sampler=log_sampler,
    )


def make_finite_mean_multiplier(kind: str, rate: float = 1.0) -> MultiplierLaw:
    """Finite-mean multiplier: ``exponential`` (with ``rate``) or ``uniform01``.

    For these laws the norming is the law-of-large-numbers scale a_n = n E Y;
    the upper-quantile choice used for heavy tails is bounded for uniform01
    and would violate a_n -> inf.
    """
    if kind == "exponential":
        if not 0.0 < rate < math.inf:
            raise ParameterError("exponential rate must be positive and finite")
        r = float(rate)

        def sampler(source, count, out=None):
            e = _rng(source).standard_exponential(count, out=out)
            return np.divide(e, r, out=e)

        def trunc_mean(x):
            x = np.maximum(x, 0.0)
            return (1.0 - np.exp(-r * x)) / r - x * np.exp(-r * x)

        def trunc_second(x):
            x = np.maximum(x, 0.0)
            return 2.0 * trunc_mean(x) / r - x * (x * np.exp(-r * x))  # no inf * 0

        return MultiplierLaw(
            label=f"exponential(rate={r:g})",
            survival=lambda y: np.exp(-r * np.maximum(y, 0.0)),
            sampler=sampler,
            trunc_mean=trunc_mean,
            trunc_second=trunc_second,
            norming=lambda n: n / r,
            tail_class=TailClass("finite_mean"),
        )
    if kind == "uniform01":
        return MultiplierLaw(
            label="uniform01",
            survival=lambda y: np.clip(1.0 - y, 0.0, 1.0),
            sampler=lambda source, count, out=None: _rng(source).random(count, out=out),
            trunc_mean=lambda x: 0.5 * np.clip(x, 0.0, 1.0) ** 2,
            trunc_second=lambda x: np.clip(x, 0.0, 1.0) ** 3 / 3.0,
            norming=lambda n: 0.5 * n,
            tail_class=TailClass("finite_mean"),
        )
    raise ParameterError(f"unknown finite-mean multiplier kind {kind!r}")


def make_multiplier_law(kind: str, *, beta: float = 0.5, rate: float = 1.0) -> MultiplierLaw:
    """Dispatch helper used by configuration records."""
    if kind == "pareto":
        return make_pareto_multiplier(beta)
    if kind == "slowly_varying":
        return make_slowly_varying_multiplier()
    if kind in ("exponential", "uniform01"):
        return make_finite_mean_multiplier(kind, rate=rate)
    raise ParameterError(f"unknown multiplier law kind {kind!r}")


def levy_cdf(z, c: float):
    """CDF of the Levy(0, c) law, 2 * (1 - Phi(sqrt(c/z))) for z > 0.

    This is the beta = 1/2 positive stable family: the limit of Pareto(1/2)
    partial sums under a_n = n^2 follows Levy(0, pi/2).  The scale c must be
    positive and finite; a NaN z raises ParameterError.
    """
    from scipy.special import ndtr  # bound here: importing scipy is slow

    if not 0.0 < c < math.inf:
        raise ParameterError("levy_cdf scale c must be positive and finite")
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise ParameterError("levy_cdf z must not be NaN")
    tail = 2.0 * (1.0 - ndtr(np.sqrt(c / np.where(z > 0.0, z, 1.0))))
    return np.where(z > 0.0, tail, 0.0)[()]
