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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import special
from scipy.integrate import quad


class ParameterError(ValueError):
    """A law or operation parameter is outside its admissible range."""


def as_int(value, name: str) -> int:
    """``value`` as an int; numpy integers pass, floats (even 10.0) raise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the partial bracket."""

    def __init__(self, message: str, partial: float = math.nan, err: float = math.nan):
        super().__init__(f"{message} (partial={partial!r}, abserr={err!r})")
        self.partial = partial
        self.err = err


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
        # one uint32 array contributes the same key words as the tuple
        # (stream_index, *path) of one-word ints, and numpy coerces it in one step
        key = np.array((self.stream_index, *self.path), dtype=np.uint32)
        seq = np.random.SeedSequence(entropy=int(self.master_seed), spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, k: int) -> "SeedStream":
        """Derive substream ``k`` (k < 2**32) without state sharing."""
        return SeedStream(self.master_seed, self.stream_index,
                          (*self.path, as_int(k, "substream index")))


RandomSource = Union[SeedStream, np.random.Generator]


def _rng(source: RandomSource) -> np.random.Generator:
    """The generator a sampler draws from: a stream's fresh generator, or a
    ``Generator`` as it stands, continuing where it left off."""
    if isinstance(source, np.random.Generator):
        return source
    return source.generator()


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

    ``beta_moment_pos(b)`` is the fractional moment of the positive part,
    the integral of x**b over (0, inf); ``beta_moment_neg`` mirrors it on the
    negative half line.  ``pdf`` is the density of the continuous part, zero
    outside ``support``; ``pdf_breaks`` lists points where the density is
    kinked or discontinuous (quadrature split points).  ``atoms`` holds the
    discrete part as (location, mass) pairs.  ``cdf`` is P{X <= x} and
    ``sf`` is P{X > x}; both map a float to a float and an ndarray to one of
    the same shape.  ``sf`` is its own closed form, not ``1 - cdf``, so it
    keeps its relative accuracy in the far upper tail, where ``1 - cdf``
    cancels to zero.  ``pdf`` stays a scalar integrand: QUADPACK calls it
    once per node, and a float call is cheaper than an array call there.
    ``sampler(source, count)`` draws ``count`` values from a
    :class:`SeedStream` (a fresh generator from its key) or a numpy
    ``Generator`` (continuing its sequence) and returns a fresh float array
    that the caller may overwrite.
    """

    label: str
    cdf: Callable[[float], float]
    sf: Callable[[float], float]
    sampler: Callable[[RandomSource, int], np.ndarray]
    mean: float
    abs_mean: float
    beta_moment_pos: Callable[[float], float]
    beta_moment_neg: Callable[[float], float]
    atoms: tuple = ()
    pdf: Optional[Callable[[float], float]] = None
    pdf_breaks: tuple = ()
    support: tuple = (-math.inf, math.inf)

    def atom_mass(self, x: float) -> float:
        for loc, m in self.atoms:
            if loc == x:
                return m
        return 0.0

    def cdf_left(self, x: float) -> float:
        """Left limit F(x-)."""
        return self.cdf(x) - self.atom_mass(x)


def vec_eval(fn: Callable, arr: np.ndarray) -> np.ndarray:
    """Evaluate a law callable over an array in one call.

    A law callable must map an ndarray to an array of the same shape; any
    other result raises :class:`ParameterError` naming the callable.
    """
    arr = np.asarray(arr, dtype=float)
    out = np.asarray(fn(arr), dtype=float)
    if out.shape != arr.shape:
        raise ParameterError(f"law callable {getattr(fn, '__qualname__', fn)} is not "
                             f"vectorized: shape {out.shape} for input shape {arr.shape}")
    return out


@dataclass(frozen=True)
class MultiplierLaw:
    """Distribution of the non-negative multiplier Y.

    ``survival`` is P{Y > y}, ``trunc_mean(x)`` is E[Y 1{Y <= x}] and
    ``trunc_second(x)`` is E[Y^2 1{Y <= x}].  ``norming(n)`` is the sequence
    a_n used to rescale partial sums.  ``tail_sampler(source, count, y0)``
    draws from the conditional law of Y given Y > y0 exactly; it powers
    low-variance estimators of rare product-tail events.
    ``survival_logarg`` and ``log_norming`` are optional log-space
    companions (P{Y > e^t} and log a_n) that keep tail evaluations finite
    when a_n overflows a double, as it does for the slowly varying law.
    ``log_sampler`` draws log Y coupled to the same uniforms as ``sampler``;
    scale-free engines use it so that laws whose raw draws overflow a double
    still sum correctly.  All three samplers take a :class:`SeedStream` (a
    fresh generator from its key) or a numpy ``Generator`` (continuing its
    sequence) as ``source`` and return a fresh float array that the caller
    may overwrite.
    ``survival``, ``survival_logarg``, ``trunc_mean`` and ``trunc_second`` map
    a float to a float and an ndarray to one of the same shape.
    """

    label: str
    survival: Callable[[float], float]
    sampler: Callable[[RandomSource, int], np.ndarray]
    trunc_mean: Callable[[float], float]
    trunc_second: Callable[[float], float]
    norming: Callable[[int], float]
    tail_class: TailClass
    tail_sampler: Callable[[RandomSource, int, float], np.ndarray]
    log_norming: Optional[Callable[[int], float]] = None
    survival_logarg: Optional[Callable[[float], float]] = None
    log_sampler: Optional[Callable[[RandomSource, int], np.ndarray]] = None


# ---------------------------------------------------------------------------
# Quadrature against a weight law
# ---------------------------------------------------------------------------

_QUAD_LIMIT = 300


def _quad_piece(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    res = quad(f, lo, hi, epsabs=tol, epsrel=1e-9, limit=_QUAD_LIMIT, full_output=1)
    if not math.isfinite(res[0]):
        raise QuadratureError("quadrature result is not finite", partial=res[0], err=res[1])
    if len(res) > 3:
        # QUADPACK flags slow convergence even when the absolute target was
        # reached (e.g. the relative goal is unattainable for near-zero
        # values); accept results whose error bound meets the tolerance.
        if res[1] <= tol:
            return res[0]
        raise QuadratureError(str(res[3]), partial=res[0], err=res[1])
    return res[0]


def _piece(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """One quadrature piece.  The parts beyond |t| = 1 are folded into
    [-1, 1] by the reciprocal substitution u = 1/t, whether their edge is
    finite or infinite.  Power-law tails become integrable endpoint
    singularities (QAGS territory) instead of stressing the infinite-range
    extrapolation.  However wide a piece is, the bulk of a law then lies in
    [-1, 1] or folds onto a large part of it, within reach of QUADPACK's
    nodes; unfolded, the nodes on (-1e3, 1e3) miss the Gaussian bulk."""
    total = 0.0
    if a < -1.0:
        total += _quad_piece(lambda t: f(1.0 / t) / (t * t), 1.0 / min(b, -1.0), 1.0 / a, tol)
    lo, hi = max(a, -1.0), min(b, 1.0)
    if hi > lo:
        total += _quad_piece(f, lo, hi, tol)
    if b > 1.0:
        total += _quad_piece(lambda t: f(1.0 / t) / (t * t), 1.0 / b, 1.0 / max(a, 1.0), tol)
    return total


def expect_weight(law: WeightLaw, g: Callable[[float], float],
                  lo: float = -math.inf, hi: float = math.inf,
                  points: Sequence[float] = (), tol: float = 1e-10) -> float:
    """Integral of g against the law of X over the open interval (lo, hi).

    Atoms count only strictly inside (lo, hi).  The continuous part is
    integrated by adaptive quadrature, split at the declared density breaks
    and any caller-supplied points (integrand kinks) inside the interval.
    Each piece is accepted when QUADPACK's error estimate is at most
    max(tol, 1e-9 * |piece|) (only ``tol`` if QUADPACK flags a problem) and
    its value is finite, else :class:`QuadratureError` is raised; a large
    piece may thus miss ``tol``.
    """
    total = 0.0
    for loc, m in law.atoms:
        if lo < loc < hi:
            total += m * g(loc)
    if law.pdf is not None:
        a = max(lo, law.support[0])
        b = min(hi, law.support[1])
        if b > a:
            pdf = law.pdf
            inner = sorted({p for p in (*points, *law.pdf_breaks) if a < p < b and math.isfinite(p)})
            edges = [a, *inner, b]
            total += sum(_piece(lambda x: g(x) * pdf(x), p, q, tol)
                         for p, q in zip(edges[:-1], edges[1:]))
    return total


# ---------------------------------------------------------------------------
# Built-in weight laws
# ---------------------------------------------------------------------------

_norm_cdf = special.ndtr


def _uniform01_weight() -> WeightLaw:
    def cdf(x):
        return np.clip(x, 0.0, 1.0)

    return WeightLaw(
        label="uniform01",
        cdf=cdf,
        sf=lambda x: np.clip(1.0 - x, 0.0, 1.0),
        sampler=lambda source, count: _rng(source).random(count),
        mean=0.5,
        abs_mean=0.5,
        beta_moment_pos=lambda b: 1.0 / (1.0 + b),
        beta_moment_neg=lambda b: 0.0,
        pdf=lambda x: 1.0 if 0.0 <= x <= 1.0 else 0.0,
        pdf_breaks=(0.0, 1.0),
        support=(0.0, 1.0),
    )


def _gaussian_weight() -> WeightLaw:
    def beta_moment(b):
        return 2.0 ** ((b - 1.0) / 2.0) * math.gamma((b + 1.0) / 2.0) / math.sqrt(2.0 * math.pi)

    return WeightLaw(
        label="standard_gaussian",
        cdf=_norm_cdf,
        sf=lambda x: _norm_cdf(np.negative(x)),
        sampler=lambda source, count: _rng(source).standard_normal(count),
        mean=0.0,
        abs_mean=math.sqrt(2.0 / math.pi),
        beta_moment_pos=beta_moment,
        beta_moment_neg=beta_moment,
        pdf=lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
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
    mean = sum(m * loc for loc, m in atoms)
    abs_mean = sum(m * abs(loc) for loc, m in atoms)

    def cdf(x):
        return sum(m * (np.asarray(x) >= loc) for loc, m in atoms)

    def sf(x):
        return sum(m * (np.asarray(x) < loc) for loc, m in atoms)

    def bmp(b):
        return sum(m * loc ** b for loc, m in atoms if loc > 0)

    def bmn(b):
        return sum(m * (-loc) ** b for loc, m in atoms if loc < 0)

    locs = np.array([loc for loc, _ in atoms])
    # atom j takes U in [cum[j-1], cum[j]); counting all but the last
    # cumulative mass sends U >= cum[-2] to the last atom, rounding included
    inner_cum = np.cumsum([m for _, m in atoms])[:-1]

    def sampler(source, count):
        return locs[_atom_index(inner_cum, _rng(source).random(count))]

    return WeightLaw(
        label=label, cdf=cdf, sf=sf, sampler=sampler, mean=mean, abs_mean=abs_mean,
        beta_moment_pos=bmp, beta_moment_neg=bmn, atoms=atoms, pdf=None,
        support=(atoms[0][0], atoms[-1][0]),
    )


def _symmetric_pareto_weight(gamma: float) -> WeightLaw:
    # P{|X| > x} = x^-gamma on [1, inf), sign is an independent fair coin
    def half_tail(x):
        return 0.5 * np.maximum(np.abs(x), 1.0) ** (-gamma)  # 0.5 on (-1, 1)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        tail = half_tail(x)
        return np.where(x < 1.0, tail, 1.0 - tail)[()]

    def sf(x):
        x = np.asarray(x, dtype=float)
        tail = half_tail(x)
        return np.where(x > -1.0, tail, 1.0 - tail)[()]

    def sampler(source, count):
        gen = _rng(source)
        mag = (1.0 - gen.random(count)) ** (-1.0 / gamma)
        sign = gen.integers(0, 2, size=count) * 2.0 - 1.0
        return sign * mag

    def half_moment(b):
        return gamma / (2.0 * (gamma - b)) if b < gamma else math.inf

    finite_mean = gamma > 1.0
    return WeightLaw(
        label=f"symmetric_pareto({gamma:g})",
        cdf=cdf,
        sf=sf,
        sampler=sampler,
        mean=0.0 if finite_mean else math.nan,
        abs_mean=gamma / (gamma - 1.0) if finite_mean else math.inf,
        beta_moment_pos=half_moment,
        beta_moment_neg=half_moment,
        pdf=lambda x: 0.5 * gamma * abs(x) ** (-gamma - 1.0) if abs(x) >= 1.0 else 0.0,
        pdf_breaks=(-1.0, 1.0),
        support=(-math.inf, math.inf),
    )


def _abs_pareto_weight(gamma: float) -> WeightLaw:
    # |symmetric_pareto(gamma)|: one-sided Pareto on [1, inf)
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 1.0, 1.0 - np.maximum(x, 1.0) ** (-gamma), 0.0)

    return WeightLaw(
        label=f"abs_pareto({gamma:g})",
        cdf=cdf,
        sf=lambda x: np.maximum(x, 1.0) ** (-gamma),
        sampler=lambda source, count: (1.0 - _rng(source).random(count)) ** (-1.0 / gamma),
        mean=gamma / (gamma - 1.0) if gamma > 1.0 else math.inf,
        abs_mean=gamma / (gamma - 1.0) if gamma > 1.0 else math.inf,
        beta_moment_pos=lambda b: gamma / (gamma - b) if b < gamma else math.inf,
        beta_moment_neg=lambda b: 0.0,
        pdf=lambda x: gamma * x ** (-gamma - 1.0) if x >= 1.0 else 0.0,
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
        return _atomic_weight(f"point_mass({c:g})", [(float(c), 1.0)])
    if kind == "bernoulli":
        if not 0.0 < p < 1.0:
            raise ParameterError("bernoulli p must lie in (0, 1)")
        if x0 == x1:
            raise ParameterError("bernoulli locations must differ")
        return _atomic_weight(f"bernoulli({p:g},{x0:g},{x1:g})",
                              [(float(x0), 1.0 - p), (float(x1), p)])
    if kind == "symmetric_pareto":
        if not 0.0 < gamma < 2.0:
            raise ParameterError("symmetric_pareto gamma must lie in (0, 2)")
        return _symmetric_pareto_weight(float(gamma))
    if kind == "abs_pareto":
        if not 0.0 < gamma < 2.0:
            raise ParameterError("abs_pareto gamma must lie in (0, 2)")
        return _abs_pareto_weight(float(gamma))
    raise ParameterError(f"unknown weight law kind {kind!r}")


# ---------------------------------------------------------------------------
# Built-in multiplier laws
# ---------------------------------------------------------------------------


def _pareto_power(v: np.ndarray, b: float) -> np.ndarray:
    """v ** (-1/b) for v in (0, 1]: Pareto(b) draws from v = 1 - U.  For
    b = 1/2 it takes 1 / (v * v), which is cheaper than the power, stays >= 1
    and lies within 2 ulp of it."""
    if b == 0.5:
        return 1.0 / (v * v)
    return v ** (-1.0 / b)


def make_pareto_multiplier(beta: float) -> MultiplierLaw:
    """Pareto multiplier, P{Y > y} = y^-beta on [1, inf), beta in (0, 2).

    The norming sequence is the upper 1/n quantile, a_n = n**(1/beta), which
    makes n * P{Y > a_n v} = v^-beta exactly whenever a_n v >= 1.
    """
    if not 0.0 < beta < 2.0:
        raise ParameterError("pareto beta must lie in (0, 2)")
    b = float(beta)

    def survival(y):
        return np.maximum(y, 1.0) ** (-b)

    def trunc_mean(x):
        xm = np.maximum(x, 1.0)
        mean = np.log(xm) if b == 1.0 else b * (xm ** (1.0 - b) - 1.0) / (1.0 - b)
        return np.where(x <= 1.0, 0.0, mean)[()]  # no -0.0 below the support

    def trunc_second(x):
        return b * (np.maximum(x, 1.0) ** (2.0 - b) - 1.0) / (2.0 - b)

    def tail_sampler(source, count, y0):
        lo = max(1.0, y0)
        return lo * (1.0 - _rng(source).random(count)) ** (-1.0 / b)

    return MultiplierLaw(
        label=f"pareto(beta={b:g})",
        survival=survival,
        sampler=lambda source, count: _pareto_power(1.0 - _rng(source).random(count), b),
        trunc_mean=trunc_mean,
        trunc_second=trunc_second,
        norming=lambda n: float(n) ** (1.0 / b),
        tail_class=TailClass("pareto", b),
        log_norming=lambda n: math.log(n) / b,
        survival_logarg=lambda t: np.exp(-b * np.maximum(t, 0.0)),
        tail_sampler=tail_sampler,
    )


def make_slowly_varying_multiplier() -> MultiplierLaw:
    """Multiplier with slowly varying tail, P{Y > y} = 1/log(y) on [e, inf).

    Truncated moments come from the closed forms
    E[Y 1{Y<=x}]   = Ei(log x) - x/log x + e - Ei(1),
    E[Y^2 1{Y<=x}] = 2 Ei(2 log x) - x^2/log x + e^2 - 2 Ei(2),
    where Ei is the exponential integral.  The quantile norming a_n = e^n
    overflows doubles for n > 709, so the log-space hooks are essential here.
    """
    e = math.e

    def survival(y):
        return 1.0 / np.log(np.maximum(y, e))

    def trunc_mean(x):
        xm = np.maximum(x, e)
        lx = np.log(xm)
        return np.where(x <= e, 0.0, special.expi(lx) - xm / lx + e - special.expi(1.0))[()]

    def trunc_second(x):
        xm = np.maximum(x, e)
        lx = np.log(xm)
        z = 2.0 * lx
        with np.errstate(over="ignore", invalid="ignore"):
            direct = 2.0 * special.expi(z) - xm * xm / lx + e * e - 2.0 * special.expi(2.0)
            # past z = 700 both terms overflow; their difference is
            # (x^2 / log x) sum_{k>=1} k!/z^k (asymptotic series of Ei, ten
            # terms reach 1e-19 there), overflowing only with the value
            term, series = 1.0, 0.0
            for k in range(1, 11):
                term = term * k / z
                series = series + term
            far = xm * (xm * (series / lx))
        return np.where(x <= e, 0.0, np.where(z > 700.0, far, direct))[()]

    def sampler(source, count):
        u = 1.0 - _rng(source).random(count)  # (0, 1]
        with np.errstate(over="ignore"):
            return np.exp(1.0 / u)  # inf beyond e^709; see log_sampler

    def log_sampler(source, count):
        u = 1.0 - _rng(source).random(count)
        return 1.0 / u

    def tail_sampler(source, count, y0):
        cap = 1.0 / math.log(max(y0, e))  # P{Y > y0} in uniform units
        u = (1.0 - _rng(source).random(count)) * cap
        with np.errstate(over="ignore"):
            return np.exp(1.0 / u)

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
        tail_sampler=tail_sampler,
    )


def make_finite_mean_multiplier(kind: str, rate: float = 1.0) -> MultiplierLaw:
    """Finite-mean multiplier: ``exponential`` (with ``rate``) or ``uniform01``.

    For these laws the norming is the law-of-large-numbers scale a_n = n E Y;
    the upper-quantile choice used for heavy tails is bounded for uniform01
    and would violate a_n -> inf.
    """
    if kind == "exponential":
        if not rate > 0.0:
            raise ParameterError("exponential rate must be positive")
        r = float(rate)

        def trunc_mean(x):
            x = np.maximum(x, 0.0)
            return (1.0 - np.exp(-r * x)) / r - x * np.exp(-r * x)

        def trunc_second(x):
            x = np.maximum(x, 0.0)
            return 2.0 * trunc_mean(x) / r - x * (x * np.exp(-r * x))  # no inf * 0

        return MultiplierLaw(
            label=f"exponential(rate={r:g})",
            survival=lambda y: np.exp(-r * np.maximum(y, 0.0)),
            sampler=lambda source, count: _rng(source).standard_exponential(count) / r,
            trunc_mean=trunc_mean,
            trunc_second=trunc_second,
            norming=lambda n: n / r,
            tail_class=TailClass("finite_mean"),
            tail_sampler=lambda source, count, y0: (
                max(y0, 0.0) + _rng(source).standard_exponential(count) / r),
        )
    if kind == "uniform01":
        def tail_sampler(source, count, y0):
            lo = max(0.0, min(y0, 1.0))
            return lo + (1.0 - lo) * _rng(source).random(count)

        return MultiplierLaw(
            label="uniform01",
            survival=lambda y: np.clip(1.0 - y, 0.0, 1.0),
            sampler=lambda source, count: _rng(source).random(count),
            trunc_mean=lambda x: 0.5 * np.clip(x, 0.0, 1.0) ** 2,
            trunc_second=lambda x: np.clip(x, 0.0, 1.0) ** 3 / 3.0,
            norming=lambda n: 0.5 * n,
            tail_class=TailClass("finite_mean"),
            tail_sampler=tail_sampler,
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
    partial sums under a_n = n^2 follows Levy(0, pi/2).
    """
    z = np.asarray(z, dtype=float)
    tail = 2.0 * (1.0 - _norm_cdf(np.sqrt(c / np.where(z > 0.0, z, 1.0))))
    return np.where(z > 0.0, tail, 0.0)[()]
