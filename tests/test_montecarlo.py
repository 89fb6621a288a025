import hashlib
import math
import multiprocessing
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from selfnorm_lab.distributions import (
    ParameterError,
    SeedStream,
    levy_cdf,
    make_finite_mean_multiplier,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
)
from selfnorm_lab.levy_calculus import BivariateLevyView, stable_levy_tail
from selfnorm_lab import montecarlo as mc
from selfnorm_lab.class_diagnostics import ks_distance
from selfnorm_lab.montecarlo import (
    BLOCK_ELEMS,
    MAX_THREADS,
    SUB_ELEMS,
    EmpiricalSample,
    SimConfig,
    divergence_probe,
    max_share_stats,
    simulate_limit_pair,
    simulate_normed_pair,
    simulate_tn,
)


def cfg(n=1000, reps=500, seed=1, idx=0, **kw):
    return SimConfig(n=n, reps=reps, seed=SeedStream(seed, idx), **kw)


# ---------------------------------------------------------------------------
# simulate_tn
# ---------------------------------------------------------------------------


def test_tn_point_mass_weight_is_constant():
    x = make_weight_law("point_mass", c=2.5)
    y = make_pareto_multiplier(0.5)
    s = simulate_tn(x, y, cfg(n=50, reps=200))
    assert np.allclose(s.values, 2.5)


def test_tn_zero_multiplier_convention():
    y0 = replace(make_finite_mean_multiplier("uniform01"),
                 sampler=lambda stream, count, out=None: np.zeros(count))
    x = make_weight_law("uniform01")
    s = simulate_tn(x, y0, cfg(n=10, reps=20))
    assert np.all(s.values == 0.0)


def test_tn_deterministic_and_thread_invariant():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    # (n, reps, threads): 19 blocks of 16 rows with a partial last one; then
    # 3 blocks (16, 16, 8) on more threads than blocks
    for n, reps, threads in ((1000, 300, 4), (1000, 40, 8)):
        a = simulate_tn(x, y, cfg(n=n, reps=reps))
        b = simulate_tn(x, y, cfg(n=n, reps=reps))
        c = simulate_tn(x, y, cfg(n=n, reps=reps, threads=threads))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)


def test_tn_degenerate_limit_finite_mean_multiplier():
    # T_n concentrates at E X when the multiplier has a finite mean
    x = make_weight_law("uniform01")
    y = make_finite_mean_multiplier("exponential", rate=1.0)
    s = simulate_tn(x, y, cfg(n=10_000, reps=2_000, seed=42))
    se = s.values.std(ddof=1) / math.sqrt(len(s.values))
    assert abs(s.values.mean() - 0.5) <= 5.0 * se
    assert s.values.std() < 0.02
    # and the spread shrinks as n grows
    s_small = simulate_tn(x, y, cfg(n=1_000, reps=2_000, seed=43))
    assert s.values.std() < 0.5 * s_small.values.std()


def test_tn_scale_invariance_pathwise():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    base = simulate_tn(x, y, cfg(reps=200))
    for c in (4.0, 3.0):
        ys = replace(y, sampler=lambda stream, count, out=None, _c=c:
                     _c * y.sampler(stream, count))
        scaled = simulate_tn(x, ys, cfg(reps=200))
        assert np.allclose(base.values, scaled.values, rtol=1e-12)


def test_tn_bounded_weight_bound():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    s = simulate_tn(x, y, cfg(n=500, reps=2_000))
    assert np.all(s.values >= 0.0) and np.all(s.values <= 1.0)


def test_tn_exchangeable_under_stream_relabeling():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    a = simulate_tn(x, y, cfg(n=100, reps=10_000, seed=5, idx=0))
    b = simulate_tn(x, y, cfg(n=100, reps=10_000, seed=5, idx=1))
    # same law, independent streams: two-sample KS below the 99% critical value
    crit = 1.628 * math.sqrt(2.0 / 10_000)
    assert ks_2samp(a.values, b.values).statistic <= crit


def test_tn_slowly_varying_multiplier_stays_finite():
    x = make_weight_law("bernoulli", p=0.5, x0=0.0, x1=1.0)
    y = make_slowly_varying_multiplier()
    s = simulate_tn(x, y, cfg(n=2_000, reps=500))
    assert np.all(np.isfinite(s.values))
    assert np.all((s.values >= 0.0) & (s.values <= 1.0))


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(n=0, reps=1, seed=SeedStream(1))
    with pytest.raises(ParameterError):
        SimConfig(n=1, reps=0, seed=SeedStream(1))
    with pytest.raises(ParameterError):
        SimConfig(n=1, reps=1, seed=SeedStream(1), cutoff=1.5)
    # building a request starts no thread; an engine call is never made here
    assert SimConfig(n=1, reps=1, seed=SeedStream(1), threads=MAX_THREADS).threads == MAX_THREADS
    for bad in (MAX_THREADS + 1, 10**6):
        with pytest.raises(ParameterError, match=f"threads must be at most {MAX_THREADS}"):
            SimConfig(n=1, reps=1, seed=SeedStream(1), threads=bad)


@pytest.mark.parametrize("field", ["n", "reps", "threads"])
@pytest.mark.parametrize("bad", [10.5, 10.0, math.nan, "10"])
def test_sim_config_rejects_non_integer_sizes(field, bad):
    sizes = {"n": 10, "reps": 10, "threads": 1, field: bad}
    with pytest.raises(ParameterError, match=field):
        SimConfig(seed=SeedStream(1), **sizes)


def test_sim_config_accepts_numpy_integers():
    c = SimConfig(n=np.int64(10), reps=np.int32(5), seed=SeedStream(1), threads=np.uint8(2))
    assert (c.n, c.reps, c.threads) == (10, 5, 2)
    assert all(type(v) is int for v in (c.n, c.reps, c.threads))


@pytest.mark.parametrize("values", [
    [], [math.nan], [1.0, math.inf], [-math.inf, 0.0],
    np.concatenate([np.linspace(0.0, 1.0, 1000), np.full(30, math.nan)]),
], ids=["empty", "nan", "inf", "-inf", "trailing_nan"])
def test_empirical_sample_rejects_empty_or_non_finite(values):
    # sorted to the end, NaN made atom_scan return [] and ks_distance NaN
    with pytest.raises(ParameterError, match="non-empty and finite"):
        EmpiricalSample(values, 0, {})


# ---------------------------------------------------------------------------
# simulate_normed_pair
# ---------------------------------------------------------------------------


def test_normed_pair_point_mass_weight_equal_components():
    x = make_weight_law("point_mass", c=1.0)
    y = make_pareto_multiplier(0.5)
    p = simulate_normed_pair(x, y, cfg(reps=200))
    assert np.array_equal(p.w1, p.w2)


def test_normed_pair_ratio_matches_tn_pathwise():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    p = simulate_normed_pair(x, y, cfg(reps=300))
    t = simulate_tn(x, y, cfg(reps=300))
    assert np.allclose(np.sort(p.ratio()), t.values, rtol=1e-12)


def test_normed_pair_w2_close_to_half_stable():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    p = simulate_normed_pair(x, y, cfg(n=10_000, reps=5_000, seed=8))
    s = EmpiricalSample(p.w2, 10_000, {})
    assert ks_distance(s, lambda z: levy_cdf(z, math.pi / 2.0)) <= 0.03


def test_normed_pair_rejects_overflowing_norming():
    x = make_weight_law("uniform01")
    y = make_slowly_varying_multiplier()
    with pytest.raises(ParameterError):
        simulate_normed_pair(x, y, cfg(n=100_000, reps=10))
    # the norming is finite at n = 100, but raw slowly varying draws
    # overflow to inf in some rows (138 of 1000 here)
    for kind in ("bernoulli", "standard_gaussian"):
        with pytest.raises(ParameterError, match="n=100 "):
            simulate_normed_pair(make_weight_law(kind), y, cfg(n=100, reps=1000))


def test_engines_reject_non_finite_draws():
    # Pareto(0.01) draws pass a double (v ** -100): at n = 100 on SeedStream(1),
    # 11 of 200 ratios would be inf / inf = NaN, and 28 of 20000 limit-pair w2
    # would be inf
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.01)
    c = cfg(n=100, reps=200, seed=1)
    with pytest.raises(ParameterError, match=r"pareto\(beta=0.01\) at n=100 "):
        simulate_tn(x, y, c)
    with pytest.raises(ParameterError, match=r"pareto\(beta=0.01\) at n=100 "):
        max_share_stats(x, y, c, (0.1,))
    view = BivariateLevyView(x, stable_levy_tail(0.01))
    with pytest.raises(ParameterError, match=r"stable\(beta=0.01\) at cutoff=0.0001 "):
        simulate_limit_pair(view, cfg(n=1, reps=20_000, seed=1, cutoff=1e-4))


# ---------------------------------------------------------------------------
# simulate_limit_pair
# ---------------------------------------------------------------------------


def view_half(kind="uniform01", **kw):
    return BivariateLevyView(make_weight_law(kind, **kw), stable_levy_tail(0.5))


def test_limit_pair_point_mass_weight_equal_components():
    p = simulate_limit_pair(view_half("point_mass", c=1.0),
                            cfg(n=1, reps=300, cutoff=0.01))
    assert np.array_equal(p.w1, p.w2)


def test_limit_pair_poisson_mean_and_bias_meta():
    p = simulate_limit_pair(view_half(), cfg(n=1, reps=100, cutoff=0.01))
    assert p.meta["poisson_mean"] == pytest.approx(10.0)  # 0.01^-0.5
    assert p.meta["bias_bound_w2"] == pytest.approx(0.1)  # eps^0.5 for beta=1/2
    assert p.meta["bias_bound_w1"] == pytest.approx(0.05)


def test_limit_pair_w2_matches_exact_stable():
    p = simulate_limit_pair(view_half(), cfg(n=1, reps=5_000, seed=13, cutoff=1e-4))
    s = EmpiricalSample(p.w2, 0, {})
    assert ks_distance(s, lambda z: levy_cdf(z, math.pi / 2.0)) <= 0.03


def test_limit_pair_cutoff_halving_consistency():
    eps = 1e-3
    a = simulate_limit_pair(view_half(), cfg(n=1, reps=5_000, seed=14, cutoff=eps))
    b = simulate_limit_pair(view_half(), cfg(n=1, reps=5_000, seed=15, cutoff=eps / 2))
    bias = a.meta["bias_bound_w2"]
    mc_band = 3.0 * 1.36 * math.sqrt(2.0 / 5_000)
    assert ks_2samp(a.w2, b.w2).statistic <= bias + mc_band


def test_limit_pair_requires_cutoff():
    with pytest.raises(ParameterError, match="cutoff"):
        simulate_limit_pair(view_half(), cfg(n=1, reps=50, seed=16))


def test_limit_pair_cutoff_too_small_rejected():
    with pytest.raises(ParameterError):
        simulate_limit_pair(view_half(), cfg(n=1, reps=10, cutoff=1e-15))


def test_limit_pair_deterministic_and_thread_invariant():
    # Poisson mean 10 gives 1638 rows per block: 400 replications are one
    # block; 5000 are four, the last partial, on more threads than blocks
    for reps, threads in ((400, 4), (5000, 8)):
        a = simulate_limit_pair(view_half(), cfg(n=1, reps=reps, cutoff=0.01))
        b = simulate_limit_pair(view_half(), cfg(n=1, reps=reps, cutoff=0.01, threads=threads))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


# ---------------------------------------------------------------------------
# max-share statistics
# ---------------------------------------------------------------------------


def test_max_share_constant_multiplier():
    y1 = replace(make_finite_mean_multiplier("uniform01"),
                 sampler=lambda stream, count, out=None: np.ones(count))
    x = make_weight_law("uniform01")
    n = 100
    st = max_share_stats(x, y1, cfg(n=n, reps=50), (0.5, 0.9))
    assert st.a_n_eps_prob[0.5] == 0.0  # share is exactly 1/n
    assert np.allclose(st.r_n_sample, 1.0 / math.sqrt(n))


def test_max_share_slowly_varying_dominates():
    x = make_weight_law("standard_gaussian")
    y = make_slowly_varying_multiplier()
    st = max_share_stats(x, y, cfg(n=2_000, reps=1_000, seed=23), (0.1,))
    assert st.a_n_eps_prob[0.1] >= 0.85
    assert float((st.delta_sample <= 0.1).mean()) >= 0.8


def test_max_share_finite_mean_rn_vanishes():
    x = make_weight_law("uniform01")
    y = make_finite_mean_multiplier("exponential", rate=1.0)
    st = max_share_stats(x, y, cfg(n=10_000, reps=500, seed=24), (0.1,))
    assert float(np.median(st.r_n_sample)) <= 0.05
    assert st.a_n_eps_prob[0.1] == 0.0


def test_max_share_pareto_intermediate():
    x = make_weight_law("uniform01")
    y = make_pareto_multiplier(0.5)
    p1 = max_share_stats(x, y, cfg(n=1_000, reps=2_000, seed=25), (0.1,)).a_n_eps_prob[0.1]
    p2 = max_share_stats(x, y, cfg(n=10_000, reps=2_000, seed=26), (0.1,)).a_n_eps_prob[0.1]
    for p in (p1, p2):
        assert 0.05 < p < 0.95
    assert abs(p1 - p2) < 0.1  # stable in n


def test_max_share_validates_eps():
    with pytest.raises(ParameterError):
        max_share_stats(make_weight_law("uniform01"), make_pareto_multiplier(0.5),
                        cfg(reps=10), (1.5,))


# ---------------------------------------------------------------------------
# exact laws at n = 2
# ---------------------------------------------------------------------------

# X Rademacher, Y Pareto(1/2), n = 2.  With R = Y1/Y2, P{R <= r} = r^beta / 2
# for r <= 1 and 1 - r^-beta / 2 above.  Equal weights (probability 1/2) give
# T_2 = +-1, atoms of 1/4; otherwise T_2 = +-(R - 1)/(R + 1).  The max share
# S = max(W, 1 - W), W = Y1/(Y1 + Y2), has P{S > s} = ((1 - s)/s)^beta.
EXACT_BETA, EXACT_REPS = 0.5, 1_000_000
# Massart's DKW bound at a 1e-6 false-alarm rate; it holds for any law,
# atoms included, and for a sup over any subset of points
EXACT_DKW = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * EXACT_REPS))  # 0.00269


def _ks_exact(values, cdf, left):
    """sup |F_N - F| of the sorted ``values`` against a law with CDF values
    ``cdf`` and left limits ``left`` at them."""
    i = np.arange(1, values.size + 1)
    return max(np.max(i / values.size - cdf), np.max(left - (i - 1) / values.size))


def test_tn_exact_law_at_n_2():
    c = cfg(n=2, reps=EXACT_REPS, seed=41, threads=2)
    t = simulate_tn(make_weight_law("rademacher"), make_pareto_multiplier(EXACT_BETA), c).values
    h = 0.5 * ((1.0 - np.abs(t)) / (1.0 + np.abs(t))) ** EXACT_BETA
    mixed = 0.5 * np.where(t < 0.0, h, 1.0 - h)  # unequal weights, (-1, 1)
    cdf = 0.25 + mixed + 0.25 * (t >= 1.0)
    left = 0.25 * (t > -1.0) + mixed
    assert _ks_exact(t, cdf, left) <= EXACT_DKW
    assert set(t[np.abs(t) >= 1.0]) == {-1.0, 1.0}  # the atoms are exact


def _diff_cdf(t):
    """P{D <= t} for D = W1 - W2 of two independent Pareto(1) draws on
    [1, inf): 1 - 1/t + log(1 + t)/t^2 for t > 0 (the series
    1/2 + t/3 - t^2/4 below 1e-4, where the closed form cancels), and
    1 - P{D <= -t} for t < 0."""
    a = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(a < 1e-4, 0.5 + a / 3.0 - a * a / 4.0,
                      1.0 - 1.0 / a + np.log1p(a) / (a * a))
    return np.where(t >= 0.0, up, 1.0 - up)


def test_tn_exact_law_at_n_2_log_sampler():
    # Y slowly varying: log Y = W is Pareto(1), and the engine draws W and
    # rescales by the row maximum.  Unequal weights give T_2 = +-tanh(D/2),
    # D = W1 - W2, so the CDF on (-1, 1) is 1/4 + P{D <= 2 artanh z}/2, with
    # atoms at -1 and 1.  In doubles T_2 is +-1 once |D| passes about 37, so
    # the mass beyond the last double before +-1 sits on the atoms.
    c = cfg(n=2, reps=EXACT_REPS, seed=43, threads=2)
    t = simulate_tn(make_weight_law("rademacher"), make_slowly_varying_multiplier(), c).values
    edge = np.nextafter(1.0, 0.0)
    mixed = 0.25 + 0.5 * _diff_cdf(2.0 * np.arctanh(np.clip(t, -edge, edge)))
    cdf = np.where(t >= 1.0, 1.0, mixed)
    left = np.where(t > -1.0, mixed, 0.0)
    assert _ks_exact(t, cdf, left) <= EXACT_DKW


def test_normed_pair_exact_law_at_n_2():
    # a_2 = 2^(1/beta) = 4, and S = Y1 + Y2 = 4 w2 has, for s >= 2,
    # P{S > s} = (s - 1)^-1/2 + (s - 2)/(s sqrt(s - 1)): Y1 alone passes s - 1,
    # or Y1 <= s - 1 and Y2 > s - Y1
    c = cfg(n=2, reps=EXACT_REPS, seed=47, threads=2)
    p = simulate_normed_pair(make_weight_law("rademacher"), make_pareto_multiplier(EXACT_BETA), c)
    assert p.meta["norming"] == 4.0
    s = np.sort(4.0 * p.w2)
    cdf = 1.0 - (s - 1.0) ** -0.5 - (s - 2.0) / (s * np.sqrt(s - 1.0))
    assert _ks_exact(s, cdf, cdf) <= EXACT_DKW


def test_max_share_exact_law_at_n_2():
    eps = np.linspace(0.01, 0.5, 50)
    c = cfg(n=2, reps=EXACT_REPS, seed=42, threads=2)
    st = max_share_stats(make_weight_law("rademacher"), make_pareto_multiplier(EXACT_BETA),
                         c, eps)
    # P{S > 1 - eps} on a grid: a sup over grid points of the share's ECDF
    want = (eps / (1.0 - eps)) ** EXACT_BETA
    assert np.max(np.abs(np.array(list(st.a_n_eps_prob.values())) - want)) <= EXACT_DKW
    # r_n = sqrt(S^2 + (1 - S)^2) increases with S on [1/2, 1)
    s = 0.5 * (1.0 + np.sqrt(np.maximum(2.0 * st.r_n_sample ** 2 - 1.0, 0.0)))
    cdf = 1.0 - ((1.0 - s) / s) ** EXACT_BETA
    assert _ks_exact(st.r_n_sample, cdf, cdf) <= EXACT_DKW
    # unequal weights put X at the argmax 2 (1 - S) from T_2, equal ones at 0
    d = st.delta_sample
    cdf = 0.5 + 0.5 * (d / (2.0 - d)) ** EXACT_BETA
    assert _ks_exact(d, cdf, np.where(d > 0.0, cdf, 0.0)) <= EXACT_DKW


# ---------------------------------------------------------------------------
# block kernel against a per-replication loop on the same block draws
# ---------------------------------------------------------------------------


def _block_streams(c, values_per_rep, min_rows=1):
    """(rows_b, block stream) per block, in the layout the engines document."""
    rows = max(min_rows, BLOCK_ELEMS // values_per_rep)
    return [(min(rows, c.reps - lo), c.seed.child(lo // rows))
            for lo in range(0, c.reps, rows)]


def _draw_chunks(x, y, c, log):
    """(multiplier rows, weight rows) per block in replication order:
    finite-n blocks hold at least 16 rows, each drawn from one generator
    pair with one sampler call per generator.  The engines group blocks
    into tasks and fill each task in sub-chunks that may start and end inside
    a block; equal draws pin that neither the task nor the sub-chunk size is
    part of the stream layout."""
    n = c.n
    for rows, block in _block_streams(c, n, min_rows=16):
        y_gen, x_gen = block.child(0).generator(), block.child(1).generator()
        ys = (y.log_sampler if log else y.sampler)(y_gen, rows * n)
        yield ys.reshape(rows, n), x.sampler(x_gen, rows * n).reshape(rows, n)


def _run_count(c):
    """Tasks of whole blocks at c.threads under the rule the engines
    document: as many blocks per task as fit in SUB_ELEMS values or about
    eight tasks per thread, whichever is more, but never fewer tasks than
    threads while blocks remain."""
    rows = max(16, BLOCK_ELEMS // c.n)
    blocks = len(_block_streams(c, c.n, min_rows=16))
    per_task = max(SUB_ELEMS // (rows * c.n), -(-blocks // (c.threads * 8)))
    return -(-blocks // max(1, min(per_task, blocks // c.threads)))


def _loop_rows(x, y, c, scale_free):
    """Per replication, (T_n, sum XY, sum Y, max share, |T_n - X at argmax|,
    r_n) computed one row at a time with scalar arithmetic."""
    out = []
    log = scale_free and y.log_sampler is not None
    for ys_all, xs_all in _draw_chunks(x, y, c, log):
        for ys, xs in zip(ys_all, xs_all):
            m = int(np.argmax(ys))
            if log:
                ys = np.exp(ys - ys[m])
            sy, sxy = ys.sum(), (xs * ys).sum()
            tn = sxy / sy if sy > 0.0 else 0.0
            share = ys[m] / sy if sy > 0.0 else 0.0
            rn = math.sqrt((ys * ys).sum()) / sy if sy > 0.0 else 0.0
            out.append((tn, sxy, sy, share, abs(tn - xs[m]), rn))
    return np.array(out)


KERNEL_CASES = [  # (weight, multiplier, n, reps)
    # tasks of several blocks, each task in one sub-chunk that crosses block
    # boundaries: one task of 1638 + 1638 + 224 rows on one thread
    ("uniform01", make_pareto_multiplier(0.5), 10, 3_500),
    # one task of 16 + 16 + 8 rows on the log sampler
    ("bernoulli", make_slowly_varying_multiplier(), 1_000, 40),
    # one task of 163 + 163 + 74 rows on the log sampler
    ("standard_gaussian", make_slowly_varying_multiplier(), 100, 400),
    # 163-row blocks in tasks of 4 and 3, the last block 22 rows
    ("standard_gaussian", make_pareto_multiplier(0.5), 100, 1_000),
    # 54-row blocks in tasks of 4 and 2, the last block 30 rows
    ("symmetric_pareto", make_pareto_multiplier(1.0), 300, 300),
    # a single partial block of 3 rows in one sub-chunk
    ("uniform01", make_finite_mean_multiplier("exponential"), BLOCK_ELEMS + 3, 3),
    # 16-row blocks, one per task, in one sub-chunk each, then a partial block of 3
    ("rademacher", make_pareto_multiplier(1.0), 3_000, 35),
    # 16-row blocks of 7+7+2 rows, then a partial block of 3
    ("symmetric_pareto", make_pareto_multiplier(0.5), BLOCK_ELEMS // 2 + 1, 35),
    # 16-row blocks of 13+3 rows on the log sampler, then a partial block of 3
    ("bernoulli", make_slowly_varying_multiplier(), 5_000, 35),
    # one-row sub-chunks, a single partial block
    ("uniform01", make_finite_mean_multiplier("exponential"), SUB_ELEMS // 2 + 1, 3),
    # twenty 16-row blocks in tasks of 3 on one thread, filled in 13-row
    # sub-chunks that straddle the block boundaries inside each task
    ("standard_gaussian", make_pareto_multiplier(0.5), 5_000, 320),
]


@pytest.mark.parametrize("kind,y,n,reps", KERNEL_CASES,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_block_kernel_equals_per_replication_loop(kind, y, n, reps):
    # at 1, 2 and 3 threads and at more threads than one-thread tasks
    x = make_weight_law(kind)
    c = cfg(n=n, reps=reps, seed=9, idx=4)
    ref = _loop_rows(x, y, c, scale_free=True)
    for threads in sorted({1, 2, 3, _run_count(c) + 1}):
        c = replace(c, threads=threads)
        assert np.array_equal(simulate_tn(x, y, c).values, np.sort(ref[:, 0]))
        st = max_share_stats(x, y, c, (0.1, 0.5))
        assert np.array_equal(st.delta_sample, np.sort(ref[:, 4]))
        assert np.array_equal(st.r_n_sample, np.sort(ref[:, 5]))
        assert st.a_n_eps_prob == {e: float((ref[:, 3] > 1.0 - e).mean()) for e in (0.1, 0.5)}
        if y.log_sampler is None:  # the normed pair draws raw multipliers
            p = simulate_normed_pair(x, y, c)
            a_n = y.norming(n)
            assert np.array_equal(p.w1, ref[:, 1] / a_n) and np.array_equal(p.w2, ref[:, 2] / a_n)


def test_small_call_gives_every_thread_a_task(monkeypatch):
    # three 1638-row blocks fit in one sub-chunk's worth of values, yet two
    # threads must not leave one of them idle
    seen, run = [], mc._run_replications

    def spy(fn, tasks, width, threads):
        seen.append(tasks)
        return run(fn, tasks, width, threads)

    monkeypatch.setattr(mc, "_run_replications", spy)
    simulate_tn(make_weight_law("uniform01"), make_finite_mean_multiplier("exponential"),
                cfg(n=10, reps=4_000, threads=2))
    assert len(seen) == 1 and seen[0] >= 2


@pytest.mark.parametrize("kind", ["bernoulli", "uniform01"])
@pytest.mark.parametrize("n", [10, 3_000, BLOCK_ELEMS + 3])
def test_convex_combination_bounds_are_exact(kind, n):
    # T_n is a convex combination of weights in [0, 1]: sum XY and sum Y add
    # in the same order, so no rounding may carry it outside [0, 1]
    x = make_weight_law(kind)  # bernoulli: 0/1 weights
    reps = max(20, 200_000 // n)  # at n = 10, some rows draw only 1s
    for y in (make_slowly_varying_multiplier(), make_pareto_multiplier(0.5)):
        t = simulate_tn(x, y, cfg(n=n, reps=reps, seed=11)).values
        assert np.all((t >= 0.0) & (t <= 1.0))
    p = simulate_normed_pair(x, make_pareto_multiplier(0.5), cfg(n=n, reps=reps, seed=12))
    assert np.all((p.w1 >= 0.0) & (p.w1 <= p.w2))


@pytest.mark.parametrize("cutoff,reps", [(0.01, 5_000), (1e-4, 500)])
def test_limit_pair_kernel_matches_per_replication_loop(cutoff, reps):
    view = view_half()
    c = cfg(n=1, reps=reps, seed=10, threads=2, cutoff=cutoff)
    lam = view.levy.tail(cutoff)
    ref = []
    for rows, block in _block_streams(c, math.ceil(lam)):
        gen = block.child(0).generator()
        counts = gen.poisson(lam, rows)
        jumps = view.levy.tail_inverse((1.0 - gen.random(counts.sum())) * lam)
        xs = view.weight.sampler(block.child(1), jumps.size)
        for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
            ref.append((float((xs[lo:hi] * jumps[lo:hi]).sum()), float(jumps[lo:hi].sum())))
    ref = np.array(ref)
    p = simulate_limit_pair(view, c)
    # bincount adds a row's jumps in order, the loop pairwise: float64 rounding
    np.testing.assert_allclose(p.w1, ref[:, 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(p.w2, ref[:, 1], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------


def test_divergence_bounded_weight_flat():
    x = make_weight_law("rademacher")
    y = make_pareto_multiplier(0.8)
    probe = divergence_probe(x, y, cfg(reps=400, seed=31), (100, 1_000, 10_000))
    assert abs(probe.loglog_slope) < 0.1


def test_divergence_probe_requires_increasing_n():
    with pytest.raises(ParameterError):
        divergence_probe(make_weight_law("uniform01"), make_pareto_multiplier(0.5),
                         cfg(reps=10), (100, 100))


def test_divergence_probe_needs_two_sizes():
    # one point has no slope
    for n_list in ((100,), ()):
        with pytest.raises(ParameterError, match="two sizes"):
            divergence_probe(make_weight_law("uniform01"), make_pareto_multiplier(0.5),
                             cfg(reps=10), n_list)


def test_divergence_probe_rejects_zero_median():
    # log 0 would give a NaN slope with a RuntimeWarning
    with pytest.raises(ParameterError, match="at n=10,"):
        divergence_probe(make_weight_law("point_mass", c=0.0), make_pareto_multiplier(0.5),
                         cfg(reps=10), (10, 100))


def test_divergence_probe_rejects_non_integer_n():
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.5)
    for n_list in ((10.5, 100.9), (10, 100.0)):
        with pytest.raises(ParameterError):
            divergence_probe(x, y, cfg(reps=10), n_list)
    probe = divergence_probe(x, y, cfg(reps=10), (np.int64(10), 100))
    assert list(probe.medians) == [10, 100]


# ---------------------------------------------------------------------------
# the persistent worker pool
# ---------------------------------------------------------------------------


def _engine_bits(threads):
    """The bytes of one call of each engine, every call over several blocks."""
    x, y = make_weight_law("uniform01"), make_pareto_multiplier(0.5)
    tn = simulate_tn(x, y, cfg(n=100, reps=600, seed=21, threads=threads))
    pair = simulate_normed_pair(x, y, cfg(n=50, reps=1_200, seed=22, threads=threads))
    share = max_share_stats(make_weight_law("standard_gaussian"), make_slowly_varying_multiplier(),
                            cfg(n=200, reps=300, seed=23, threads=threads), (0.1,))
    lim = simulate_limit_pair(view_half(), cfg(n=1, reps=5_000, seed=24, cutoff=0.01,
                                               threads=threads))
    arrays = (tn.values, pair.w1, pair.w2, share.delta_sample, share.r_n_sample, lim.w1, lim.w2)
    return [a.tobytes() for a in arrays] + [share.a_n_eps_prob[0.1]]


def test_concurrent_callers_get_single_thread_bits():
    # three callers share the pools of 2 and 3 workers; a short switch
    # interval makes their tasks interleave on the workers
    ref = _engine_bits(1)
    results, errors = {k: [] for k in range(3)}, []

    def caller(k):
        try:
            for _ in range(2):
                results[k].append(_engine_bits(2 + k % 2))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert all(bits == ref for runs in results.values() for bits in runs)


def _child_bits(conn):
    conn.send(hashlib.sha256(repr(_engine_bits(2)).encode()).hexdigest())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_runs_pooled_engines():
    # the child inherits the parent's pool but none of its worker threads;
    # it must start its own pool instead of waiting on the dead one
    parent_bits = _engine_bits(2)  # the parent's pool of 2 now exists
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_bits, args=(send,))
    child.start()
    try:
        send.close()
        got = recv.recv() if recv.poll(120.0) else None
        child.join(timeout=30.0)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10.0)
    assert child.exitcode == 0
    assert got == hashlib.sha256(repr(parent_bits).encode()).hexdigest()
