"""The four benchmark workloads.

Each workload has a set-up (law and limit construction plus one warm-up call
per engine on a tiny input), an iteration (one verified result: the engine
calls and the checks of their outputs) and, where the engines take a thread
count, a determinism guard run outside the timed section.  Inputs come only from the ``SeedSequence`` an iteration
is handed; every input gets its own master seed through
``SeedSequence.spawn``.

Why these workloads:

* ``mc_large_n``: the S4/S6 law mix at n = 1e4 on one thread.  Per-draw
  sampling and the per-replication reduction dominate; no quadrature.  Where
  sampler and replication-kernel work shows.
* ``mc_small_n``: the same engines plus the limit pair at n of 10 to 100
  with many replications on every core.  Per-replication overhead (stream
  derivation, Python dispatch, pool chunking) dominates.
* ``limit_quad``: limit-CDF tables, tails and truncated moments.  Quadrature
  is almost all of the work and the replication kernel does none.
* ``reproduce_s1``: the user command ``reproduce S1`` through ``cli.main``,
  the only workload that exercises ``cli`` and ``scenarios`` (config
  resolution, CSV and JSON artifact writers) and pooled Monte Carlo at large
  n.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil

import numpy as np

from checks import (
    atomic_limit_cdf,
    cdf_quad_bound,
    frequency_gap_bound,
    ks_statistic,
    levy_cdf,
    mean_gap_bound,
    scaled_ks_bound,
    symmetric_pareto_tail,
    tail_prefactor,
    uniform_limit_cdf,
    Z_CHECK,
)

SUITE_REPS = 20_000          # replications of the suites' KS checks
W2_LEVY_SCALE = math.pi / 2  # Pareto(1/2) sums under a_n = n^2 -> Levy(0, pi/2)
QUAD_TOL = 1e-9              # BreimanLimit's default quad_tol
BERNOULLI = ((0.0, 0.5), (1.0, 0.5))


def seed53(ss: np.random.SeedSequence) -> int:
    """A 53-bit master seed: exact through the CLI's float-based parsing."""
    return int(ss.generate_state(1, np.uint64)[0]) >> 11


def streams(lab, ss, k):
    return [lab.distributions.SeedStream(seed53(c)) for c in ss.spawn(k)]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _laws(lab):
    d = lab.distributions
    return {
        "uniform01": d.make_weight_law("uniform01"),
        "bernoulli": d.make_weight_law("bernoulli", p=0.5, x0=0.0, x1=1.0),
        "standard_gaussian": d.make_weight_law("standard_gaussian"),
        "symmetric_pareto": d.make_weight_law("symmetric_pareto", gamma=0.8),
        "pareto": d.make_pareto_multiplier(0.5),
        "slowly_varying": d.make_slowly_varying_multiplier(),
        "exponential": d.make_finite_mean_multiplier("exponential", rate=1.0),
    }


class Workload:
    name = ""
    pooled = True  # its engines take a thread count (pool speedup is measured)

    all_cores = False  # run on nproc threads, else on one

    def __init__(self, nproc: int):
        self.nproc = nproc
        self.threads = nproc if self.all_cores else 1

    def setup(self, lab) -> dict:
        raise NotImplementedError

    def iteration(self, lab, state, ss, threads, checks, out) -> float:
        """Run one verified result; return the work units it did."""
        raise NotImplementedError

    def guard(self, lab, state, ss, checks) -> None:
        """Compare engine outputs at 1 and at nproc threads; engines that
        take no thread count have nothing to compare."""


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

# (label, weight law, multiplier law): the S4/S6 simulate_tn mix
TN_MIX = (
    ("u_p", "uniform01", "pareto"),
    ("b_sv", "bernoulli", "slowly_varying"),
    ("u_e", "uniform01", "exponential"),
    ("sp_p", "symmetric_pareto", "pareto"),
)


class _MonteCarlo(Workload):
    """Set-up and determinism guard shared by the two Monte Carlo workloads;
    the limit pair joins them when ``limit_pair_reps`` is set."""

    limit_pair_reps = 0

    def setup(self, lab):
        mc, lc, cd = lab.montecarlo, lab.levy_calculus, lab.class_diagnostics
        laws = _laws(lab)
        state = {f"tn_{lbl}": (laws[x], laws[y]) for lbl, x, y in TN_MIX}
        state["pair"] = (laws["uniform01"], laws["pareto"])
        state["share"] = (laws["standard_gaussian"], laws["slowly_varying"])
        if self.limit_pair_reps:
            state["limit_pair"] = lc.BivariateLevyView(laws["uniform01"],
                                                       lc.stable_levy_tail(0.5))
        seed = lab.distributions.SeedStream(1)
        self._engine_outputs(lab, state, seed, n=8, reps=4, threads=1, cutoff=1e-2)
        tiny = mc.EmpiricalSample(np.linspace(0.0, 1.0, 16), 0, {})
        cd.ks_distance(tiny, uniform_limit_cdf)
        cd.atom_scan(tiny, 0.01)
        return state

    def _engine_outputs(self, lab, state, seed, n, reps, threads, cutoff):
        """One call per engine at a fixed (n, reps); returns digests."""
        mc = lab.montecarlo
        cfg = lambda k: mc.SimConfig(n, reps, seed.child(k), threads=threads)
        out = []
        for k, (lbl, _, _) in enumerate(TN_MIX):
            out.append(digest(mc.simulate_tn(*state[f"tn_{lbl}"], cfg(k)).values))
        p = mc.simulate_normed_pair(*state["pair"], cfg(4))
        out.append(digest(p.w1, p.w2))
        s = mc.max_share_stats(*state["share"], cfg(5), (0.1,))
        out.append(digest(s.delta_sample, s.r_n_sample, list(s.a_n_eps_prob.values())))
        if "limit_pair" in state:
            lp = mc.simulate_limit_pair(state["limit_pair"], mc.SimConfig(
                1, reps, seed.child(6), cutoff=cutoff, threads=threads))
            out.append(digest(lp.w1, lp.w2))
        return out

    def guard(self, lab, state, ss, checks):
        (seed,) = streams(lab, ss, 1)
        one = self._engine_outputs(lab, state, seed, 32, 64, 1, 1e-2)
        many = self._engine_outputs(lab, state, seed, 32, 64, self.nproc, 1e-2)
        for k, (a, b) in enumerate(zip(one, many)):
            checks.true(f"guard.engine{k}_1_vs_{self.nproc}_threads", a == b)


class MCLargeN(_MonteCarlo):
    name = "mc_large_n"
    n = 10_000
    reps = 1_000

    def iteration(self, lab, state, ss, threads, checks, out):
        mc, cd = lab.montecarlo, lab.class_diagnostics
        seeds = streams(lab, ss, 6)
        n, reps = self.n, self.reps
        cfg = lambda k: mc.SimConfig(n, reps, seeds[k], threads=threads)
        ks_tol = scaled_ks_bound(0.02, SUITE_REPS, reps)
        samples = {lbl: mc.simulate_tn(*state[f"tn_{lbl}"], cfg(k))
                   for k, (lbl, _, _) in enumerate(TN_MIX)}
        pair = mc.simulate_normed_pair(*state["pair"], cfg(4))
        share = mc.max_share_stats(*state["share"], cfg(5), (0.1,))

        # uniform x Pareto(1/2): continuous arctan limit, mean E X exactly
        u_p = samples["u_p"]
        checks.le("u_p.ks_vs_closed_form_limit", cd.ks_distance(u_p, uniform_limit_cdf), ks_tol)
        checks.le("u_p.mean_gap", abs(u_p.values.mean() - 0.5), mean_gap_bound(u_p.values))
        # S4 asks for no atoms at 20000 replications; at this size the scan's
        # 20/reps floor lets windows at the edge of the (continuous) law
        # through now and then, so bound the reported masses instead: an atom
        # of mass m would put the KS distance above m/2
        checks.le("u_p.atom_mass_max",
                  max([m for _, m in cd.atom_scan(u_p, 0.01)], default=0.0), 2.0 * ks_tol)
        # bernoulli x slowly varying: atoms at the weight's atoms (S4)
        atoms = cd.atom_scan(samples["b_sv"], 0.01)
        checks.ge("b_sv.atom_mass_near_0",
                  max([m for loc, m in atoms if abs(loc) <= 0.02], default=0.0), 0.4)
        checks.ge("b_sv.atom_mass_near_1",
                  max([m for loc, m in atoms if abs(loc - 1.0) <= 0.02], default=0.0), 0.4)
        # uniform x exponential: degenerate at E X = 1/2 (S4)
        atoms = cd.atom_scan(samples["u_e"], 0.01)
        checks.ge("u_e.atom_mass_at_mean",
                  max([m for loc, m in atoms if abs(loc - 0.5) <= 0.02], default=0.0), 0.95)
        # symmetric Pareto(0.8) x Pareto(1/2): the law is symmetric about 0
        pos = float((samples["sp_p"].values > 0.0).mean())
        checks.le("sp_p.sign_balance_gap", abs(pos - 0.5), frequency_gap_bound(0.5, reps))
        # normed pair: plain sums -> Levy(0, pi/2); 0 <= w1 <= w2 for X in [0, 1]
        w2 = mc.EmpiricalSample(pair.w2, n, {})
        checks.le("pair.w2_ks_vs_levy",
                  cd.ks_distance(w2, lambda z: levy_cdf(z, W2_LEVY_SCALE)), ks_tol)
        checks.true("pair.w1_within_0_w2", bool(np.all((pair.w1 >= 0) & (pair.w1 <= pair.w2))))
        # max share, Gaussian x slowly varying (S6)
        checks.ge("share.max_share_prob_eps0.1", share.a_n_eps_prob[0.1], 0.9)
        checks.ge("share.delta_small_prob", float((share.delta_sample <= 0.1).mean()), 0.8)
        return 6.0 * n * reps


class MCSmallN(_MonteCarlo):
    name = "mc_small_n"
    sizes = {"u_p": 10, "b_sv": 100, "u_e": 10, "sp_p": 100, "pair": 10, "share": 100}
    reps = 4_000
    limit_pair_reps = 4_000
    cutoff = 1e-4  # S1's cutoff: Poisson mean 100 jumps per replication
    all_cores = True

    def iteration(self, lab, state, ss, threads, checks, out):
        mc, cd = lab.montecarlo, lab.class_diagnostics
        seeds = streams(lab, ss, 7)
        reps, sz = self.reps, self.sizes
        cfg = lambda k, n: mc.SimConfig(n, reps, seeds[k], threads=threads)
        samples = {lbl: mc.simulate_tn(*state[f"tn_{lbl}"], cfg(k, sz[lbl]))
                   for k, (lbl, _, _) in enumerate(TN_MIX)}
        pair = mc.simulate_normed_pair(*state["pair"], cfg(4, sz["pair"]))
        share = mc.max_share_stats(*state["share"], cfg(5, sz["share"]), (0.1,))
        lp = mc.simulate_limit_pair(state["limit_pair"], mc.SimConfig(
            1, self.limit_pair_reps, seeds[6], cutoff=self.cutoff, threads=threads))

        # E[T_n | Y] = E X for every n: the mean is 1/2 for the [0, 1] weights
        for lbl in ("u_p", "b_sv", "u_e"):
            v = samples[lbl].values
            checks.le(f"{lbl}.mean_gap", abs(v.mean() - 0.5), mean_gap_bound(v))
            checks.true(f"{lbl}.within_0_1", v[0] >= 0.0 and v[-1] <= 1.0)
        # exponential multipliers give Dirichlet(1, ..., 1) shares, so
        # Var T_n = Var X * E sum w^2 = (1/12) * 2/(n+1)
        v = samples["u_e"].values
        var, n = v.var(ddof=1), sz["u_e"]
        se_var = math.sqrt(max(((v - v.mean()) ** 4).mean() - var * var, 0.0) / len(v))
        checks.le("u_e.var_gap", abs(var - 1.0 / (6.0 * (n + 1))), Z_CHECK * se_var)
        pos = float((samples["sp_p"].values > 0.0).mean())
        checks.le("sp_p.sign_balance_gap", abs(pos - 0.5), frequency_gap_bound(0.5, reps))
        # Y >= 1 gives sum Y >= n, so w2 >= n / a_n = 1/n under a_n = n^2
        checks.ge("pair.w2_min_times_n", float(pair.w2.min()) * sz["pair"], 1.0 - 1e-12)
        checks.true("pair.w1_within_0_w2", bool(np.all((pair.w1 >= 0) & (pair.w1 <= pair.w2))))
        ratio = pair.ratio()
        checks.le("pair.ratio_mean_gap", abs(ratio.mean() - 0.5), mean_gap_bound(ratio))
        n = sz["share"]
        checks.true("share.ranges", share.delta_sample[0] >= 0.0
                    and share.r_n_sample[0] >= (1.0 - 1e-12) / math.sqrt(n)
                    and share.r_n_sample[-1] <= 1.0 + 1e-12
                    and 0.0 <= share.a_n_eps_prob[0.1] <= 1.0)
        # limit-pair ratio against the closed-form arctan CDF (S1, cutoff 1e-4)
        ratio = mc.EmpiricalSample(lp.ratio(), 0, {})
        checks.le("limit_pair.ratio_ks_vs_closed_form",
                  cd.ks_distance(ratio, uniform_limit_cdf),
                  scaled_ks_bound(0.03, SUITE_REPS, self.limit_pair_reps))
        pairs = reps * sum(sz.values())
        return pairs + self.limit_pair_reps * lp.meta["poisson_mean"]


# ---------------------------------------------------------------------------
# Limit-law quadrature
# ---------------------------------------------------------------------------


class LimitQuad(Workload):
    name = "limit_quad"
    pooled = False
    table_points = 2201       # S1's linear grid over [-0.05, 1.05]
    quantile_points = 3001    # S6's quantile grid
    quantile_draws = 20_000
    table_stride = 8          # an iteration tabulates every 8th point of S1's grid
    quantile_stride = 12      # and every 12th point of S6's, from a fresh offset
    tail_points = 200
    spot_points = 16
    prelimit_n = 1_000_000    # S3's n
    prelimit_draws = 200_000
    h_list = (0.25, 1.0)

    def setup(self, lab):
        ll, lc = lab.limit_laws, lab.levy_calculus
        laws = _laws(lab)
        state = {
            "lim_u": ll.BreimanLimit(0.5, laws["uniform01"]),
            "lim_b": ll.BreimanLimit(0.5, laws["bernoulli"]),
            "lim_sp": ll.BreimanLimit(0.5, laws["symmetric_pareto"]),
            "x_sp": laws["symmetric_pareto"],
            "x_u": laws["uniform01"],
            "y_p": laws["pareto"],
            "view": lc.BivariateLevyView(laws["uniform01"], lc.stable_levy_tail(0.5)),
        }
        self._warm_up(lab, state, lab.distributions.SeedStream(1))
        return state

    @staticmethod
    def _warm_up(lab, state, seed):
        """One call per engine on a tiny input."""
        ll, lc = lab.limit_laws, lab.levy_calculus
        grid = np.linspace(-0.05, 1.05, 5)
        for k in ("lim_u", "lim_b", "lim_sp"):
            ll.tabulated_cdf(state[k], grid=grid)(grid)
        ll.quantile_grid(state["x_sp"].sampler(seed, 64), points=5)
        ll.breiman_tail(state["lim_sp"], 2.0)
        lc.truncated_first_moments(state["view"], 1.0)
        lc.prelimit_truncated_first_moments(state["x_u"], state["y_p"], 1000, 1.0, seed,
                                            draws=256)
        lc.second_moment_smallh_scan(state["view"], k_max=0)

    @staticmethod
    def _slice(grid, stride, rng):
        """Every ``stride``-th point from a random offset, ends included."""
        start = int(rng.integers(stride))
        return np.unique(np.concatenate([grid[:1], grid[start::stride], grid[-1:]]))

    def iteration(self, lab, state, ss, threads, checks, out):
        ll, lc = lab.limit_laws, lab.levy_calculus
        q_seed, *h_seeds = streams(lab, ss, 1 + len(self.h_list))
        rng = np.random.default_rng(ss.spawn(1)[0])
        points = 0

        # uniform weight, a slice of S1's table, against the closed form
        s1_grid = np.linspace(-0.05, 1.05, self.table_points)
        grid = self._slice(s1_grid, self.table_stride, rng)
        table = ll.tabulated_cdf(state["lim_u"], grid=grid)(grid)
        xc = np.clip(grid, 0.0, 1.0)
        min_abs = float(np.min(xc ** 1.5 + (1.0 - xc) ** 1.5) / 1.5)
        checks.le("uniform.table_vs_closed_form",
                  float(np.max(np.abs(table - uniform_limit_cdf(grid)))),
                  cdf_quad_bound(QUAD_TOL, 2, min_abs))
        checks.true("uniform.table_monotone", bool(np.all(np.diff(table) >= 0.0)))
        points += grid.size

        # bernoulli weight, all of S1's grid: atoms only, no quadrature; exact
        # up to rounding
        table = ll.tabulated_cdf(state["lim_b"], grid=s1_grid)(s1_grid)
        checks.le("bernoulli.table_vs_closed_form",
                  float(np.max(np.abs(table - atomic_limit_cdf(s1_grid, BERNOULLI)))), 1e-12)
        checks.true("bernoulli.table_monotone", bool(np.all(np.diff(table) >= 0.0)))
        points += s1_grid.size

        # symmetric Pareto(0.8): a slice of S6's quantile grid of weight draws
        lim = state["lim_sp"]
        draws = state["x_sp"].sampler(q_seed, self.quantile_draws)
        qgrid = self._slice(ll.quantile_grid(draws, points=self.quantile_points),
                            self.quantile_stride, rng)
        table = ll.tabulated_cdf(lim, grid=qgrid)(qgrid)
        checks.true("sym_pareto.table_monotone_in_0_1",
                    bool(np.all(np.diff(table) >= 0.0)) and table[0] >= 0.0 and table[-1] <= 1.0)
        checks.true("sym_pareto.table_spans_0_to_1", table[0] < 0.01 and table[-1] > 0.99)
        points += qgrid.size
        # off-grid spot points against adaptive breiman_cdf: interpolation
        # error is at most the cell's CDF increment; i_a >= 1/2 because half
        # the mass lies at distance >= 1 on the far side of any x; each
        # moment takes at most 6 quadrature pieces
        qb = cdf_quad_bound(QUAD_TOL, 6, 0.5)
        cells = rng.choice(qgrid.size - 1, size=self.spot_points, replace=False)
        spots = 0.5 * (qgrid[cells] + qgrid[cells + 1])
        exact = np.array([ll.breiman_cdf(lim, float(t)) for t in spots])
        mirror = np.array([ll.breiman_cdf(lim, float(-t)) for t in spots])
        interp = np.interp(spots, qgrid, table)
        gap = np.abs(interp - exact) - (table[cells + 1] - table[cells]) - qb
        checks.le("sym_pareto.spot_gap_over_cell_increment", float(gap.max()), 0.0)
        checks.le("sym_pareto.symmetry_gap", float(np.max(np.abs(exact + mirror - 1.0))), 2.0 * qb)
        points += 2 * self.spot_points

        # first-order tail on a positive grid against the Beta-function form
        xs = np.logspace(0.0, 4.0, self.tail_points)
        tails = np.array([ll.breiman_tail(lim, float(t)) for t in xs])
        checks.le("sym_pareto.tail_vs_closed_form",
                  float(np.max(np.abs(tails - symmetric_pareto_tail(xs, 0.8)))),
                  2.0 * tail_prefactor(0.5) * QUAD_TOL)
        points += xs.size

        # truncated first moments: quadrature limit vs prelimit Monte Carlo
        for h, seed in zip(self.h_list, h_seeds):
            y_lim, xy_lim = lc.truncated_first_moments(state["view"], h)
            (y_pre, y_se), (xy_pre, xy_se) = lc.prelimit_truncated_first_moments(
                state["x_u"], state["y_p"], self.prelimit_n, h, seed,
                draws=self.prelimit_draws)
            checks.le(f"trunc_mean_y_gap_h={h:g}", abs(y_lim - y_pre), Z_CHECK * y_se + 1e-6)
            checks.le(f"trunc_mean_xy_gap_h={h:g}", abs(xy_lim - xy_pre), Z_CHECK * xy_se + 1e-6)
        # small-h decay of the quadratic integrals (S3, deterministic)
        scan = lc.second_moment_smallh_scan(state["view"], k_max=10)
        worst = max(b / t for b, t in zip(scan[2.0 ** -10], scan[1.0]))
        checks.le("second_moment_smallh_ratio", worst, 1e-3)
        return float(points)


# ---------------------------------------------------------------------------
# The user command
# ---------------------------------------------------------------------------


class ReproduceS1(Workload):
    name = "reproduce_s1"
    n = 10_000
    all_cores = True

    def setup(self, lab):
        mc, lc, ll, cd = (lab.montecarlo, lab.levy_calculus, lab.limit_laws,
                          lab.class_diagnostics)
        lab.cli._build_parser()
        laws = _laws(lab)
        state = {"x": laws["uniform01"], "y": laws["pareto"],
                 "view": lc.BivariateLevyView(laws["uniform01"], lc.stable_levy_tail(0.5)),
                 "lim": ll.BreimanLimit(0.5, laws["uniform01"])}
        self._tiny(lab, state, lab.distributions.SeedStream(1), 1)
        grid = np.linspace(-0.05, 1.05, 5)
        cdf = ll.tabulated_cdf(state["lim"], grid=grid)
        cd.ks_distance(mc.EmpiricalSample(grid, 0, {}), cdf)
        return state

    def _tiny(self, lab, state, seed, threads, n=8, reps=4):
        mc = lab.montecarlo
        tn = mc.simulate_tn(state["x"], state["y"], mc.SimConfig(n, reps, seed.child(1),
                                                                 threads=threads))
        lp = mc.simulate_limit_pair(state["view"], mc.SimConfig(
            1, reps, seed.child(2), cutoff=1e-2, threads=threads))
        np_ = mc.simulate_normed_pair(state["x"], state["y"], mc.SimConfig(
            n, reps, seed.child(3), threads=threads))
        return [digest(tn.values), digest(lp.w1, lp.w2), digest(np_.w1, np_.w2)]

    def guard(self, lab, state, ss, checks):
        (seed,) = streams(lab, ss, 1)
        one = self._tiny(lab, state, seed, 1, 32, 64)
        many = self._tiny(lab, state, seed, self.nproc, 32, 64)
        for k, (a, b) in enumerate(zip(one, many)):
            checks.true(f"guard.engine{k}_1_vs_{self.nproc}_threads", a == b)

    def iteration(self, lab, state, ss, threads, checks, out):
        target = out / "s1"
        shutil.rmtree(target, ignore_errors=True)
        seed = seed53(ss.spawn(1)[0])
        rc = lab.cli.main(["reproduce", "S1", "--out", str(target), "--seed", str(seed),
                           "--threads", str(threads)])
        checks.true("s1.exit_code_0", rc == 0, rc)
        summary = json.loads((target / "s1_summary.json").read_text())
        checks.true("s1.summary_seed", summary["seed"]["master_seed"] == seed)
        for c in summary["checks"]:
            checks.true(f"s1.suite.{c['name']}", c["passed"], c["value"])

        # re-verify the artifacts against closed forms, reading them back
        tn = self._read_csv(target / "s1_tn_sample.csv", checks)[:, 0]
        lp = self._read_csv(target / "s1_limit_pair.csv", checks)
        npair = self._read_csv(target / "s1_normed_pair.csv", checks)
        meta = json.loads((target / "s1_limit_pair.meta.json").read_text())
        checks.true("s1.artifact_rows", len(tn) == len(lp) == len(npair) == SUITE_REPS)
        checks.true("s1.tn_sorted_in_0_1", bool(np.all(np.diff(tn) >= 0.0))
                    and tn[0] >= 0.0 and tn[-1] <= 1.0)
        checks.le("s1.tn_ks_vs_closed_form", ks_statistic(tn, uniform_limit_cdf(tn)), 0.02)
        ratio = np.sort(np.where(lp[:, 1] != 0.0, lp[:, 0] / np.where(lp[:, 1] != 0.0, lp[:, 1], 1.0), 0.0))
        checks.le("s1.limit_pair_ratio_ks_vs_closed_form",
                  ks_statistic(ratio, uniform_limit_cdf(ratio)), 0.03)
        w2 = np.sort(npair[:, 1])
        checks.le("s1.w2_ks_vs_levy", ks_statistic(w2, levy_cdf(w2, W2_LEVY_SCALE)), 0.02)
        self.artifact_bytes = sum(p.stat().st_size for p in target.iterdir())
        return 2.0 * self.n * SUITE_REPS + SUITE_REPS * float(meta["poisson_mean"])

    @staticmethod
    def _read_csv(path, checks):
        """Parse a 17-digit CSV artifact and check that it round-trips."""
        lines = path.read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        vals = np.array(rows, dtype=float)
        sample = rows[:: max(1, len(rows) // 200)]
        checks.true(f"{path.name}.round_trip_17_digits",
                    all(format(float(c), ".17g") == c for row in sample for c in row))
        return vals


WORKLOADS = {w.name: w for w in (MCLargeN, MCSmallN, LimitQuad, ReproduceS1)}
