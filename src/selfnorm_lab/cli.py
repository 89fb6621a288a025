"""Command line front end.

Subcommands: ``simulate`` (finite-n ratio sample), ``limit`` (arctan limit
CDF table), ``diagnose`` (multiplier classification), ``levy`` (row-tail and
truncated-moment convergence reports) and ``reproduce`` (named verification
suites S1..S6).

Configuration is a flat key=value file with dotted sections (see configs/ for
canonical examples); ``--seed`` and ``--threads`` override the file, and the
environment variable SELFNORM_LAB_THREADS is the thread fallback.  Exit
codes: 0 success, 1 failed verification check, 2 I/O error, 3 configuration
error.  Thread count never changes numerical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import class_diagnostics as cd
from . import levy_calculus as lc
from . import limit_laws as ll
from . import montecarlo as mc
from . import scenarios
from .distributions import (
    ParameterError,
    SeedStream,
    make_multiplier_law,
    make_weight_law,
)
from .scenarios import _write_json


class UsageError(Exception):
    """Command line usage problem (mapped to exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep the exit-code contract away from argparse
        raise UsageError(message)


_DEFAULTS = {
    "scenario": "custom",
    "n": "10000",
    "reps": "20000",
    "seed": "20260808",
    "threads": "",
    "outputs": "out",
    "x_law.kind": "uniform01",
    "y_law.kind": "pareto",
    "y_law.beta": "0.5",
    "y_law.rate": "1.0",
    "x_law.c": "1.0",
    "x_law.p": "0.5",
    "x_law.x0": "0.0",
    "x_law.x1": "1.0",
    "x_law.gamma": "0.5",
    "grid.lo": "-0.25",
    "grid.hi": "1.25",
    "grid.points": "1001",
    "diag.lo": "1e2",
    "diag.hi": "1e16",
    "diag.points": "57",
    "levy.n_list": "1000,10000,100000",
    "levy.v_grid": "0.25,0.5,1,2,4",
    "levy.u_grid": "0.5,1,2",
    "levy.h_list": "0.25,1",
    "levy.draws": "200000",
    "levy.kmax": "10",
}


def parse_config_file(path: Path) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    out = {}
    text = path.read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _config_int(key: str, text: str) -> int:
    """An integer config value; a float spelling of an integer (``1e4``)
    passes, a fraction or a non-finite value raises ParameterError."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise ParameterError(f"config field {key!r} must be an integer, got {text!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Resolved experiment settings plus the raw key-value record."""

    raw: dict

    def get(self, key: str) -> str:
        return self.raw.get(key, _DEFAULTS.get(key, ""))

    def get_int(self, key: str) -> int:
        return _config_int(key, self.get(key))

    def get_int_list(self, key: str) -> list:
        return [_config_int(key, tok) for tok in self.get(key).split(",") if tok.strip()]

    def get_float(self, key: str) -> float:
        try:
            return float(self.get(key))
        except ValueError:
            raise ParameterError(f"config field {key!r} must be a number, "
                                 f"got {self.get(key)!r}")

    def get_list(self, key: str) -> list:
        return [float(tok) for tok in self.get(key).split(",") if tok.strip()]

    def weight_law(self):
        kind = self.get("x_law.kind")
        return make_weight_law(kind, c=self.get_float("x_law.c"),
                               p=self.get_float("x_law.p"),
                               x0=self.get_float("x_law.x0"),
                               x1=self.get_float("x_law.x1"),
                               gamma=self.get_float("x_law.gamma"))

    def multiplier_law(self):
        kind = self.get("y_law.kind")
        return make_multiplier_law(kind, beta=self.get_float("y_law.beta"),
                                   rate=self.get_float("y_law.rate"))

    def resolved(self) -> dict:
        """Full settings record embedded in every output for auditability.

        Execution-context knobs (thread count, output path) are excluded:
        they cannot influence results, and embedding them would break the
        byte-identity of reruns under different thread counts.
        """
        merged = dict(_DEFAULTS)
        merged.update(self.raw)
        merged.pop("threads", None)
        merged.pop("outputs", None)
        return merged


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config is not None:
        raw = parse_config_file(Path(args.config))
    cfg = ExperimentConfig(raw)
    if args.seed is not None:
        cfg.raw["seed"] = str(args.seed)
    if args.out is not None:
        cfg.raw["outputs"] = str(args.out)
    threads = args.threads
    if threads is None:
        env = os.environ.get("SELFNORM_LAB_THREADS", "")
        threads = int(env) if env else None
    if threads is None:
        threads = int(cfg.get("threads") or 1)
    cfg.raw["threads"] = str(threads)
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.get("outputs"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}")
    return out


def _meta(cfg: ExperimentConfig, command: str, extra: Optional[dict] = None) -> dict:
    payload = {"command": command, "config": cfg.resolved()}
    if extra:
        payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_simulate(cfg: ExperimentConfig) -> int:
    x = cfg.weight_law()
    y = cfg.multiplier_law()
    sim = mc.SimConfig(n=cfg.get_int("n"), reps=cfg.get_int("reps"),
                       seed=SeedStream(cfg.get_int("seed")),
                       threads=cfg.get_int("threads"))
    out = _outdir(cfg)
    sample = mc.simulate_tn(x, y, sim)
    scenarios._write_sample_csv(out / "tn_sample.csv", ["tn"], [sample.values],
                                meta=_meta(cfg, "simulate", {"law_meta": sample.law_meta}))
    return 0


def run_limit(cfg: ExperimentConfig) -> int:
    x = cfg.weight_law()
    beta = cfg.get_float("y_law.beta")
    lim = ll.BreimanLimit(beta, x)
    lo, hi = cfg.get_float("grid.lo"), cfg.get_float("grid.hi")
    points = cfg.get_int("grid.points")
    if points < 2 or hi <= lo:
        raise ParameterError("grid.points must be >= 2 and grid.hi > grid.lo")
    grid = np.linspace(lo, hi, points)
    cdf_vals = ll.breiman_cdf_grid(lim, grid)
    tails = np.full_like(grid, math.nan)
    tails[grid > 0.0] = ll.breiman_tail(lim, grid[grid > 0.0])
    out = _outdir(cfg)
    scenarios._write_sample_csv(out / "limit_table.csv", ["x", "breiman_cdf", "breiman_tail"],
                                [grid, cdf_vals, tails],
                                meta=_meta(cfg, "limit", {"beta": beta}))
    return 0


def run_diagnose(cfg: ExperimentConfig) -> int:
    y = cfg.multiplier_law()
    grid = np.logspace(math.log10(cfg.get_float("diag.lo")),
                       math.log10(cfg.get_float("diag.hi")),
                       cfg.get_int("diag.points"))
    scans = cd.ratio_scans(y, grid)
    verdict = cd.verdict_from_scans(*scans)
    out = _outdir(cfg)
    _write_json(out / "class_verdict.json",
                _meta(cfg, "diagnose", {"verdict": verdict.__dict__}))
    scenarios._write_sample_csv(out / "ratio_scan.csv", ["x", "feller", "centered", "griffin"],
                                list(scans))
    return 0


def run_levy(cfg: ExperimentConfig) -> int:
    x = cfg.weight_law()
    y = cfg.multiplier_law()
    seed = SeedStream(cfg.get_int("seed"))
    n_list = cfg.get_int_list("levy.n_list")
    v_grid = cfg.get_list("levy.v_grid")
    u_grid = cfg.get_list("levy.u_grid")
    h_list = cfg.get_list("levy.h_list")
    draws = cfg.get_int("levy.draws")

    if y.tail_class.kind == "pareto" and 0.0 < (y.tail_class.beta or 0.0) < 1.0:
        view = lc.BivariateLevyView(x, lc.stable_levy_tail(y.tail_class.beta))
    else:
        view = None
    result = lc.check_levy_convergence(
        x, y, view, n_list=n_list, v_grid=v_grid,
        uv_grid=[(u, 0.0) for u in u_grid] if view is not None else (),
        stream=seed.child(1), draws=draws)
    payload = {}
    if view is not None:
        for h in h_list:
            lim = lc.truncated_first_moments(view, h)
            alpha_lim = lc.alpha_h(view.levy, h)
            alpha_pre = lc.prelimit_alpha_h(y, n_list[-1], h)
            payload[f"h={h:g}"] = {
                "alpha_h_limit": alpha_lim,
                "alpha_h_prelimit": alpha_pre,
                "first_moments_limit": list(lim),
                "second_moments_limit": list(lc.truncated_second_moments(view, h)),
            }
        scan = lc.second_moment_smallh_scan(view, k_max=cfg.get_int("levy.kmax"))
        payload["smallh_scan"] = {format(h, ".10g"): list(v) for h, v in scan.items()}
    out = _outdir(cfg)  # only once the input has passed its checks
    _write_json(out / "levy_convergence.json", asdict(result))
    _write_json(out / "levy_moments.json", _meta(cfg, "levy", {"reports": payload}))
    return 0


def run_reproduce(suite: str, cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    seed = SeedStream(cfg.get_int("seed"))
    threads = cfg.get_int("threads")
    result = scenarios.run_suite(suite, seed, threads=threads, outdir=out)
    result["config"] = cfg.resolved()
    _write_json(out / f"{suite.lower()}_summary.json", result)
    if not result["passed"]:
        failing = [c["name"] for c in result["checks"] if not c["passed"]]
        print(f"{suite}: FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="selfnorm-lab",
                     description="simulation lab for randomly weighted and "
                                 "self-normalized sums")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "draw the finite-n self-normalized ratio sample"),
        ("limit", "tabulate the arctan limit CDF and its tail expansion"),
        ("diagnose", "classify the multiplier law from its tail ratios"),
        ("levy", "row-tail and truncated-moment convergence reports"),
        ("reproduce", "run a named verification suite (S1..S6)"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value configuration file")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides config 'outputs')")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config 'seed')")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads; results do not depend on it "
                            "(fallback: SELFNORM_LAB_THREADS)")
        if name == "reproduce":
            p.add_argument("suite", type=str, help="one of S1..S6")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            return run_simulate(cfg)
        if args.command == "limit":
            return run_limit(cfg)
        if args.command == "diagnose":
            return run_diagnose(cfg)
        if args.command == "levy":
            return run_levy(cfg)
        if args.command == "reproduce":
            return run_reproduce(args.suite.upper(), cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (ParameterError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
