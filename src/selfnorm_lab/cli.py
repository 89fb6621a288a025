"""Command line front end.

Subcommands: ``simulate`` (finite-n ratio sample), ``limit`` (arctan limit
CDF table), ``diagnose`` (multiplier classification), ``levy`` (row-tail and
truncated-moment convergence reports) and ``reproduce`` (named verification
suites S1..S6).

Configuration is a flat key=value file with dotted sections; ``_KEYS`` lists
every key with its default and configs/ holds canonical examples.  Every key
is parsed and checked before a command writes anything, and an unknown or a
repeated key is an error.  ``--seed`` overrides the file; the thread count
comes from ``--threads`` alone (default 1) and is at most
``montecarlo.MAX_THREADS``.
Exit codes: 0 success, 1 failed verification check, 2 I/O error, 3
configuration error.  Thread count never changes numerical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
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
    QuadratureError,
    SeedStream,
    as_int,
    make_multiplier_law,
    make_weight_law,
)
from .scenarios import _write_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit 3, not argparse's 2
        raise ParameterError(message)


def parse_config_file(path: Path) -> dict:
    """Read a flat key = value file; '#' starts a comment; a key may not repeat."""
    out, first = {}, {}
    text = path.read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} repeats line {first[key]}")
        first[key], out[key] = lineno, value
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


def _config_count(least: int, most: Optional[int] = None):
    """Parser of an integer config value in [least, most] (``most`` when given)."""
    return lambda key, text: as_int(_config_int(key, text), f"config field {key!r}", least, most)


def _config_float(key: str, text: str) -> float:
    """A finite float config value; anything else raises ParameterError."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParameterError(f"config field {key!r} must be a finite number, got {text!r}")
    return value


def _config_list(parse, rule=None, nonempty=False, increasing=False):
    """Parser of a comma-separated list whose entries ``parse`` reads, each one
    passing ``rule`` (a (test, name) pair) if given, in increasing order if set."""
    def parse_list(key, text):
        values = [parse(key, tok) for tok in text.split(",") if tok.strip()]
        if nonempty and not values:
            raise ParameterError(f"config field {key!r} must not be empty")
        if rule is not None and not all(map(rule[0], values)):
            raise ParameterError(f"config field {key!r} entries must be {rule[1]}, got {text!r}")
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ParameterError(f"config field {key!r} must be strictly increasing, got {text!r}")
        return values
    return parse_list


_text = lambda key, text: text
_POSITIVE, _NONZERO = (lambda v: v > 0.0, "positive"), (lambda v: v != 0.0, "non-zero")
# Most values of a count that sizes an array (n, reps, draws, grid points):
# 2**30 doubles are 8 GiB.  A larger count can only fail in numpy, with a
# MemoryError or, past about 2**60, a plain ValueError that names no key.
_MAX_COUNT = 2**30

# Every config key: its default text and its parser, called as parse(key, text).
_KEYS = {
    "scenario": ("custom", _text),
    "n": ("10000", _config_count(1, _MAX_COUNT)),
    "reps": ("20000", _config_count(1, _MAX_COUNT)),
    "seed": ("20260808", lambda key, text: SeedStream(_config_count(0, 2**64 - 1)(key, text))),
    "outputs": ("out", _text),
    "x_law.kind": ("uniform01", _text),
    "y_law.kind": ("pareto", _text),
    "y_law.beta": ("0.5", _config_float),
    "y_law.rate": ("1.0", _config_float),
    "x_law.c": ("1.0", _config_float),
    "x_law.p": ("0.5", _config_float),
    "x_law.x0": ("0.0", _config_float),
    "x_law.x1": ("1.0", _config_float),
    "x_law.gamma": ("0.5", _config_float),
    "grid.lo": ("-0.25", _config_float),
    "grid.hi": ("1.25", _config_float),
    "grid.points": ("1001", _config_count(2, _MAX_COUNT)),
    "diag.lo": ("1e2", _config_float),
    "diag.hi": ("1e16", _config_float),
    "diag.points": ("57", _config_count(2, _MAX_COUNT)),
    "levy.n_list": ("1000,10000,100000", _config_list(_config_count(1), nonempty=True)),
    "levy.v_grid": ("0.25,0.5,1,2,4",
                    _config_list(_config_float, _POSITIVE, nonempty=True, increasing=True)),
    "levy.u_grid": ("0.5,1,2", _config_list(_config_float, _NONZERO)),
    "levy.h_list": ("0.25,1", _config_list(_config_float, _POSITIVE)),
    "levy.draws": ("200000", _config_count(2, _MAX_COUNT)),
    # the scan's quadratic integrals at h = 2^-k fall like 2^(-(2 - beta) k);
    # near k = 680 at beta = 1/2 they reach subnormal doubles, where quad's
    # budget is below rounding; up to k = 400 they stay above 1e-260 for the
    # built-in continuous weights at beta from 0.01 to 0.99
    "levy.kmax": ("10", _config_count(0, 400)),
}


def _load_config(args) -> tuple:
    """Parse and check every key once; returns (values, record).

    ``values`` maps each key of ``_KEYS`` to its parsed value, and
    ``threads`` to the thread count.  ``record`` holds the text of every key
    and is embedded in each output for auditability.  Execution-context
    knobs (thread count, output path) stay out of it: they cannot influence
    results, and embedding them would break the byte-identity of reruns
    under different thread counts.
    """
    raw = parse_config_file(Path(args.config)) if args.config is not None else {}
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.out is not None:
        raw["outputs"] = args.out
    record = {key: raw.get(key, default) for key, (default, _) in _KEYS.items()}
    cfg = {key: parse(key, record[key]) for key, (_, parse) in _KEYS.items()}
    del record["outputs"]
    cfg["threads"] = as_int(args.threads, "--threads", 1, mc.MAX_THREADS)
    return cfg, record


def _laws(cfg: dict) -> tuple:
    """The weight and multiplier laws the config names."""
    x = make_weight_law(cfg["x_law.kind"], c=cfg["x_law.c"], p=cfg["x_law.p"],
                        x0=cfg["x_law.x0"], x1=cfg["x_law.x1"], gamma=cfg["x_law.gamma"])
    y = make_multiplier_law(cfg["y_law.kind"], beta=cfg["y_law.beta"],
                            rate=cfg["y_law.rate"])
    return x, y


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["outputs"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}")
    return out


def _meta(record: dict, command: str, extra: dict) -> dict:
    return {"command": command, "config": record, **extra}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_simulate(cfg: dict, record: dict) -> int:
    x, y = _laws(cfg)
    sim = mc.SimConfig(n=cfg["n"], reps=cfg["reps"], seed=cfg["seed"], threads=cfg["threads"])
    sample = mc.simulate_tn(x, y, sim)
    out = _outdir(cfg)  # only once the sample is drawn
    scenarios._write_sample_csv(out / "tn_sample.csv", ["tn"], [sample.values],
                                meta=_meta(record, "simulate", {"law_meta": sample.law_meta}))
    return 0


def run_limit(cfg: dict, record: dict) -> int:
    x, y = _laws(cfg)
    if y.tail_class.kind != "pareto" or y.tail_class.beta >= 1.0:  # no arctan limit
        raise ParameterError(f"limit needs a pareto multiplier with beta < 1, got {y.label}")
    beta = y.tail_class.beta
    lim = ll.BreimanLimit(beta, x)
    lo, hi, points = cfg["grid.lo"], cfg["grid.hi"], cfg["grid.points"]
    if hi <= lo:
        raise ParameterError(f"grid.hi must exceed grid.lo, got {hi!r} <= {lo!r}")
    grid = np.linspace(lo, hi, points)
    tails = np.full_like(grid, math.nan)
    try:
        cdf_vals = ll.breiman_cdf_grid(lim, grid)
        tails[grid > 0.0] = ll.breiman_tail(lim, grid[grid > 0.0])
    except QuadratureError as exc:  # a far grid point overflows the rule's nodes
        raise ParameterError(f"grid.lo = {lo!r} .. grid.hi = {hi!r} reaches past the range "
                             f"of the limit evaluators: {exc}") from exc
    out = _outdir(cfg)
    scenarios._write_sample_csv(out / "limit_table.csv", ["x", "breiman_cdf", "breiman_tail"],
                                [grid, cdf_vals, tails],
                                meta=_meta(record, "limit", {"beta": beta}))
    return 0


def run_diagnose(cfg: dict, record: dict) -> int:
    _, y = _laws(cfg)
    lo, hi, points = cfg["diag.lo"], cfg["diag.hi"], cfg["diag.points"]
    if min(lo, hi) <= 0.0:  # the order and span are ratio_scans' to check
        raise ParameterError(f"diag.lo and diag.hi must be positive, got {lo!r} .. {hi!r}")
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    try:
        scans = cd.ratio_scans(y, grid)
    except ParameterError as exc:  # a grid under six decades or reaching below Y's support
        raise ParameterError(f"diag.lo = {lo!r} .. diag.hi = {hi!r}: {exc}") from exc
    verdict = cd.verdict_from_scans(*scans)
    out = _outdir(cfg)
    _write_json(out / "class_verdict.json",
                _meta(record, "diagnose", {"verdict": verdict.__dict__}))
    scenarios._write_sample_csv(out / "ratio_scan.csv", ["x", "feller", "centered", "griffin"],
                                list(scans))
    return 0


def run_levy(cfg: dict, record: dict) -> int:
    x, y = _laws(cfg)
    n_list, view = cfg["levy.n_list"], lc.limit_view(x, y)
    try:
        result = lc.check_levy_convergence(x, y, n_list, cfg["levy.v_grid"], cfg["levy.u_grid"],
                                           cfg["seed"].child(1), cfg["levy.draws"])
        payload = {}
        if view is not None:
            for h in cfg["levy.h_list"]:
                try:
                    lim = lc.truncated_first_moments(view, h)
                    second = lc.truncated_second_moments(view, h)
                except ParameterError as exc:  # a level at which h^(k - beta) overflows
                    raise ParameterError(f"levy.h_list = {h!r}: {exc}") from exc
                alpha_lim = lc.alpha_h(view.levy, h)
                try:
                    alpha_pre = lc.prelimit_alpha_h(y, n_list[-1], h)
                except ParameterError as exc:  # a_n or a_n h overflows
                    raise ParameterError(f"levy.h_list = {h!r} at the last levy.n_list entry "
                                         f"{n_list[-1]}: {exc}") from exc
                payload[f"h={h:g}"] = {
                    "alpha_h_limit": alpha_lim,
                    "alpha_h_prelimit": alpha_pre,
                    "first_moments_limit": list(lim),
                    "second_moments_limit": list(second),
                }
            scan = lc.second_moment_smallh_scan(view, k_max=cfg["levy.kmax"])
            payload["smallh_scan"] = {format(h, ".10g"): list(v) for h, v in scan.items()}
    except QuadratureError as exc:  # near E|X|^beta = inf a limit integral misses its budget
        # (or a half-disk moment of an atom past about 1e154 overflows, at every h)
        raise ParameterError(f"x_law.kind = {cfg['x_law.kind']}: a limit integral of "
                             f"{x.label} under {y.label} failed: {exc}") from exc
    out = _outdir(cfg)  # only once the input has passed its checks
    _write_json(out / "levy_convergence.json", asdict(result))
    _write_json(out / "levy_moments.json", _meta(record, "levy", {"reports": payload}))
    return 0


def run_reproduce(suite: str, cfg: dict, record: dict) -> int:
    out = _outdir(cfg)
    result = scenarios.run_suite(suite, cfg["seed"], threads=cfg["threads"], outdir=out)
    result["config"] = record
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
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1); results do not depend on it")
        if name == "reproduce":
            p.add_argument("suite", type=str.upper, choices=scenarios.SUITES,
                           help="verification suite")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg, record = _load_config(args)
        if args.command == "reproduce":
            return run_reproduce(args.suite, cfg, record)
        run = {"simulate": run_simulate, "limit": run_limit, "diagnose": run_diagnose,
               "levy": run_levy}[args.command]
        return run(cfg, record)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
