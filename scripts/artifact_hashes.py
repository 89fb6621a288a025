"""Hash every artifact of the reproduce suites and the shipped configs.

Runs ``reproduce`` on every suite of ``scenarios.SUITES`` and the CLI
commands on ``configs/*.cfg`` at seed 20260808 into a temporary directory and
prints one ``sha256  relative/path`` line per output file, sorted by path.
Two runs can then be compared with ``diff``: across thread counts, or across
two checkouts of the package.

    PYTHONPATH=src python scripts/artifact_hashes.py --threads 2 > hashes.txt

The package is imported from the Python path, so pointing ``PYTHONPATH`` at
another checkout's ``src`` hashes that checkout's artifacts.  The exit code
is 1 if any command fails (a failing suite still has its files hashed), and
0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from selfnorm_lab import cli, scenarios

SEED = 20260808
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# the CLI commands each shipped config is written for
CONFIG_COMMANDS = {
    "breiman": ("simulate", "limit", "levy"),
    "degenerate_mean": ("simulate",),
    "diagnose_pareto": ("diagnose",),
    "divergence": ("simulate",),
    "weight_atoms": ("simulate",),
}


def runs(out: Path, threads: int):
    """(label, argv) for every command, each writing to its own directory."""
    common = ["--seed", str(SEED), "--threads", str(threads)]
    for suite in scenarios.SUITES:
        yield f"reproduce {suite}", ["reproduce", suite, "--out", str(out / suite.lower()),
                                     *common]
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    unknown = [c.stem for c in configs if c.stem not in CONFIG_COMMANDS]
    if unknown:
        raise SystemExit(f"no commands listed for configs/{unknown[0]}.cfg")
    for cfg in configs:
        for command in CONFIG_COMMANDS[cfg.stem]:
            yield f"{command} {cfg.name}", [command, "--config", str(cfg), "--out",
                                            str(out / f"{command}_{cfg.stem}"), *common]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    args = ap.parse_args(argv)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for label, cmd in runs(out, args.threads):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(cmd)
            if code != 0:
                failed.append(label)
                print(f"{label}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
