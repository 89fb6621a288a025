"""The command line's exit contract as one property over every key of
``cli._KEYS``, for ``simulate``, ``limit``, ``diagnose`` and ``levy``:

* ``main`` returns 0, 1, 2 or 3 and raises nothing;
* exit 3 leaves ``--out`` uncreated, and its message names a key it was
  given (see ``_names_a_key``);
* no artifact holds NaN or Infinity, except the documented ``nan`` in
  ``limit_table.csv``'s tail column at x <= 0;
* no RuntimeWarning is issued.

Each example overrides one to four keys of a small base config, each with a
valid value of its parser or one from an adversarial pool, and runs
``cli.main`` in-process.  The examples are derandomized, so the property is
the same set of configs on every run.
"""

import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from selfnorm_lab import cli

COMMANDS = ("simulate", "limit", "diagnose", "levy")

# valid values of each key's parser; the sizes are capped, so that one
# example runs well under a second
VALID = {
    "scenario": ("custom", "S1"),
    "n": ("1", "2", "10", "40", "1e1"),
    "reps": ("1", "2", "30", "80"),
    "seed": ("0", "1", "20260808", str(2**64 - 1)),
    "outputs": ("out",),
    "x_law.kind": ("uniform01", "standard_gaussian", "rademacher", "point_mass",
                   "bernoulli", "symmetric_pareto", "abs_pareto"),
    "y_law.kind": ("pareto", "slowly_varying", "exponential", "uniform01"),
    "y_law.beta": ("0.01", "0.3", "0.5", "0.99", "1", "1.5", "2.5"),
    "y_law.rate": ("0.5", "2"),
    "x_law.c": ("-1.5", "2.5"),
    "x_law.p": ("0.1", "0.9"),
    "x_law.x0": ("-1", "0.5"),
    "x_law.x1": ("2", "1e6"),
    "x_law.gamma": ("0.3", "0.8", "1.2", "1.9"),
    "grid.lo": ("-2", "-0.25", "0.5"),
    "grid.hi": ("-0.5", "3", "1e3"),
    "grid.points": ("2", "11", "40"),
    "diag.lo": ("1", "10"),
    "diag.hi": ("1e8", "1e100"),
    "diag.points": ("2", "20"),
    "levy.n_list": ("10", "100,10", "1000"),
    "levy.v_grid": ("1", "0.25,0.5,1,2,4", "1e-300,1e300"),
    "levy.u_grid": ("", "-1,1", "1e200"),
    "levy.h_list": ("", "1e-3", "0.25,1"),
    "levy.draws": ("2", "50", "300"),
    "levy.kmax": ("0", "3", "10"),
}
ADVERSARIAL = ("0", "1", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e160",
               "1e19", "2.5", "abc", "")
ADVERSARIAL_LISTS = (",", "1,,2", "1,nan", "0,1", "-1,1", "1,inf", "1e308,1e308", "2,1", "1,1")
LISTS = {"levy.n_list", "levy.v_grid", "levy.u_grid", "levy.h_list"}
# the base config: small sizes for every command
BASE = {"n": "20", "reps": "40", "grid.points": "21", "diag.points": "20",
        "levy.n_list": "10,100", "levy.draws": "200", "levy.kmax": "3"}


def _pool(key):
    return VALID[key] + ADVERSARIAL + (ADVERSARIAL_LISTS if key in LISTS else ())


@st.composite
def _overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), min_size=1, max_size=4, unique=True))
    return {key: draw(st.sampled_from(_pool(key))) for key in keys}


def _names_a_key(err, overrides):
    """Whether ``err`` names a key of ``overrides``: in full, by its last
    part, by the symbol of a list key's entries (``u`` for ``levy.u_grid``)
    or, for a law's kind, by the law's name."""
    names = set()
    for key, value in overrides.items():
        last = key.rsplit(".", 1)[-1]
        names |= {key, last, last.split("_")[0] if key in LISTS else last}
        if last == "kind":
            names.add(value)
    return any(re.search(rf"(?<![\w.]){re.escape(name)}(?![\w])", err) for name in names if name)


def _non_finite_tokens(path):
    """The NaN or infinity tokens of an artifact that the contract forbids."""
    if path.suffix == ".json":
        found = []
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    bad = []
    for row in rows[1:]:
        for name, token in zip(rows[0], row):
            if not math.isfinite(float(token)):
                tail_below_zero = (path.name == "limit_table.csv" and name == "breiman_tail"
                                   and token == "nan" and float(row[0]) <= 0.0)
                if not tail_below_zero:
                    bad.append((name, token))
    return bad


def test_every_key_has_a_strategy():
    assert set(VALID) == set(cli._KEYS)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), overrides=_overrides())
# faults of the contract, each mended: a RuntimeWarning, a traceback, a
# memory blow-up, a message that named no key
@example(command="diagnose", overrides={"diag.lo": "1e-300"})
@example(command="levy", overrides={"levy.h_list": "1e308"})
@example(command="levy", overrides={"levy.kmax": "684"})
@example(command="levy", overrides={"y_law.beta": "0.01", "levy.h_list": "1e150"})
@example(command="diagnose", overrides={"y_law.beta": "5e-324"})
@example(command="diagnose", overrides={"y_law.beta": "1e-300", "diag.lo": "1.000000000001"})
@example(command="limit", overrides={"x_law.kind": "abs_pareto"})
@example(command="levy", overrides={"x_law.kind": "bernoulli", "x_law.x0": "1e160"})
@example(command="levy", overrides={"levy.u_grid": "5e-324"})
def test_exit_contract(tmp_path, capsys, command, overrides):
    run = Path(tempfile.mkdtemp(dir=tmp_path))  # one directory per example
    config = run / "c.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in {**BASE, **overrides}.items()))
    out = run / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert not out.exists()
        assert _names_a_key(err, overrides), err
    if code == 0:
        for path in sorted(out.iterdir()):
            assert _non_finite_tokens(path) == [], path.name
