import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import selfnorm_lab
from selfnorm_lab.cli import main, parse_config_file
from selfnorm_lab.distributions import ParameterError, SeedStream
from selfnorm_lab.montecarlo import MAX_THREADS
from selfnorm_lab.scenarios import run_suite


def write_cfg(path: Path, **overrides) -> Path:
    base = {
        "scenario": "unit",
        "x_law.kind": "uniform01",
        "y_law.kind": "pareto",
        "y_law.beta": "0.5",
        "n": "200",
        "reps": "300",
        "seed": "777",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    cfg = path / "exp.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return cfg


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a.b = 1.5  # comment\n\n# full comment\nname = breiman\n")
    assert parse_config_file(p) == {"a.b": "1.5", "name": "breiman"}
    p.write_text("bad line without equals\n")
    with pytest.raises(Exception):
        parse_config_file(p)
    # a repeated key would silently keep its last value
    p.write_text("n = 10\nseed = 1\nn = 20\n")
    with pytest.raises(ParameterError, match="c.cfg:3: config key 'n' repeats line 1"):
        parse_config_file(p)


def test_write_json_rejects_non_finite(tmp_path):
    # standard JSON has no NaN or Infinity token
    from selfnorm_lab.scenarios import _write_json
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "v.json", {"v": bad})
        assert not (tmp_path / "v.json").exists()


def test_sample_csv_matches_per_value_format(tmp_path):
    # the row template writes what format(float(c), ".17g") gives per value
    from selfnorm_lab.scenarios import _write_sample_csv
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 0.1, 1e300, 2.0 / 3.0]
    single = np.array([0.1, 1e-40, -0.0, math.nan, -math.inf, 3.5, -2.25, 1e30, 7.0, 0.3],
                      dtype=np.float32)
    columns = [np.array(special), single, list(range(10))]
    path = tmp_path / "s.csv"
    _write_sample_csv(path, ["a", "b", "c"], columns)
    want = "a,b,c\n" + "".join(",".join(format(float(c), ".17g") for c in row) + "\n"
                               for row in zip(*columns))
    assert path.read_bytes() == want.encode()


def test_simulate_writes_sample_and_meta(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "tn_sample.csv").read_text().splitlines()
    assert lines[0] == "tn"
    assert len(lines) == 301  # header + reps rows
    meta = json.loads((out / "tn_sample.meta.json").read_text())
    assert meta["config"]["seed"] == "777"
    assert meta["config"]["x_law.kind"] == "uniform01"


def test_simulate_byte_identical_and_thread_invariant(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        rc = main(["simulate", "--config", str(cfg), "--out", str(out),
                   "--threads", threads])
        assert rc == 0
        outs.append((out / "tn_sample.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_simulate_zero_reps_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, reps=0)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "reps" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["10.5", "inf"])
def test_simulate_non_integer_n_exits_3(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path, n=n)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "'n'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "tn_sample.csv").exists()


def test_simulate_accepts_float_spelled_integer_n(tmp_path):
    cfg = write_cfg(tmp_path, n="1e4", reps="20")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "tn_sample.meta.json").read_text())
    assert meta["law_meta"]["n"] == 10_000
    assert len((out / "tn_sample.csv").read_text().splitlines()) == 1 + 20


def test_simulate_bad_law_exits_3(tmp_path):
    for bad in ({"y_law.kind": "zeta"}, {"x_law.kind": "point_mass", "x_law.c": "nan"},
                {"y_law.kind": "exponential", "y_law.rate": "inf"}):
        cfg = write_cfg(tmp_path, **bad)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3, bad
        assert not (tmp_path / "o" / "tn_sample.csv").exists()


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "y_law.bta", "0.9"),  # misspelt key: would silently run at beta = 0.5
    ("simulate", "threads", "2"),  # the thread count is not a config key
    ("simulate", "grid.hi", "inf"),  # checked although simulate does not read it
    ("levy", "levy.v_grid", "0.5,abc"),
    ("simulate", "seed", "-1"),
    ("simulate", "seed", str(2**64)),
    ("levy", "levy.draws", "1"),  # one draw has no standard error
    ("levy", "levy.draws", "0"),
    ("limit", "grid.points", "1"),
    ("simulate", "n", "0"),
    ("simulate", "reps", "0"),
    ("levy", "levy.n_list", "0,10"),
    ("levy", "levy.v_grid", "0,1"),  # v_grid and h_list entries must be positive
    ("levy", "levy.u_grid", "0,1"),  # u_grid entries must be non-zero
    ("levy", "levy.h_list", "0"),
    ("levy", "levy.v_grid", ""),  # n_list and v_grid must not be empty
    # counts that size an array; numpy raised a plain ValueError naming no key
    ("simulate", "n", "1e19"),
    ("simulate", "reps", "1e19"),
    ("limit", "grid.points", "1e19"),
    ("diagnose", "diag.points", "1e308"),
    ("levy", "levy.draws", "1e19"),
])
def test_bad_config_key_exits_3_before_output(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    # quoted, because a bare key such as n occurs in many messages
    err = capsys.readouterr().err
    assert f"'{key}'" in err or f"unknown config key(s): {key}" in err
    assert not out.exists()


def test_unwritable_output_exits_2(tmp_path):
    cfg = write_cfg(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", "/dev/null/cannot"])
    assert rc == 2


def test_missing_config_exits_2(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_limit_table_monotone_and_symmetric(tmp_path):
    cfg = write_cfg(tmp_path, **{"x_law.kind": "rademacher", "grid.lo": "-2",
                                 "grid.hi": "2", "grid.points": "41"})
    out = tmp_path / "out"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "limit_table.csv").read_text().splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    cdfs = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(cdfs[:-1], cdfs[1:]))
    at_zero = cdfs[xs.index(0.0)]
    assert at_zero == pytest.approx(0.5, abs=1e-9)
    tails = [float(r[2]) for r in rows]
    assert all(math.isnan(t) for t, x in zip(tails, xs) if x <= 0.0)


@pytest.mark.parametrize("config,law", [("degenerate_mean", "exponential"),
                                        ("slowly_varying", "slowly_varying")])
def test_limit_needs_pareto_multiplier(tmp_path, capsys, config, law):
    # a finite-mean Y has an atom at E X as its limit, not the arctan law
    if config == "degenerate_mean":
        cfg = Path(__file__).resolve().parent.parent / "configs" / "degenerate_mean.cfg"
    else:
        cfg = write_cfg(tmp_path, **{"y_law.kind": law})
    out = tmp_path / "o"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 3
    assert law in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1.0", "1.5"])
def test_limit_needs_beta_below_one(tmp_path, capsys, beta):
    cfg = write_cfg(tmp_path, **{"y_law.beta": beta})
    out = tmp_path / "o"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (f"limit needs a pareto multiplier with beta < 1, got pareto(beta={float(beta):g})"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("hi", ["0.5", "0.4"])
def test_limit_empty_grid_exits_3_before_output(tmp_path, capsys, hi):
    cfg = write_cfg(tmp_path, **{"grid.lo": "0.5", "grid.hi": hi})
    out = tmp_path / "o"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 3
    assert "grid.hi must exceed grid.lo" in capsys.readouterr().err
    assert not out.exists()


def test_limit_table_stable_under_grid_refinement(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    cfg1 = write_cfg(tmp_path, **{"grid.lo": "0", "grid.hi": "1", "grid.points": "11"})
    assert main(["limit", "--config", str(cfg1), "--out", str(out1)]) == 0
    cfg2 = write_cfg(tmp_path, **{"grid.lo": "0", "grid.hi": "1", "grid.points": "21"})
    assert main(["limit", "--config", str(cfg2), "--out", str(out2)]) == 0
    rows1 = {r.split(",")[0]: float(r.split(",")[1]) for r in
             (out1 / "limit_table.csv").read_text().splitlines()[1:]}
    rows2 = {r.split(",")[0]: float(r.split(",")[1]) for r in
             (out2 / "limit_table.csv").read_text().splitlines()[1:]}
    shared = set(rows1) & set(rows2)
    assert shared
    for key in shared:
        assert rows1[key] == pytest.approx(rows2[key], abs=1e-9)


def test_diagnose_writes_verdict(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "class_verdict.json").read_text())
    assert verdict["verdict"]["label"] == "centered_feller"
    # the scan grid is ratio_scan.csv's x column and the config's diag.* keys
    assert set(verdict["verdict"]) == {"feller_limsup_proxy", "centered_limsup_proxy",
                                       "griffin_limsup_proxy", "label"}
    scan = (out / "ratio_scan.csv").read_text().splitlines()
    assert scan[0] == "x,feller,centered,griffin"


def test_diagnose_scans_each_ratio_once(tmp_path, monkeypatch):
    # the verdict and ratio_scan.csv share one scan, and the scan reads the
    # survival function once over the whole grid for all three ratios
    import dataclasses
    from selfnorm_lab import cli
    calls = []
    make = cli.make_multiplier_law

    def counting_law(*args, **kwargs):
        law = make(*args, **kwargs)
        return dataclasses.replace(law, survival=lambda y: calls.append(np.size(y)) or law.survival(y))

    monkeypatch.setattr(cli, "make_multiplier_law", counting_law)
    cfg = write_cfg(tmp_path, **{"diag.points": "29"})
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [29]
    assert len((tmp_path / "out" / "ratio_scan.csv").read_text().splitlines()) == 1 + 29


@pytest.mark.parametrize("key,value", [("diag.lo", "0"), ("diag.lo", "-1e2"),
                                       ("diag.hi", "0"), ("diag.hi", "-1e2"),
                                       ("diag.hi", "1e2"), ("diag.hi", "10"),
                                       ("diag.hi", "1e5"), ("diag.lo", "0.5"),
                                       ("diag.points", "1")])
def test_diagnose_bad_grid_exits_3_before_output(tmp_path, capsys, key, value):
    # the default grid runs from diag.lo = 1e2 to diag.hi = 1e16; 1e2..1e5
    # spans under six decades, and 0.5 lies below the pareto support [1, inf)
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_grid_far_below_support_exits_3_without_warning(tmp_path, capsys):
    # diag.hi / diag.lo = 1e316 overflowed the six-decade check, which warned
    cfg = write_cfg(tmp_path, **{"diag.lo": "1e-300"})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 3
    assert "x is below the support of Y" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["pareto", "exponential"])
def test_diagnose_grid_past_overflow_exits_3_before_output(tmp_path, capsys, kind):
    # x * x overflows a double past about 1.34e154; the scan read Infinity or
    # NaN there and labelled exponential centered_feller
    cfg = write_cfg(tmp_path, **{"y_law.kind": kind, "diag.hi": "1e160"})
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 3
    assert "diag.hi = 1e+160" in capsys.readouterr().err
    assert not out.exists()


def test_levy_reports(tmp_path):
    cfg = write_cfg(tmp_path, **{"levy.n_list": "100,1000",
                                 "levy.v_grid": "0.5,1,2",
                                 "levy.u_grid": "1",
                                 "levy.h_list": "1",
                                 "levy.draws": "20000",
                                 "levy.kmax": "3"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 0
    conv = json.loads((out / "levy_convergence.json").read_text())
    assert conv["verdict"] is True
    moments = json.loads((out / "levy_moments.json").read_text())
    assert "h=1" in moments["reports"]


def test_levy_reports_non_feller_multiplier(tmp_path):
    cfg = write_cfg(tmp_path, **{"y_law.kind": "slowly_varying",
                                 "levy.n_list": "100,1000",
                                 "levy.v_grid": "0.5,1,2"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 0
    conv = json.loads((out / "levy_convergence.json").read_text())
    assert "non-Feller" in conv["note"]
    assert conv["verdict"] is True


@pytest.mark.parametrize("y_law", [{"y_law.kind": "pareto", "y_law.beta": "1.5"},
                                   {"y_law.kind": "exponential"}],
                         ids=["pareto1.5", "exponential"])
def test_levy_without_limit_measure_exits_3(tmp_path, capsys, y_law):
    cfg = write_cfg(tmp_path, **y_law, **{"levy.n_list": "100,1000",
                                          "levy.v_grid": "0.5,1,2"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "no limit jump measure" in capsys.readouterr().err
    assert not out.exists()  # input is checked before --out is created


_LEVY_SMALL = {"levy.n_list": "1000,10000", "levy.draws": "1000"}


def test_levy_weight_without_limit_measure_exits_3(tmp_path, capsys):
    # E|X|^(1/2) is infinite for abs_pareto(0.4): pi_bar's quadrature missed
    # its budget and levy exited 1 with a traceback
    cfg = write_cfg(tmp_path, **{"x_law.kind": "abs_pareto", "x_law.gamma": "0.4"},
                    **_LEVY_SMALL)
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert ("abs_pareto(0.4) has no limit measure with pareto(beta=0.5): "
            "E|X|^0.5 is infinite") in capsys.readouterr().err
    assert not out.exists()


def test_levy_infinite_mean_weight_writes_reports(tmp_path):
    # criterion 7's weight has E|X| = inf but a limit measure: levy exited 3
    # asking for a finite absolute mean after its reports were computed
    cfg = write_cfg(tmp_path, **{"x_law.kind": "symmetric_pareto", "x_law.gamma": "0.8",
                                 "levy.h_list": "1", "levy.kmax": "2"}, **_LEVY_SMALL)
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 0
    moments = json.loads((out / "levy_moments.json").read_text())
    y_part, xy_part = moments["reports"]["h=1"]["first_moments_limit"]
    assert y_part == pytest.approx(0.5704, abs=1e-4) and abs(xy_part) <= 1e-12
    assert (out / "levy_convergence.json").exists()


@pytest.mark.parametrize("gamma", ["0.6", "0.55"])
def test_levy_limit_quadrature_miss_exits_3_before_output(tmp_path, capsys, gamma):
    # near the moment boundary gamma = beta the limit integrals miss quad's
    # budget; levy exited 1 with a QuadratureError traceback
    cfg = write_cfg(tmp_path, **{"x_law.kind": "symmetric_pareto", "x_law.gamma": gamma},
                    **_LEVY_SMALL)
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "x_law.kind = symmetric_pareto" in err and f"symmetric_pareto({gamma})" in err
    assert "missed its error budget" in err
    assert not out.exists()


@pytest.mark.parametrize("kmax,message", [("-1", "levy.kmax"), ("2.5", "levy.kmax"),
                                          ("684", "'levy.kmax' must be at most 400")])
def test_levy_bad_kmax_exits_3(tmp_path, capsys, kmax, message):
    cfg = write_cfg(tmp_path, **{"levy.kmax": kmax, "levy.n_list": "100,1000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()  # input is checked before --out is created


def test_levy_level_past_a_double_exits_3_before_output(tmp_path, capsys):
    # h^(2 - beta) overflows: levy warned, then blamed x_law.kind for a
    # quadrature result that is not finite
    cfg = write_cfg(tmp_path, **{"levy.h_list": "1e308"}, **_LEVY_SMALL)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "levy.h_list = 1e+308: h = 1e+308 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_levy_prelimit_level_past_a_double_exits_3_before_output(tmp_path, capsys):
    # a_n h = 1e200 * 1e150 overflows: levy wrote levy_convergence.json, then
    # exited 3 on an inf in the JSON with a message that named no key
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "levy.n_list": "10,100",
                                 "levy.h_list": "1e150", "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "levy.h_list = 1e+150 at the last levy.n_list entry 100: h = 1e+150 is too large" in err
    assert not out.exists()


def test_plain_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only ParameterError and UsageError mean bad input (exit 3); a plain
    # ValueError raised inside a command is a bug and propagates
    from selfnorm_lab import cli

    def broken(cfg, record):
        raise ValueError("a bug, not a config error")

    monkeypatch.setattr(cli, "run_simulate", broken)
    cfg = write_cfg(tmp_path)
    with pytest.raises(ValueError, match="a bug"):
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_levy_overflowing_norming_exits_3(tmp_path, capsys):
    # a_n = n^100 overflows a double at n = 1e4
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "levy.n_list": "10000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "norming overflows" in err and "levy.n_list entry 10000" in err
    assert not out.exists()  # input is checked before --out is created


def test_levy_tail_draws_past_a_double_do_not_warn(tmp_path, capsys):
    # at n = 100 a_n = 1e200 is finite, and the product tail integrates out
    # the Y draws that would pass a double without a RuntimeWarning (an error
    # under this suite's settings); the truncated mean at n = 1e4 still exits 3
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "levy.n_list": "100,10000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "norming overflows" in capsys.readouterr().err


def test_simulate_non_finite_draws_exit_3_before_output(tmp_path, capsys):
    # Pareto(0.01) draws pass a double (v ** -100), and 11 of these 200
    # ratios would be inf / inf = NaN
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "n": "100", "reps": "200", "seed": "1"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_non_finite_draws_exit_3_with_warnings_as_errors(tmp_path):
    # the engine's guard is the one report: no RuntimeWarning escapes first,
    # which under -W error would end the process with exit 1 instead
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "n": "100", "reps": "200", "seed": "1"})
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(selfnorm_lab.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "selfnorm_lab",
                          "simulate", "--config", str(cfg), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "non-finite" in run.stderr and "Warning" not in run.stderr
    assert not out.exists()


def test_limit_tail_overflow_near_zero_exits_3(tmp_path, capsys):
    # x^-beta overflows a double at the grid's subnormal points
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.97", "grid.lo": "0", "grid.hi": "1e-320"})
    out = tmp_path / "out"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 3
    assert "grid.hi" in capsys.readouterr().err
    assert not out.exists()


def test_limit_grid_past_evaluator_range_exits_3(tmp_path, capsys):
    # breiman_tail's far fold drops tail mass past about 1.3e288 at beta = 1/2
    cfg = write_cfg(tmp_path, **{"x_law.kind": "symmetric_pareto", "x_law.gamma": "0.8",
                                 "grid.lo": "1e299", "grid.hi": "1e300", "grid.points": "3"})
    out = tmp_path / "out"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "grid.hi" in err and "grid.lo" in err and repr(1e299) in err
    assert not out.exists()
    # within the range the same command writes its table
    cfg = write_cfg(tmp_path, **{"x_law.kind": "symmetric_pareto", "x_law.gamma": "0.8",
                                 "grid.lo": "-1e280", "grid.hi": "1e280", "grid.points": "3"})
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0


def test_levy_non_integer_n_list_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"levy.n_list": "10.5,100"})
    rc = main(["levy", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "levy.n_list" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["levy.n_list", "levy.v_grid"])
def test_levy_empty_list_exits_3(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, **{key: ",", "levy.draws": "1000"})
    out = tmp_path / "o"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_unknown_suite_exits_3(tmp_path):
    rc = main(["reproduce", "S9", "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 3
    assert not (tmp_path / "o").exists()


def test_run_suite_rejects_unknown_suite(tmp_path):
    # the command line's choices stop S9 first; run_suite checks it again
    # for callers of the function
    with pytest.raises(ParameterError, match="unknown suite 'S9'"):
        run_suite("S9", SeedStream(1), threads=1, outdir=tmp_path)


@pytest.mark.parametrize("flags,key", [
    (["--threads", "0"], "--threads"),
    (["--seed", "-1"], "seed"),
    (["--seed", str(2**64)], "seed"),
    (["--threads", str(MAX_THREADS + 1)], "--threads"),
], ids=["threads0", "seed-1", "seed2**64", "threads_over_max"])
def test_reproduce_bad_run_settings_exit_3_before_output(tmp_path, monkeypatch, capsys,
                                                         flags, key):
    import selfnorm_lab.scenarios as scenarios

    # a setting that slips through must not run the suite (and start its threads)
    monkeypatch.setattr(scenarios, "run_suite", lambda *a, **k: pytest.fail("suite ran"))
    assert main(["reproduce", "S5", "--out", str(tmp_path / "o"), *flags]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not (tmp_path / "o").exists()


def test_reproduce_suite_name_is_case_insensitive(tmp_path, monkeypatch):
    import selfnorm_lab.scenarios as scenarios

    monkeypatch.setitem(scenarios._SUITE_FNS, "S1", lambda seed, threads=1, outdir=None: [])
    assert main(["reproduce", "s1", "--out", str(tmp_path / "o"), "--seed", "1"]) == 0
    summary = json.loads((tmp_path / "o" / "s1_summary.json").read_text())
    assert summary["suite"] == "S1"


def test_reproduce_failing_check_exits_1(tmp_path, monkeypatch, capsys):
    import selfnorm_lab.scenarios as scenarios

    def fake_suite(suite, seed, threads=1, outdir=None):
        return {"suite": suite, "seed": {}, "passed": False,
                "checks": [{"name": "synthetic_gap", "passed": False,
                            "value": 1.0, "bound": 0.5, "kind": "<="}]}

    monkeypatch.setattr(scenarios, "run_suite", fake_suite)
    monkeypatch.setattr("selfnorm_lab.cli.scenarios.run_suite", fake_suite)
    rc = main(["reproduce", "S1", "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 1
    assert "synthetic_gap" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "s1_summary.json").read_text())
    assert summary["passed"] is False


def test_reproduce_summary_and_sidecars_name_the_stream_layout(tmp_path, monkeypatch):
    import selfnorm_lab.scenarios as scenarios
    from selfnorm_lab.montecarlo import STREAM_LAYOUT

    monkeypatch.setitem(scenarios._SUITE_FNS, "S2", lambda seed, threads=1, outdir=None: [])
    assert main(["reproduce", "S2", "--out", str(tmp_path / "o"), "--seed", "1"]) == 0
    summary = json.loads((tmp_path / "o" / "s2_summary.json").read_text())
    assert summary["stream_layout"] == STREAM_LAYOUT == 3
    assert main(["simulate", "--config", str(write_cfg(tmp_path)),
                 "--out", str(tmp_path / "sim")]) == 0
    meta = json.loads((tmp_path / "sim" / "tn_sample.meta.json").read_text())
    assert meta["law_meta"]["stream_layout"] == STREAM_LAYOUT


def test_threads_come_from_the_flag_alone(tmp_path, monkeypatch):
    from selfnorm_lab.cli import _build_parser, _load_config

    # an environment variable of that name does not set the count
    monkeypatch.setenv("SELFNORM_LAB_THREADS", "2")
    cfg, record = _load_config(_build_parser().parse_args(["simulate"]))
    assert cfg["threads"] == 1
    cfg, record = _load_config(_build_parser().parse_args(["simulate", "--threads", "5"]))
    assert cfg["threads"] == 5
    # execution-context knobs stay out of the embedded record
    assert "threads" not in record
    assert "outputs" not in record


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(o1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(o2),
                 "--seed", "778"]) == 0
    assert (o1 / "tn_sample.csv").read_bytes() != (o2 / "tn_sample.csv").read_bytes()


def test_shipped_configs_parse():
    for cfg in Path(__file__).resolve().parent.parent.glob("configs/*.cfg"):
        parsed = parse_config_file(cfg)
        assert "scenario" in parsed


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "reproduce" in capsys.readouterr().out
