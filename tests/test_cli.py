import json
import math
from pathlib import Path

import numpy as np
import pytest

from selfnorm_lab.cli import main, parse_config_file


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
])
def test_bad_config_key_exits_3_before_output(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
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
    scan = (out / "ratio_scan.csv").read_text().splitlines()
    assert scan[0] == "x,feller,centered,griffin"


def test_diagnose_scans_each_ratio_once(tmp_path, monkeypatch):
    # the verdict and ratio_scan.csv share one evaluation of each scan: three
    # ratios, each reading the survival function once over the whole grid
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
    assert calls == [29, 29, 29]
    assert len((tmp_path / "out" / "ratio_scan.csv").read_text().splitlines()) == 1 + 29


@pytest.mark.parametrize("key,value", [("diag.lo", "0"), ("diag.lo", "-1e2"),
                                       ("diag.hi", "1e2"), ("diag.hi", "10"),
                                       ("diag.points", "1")])
def test_diagnose_bad_grid_exits_3_before_output(tmp_path, capsys, key, value):
    # the default grid runs from diag.lo = 1e2 to diag.hi = 1e16
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
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


@pytest.mark.parametrize("kmax,message", [("-1", "levy.kmax"), ("2.5", "levy.kmax")])
def test_levy_bad_kmax_exits_3(tmp_path, capsys, kmax, message):
    cfg = write_cfg(tmp_path, **{"levy.kmax": kmax, "levy.n_list": "100,1000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()  # input is checked before --out is created


def test_levy_overflowing_norming_exits_3(tmp_path, capsys):
    # a_n = n^100 overflows a double at n = 1e4
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "levy.n_list": "10000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "norming overflows" in capsys.readouterr().err
    assert not out.exists()  # input is checked before --out is created


def test_levy_tail_draws_past_a_double_do_not_warn(tmp_path, capsys):
    # at n = 100 a_n = 1e200 is finite and the Pareto tail sampler's draws
    # pass a double; they are inf without a RuntimeWarning (an error under
    # this suite's settings), and the n = 1e4 row still exits 3
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "levy.n_list": "100,10000",
                                 "levy.draws": "1000"})
    out = tmp_path / "out"
    assert main(["levy", "--config", str(cfg), "--out", str(out)]) == 3
    assert "norming overflows" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_non_finite_draws_exit_3_before_output(tmp_path, capsys):
    # Pareto(0.01) draws pass a double (v ** -100), and 11 of these 200
    # ratios would be inf / inf = NaN
    cfg = write_cfg(tmp_path, **{"y_law.beta": "0.01", "n": "100", "reps": "200", "seed": "1"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
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


@pytest.mark.parametrize("flags,env,key", [
    (["--threads", "0"], None, "--threads"),
    (["--seed", "-1"], None, "seed"),
    ([], "0", "SELFNORM_LAB_THREADS"),
    (["--seed", str(2**64)], None, "seed"),
], ids=["threads0", "seed-1", "env_threads0", "seed2**64"])
def test_reproduce_bad_run_settings_exit_3_before_output(tmp_path, monkeypatch, capsys,
                                                         flags, env, key):
    if env is not None:
        monkeypatch.setenv("SELFNORM_LAB_THREADS", env)
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


def test_threads_env_fallback(tmp_path, monkeypatch):
    from argparse import Namespace
    from selfnorm_lab.cli import _load_config

    monkeypatch.setenv("SELFNORM_LAB_THREADS", "2")
    cfg, record = _load_config(Namespace(config=None, seed=None, out=None, threads=None))
    assert cfg["threads"] == 2
    # explicit flag wins over the environment
    cfg, record = _load_config(Namespace(config=None, seed=None, out=None, threads=5))
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
