import csv
import io
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from locstat import experiments
from locstat.cli import _write_csv, _write_json, main
from locstat.dynamics import PathSample
from locstat.estimators import localized_autocov, localized_mean
from locstat.kernels import rectangular
from locstat.observation import BandwidthRule, StepRuleO1, make_scheme

BASE = {
    "model": {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0},
    "triplet": {"gamma": 0.0, "sigma2": 1.0},
    "kernel": "rectangular",
    "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
    "simulation": {"fine_step": 0.0078125, "burn_in": 8.0},
}


def write_config(tmp_path, extra, name="cfg.json"):
    cfg = {**BASE, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_schema_violations_exit_2(tmp_path):
    bad = write_config(tmp_path, {"unknown_section": {}})
    assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2

    bad_atoms = dict(BASE)
    bad_atoms["triplet"] = {
        "gamma": 0.0,
        "sigma2": 0.0,
        "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.4]]},
    }
    path = tmp_path / "bad_atoms.json"
    path.write_text(json.dumps({**bad_atoms, "experiment": {"kind": "coupling", "N_list": [16], "replications": 100}}))
    assert main(["coupling", "--config", str(path), "--out", str(tmp_path)]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["simulate", "--config", str(not_json), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("path, value", [
    (("gamma",), float("nan")), (("sigma2",), float("inf")), (("jumps", "rate"), float("nan")),
    (("jumps", "atoms"), [[float("nan"), 0.5], [-1.0, 0.5]]),
    (("jumps", "normal"), [0.0, float("inf")]),
], ids=["gamma-nan", "sigma2-inf", "rate-nan", "atoms-nan", "normal-inf"])
def test_non_finite_driver_values_exit_2_naming_the_key(tmp_path, capsys, path, value):
    # a NaN passes every ordering test, so a NaN rate used to run and fail
    triplet = {"gamma": 0.0, "sigma2": 1.0, "jumps": {
        "rate": 1.0, **({"normal": [0.0, 0.5]} if path[-1] == "normal"
                        else {"atoms": [[1.0, 0.5], [-1.0, 0.5]]})}}
    node = triplet
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg = write_config(tmp_path, {
        "triplet": triplet,
        "experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100},
    })
    assert main(["lln", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"triplet.{'.'.join(path)}" in err and "must be finite" in err


@pytest.mark.parametrize("triplet, message", [
    ({"gamma": 0.0, "sigma2": -1.0}, "config error: triplet: Gaussian variance must be nonnegative"),
    ({"gamma": 0.0, "sigma2": 1.0, "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.4]]}},
     "config error: triplet.jumps: atom probabilities sum to 0.9"),
], ids=["negative-sigma2", "atoms-sum"])
def test_a_constructor_error_exits_2_naming_its_config_section(tmp_path, capsys, triplet, message):
    # the driver's own checks named a quantity but not the key it came from
    cfg = write_config(tmp_path, {
        "triplet": triplet,
        "experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100},
    })
    assert main(["lln", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, experiment", [
    ("coupling", {"kind": "coupling", "N_list": [16, 64]}),
    ("lipschitz", {"kind": "lipschitz_u", "N_list": [1], "ladder": [0.1, 0.2]}),
])
def test_one_replication_exits_2_naming_replications(tmp_path, capsys, subcommand, experiment):
    # each row reports a standard error, which needs two replications: one
    # is a config error, found before the campaign runs or numpy warns
    cfg = write_config(tmp_path, {"experiment": {**experiment, "replications": 1}})
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment: ") and "replications" in err
    assert "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("subcommand, experiment, simulation, key", [
    ("lln", {"kind": "lln_continuous", "t_end": 0.0}, {}, "t_end"),
    ("lln", {"kind": "lln_continuous", "n_quad": 0}, {}, "n_quad"),
    ("lln", {"kind": "lln_discrete", "N_list": []}, {}, "N_list"),
    ("lln", {"kind": "lln_discrete"}, {"burn_in": float("inf")}, "burn_in"),
    # burn_in / fine_step overflows to inf, or to no int64 at 1e300
    ("lln", {"kind": "lln_discrete"}, {"burn_in": 1e308}, "simulation.burn_in"),
    ("lln", {"kind": "lln_discrete"}, {"burn_in": 1e300}, "simulation.burn_in"),
    ("lipschitz", {"kind": "lipschitz_u", "N_list": [1], "ladder": []}, {}, "ladder"),
], ids=["t_end-0", "n_quad-0", "N_list-empty", "burn_in-inf", "burn_in-1e308", "burn_in-1e300",
        "ladder-empty"])
def test_configs_that_ended_in_a_traceback_exit_with_a_message(
        tmp_path, capsys, subcommand, experiment, simulation, key):
    cfg = write_config(tmp_path, {
        "simulation": {**BASE["simulation"], **simulation},
        "experiment": {"N_list": [16, 64], "replications": 100, **experiment},
    })
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) in (2, 3)
    assert key in capsys.readouterr().err


def test_ladder_reaching_nonpositive_time_exits_3_saying_so(tmp_path, capsys):
    # the message said the ladder "leaves positive time" where u - eps / 2 <= 0
    cfg = write_config(tmp_path, {"experiment": {
        "kind": "lipschitz_u", "N_list": [1], "replications": 64, "ladder": [5.0]}})
    assert main(["lipschitz", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "semantic error: ladder separation 5.0 at u = 1.0 reaches nonpositive time: "
        "u - separation / 2 = -1.5\n")


def test_a_bad_last_rung_exits_3_before_any_rung_runs(tmp_path, capsys, monkeypatch):
    # the check ran at each rung, so the rungs before a bad last one ran
    # their campaigns first
    calls = []
    monkeypatch.setattr(experiments, "_map_chunks", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, {"experiment": {
        "kind": "lipschitz_u", "N_list": [1], "replications": 64,
        "ladder": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 5.0]}})
    assert main(["lipschitz", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "semantic error: ladder separation 5.0 at u = 1.0 reaches nonpositive time: "
        "u - separation / 2 = -1.5\n")
    assert calls == []


@pytest.mark.parametrize("section, key", [
    ("scheme", "u"), ("scheme", "Delta"), ("scheme", "b"), ("scheme", "beta"),
    ("experiment", "rmse_tol"),
])
def test_non_finite_scheme_and_tolerance_exit_2_naming_the_key(tmp_path, capsys, section, key):
    # a NaN u reached the simulator ("Array must not contain infs or NaNs"),
    # a NaN Delta or b an int conversion, and a NaN rmse_tol failed the run
    # with no message
    cfg = {"scheme": dict(BASE["scheme"]),
           "experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}}
    cfg[section][key] = float("nan")
    assert main(["lln", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


SIM = {"experiment": {"kind": "lln_discrete", "N_list": [64], "replications": 100},
       "simulate": {"use_scheme_grid": True, "lag": 1}}
CLT_SCHEME = {"u": 1.0, "b": 0.5, "beta": 0.55, "scheme": "O1", "Delta": 1.0}


@pytest.mark.parametrize("subcommand, extra, key, code", [
    # clt_cov at lag 1.5 built its statistic at lag 1 and centered it at 1.5
    ("clt", {"scheme": CLT_SCHEME, "experiment": {
        "kind": "clt_cov", "N_list": [64], "replications": 1000, "lag": 1.5}}, "experiment.lag", 2),
    ("lln", {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100,
                            "statistic": "autocov", "lag": 1.5}}, "experiment.lag", 2),
    ("simulate", {**SIM, "simulate": {"use_scheme_grid": True, "lag": 1.5}}, "simulate.lag", 2),
    ("simulate", {**SIM, "simulate": {"use_scheme_grid": True, "lag": -1}}, "simulate.lag", 2),
    ("estimate", {**SIM, "estimate": {"path_file": "", "statistics": [
        {"kind": "autocov", "k": 1.5}]}}, "estimate.statistics[0].k", 2),
    ("estimate", {**SIM, "estimate": {"path_file": "", "statistics": [
        {"kind": "clt", "k": 1.5}]}}, "estimate.statistics[0].k", 2),
    ("moments", {"moments": {"tilde_lags": [0, 1.5]}}, "moments.tilde_lags[1]", 2),
    # a negative lag is still the statistic's semantic error
    ("clt", {"scheme": CLT_SCHEME, "experiment": {
        "kind": "clt_cov", "N_list": [64], "replications": 1000, "lag": -1}}, "nonnegative", 3),
    ("moments", {"moments": {"tilde_lags": [-1]}}, "nonnegative", 3),
], ids=["clt_cov-1.5", "lln-autocov-1.5", "simulate-1.5", "simulate-neg", "estimate-autocov-1.5",
        "estimate-clt-1.5", "moments-1.5", "clt_cov-neg", "moments-neg"])
def test_lags_must_be_integers_and_simulate_lag_nonnegative(
        tmp_path, capsys, subcommand, extra, key, code):
    # non-integer lags were truncated by int() and a negative simulate.lag was
    # taken as 0
    if "estimate" in extra:
        (tmp_path / "path.csv").write_text("time,value\n1,0\n")
        extra = {**extra, "estimate": {**extra["estimate"], "path_file": str(tmp_path / "path.csv")}}
    cfg = write_config(tmp_path, extra)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == code
    assert key in capsys.readouterr().err


def test_count_takes_a_numeric_string_it_accepts(tmp_path, capsys):
    # "100.0" passed the range check and then ended in int("100.0")
    outputs = []
    for replications in (100, "100.0"):
        out = tmp_path / str(replications)
        cfg = write_config(tmp_path, {"experiment": {
            "kind": "lln_discrete", "N_list": [16, 64], "replications": replications}})
        assert main(["lln", "--config", cfg, "--out", str(out)]) in (0, 1)
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
    # a negative integer lag passes the schema to the statistic's own check
    cfg = write_config(tmp_path, {"scheme": CLT_SCHEME, "experiment": {
        "kind": "clt_cov", "N_list": [64], "replications": 1000, "lag": -3}})
    assert main(["clt", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "nonnegative" in capsys.readouterr().err


def test_estimate_without_a_scheme_exits_2_naming_the_section(tmp_path, capsys):
    # it ended in a KeyError traceback
    (tmp_path / "path.csv").write_text("time,value\n1,0\n")
    cfg = {key: value for key, value in BASE.items() if key != "scheme"}
    cfg["estimate"] = {"path_file": str(tmp_path / "path.csv"), "statistics": [{"kind": "mean"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "scheme section" in capsys.readouterr().err


STATESPACE = {"kind": "statespace", "p": 2, "A_entries": [["-1", "0"], ["0", "-2"]],
              "B": ["1", "1"], "C": ["1", "1"], "commuting": True, "stability_margin": 1.0,
              "lipschitz": {"A": 0.0, "B": 0.0, "C": 0.0}}
ATOMS = {"gamma": 0.0, "sigma2": 1.0,
         "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}}
TIMES = {**SIM, "simulate": {"times": [0.5, 1.0]}}


@pytest.mark.parametrize("subcommand, extra", [
    ("simulate", TIMES),
    ("lln", {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}}),
    ("coupling", {"experiment": {"kind": "coupling", "N_list": [16, 64], "replications": 100}}),
])
def test_car1_and_its_1x1_statespace_write_the_same_bytes(tmp_path, subcommand, extra):
    # a car1 model is the 1x1 model A = -a, B = C = 1: the same exit code and
    # the same output files, with a jump driver
    scalar = {"kind": "statespace", "p": 1, "A_entries": [["-(2 + sin(t))"]], "B": ["1"],
              "C": ["1"], "commuting": True, "stability_margin": 1.0,
              "lipschitz": {"A": 1.0, "B": 0.0, "C": 0.0}}
    runs = []
    for name, model in (("car1", BASE["model"]), ("statespace", scalar)):
        out = tmp_path / name
        cfg = write_config(tmp_path, {**extra, "model": model, "triplet": ATOMS}, f"{name}.json")
        code = main([subcommand, "--config", cfg, "--out", str(out), "--seed", "3"])
        runs.append((code, {f.name: f.read_bytes() for f in out.iterdir()}))
    assert runs[0][0] in (0, 1) and runs[0][1]
    assert runs[0] == runs[1]


def _set(cfg: dict, path: tuple, value) -> dict:
    """A deep copy of ``cfg`` with the key at ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("subcommand, extra, path, value", [
    ("moments", {"moments": {"tilde_lags": [0, 1]}}, ("moments", "tilde_lags"), 5),
    ("moments", {"moments": {"autocov_lags": [0.0]}}, ("moments", "autocov_lags"), 5),
    ("estimate", {**SIM, "estimate": {"path_file": "", "statistics": []}},
     ("estimate", "statistics"), 5),
    ("simulate", TIMES, ("simulate", "times"), 1.0),
    ("lln", {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}},
     ("experiment", "N_list"), 16),
    ("lipschitz", {"experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 64,
                                  "ladder": [0.1], "time_points": 8}},
     ("experiment", "ladder"), 0.1),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "B"), 1),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "A_entries"), 1),
    ("simulate", {**TIMES, "triplet": ATOMS}, ("triplet", "jumps", "atoms"), 1.0),
    ("simulate", TIMES, ("simulate", "times"), "0.5"),
], ids=["tilde_lags", "autocov_lags", "statistics", "times", "N_list", "ladder", "B", "A_entries",
        "atoms", "times-string"])
def test_a_list_key_given_as_a_scalar_exits_2_naming_the_key(
        tmp_path, capsys, subcommand, extra, path, value):
    # the moments and estimate keys ended in a TypeError traceback, a scalar
    # simulate.times exited 3 with numpy's message, and the others exited 2
    # with "'int' object is not iterable"
    cfg = _set(extra, path, value)
    if "estimate" in cfg:
        (tmp_path / "path.csv").write_text("time,value\n1,0\n")
        cfg["estimate"]["path_file"] = str(tmp_path / "path.csv")
    assert main([subcommand, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert f"{'.'.join(path)} must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, extra, path", [
    ("simulate", TIMES, ("simulate",)),
    ("moments", {"moments": {}}, ("moments",)),
    ("estimate", {**SIM, "estimate": {}}, ("estimate",)),
    ("lln", {"experiment": {}}, ("experiment",)),
    ("simulate", TIMES, ("simulation",)),
    ("simulate", {**TIMES, "triplet": ATOMS}, ("triplet", "jumps")),
], ids=["simulate", "moments", "estimate", "experiment", "simulation", "jumps"])
def test_an_object_key_given_as_a_scalar_exits_2_naming_the_key(
        tmp_path, capsys, subcommand, extra, path):
    # the four sections ended in a TypeError traceback, and a scalar
    # triplet.jumps exited 2 with "'int' object is not iterable"
    cfg = write_config(tmp_path, _set(extra, path, 5))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{'.'.join(path)} must be an object" in capsys.readouterr().err


def test_a_statistic_given_as_a_scalar_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "path.csv").write_text("time,value\n1,0\n")
    cfg = {**SIM, "estimate": {"path_file": str(tmp_path / "path.csv"), "statistics": [5]}}
    assert main(["estimate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "estimate.statistics[0] must be an object" in capsys.readouterr().err


MOMENTS = {"moments": {"u": 1.0, "delta": 0.5, "autocov_lags": [0.0], "tilde_lags": [0, 1]}}
LIPSCHITZ = {"experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 64,
                            "ladder": [0.1], "time_points": 8}}
NAN = float("nan")


@pytest.mark.parametrize("subcommand, extra, path, value, key", [
    ("moments", MOMENTS, ("moments", "autocov_lags"), [[1]], "moments.autocov_lags[0]"),
    ("moments", MOMENTS, ("moments", "autocov_lags"), ["1"], "moments.autocov_lags[0]"),
    ("moments", MOMENTS, ("moments", "autocov_lags"), [NAN], "moments.autocov_lags[0]"),
    ("simulate", {**TIMES, "triplet": ATOMS}, ("triplet", "jumps", "atoms"), [1.0, 2.0],
     "triplet.jumps.atoms[0]"),
    ("simulate", {**TIMES, "triplet": ATOMS}, ("triplet", "jumps", "atoms"),
     [[1.0], [2.0, 1.0]], "triplet.jumps.atoms[0]"),
    ("simulate", {**TIMES, "triplet": {**ATOMS, "jumps": {"rate": 1.0, "normal": [0.0, 0.5]}}},
     ("triplet", "jumps", "normal"), [0.0], "triplet.jumps.normal"),
    ("simulate", TIMES, ("simulate", "times"), ["a", 1.0], "simulate.times[0]"),
    ("simulate", TIMES, ("simulate", "times"), [[0.5], 1.0], "simulate.times[0]"),
    ("lipschitz", LIPSCHITZ, ("experiment", "ladder"), ["a"], "experiment.ladder[0]"),
    ("lipschitz", LIPSCHITZ, ("experiment", "ladder"), [NAN], "experiment.ladder[0]"),
    ("lipschitz", LIPSCHITZ, ("experiment", "ladder"), [-0.1], "experiment.ladder[0]"),
    ("lipschitz", LIPSCHITZ, ("experiment", "time_points"), 2.5, "experiment.time_points"),
    ("lipschitz", LIPSCHITZ, ("experiment", "time_points"), 0, "experiment.time_points"),
    ("simulate", TIMES, ("experiment", "N_list"), [16.5, 64], "experiment.N_list[0]"),
    ("simulate", TIMES, ("experiment", "N_list"), [[16], 64], "experiment.N_list[0]"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "p"), 2.5, "model.p"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "commuting"), "no", "model.commuting"),
    ("simulate", TIMES, ("experiment", "validate_inputs"), "no", "experiment.validate_inputs"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "B"), [1, "1"], "model.B[0]"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "A_entries"), [[0, "0"], ["0", "-2"]],
     "model.A_entries[0][0]"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "stability_margin"), NAN,
     "model.stability_margin"),
    ("simulate", {**TIMES, "model": STATESPACE}, ("model", "lipschitz", "A"), NAN,
     "model.lipschitz.A"),
    ("simulate", TIMES, ("model", "infimum"), NAN, "model.infimum"),
    ("moments", MOMENTS, ("moments", "u"), "x", "moments.u"),
    ("moments", MOMENTS, ("moments", "u"), NAN, "moments.u"),
    ("moments", MOMENTS, ("moments", "delta"), NAN, "moments.delta"),
    ("estimate", {**SIM, "estimate": {"path_file": "", "statistics": [{"kind": "mean"}]}},
     ("estimate", "path_file"), 5, "estimate.path_file"),
], ids=["autocov_lags-list", "autocov_lags-string", "autocov_lags-nan", "atoms-flat",
        "atoms-short", "normal-short", "times-string", "times-list", "ladder-string", "ladder-nan",
        "ladder-negative", "time_points-2.5", "time_points-0", "N_list-16.5", "N_list-list",
        "p-2.5", "commuting-no", "validate_inputs-no", "B-number", "A_entries-number",
        "stability_margin-nan", "lipschitz.A-nan", "infimum-nan", "moments.u-string",
        "moments.u-nan", "delta-nan", "path_file-5"])
def test_values_outside_their_domain_exit_2_naming_the_key_and_index(
        tmp_path, capsys, subcommand, extra, path, value, key):
    # each ended at the parent in a traceback, an exit 3 with numpy's, LAPACK's
    # or Python's message, an exit 2 naming no key, an exit 4 on file
    # descriptor 5, or a run on a truncated, coerced or NaN value
    cfg = write_config(tmp_path, _set({**BASE, **extra}, path, value))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {key} must" in capsys.readouterr().err


def test_an_integer_path_file_exits_2_and_leaves_stderr_open(tmp_path):
    # open(2) took the number for a file descriptor and closed stderr; the
    # error print then raised OSError and the run ended with exit 1 and no
    # message
    cfg = write_config(tmp_path, {**SIM, "estimate": {"path_file": 2,
                                                      "statistics": [{"kind": "mean"}]}})
    script = textwrap.dedent(f"""
        import os
        from locstat.cli import main
        code = main(["estimate", "--config", {cfg!r}, "--out", {str(tmp_path)!r}])
        os.fstat(2)
        print(code)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2"]
    assert "config error: estimate.path_file must be a string" in run.stderr


@pytest.mark.parametrize("text, line", [
    ("", 1), ("time,value\n1\n", 2), ("time,value\n0,0\n1,x\n", 3),
], ids=["empty", "one-cell", "not-a-number"])
def test_a_malformed_path_csv_exits_2_naming_the_file_and_line(tmp_path, capsys, text, line):
    # an empty file and a row of one cell ended in a traceback, and a cell
    # that is not a number exited 3 naming neither the file nor the line
    csv_path = tmp_path / "path.csv"
    csv_path.write_text(text)
    cfg = write_config(tmp_path, {**SIM, "estimate": {"path_file": str(csv_path),
                                                      "statistics": [{"kind": "mean"}]}})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {csv_path} line {line}: expected" in capsys.readouterr().err


def test_missing_config_exit_4(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 4


def test_clt_beta_quarter_rejected_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "scheme": {"u": 1.0, "b": 0.5, "beta": 0.25, "scheme": "O1", "Delta": 1.0},
            "experiment": {"kind": "clt_mean", "N_list": [1024], "replications": 1000},
        },
    )
    assert main(["clt", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "sqrt(m_N)*b_N -> 0" in err


def test_an_experiment_number_that_is_not_finite_exits_3_naming_its_key(tmp_path, capsys):
    # the lln_ladder benchmark config at sigma2 = 1e300: the squared errors
    # are near 1e300, whose squares overflowed in the standard error of the
    # RMSE, which was written as Infinity into every row; it is a float,
    # about 5e147, and the campaign fails its RMSE window (exit 1)
    cfg = write_config(tmp_path, {
        "triplet": {"gamma": 1.0, "sigma2": 1e300},
        "simulation": {"fine_step": 1.0 / 256.0, "burn_in": 8.0},
        "experiment": {"kind": "lln_discrete", "N_list": [2**8, 2**10, 2**12, 2**14],
                       "replications": 100, "statistic": "mean"},
    })
    out = tmp_path / "out"
    assert main(["lln", "--config", cfg, "--out", str(out)]) == 1
    rows = json.loads((out / "lln-0.json").read_text())["rows"]
    assert all(1e146 < row["rmse_std_error"] < 1e149 for row in rows)
    # gamma 1e308 and a = 0.5: the mean of Y is 2e308, beyond the largest
    # double at any scale, so the estimate is not finite
    cfg = write_config(tmp_path, {
        "model": {"kind": "car1", "a": "0.5", "lipschitz": 1.0, "infimum": 0.5},
        "triplet": {"gamma": 1e308, "sigma2": 1.0},
        "simulation": {"fine_step": 1.0 / 256.0, "burn_in": 16.0},
        "experiment": {"kind": "lln_discrete", "N_list": [2**8, 2**10], "replications": 100,
                       "statistic": "mean"},
    }, name="beyond.json")
    out = tmp_path / "beyond"
    capsys.readouterr()
    assert main(["lln", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "semantic error: lln: rows[0].estimate is not finite\n"
    assert not list(out.iterdir())


def test_uncentered_clt_rejected_exit_3(tmp_path):
    cfg = dict(BASE)
    cfg["triplet"] = {"gamma": 0.5, "sigma2": 1.0}
    cfg["scheme"] = {"u": 1.0, "b": 0.5, "beta": 0.6666666666666666, "scheme": "O1", "Delta": 1.0}
    cfg["experiment"] = {"kind": "clt_mean", "N_list": [1024], "replications": 1000}
    path = tmp_path / "uncentered.json"
    path.write_text(json.dumps(cfg))
    assert main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_biweight_clt_rejected_at_parse_time_exit_3(tmp_path, capsys, monkeypatch):
    # the three clt gates of experiments.clt_preconditions run when the
    # config is read: a biweight kernel stops before any experiment runs
    cfg = dict(BASE, kernel="biweight")
    cfg["scheme"] = {"u": 1.0, "b": 0.5, "beta": 0.6666666666666666, "scheme": "O1", "Delta": 1.0}
    cfg["experiment"] = {"kind": "clt_mean", "N_list": [1024], "replications": 1000}
    path = tmp_path / "biweight.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr("locstat.cli.run_experiment", None)
    assert main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "rectangular kernel" in capsys.readouterr().err


def test_simulate_estimate_round_trip_bit_identical(tmp_path):
    out = str(tmp_path)
    sim_cfg = write_config(
        tmp_path,
        {
            "experiment": {"kind": "lln_discrete", "N_list": [256], "replications": 100},
            "simulate": {"use_scheme_grid": True, "lag": 1},
            "estimate": {
                "path_file": os.path.join(out, "simulate-5.csv"),
                "statistics": [{"kind": "mean"}, {"kind": "autocov", "k": 1}],
            },
        },
    )
    assert main(["simulate", "--config", sim_cfg, "--seed", "5", "--out", out]) == 0
    assert main(["estimate", "--config", sim_cfg, "--seed", "5", "--out", out]) == 0

    # re-ingest the emitted CSV and recompute in memory: values must agree bitwise
    with open(os.path.join(out, "simulate-5.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    times = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    scheme = make_scheme(1.0, 256, BandwidthRule(0.5, 1.0 / 3.0), StepRuleO1(1.0))
    path = PathSample(times=times, values=values)
    expect_mean = localized_mean(path, scheme, rectangular()).value
    expect_cov = localized_autocov(path, scheme, rectangular(), 1).value
    with open(os.path.join(out, "estimate-5.csv")) as fh:
        est = {(r["kind"], r["k"]): float(r["value"]) for r in csv.DictReader(fh)}
    assert est[("mean", "0")] == expect_mean
    assert est[("autocov", "1")] == expect_cov


def test_lagged_scheme_grid_simulates_at_n_1000(tmp_path):
    # the grid and its lagged shift coincide up to rounding at this N; the
    # union must collapse those near-duplicates, as the campaigns do
    cfg = write_config(
        tmp_path,
        {
            "experiment": {"kind": "lln_discrete", "N_list": [1000], "replications": 100},
            "simulate": {"use_scheme_grid": True, "lag": 1},
        },
    )
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate-5.csv") as fh:
        times = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])
    scheme = make_scheme(1.0, 1000, BandwidthRule(0.5, 1.0 / 3.0), StepRuleO1(1.0))
    # lag 1 is one grid spacing under O1, so the union adds one node
    assert times.size == scheme.grid.size + 1
    np.testing.assert_allclose(times[:-1], scheme.grid, rtol=1e-15, atol=0.0)


# margin 1e15 admits a zero burn-in, which records the first time at fine step 0
ZERO_STEPS = {
    "model": {"kind": "car1", "a": "1e15", "lipschitz": 0.0, "infimum": 1e15},
    "simulation": {"fine_step": 0.01, "burn_in": 0.0},
}
ZERO_STEP_DRIVERS = {
    "gaussian": {"gamma": 0.0, "sigma2": 1.0},
    "jumps": {"gamma": 0.0, "sigma2": 1.0,
              "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}},
}


@pytest.mark.parametrize("driver", ZERO_STEP_DRIVERS)
def test_simulate_with_zero_fine_steps_writes_the_zero_start(tmp_path, driver):
    cfg = write_config(tmp_path, {
        **ZERO_STEPS, "triplet": ZERO_STEP_DRIVERS[driver],
        "experiment": {"kind": "lln_discrete", "N_list": [8], "replications": 100},
        "simulate": {"times": [1.0]},
    })
    assert main(["simulate", "--config", cfg, "--seed", "2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate-2.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(float(t), float(v)) for t, v in rows] == [(1.0, 0.0)]


@pytest.mark.parametrize("driver", ZERO_STEP_DRIVERS)
def test_coupling_with_zero_fine_steps_has_zero_distances_and_passes(tmp_path, driver):
    cfg = write_config(tmp_path, {
        **ZERO_STEPS, "triplet": ZERO_STEP_DRIVERS[driver],
        "experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100},
    })
    assert main(["coupling", "--config", cfg, "--seed", "2", "--out", str(tmp_path)]) == 0
    payload = _strict_json((tmp_path / "coupling-2.json").read_text())
    assert payload["passed"] is True
    assert [row["estimate"] for row in payload["rows"]] == [0.0, 0.0]


def test_moments_emission(tmp_path):
    cfg = write_config(tmp_path, {"moments": {"u": 1.0, "delta": 1.0, "autocov_lags": [0.0, 1.0]}})
    out = str(tmp_path)
    assert main(["moments", "--config", cfg, "--seed", "2", "--out", out]) == 0
    record = json.loads((tmp_path / "moments-2.json").read_text())
    a1 = 2.0 + np.sin(1.0)
    assert record["variance"] == pytest.approx(1.0 / (2 * a1), rel=1e-12)
    assert record["sigma2_O2"] == pytest.approx(1.0 / (4 * a1), rel=1e-12)
    assert record["autocov_1"] == pytest.approx(np.exp(-a1) / (2 * a1), rel=1e-12)


def test_moments_emission_jump_driver(tmp_path):
    # centered +-1 jumps at rate 1 on ou(1): the lagged fourth moments carry
    # the fourth cumulant, (1/2)(E[Y^4] - r0^2) = 0.375 at k = 0
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "car1", "a": "1", "lipschitz": 0.0, "infimum": 1.0},
            "triplet": {"gamma": 0.0, "sigma2": 0.0,
                        "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}},
            "moments": {"u": 1.0},
        },
    )
    assert main(["moments", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "moments-3.json").read_text())
    assert record["sigma2_tilde_O2_k0"] == pytest.approx(0.375, abs=1e-10)
    assert record["sigma2_tilde_O2_k1"] == pytest.approx(0.158834, abs=1e-6)


def test_validate_kernel(tmp_path):
    cfg = write_config(tmp_path, {})
    assert main(["validate-kernel", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate-kernel-0.json").read_text())
    assert report["passed"] and abs(report["integral"] - 1.0) < 1e-10


def test_experiment_pass_and_fail_exit_codes(tmp_path):
    out = str(tmp_path)
    good = write_config(
        tmp_path,
        {"experiment": {"kind": "coupling", "N_list": [16, 64, 256], "replications": 120}},
        name="good.json",
    )
    assert main(["coupling", "--config", good, "--seed", "1", "--out", out]) == 0
    summary = json.loads((tmp_path / "coupling-1.json").read_text())
    assert summary["passed"] is True
    assert -1.3 <= summary["summary"]["slope"] <= -0.7

    bad = dict(BASE)
    bad["model"] = {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0}
    bad["experiment"] = {
        "kind": "coupling",
        "N_list": [16, 64],
        "replications": 120,
        "validate_inputs": False,
    }
    # a time-constant model gives zero distance and an uninformative slope fit;
    # use the discontinuous negative control via the python API in experiments
    # tests; here check the failing exit path with an impossible window instead
    bad_path = tmp_path / "bad.json"
    bad["experiment"]["N_list"] = [16, 17]
    bad_path.write_text(json.dumps(bad))
    code = main(["coupling", "--config", str(bad_path), "--seed", "1", "--out", out])
    assert code in (0, 1)  # runs; pass depends on the tiny ladder


def test_failed_experiment_exit_1(tmp_path):
    # an unreachable RMSE tolerance: the run completes but fails acceptance
    cfg = write_config(
        tmp_path,
        {
            "experiment": {
                "kind": "lln_discrete",
                "N_list": [256, 1024],
                "replications": 100,
                "statistic": "mean",
                "rmse_tol": 1e-9,
            },
            "triplet": {"gamma": 1.0, "sigma2": 1.0},
        },
        name="fail.json",
    )
    assert main(["lln", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "lln-1.json").read_text())
    assert payload["passed"] is False


def test_statespace_model_config(tmp_path):
    cfg = {
        "model": {
            "kind": "statespace",
            "p": 2,
            "A_entries": [["-1 - 0.5*sin(t)", "0"], ["0", "-2"]],
            "B": ["1", "1"],
            "C": ["1", "1"],
            "commuting": True,
            "stability_margin": 0.5,
            "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0},
        },
        "triplet": {"gamma": 0.0, "sigma2": 1.0},
        "moments": {"u": 0.0, "autocov_lags": [0.0]},
    }
    path = tmp_path / "ss.json"
    path.write_text(json.dumps(cfg))
    assert main(["moments", "--config", str(path), "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "moments-0.json").read_text())
    # independent oracle: Gamma entries for diag(-1, -2), C = (1, 1)
    # var = B' Gamma B with Gamma_ij = 1/(lam_i + lam_j)
    oracle = 1.0 / 2 + 2.0 / 3 + 1.0 / 4
    assert record["variance"] == pytest.approx(oracle, rel=1e-10)


def test_unknown_subcommand_kind_mismatch(tmp_path):
    cfg = write_config(
        tmp_path, {"experiment": {"kind": "coupling", "N_list": [16], "replications": 100}}
    )
    assert main(["lln", "--config", cfg, "--out", str(tmp_path)]) == 2


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# models that do not vary in time: a scalar one and a non-commuting p = 2 one
CONSTANT_MODELS = {
    "car1": {"kind": "car1", "a": "1.5 + 0.0*sin(t)", "lipschitz": 1.0, "infimum": 1.0},
    "statespace": {"kind": "statespace", "p": 2, "A_entries": [["-1", "0.3"], ["0", "-2"]],
                   "B": ["1", "1"], "C": ["1", "0.5"], "commuting": False,
                   "stability_margin": 0.5, "lipschitz": {"A": 0.0, "B": 0.0, "C": 0.0}},
}


@pytest.mark.parametrize("model", list(CONSTANT_MODELS.values()), ids=list(CONSTANT_MODELS))
def test_coupling_of_a_constant_model_passes_on_its_rows(tmp_path, model):
    # the exact distances of a model that does not vary in time do not depend
    # on N, so the fitted slope is rounding noise and the verdict is that every
    # row passes
    cfg = write_config(tmp_path, {
        "model": model,
        "simulation": {"fine_step": 0.0078125, "burn_in": 16.0},
        "experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100},
    })
    assert main(["coupling", "--config", cfg, "--seed", "2", "--out", str(tmp_path)]) == 0
    payload = _strict_json((tmp_path / "coupling-2.json").read_text())
    rows = payload["rows"]
    assert payload["passed"] is True and all(row["pass"] for row in rows)
    assert rows[0]["target"] == rows[1]["target"] and rows[0]["estimate"] == rows[1]["estimate"]


@pytest.mark.parametrize("model", list(CONSTANT_MODELS.values()), ids=list(CONSTANT_MODELS))
@pytest.mark.parametrize("p_norm", [2, 4])
def test_lipschitz_of_a_constant_model_is_zero_and_passes(tmp_path, model, p_norm):
    # the frozen family does not move with u: every distance is exactly 0,
    # there is no log-log fit, and the summary stays valid JSON
    cfg = write_config(tmp_path, {
        "model": model,
        "simulation": {"fine_step": 0.125},
        "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 64,
                       "ladder": [0.05, 0.2], "time_points": 8, "p_norm": p_norm},
    })
    assert main(["lipschitz", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
    payload = _strict_json((tmp_path / "lipschitz-3.json").read_text())
    assert payload["passed"] is True
    assert payload["summary"]["slope"] is None and payload["summary"]["intercept"] is None
    assert [row["estimate"] for row in payload["rows"]] == [0.0, 0.0]


# a stiff non-commuting model: eigenvalues near -40 and -50, so h |lambda|
# reaches 5 at fine_step 0.1, far outside the stability region of an explicit
# Runge-Kutta step
STIFF = {"kind": "statespace", "p": 2,
         "A_entries": [["-40", "1 + 0.5*sin(t)"], ["0.5*cos(t)", "-50"]],
         "B": ["1", "1"], "C": ["1", "1"], "commuting": False,
         "stability_margin": 30.0, "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0}}


def test_stiff_noncommuting_model_runs_at_coarse_fine_steps(tmp_path):
    # the Magnus step is an exponential, stable wherever the model is: the lln
    # RMSE at fine steps 1/16 and 0.1 agrees with that at 0.01 within Monte
    # Carlo error, and simulate gives finite values of the model's size
    def run(subcommand, h, experiment, **extra):
        out = tmp_path / f"{subcommand}-{h}"
        cfg = write_config(tmp_path, {
            "model": STIFF, "triplet": {"gamma": 1.0, "sigma2": 1.0},
            "simulation": {"fine_step": h, "burn_in": 8.0}, "experiment": experiment, **extra,
        }, name=f"{subcommand}-{h}.json")
        assert main([subcommand, "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        return out

    lln = {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100,
           "statistic": "mean", "rmse_tol": 0.2}
    rows = {h: json.loads((run("lln", h, lln) / "lln-1.json").read_text())["rows"]
            for h in (0.01, 0.0625, 0.1)}
    for h in (0.0625, 0.1):
        for row, ref in zip(rows[h], rows[0.01]):
            se = np.hypot(row["rmse_std_error"], ref["rmse_std_error"])
            assert abs(row["rmse"] - ref["rmse"]) <= 3.0 * se, (h, row["N"])
    for h in (0.0625, 0.1):
        out = run("simulate", h, {"kind": "lln_discrete", "N_list": [64], "replications": 100},
                  simulate={"times": np.linspace(0.5, 1.5, 9).tolist()})
        values = np.loadtxt(out / "simulate-1.csv", delimiter=",", skiprows=1)[:, 1]
        assert values.size == 9 and np.abs(values).max() < 10.0, h


def test_cli_and_its_campaigns_never_import_scipy_stats(tmp_path):
    # scipy.stats costs about half a second of start-up; neither the import of
    # the CLI nor a clt or lln campaign may load it, lazily or otherwise
    clt = write_config(tmp_path, {
        "scheme": {"u": 1.0, "b": 0.5, "beta": 0.6666666666666666, "scheme": "O1", "Delta": 1.0},
        "experiment": {"kind": "clt_mean", "N_list": [256], "replications": 1000},
    }, name="clt.json")
    lln = write_config(tmp_path, {
        "experiment": {"kind": "lln_discrete", "N_list": [64, 256], "replications": 100},
    }, name="lln.json")
    script = textwrap.dedent(f"""
        import json, sys
        import locstat.cli as cli
        at_import = "scipy.stats" in sys.modules
        codes = [cli.main([sub, "--config", cfg, "--out", {str(tmp_path)!r}])
                 for sub, cfg in (("clt", {clt!r}), ("lln", {lln!r}))]
        print(json.dumps([at_import, "scipy.stats" in sys.modules, codes]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    at_import, after_campaigns, codes = json.loads(out.splitlines()[-1])
    assert not at_import
    assert not after_campaigns
    assert all(code in (0, 1) for code in codes)
    assert (tmp_path / "clt-0.json").exists() and (tmp_path / "lln-0.json").exists()


def test_cli_and_its_campaigns_never_import_scipy_integrate(tmp_path):
    # scipy.integrate costs about 0.2 s of start-up; the product integrals
    # and the lln_continuous target use the package's own Gauss-Kronrod rule,
    # so neither the import of the CLI nor any campaign subcommand loads it
    configs = {
        "lln": {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}},
        "lln_cont": {"triplet": {"gamma": 1.0, "sigma2": 1.0},
                     "experiment": {"kind": "lln_continuous", "N_list": [16], "replications": 100,
                                    "t_end": 1.0, "n_quad": 64}},
        "clt": {"scheme": {"u": 1.0, "b": 0.5, "beta": 0.6666666666666666, "scheme": "O1",
                           "Delta": 1.0},
                "experiment": {"kind": "clt_mean", "N_list": [64], "replications": 1000}},
        "lipschitz": {"triplet": {"gamma": 0.0, "sigma2": 1.0,
                                  "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}},
                      "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 70,
                                     "p_norm": 4, "time_points": 8, "ladder": [0.05, 0.1, 0.2]}},
        "coupling": {"experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100}},
        "simulate": {"experiment": {"kind": "lln_discrete", "N_list": [16], "replications": 100},
                     "simulate": {"times": [0.5, 1.0, 1.5]}},
        "moments": {"moments": {"u": 1.0, "delta": 0.5}},
    }
    runs = [(name.split("_")[0], write_config(tmp_path, extra, name=f"{name}.json"))
            for name, extra in configs.items()]
    script = textwrap.dedent(f"""
        import json, sys
        import locstat.cli as cli
        at_import = "scipy.integrate" in sys.modules
        after = []
        for sub, cfg in {runs!r}:
            code = cli.main([sub, "--config", cfg, "--out", {str(tmp_path)!r}])
            after.append([sub, code, "scipy.integrate" in sys.modules])
        print(json.dumps([at_import, after]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    at_import, after = json.loads(out.splitlines()[-1])
    assert not at_import
    assert [sub for sub, _, loaded in after if loaded] == []
    assert all(code in (0, 1) for _, code, _ in after), after
    assert len(after) == 7


def test_cli_and_every_subcommand_never_import_scipy(tmp_path):
    # the package runs on numpy alone: no module of scipy is loaded by the
    # import of the CLI, by a tiny run of each of its eight subcommands or by
    # the transition-matrix methods
    path_csv = str(tmp_path / "simulate-1.csv")
    configs = {
        "simulate": {"experiment": {"kind": "lln_discrete", "N_list": [64], "replications": 100},
                     "simulate": {"use_scheme_grid": True}},
        "estimate": {"experiment": {"kind": "lln_discrete", "N_list": [64], "replications": 100},
                     "estimate": {"path_file": path_csv,
                                  "statistics": [{"kind": "mean"}, {"kind": "clt", "k": None}]}},
        "moments": {"moments": {"u": 1.0, "delta": 0.5}},
        "lln": {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}},
        "clt": {"experiment": {"kind": "clt_mean", "N_list": [64], "replications": 1000}},
        "coupling": {"experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100}},
        "lipschitz": {"triplet": {"gamma": 0.0, "sigma2": 1.0,
                                  "jumps": {"rate": 1.0, "normal": [0.0, 1.5]}},
                      "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 70,
                                     "p_norm": 4, "time_points": 8, "ladder": [0.05, 0.1, 0.2]}},
        "validate-kernel": {"kernel": "biweight"},
    }
    configs["clt"]["scheme"] = {**BASE["scheme"], "beta": 0.6666666666666666}
    runs = [(sub, write_config(tmp_path, extra, name=f"{sub}.json")) for sub, extra in configs.items()]
    script = textwrap.dedent(f"""
        import json, sys
        import locstat.cli as cli
        from locstat import dynamics, models
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        at_import = loaded()
        after = []
        for sub, cfg in {runs!r}:
            code = cli.main([sub, "--config", cfg, "--seed", "1", "--out", {str(tmp_path)!r}])
            after.append([sub, code, loaded()])
        for method in ("commuting_exp", "peano_baker", "ode_rk4"):
            dynamics.transition_matrix(models.companion2(), 1.0, 0.5, method=method)
        print(json.dumps([at_import, after, loaded()]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    at_import, after, at_end = json.loads(out.splitlines()[-1])
    assert at_import == []
    assert [(sub, mods) for sub, _, mods in after if mods] == []
    assert at_end == []
    assert [sub for sub, _, _ in after] == list(configs)
    assert all(code in (0, 1) for _, code, _ in after), after


def _modules_after_campaigns(tmp_path, runs, modules, workers=1, forced_forks=False) -> list:
    """[subcommand, exit code, which of ``modules`` are loaded] after each of
    ``runs`` (subcommand, config extra) in one child interpreter, in order.
    With ``forced_forks``, every map forks as many children as its workers
    and chunks allow (``experiments._FORK_WORK`` 0, 64 usable CPUs), and each
    entry ends with the number of children forked so far."""
    runs = [(sub, write_config(tmp_path, extra, name=f"{sub}.json")) for sub, extra in runs]
    script = textwrap.dedent(f"""
        import json, os, sys
        import locstat.cli as cli
        from locstat import experiments
        children, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        if {forced_forks!r}:
            experiments._FORK_WORK = 0
            os.sched_getaffinity = lambda pid: set(range(64))
            os.cpu_count = lambda: 64
            os.fork = counting_fork
        after = []
        for sub, cfg in {runs!r}:
            code = cli.main([sub, "--config", cfg, "--out", {str(tmp_path)!r},
                             "--workers", "{workers}"])
            after.append([sub, code, [m for m in {list(modules)!r} if m in sys.modules]]
                         + ([len(children)] if {forced_forks!r} else []))
        print(json.dumps(after))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env.pop("LOCSTAT_WORKERS", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def test_campaigns_never_import_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma (about 13 ms) on their first
    # call; the package's sort-based unique does not, on any campaign path:
    # segment stacks, lagged node unions and the Pade degrees of expm, which
    # a model without an eigenbasis takes
    jumps = {"gamma": 0.0, "sigma2": 1.0, "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}}
    runs = [
        ("lln", {"experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100,
                                "statistic": "autocov", "lag": 1}}),
        ("clt", {"scheme": {**BASE["scheme"], "beta": 0.6666666666666666},
                 "experiment": {"kind": "clt_mean", "N_list": [64], "replications": 1000}}),
        ("coupling", {"triplet": jumps,
                      "experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100}}),
        ("lipschitz", {"triplet": jumps,
                       "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 70,
                                      "p_norm": 4, "time_points": 8, "ladder": [0.05, 0.1, 0.2]}}),
        ("simulate", {"model": {"kind": "statespace", "p": 2,  # a Jordan block: no eigenbasis
                                "A_entries": [["-2 - 0.5*sin(t)", "1"], ["0", "-2 - 0.5*sin(t)"]],
                                "B": ["1", "0.5"], "C": ["1", "-0.5"], "commuting": True,
                                "stability_margin": 1.0, "lipschitz": {"A": 1.0, "B": 0, "C": 0}},
                      "triplet": jumps,
                      "experiment": {"kind": "lln_discrete", "N_list": [16], "replications": 100},
                      "simulate": {"use_scheme_grid": True, "lag": 1}}),
    ]
    after = _modules_after_campaigns(tmp_path, runs, ["numpy.ma"])
    assert [sub for sub, _, _ in after] == [sub for sub, _ in runs]
    assert all(code in (0, 1) for _, code, _ in after), after
    assert [(sub, mods) for sub, _, mods in after if mods] == []


def test_two_worker_clt_loads_no_process_pool(tmp_path):
    # the campaigns fork their workers themselves
    runs = [("clt", {"scheme": {**BASE["scheme"], "beta": 0.6666666666666666},
                     "experiment": {"kind": "clt_mean", "N_list": [64], "replications": 1000}})]
    after = _modules_after_campaigns(
        tmp_path, runs, ["multiprocessing", "concurrent.futures"], workers=2, forced_forks=True)
    assert after == [["clt", after[0][1], [], 1]] and after[0][1] in (0, 1), after
    assert (tmp_path / "clt-0.csv").exists()


@pytest.mark.parametrize("argv, env", [
    (["--workers", "0"], None), (["--workers", "-3"], None), ([], "0"), ([], "-1"),
])
def test_workers_below_one_exit_2_naming_the_option(tmp_path, capsys, monkeypatch, argv, env):
    # a worker count below 1 used to run serially without a word
    if env is None:
        monkeypatch.delenv("LOCSTAT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("LOCSTAT_WORKERS", env)
    cfg = write_config(tmp_path, {
        "experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 100}})
    assert main(["lln", "--config", cfg, "--out", str(tmp_path), *argv]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "lln-0.json").exists()


def test_write_csv_matches_csv_writer(tmp_path):
    # the bytes of csv.writer's default dialect on the cells the CLI writes:
    # ints, floats at 17 significant digits, numpy floats, bools, strings and
    # empty cells
    header = ["N", "estimate", "pass", "kind", "note"]
    rows = [
        [1, 0.1, True, "mean", ""],
        [2**40, np.float64(-1.0 / 3.0), False, "autocov", "x"],
        (0, float("inf"), np.float64("nan"), "clt", ""),
        [np.int64(7), 1e-300, np.bool_(True), "", "2.5"],
    ]
    _write_csv(str(tmp_path / "new.csv"), header, rows)
    with io.StringIO(newline="") as ref:
        writer = csv.writer(ref)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
        want = ref.getvalue()
    assert (tmp_path / "new.csv").read_bytes() == want.encode()


def test_write_csv_matches_csv_writer_over_runs_of_rows(tmp_path):
    # runs of rows of one length and one pattern of float cells, each written
    # by one template: the runs change with the length, with the cells that
    # are floats, and across empty rows
    rows = [(i, 0.1 * i) for i in range(5)] + [("x",), [], [], (7, np.float64(2.5)), (1, 2),
                                                 [1.5, "a", 2.0], [1.5, "a", 2.0], (3, 0.3)]
    _write_csv(str(tmp_path / "new.csv"), ["N", "value"], rows)
    with io.StringIO(newline="") as ref:
        writer = csv.writer(ref)
        for row in [["N", "value"], *rows]:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
        want = ref.getvalue()
    assert (tmp_path / "new.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_write_csv_refuses_a_cell_csv_writer_would_quote(tmp_path, cell):
    with pytest.raises(ValueError, match="CSV cell holds"):
        _write_csv(str(tmp_path / "bad.csv"), ["kind", "value"], [[cell, 1.0]])


def test_write_json_refuses_a_number_that_is_not_finite(tmp_path):
    # Infinity and NaN are not JSON; no file is left behind
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(str(tmp_path / "out.json"), {"rows": [{"estimate": 1.0, "rmse": value}]})
        assert not (tmp_path / "out.json").exists()


def test_write_csv_refuses_a_row_of_one_empty_cell(tmp_path):
    # csv.writer writes that row as "" to tell it from an empty row
    with pytest.raises(ValueError, match="one empty cell"):
        _write_csv(str(tmp_path / "bad.csv"), ["value"], [[1.0], [""]])
    _write_csv(str(tmp_path / "ok.csv"), ["value"], [[1.0], []])
    assert (tmp_path / "ok.csv").read_bytes() == b"value\r\n1\r\n\r\n"


def _peak_rss_mb(cfg: dict, tmp_path, name: str) -> float:
    """Peak resident memory (MB) of an ``lln`` run of ``cfg`` in a child interpreter."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen([sys.executable, "-m", "locstat.cli", "lln", "--config", str(path),
                              "--out", str(tmp_path / name)], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) in (0, 1)
    return usage.ru_maxrss / 1024.0


NONCOMMUTING_MODEL = {
    "kind": "statespace", "p": 2, "A_entries": [["-2", "1 + 0.5*sin(t)"], ["-1 + 0.5*sin(t)", "-3"]],
    "B": ["1", "1"], "C": ["1", "0.5"], "commuting": False, "stability_margin": 1.0,
    "lipschitz": {"A": 0.75, "B": 0.0, "C": 0.0},
}


def test_a_long_burn_in_takes_no_more_memory_than_a_short_one(tmp_path):
    # a gap law: e^E underflows to 0 more than 760 / min(a) before its
    # record, so the panels and the jumps of a burn-in of 1e5 are those of
    # its last 760, as many as a burn-in of 1e3 has (a fine-step law held 8e5
    # steps, and a draw 6.4e6 jumps per chunk: 386 MB). The node-propagator
    # law of a non-commuting A: the burn-in is scanned back from its record
    # in blocks of 195 panels (2^14 node values of A), and the carry to the
    # record is 0 after the first, so the panels before it and their jumps
    # are not built
    car1 = {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0}
    for model, h in ((car1, 0.125), (NONCOMMUTING_MODEL, 0.0625)):
        cfg = {
            "model": model,
            "triplet": {"gamma": 0.0, "sigma2": 0.5,
                        "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}},
            "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
            "simulation": {"fine_step": h, "burn_in": 1e3},
            "experiment": {"kind": "lln_discrete", "N_list": [256, 1024], "replications": 100},
        }
        short = _peak_rss_mb(cfg, tmp_path, f"{model['kind']}-short")
        cfg["simulation"]["burn_in"] = 1e5
        assert _peak_rss_mb(cfg, tmp_path, f"{model['kind']}-long") <= 1.2 * short, model["kind"]
