"""Tests of the benchmark itself.

Run:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from locstat import cli, experiments  # noqa: E402
from locstat.dynamics import build_scalar_plan_rescaled  # noqa: E402
from locstat.expressions import ExprFunc  # noqa: E402
from locstat.observation import make_scheme  # noqa: E402

# Shrunk versions of each workload that still pass their acceptance windows.
TINY = {
    "lln_ladder": {
        "simulation": {"fine_step": 1.0 / 64.0, "burn_in": 8.0},
        "experiment": {"N_list": [256, 1024], "replications": 100, "rmse_tol": 0.1},
    },
    "clt_jumps": {
        "simulation": {"fine_step": 1.0 / 32.0, "burn_in": 8.0},
        "experiment": {"N_list": [4096], "replications": 1000},
    },
    "frozen_lipschitz": {"experiment": {"replications": 64, "time_points": 8}},
    "statespace_simulate": {
        "experiment": {"N_list": [16]},
        "simulate": {"times": [0.5 + 0.125 * i for i in range(9)]},
    },
}


def _tiny_config(name: str) -> dict:
    cfg = copy.deepcopy(workloads.WORKLOADS[name].config)
    for section, override in TINY[name].items():
        cfg[section].update(override)
    return cfg


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_config_runs_to_exit_0(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_tiny_config(name)))
    argv = workload.argv(str(config_path), 0, str(tmp_path / "out"), workload.workers)
    assert cli.main(argv) == 0


@pytest.mark.parametrize("name", ["lln_ladder", "clt_jumps"])
def test_step_count_matches_plan(name):
    cfg = workloads.WORKLOADS[name].config
    exp, sch, sim = cfg["experiment"], cfg["scheme"], cfg["simulation"]
    parsed = cli._parse_config(json.dumps(cfg), 0, 1)
    N_list = exp["N_list"][-1:] if exp["kind"].startswith("clt") else exp["N_list"]
    per_rep = 0
    for N in N_list:
        scheme = make_scheme(sch["u"], N, parsed["bandwidth"], parsed["step_rule"])
        offsets, _, _ = experiments._union_offsets(scheme, 0)
        plan = build_scalar_plan_rescaled(
            parsed["model"], N, N * sch["u"] + offsets, sim["fine_step"], sim["burn_in"]
        )
        per_rep += plan.n_steps
    assert workloads.problem_steps(cfg) == exp["replications"] * per_rep


def test_statespace_step_count():
    cfg = workloads.WORKLOADS["statespace_simulate"].config
    assert workloads.problem_steps(cfg) == math.ceil(16.0 / 0.01) + 256 * 100


def test_wrappers_install_and_restore():
    originals = {}
    for module_name, attr, *_ in spans.TARGETS:
        owner, name, original = spans._resolve(module_name, attr)
        originals[(module_name, attr)] = (owner, name, original)
    installation = spans.Installation(spans.Tracer())
    assert installation.missing == [] and installation.absent_layers == []
    for owner, name, original in originals.values():
        assert (owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)) \
            is not original
    installation.remove()
    for owner, name, original in originals.values():
        assert (owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)) \
            is original


def test_missing_target_marks_layer_absent():
    targets = [
        ("locstat.experiments", "no_such_sampler", "noise.draw", None, None),
        ("locstat.expressions", "ExprFunc.__call__", "expressions.eval", None, None),
    ]
    original = ExprFunc.__dict__["__call__"]
    installation = spans.Installation(spans.Tracer(), targets)
    try:
        assert installation.missing == ["locstat.experiments.no_such_sampler"]
        assert "noise" in installation.absent_layers
        assert "expressions" not in installation.absent_layers
    finally:
        installation.remove()
    assert ExprFunc.__dict__["__call__"] is original


def test_missing_top_level_target_becomes_unattributed(monkeypatch):
    fake = types.ModuleType("fake_campaign")
    fake.draw = lambda: time.sleep(0.05)
    fake.scan = lambda: time.sleep(0.05)
    monkeypatch.setitem(sys.modules, "fake_campaign", fake)
    targets = [
        ("fake_campaign", "draw", "noise.draw", None, None),
        ("fake_campaign", "scan", "core.scan", None, None),
    ]

    def traced_run(targets):
        tracer = spans.Tracer()
        installation = spans.Installation(tracer, targets)
        t0 = time.perf_counter()
        fake.draw()
        fake.scan()
        wall = time.perf_counter() - t0
        installation.remove()
        return spans.layer_metrics(tracer.arrays(), wall)

    full = traced_run(targets)
    without_draw = traced_run([("fake_campaign", "no_draw", "noise.draw", None, None)]
                              + targets[1:])
    assert full["trace.unattributed_share"] < 0.05
    assert without_draw["noise.draw_s"] == 0.0
    assert without_draw["trace.unattributed_share"] == pytest.approx(
        1.0 - without_draw["core.scan_s"] / without_draw["trace.campaign_s"])
    assert without_draw["trace.unattributed_share"] > 0.4


def test_statespace_window_brackets_the_target():
    cfg = workloads.WORKLOADS["statespace_simulate"].config

    def window_for(value):
        rows = "".join(f"{t},{value}\n" for t in cfg["simulate"]["times"])
        return workloads.statespace_window(cfg, "time,value\n" + rows)

    target = window_for(0.0)["target"]
    exact = window_for(math.sqrt(target))
    assert exact["mean_square"] == pytest.approx(target)
    assert 0.4 < exact["rel_low"] < 1.0 < exact["rel_high"] < 2.0
    assert exact["low"] <= exact["mean_square"] <= exact["high"]
    doubled = window_for(math.sqrt(2.0 * target))
    assert doubled["mean_square"] > doubled["high"]


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "noise.draw", work=lambda a, r: 7.0)
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "experiments.chunk")
    outer()
    arrays = tracer.arrays()
    wall = float(arrays["t1"].max() - arrays["t0"].min())
    layers = spans.layer_metrics(arrays, wall)
    dur = arrays["t1"] - arrays["t0"]
    assert layers["noise.cells"] == 21.0
    assert layers["experiments.chunks"] == 1.0
    assert layers["noise.draw_s"] == pytest.approx(dur[1:].sum())
    assert layers["experiments.chunk_self_s"] == pytest.approx(dur[0] - dur[1:].sum())


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER
