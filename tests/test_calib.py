"""The seed sweep of ``calib/sweep.py`` on small configs of the workloads."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("calib_sweep", ROOT / "calib" / "sweep.py")
workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
sys.modules.setdefault("workloads", workloads)
checks = _load("calib_checks", ROOT / "calib" / "checks.py")


def _small(name):
    w = {**workloads.WORKLOADS, **checks.CHECKS}[name]
    cfg = {**w.config, "experiment": {**w.config["experiment"], "replications": 128}}
    if name in ("lln_ladder", "noncommuting_lln"):
        cfg["experiment"]["N_list"] = [2**6, 2**8]
    if name == "statespace_simulate":
        cfg["simulate"] = {"times": [0.5 + k / 32.0 for k in range(9)]}
    return dataclasses.replace(w, config=cfg, workers=1)


@pytest.mark.parametrize("name,verdicts", [
    ("lln_ladder", {"strictly_decreasing", "final_rmse_below_tol"}),
    ("statespace_simulate", {"statespace_window"}),
    ("noncommuting_lln", {"strictly_decreasing", "final_rmse_below_tol"}),
])
def test_a_sweep_records_every_verdict_and_repeats_itself(name, verdicts):
    workload = _small(name)
    first, second = (sweep.sweep(workload, range(1, 4)) for _ in range(2))
    for record in (first, second):
        record.pop("runtime_s")
    assert first == second
    assert first["runs"] == 3 and first["seeds"] == [1, 3]
    assert sum(first["exit_codes"].values()) == 3
    assert first["failures"] == len(first["failing_seeds"])
    assert set(first["verdicts"]) == verdicts
    for entry in first["verdicts"].values():
        assert entry["failures"] == len(entry["failing_seeds"])
        assert set(entry["statistic"]) == {f"{q:g}" for q in sweep.QUANTILES}


def test_checks_are_named_apart_from_the_workloads():
    assert checks.CHECKS and not set(checks.CHECKS) & set(workloads.WORKLOADS)
    assert all(name == w.name for name, w in checks.CHECKS.items())


def test_binomial_test_of_two_failure_counts():
    assert sweep.binomial_p(0, 1000, 0, 1000) == 1.0
    assert sweep.binomial_p(3, 1000, 3, 1000) == pytest.approx(1.0)
    # 10 against 0 of 20 shared failures: 2 * 0.5^10
    assert sweep.binomial_p(10, 1000, 0, 1000) == pytest.approx(2 * 0.5**10)
    assert sweep.binomial_p(5, 1000, 1, 1000) == pytest.approx(0.21875)
    record = {"checks": {"w": {"runs": 1000, "failures": 10, "verdicts": {}}}}
    previous = {"checks": {"w": {"runs": 1000, "failures": 0, "verdicts": {}}}}
    [line] = sweep.compare(record, previous)
    assert "10/1000 failed against 0/1000" in line and "p = 0.00195" in line
