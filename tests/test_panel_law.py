"""The node-propagator law of non-commuting and near-defective models against
a DOP853 solve of the continuous model, its outputs at two fine steps, and
the node values of A it reads.

A non-commuting or near-defective A(t) is not diagonal at the nodes (nor
is any basis that diagonalizes it at every node), so its record gaps take
the node-propagator law of
``dynamics._propagator_sums``: G10K21 panels whose node propagators
Phi(b, s_i) come from sixth-order Magnus steps between the nodes. Its decay,
drift, covariance and jump weights are those of the continuous model, which
``test_statespace_property.ode_sums`` solves back from the record at rtol
1e-13. The law reads A and C at the panel nodes alone, so, as for a gap law,
the fine step enters neither it nor any output built from it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_calib import checks
from test_experiments import _campaign_outputs, _noncommuting
from test_statespace_property import FINE, _NearDefective, _Vector, ode_sums, systems

from locstat import dynamics, experiments
from locstat.cli import _parse_config, main
from locstat.dynamics import Lipschitz, ModelSpec, build_plan

UNITS = np.array([0.0, 0.3, 0.71, 0.999])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(FINE),
    N=st.sampled_from([1, 4, 32]),
    gap=st.sampled_from([0.25, 1.0, 3.0]),
    first=st.integers(0, 64),
)
def test_node_propagator_law_matches_the_ode_oracle(spec, N, gap, first):
    # p = 2 or 3; the burn-in (segment 0) and one record gap (segment 1),
    # each within 1e-10 of the largest entry of the oracle's value
    a = N + first / 16.0
    plan = build_plan(spec, N, [a, a + gap], gap / 4.0, 8.0)
    taken = []
    propagator_sums = dynamics._propagator_sums

    def recorded(*args):
        taken.append(args[4])
        return propagator_sums(*args)

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(dynamics, "_propagator_sums", recorded)
        decay, drift, cov, span, _, weight = dynamics._plan_sums(plan, True)
    assert sorted(np.concatenate(taken).tolist()) == [0, 1]
    bounds = plan.start + np.concatenate([[0], plan.record_steps]) * plan.h
    assert span.tolist() == np.diff(bounds).tolist()
    for k in (0, 1):
        want = ode_sums(spec, N, bounds[k], bounds[k + 1], bounds[k] + UNITS * span[k])
        got = (decay[k], drift[k], cov[k], weight(np.full(UNITS.size, k), UNITS))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), (k, g, w)


@pytest.mark.parametrize("model", [
    _noncommuting(),
    ModelSpec(2, _NearDefective(_NearDefective.JORDANS[0]), _Vector(np.ones(2), np.zeros(2)),
              _Vector(np.array([1.0, 0.5]), np.array([0.2, 0.0])), Lipschitz(1.0, 0.0, 0.2), True,
              0.5, "near_defective"),
], ids=["noncommuting", "near_defective"])
def test_node_propagator_outputs_do_not_depend_on_the_fine_step(model):
    # the lln rows and replication values, the clt replication values, a
    # simulate path and the coupling distances of small campaigns: the same
    # bytes at h = 1/64 and 1/16, every node dyadic
    fine, coarse = _campaign_outputs(model, 1.0 / 64.0), _campaign_outputs(model, 1.0 / 16.0)
    for a, b in zip(fine, coarse):
        assert a.tobytes() == b.tobytes()


NONCOMMUTING_MODEL = {
    "kind": "statespace", "p": 2, "A_entries": [["-2", "1 + 0.5*sin(t)"], ["-1 + 0.5*sin(t)", "-3"]],
    "B": ["1", "1"], "C": ["1", "0.5"], "commuting": False, "stability_margin": 1.0,
    "lipschitz": {"A": 0.75, "B": 0.0, "C": 0.0},
}


def test_noncommuting_cli_outputs_do_not_depend_on_the_fine_step(tmp_path):
    # the model of calib/checks.py's noncommuting_lln: its simulate and lln
    # output files have the same bytes at fine steps 1/16 and 1/64
    outputs = []
    for h in (1.0 / 16.0, 1.0 / 64.0):
        cfg = tmp_path / f"{h}.json"
        cfg.write_text(json.dumps({
            "model": NONCOMMUTING_MODEL,
            "triplet": {"gamma": 1.0, "sigma2": 0.5,
                        "jumps": {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}},
            "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
            "simulation": {"fine_step": h, "burn_in": 8.0},
            "experiment": {"kind": "lln_discrete", "N_list": [2**6, 2**8], "replications": 128},
            "simulate": {"times": np.linspace(0.5, 1.5, 9).tolist()},
        }))
        out = tmp_path / f"out-{h}"
        for subcommand in ("simulate", "lln"):
            assert main([subcommand, "--config", str(cfg), "--seed", "3", "--out", str(out)]) in (0, 1)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["lln-3.csv", "lln-3.json", "simulate-3.csv", "simulate-3.json"]
    assert outputs[0] == outputs[1]


def test_a_stack_reads_a_once_at_the_nodes_of_its_first_cut():
    # the lln law of the noncommuting_lln check at N = 256, 41 records: the
    # first cut of the burn-in and of the 40 gaps is one panel each, 861 node
    # values of A, read once to choose the law; the gaps take those values,
    # and only the burn-in's 4 panels of 8 / max ||A||_F read A again
    config = _parse_config(json.dumps(checks.CHECKS["noncommuting_lln"].config), 1, 1)
    counts, coefficient_values = [], dynamics.coefficient_values

    def counted(spec, name, t):
        if name == "A":
            counts.append(np.size(t))
        return coefficient_values(spec, name, t)

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(dynamics, "coefficient_values", counted)
        payload = experiments._localized_payload(config["experiment"], 256, 0, "mean", "lln")
    assert payload["law"].decay.shape == (41, 2, 2)
    # the stack of the 40 gaps, then the burn-in's first cut and its panels
    assert counts == [40 * 21, 21, 4 * 21] and sum(counts) == 945
