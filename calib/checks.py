"""Checks of the seed sweep that are not benchmark workloads.

Each check is a ``perfbench.workloads.Workload`` (a CLI campaign with its
config, subcommand and worker count) that ``calib/sweep.py --check NAME``
runs like a workload; nothing under ``perfbench/`` is changed.

noncommuting_lln   an lln campaign of a non-commuting p = 2 model,
                   A(t) = [[-2, 1 + sin(t)/2], [-1 + sin(t)/2, -3]], driven
                   by +-1 jumps at rate 1: its segments take the
                   node-propagator law of stacks whose A is not diagonal, and
                   its jump weights the node-propagator rows of
                   ``dynamics.JumpWeights``. ``rmse_tol`` lies above the
                   final RMSEs of seeds 1-200 (median 0.089, largest 0.101).
noncommuting_lipschitz
                   a lipschitz_u campaign of the same model and driver, with
                   the ladder, replications and time points of the
                   ``frozen_lipschitz`` workload: its joint frozen system
                   (two blocks of A(u -+ eps/2)) is not diagonal, so its
                   frozen steps take the eigenbasis route of
                   ``dynamics.StepLaw`` and its jump weights the frozen-step
                   rows on that basis.
"""

from workloads import _PM_ONE_JUMPS, Workload

_NONCOMMUTING = {
    "kind": "statespace", "p": 2,
    "A_entries": [["-2", "1 + 0.5*sin(t)"], ["-1 + 0.5*sin(t)", "-3"]],
    "B": ["1", "1"], "C": ["1", "0.5"], "commuting": False,
    "stability_margin": 1.0, "lipschitz": {"A": 0.75, "B": 0.0, "C": 0.0},
}

CHECKS = {
    w.name: w
    for w in (
        Workload(
            name="noncommuting_lln",
            subcommand="lln",
            workers=1,
            why="node-propagator segments and their jump weights, on a non-commuting model",
            predictions=(),
            config={
                "model": _NONCOMMUTING,
                "triplet": {"gamma": 1.0, "sigma2": 0.5, "jumps": _PM_ONE_JUMPS},
                "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
                "simulation": {"fine_step": 1.0 / 16.0, "burn_in": 8.0},
                "experiment": {"kind": "lln_discrete", "N_list": [2**6, 2**8, 2**10],
                               "replications": 256, "statistic": "mean", "rmse_tol": 0.11},
            },
        ),
        Workload(
            name="noncommuting_lipschitz",
            subcommand="lipschitz",
            workers=1,
            why="frozen steps on a trusted eigenbasis and their jump weights, on a non-diagonal A",
            predictions=(),
            config={
                "model": _NONCOMMUTING,
                "triplet": {"gamma": 0.0, "sigma2": 1.0, "jumps": _PM_ONE_JUMPS},
                "simulation": {"fine_step": 0.01, "burn_in": 8.0},
                "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 256,
                               "p_norm": 4, "time_points": 48,
                               "ladder": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]},
            },
        ),
    )
}
