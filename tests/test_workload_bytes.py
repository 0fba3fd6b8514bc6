"""The output bytes of the benchmark workloads and of the checks of the seed
sweep.

Each config of ``perfbench/workloads.py`` and of ``calib/checks.py``
(``noncommuting_lln`` and ``noncommuting_lipschitz``) runs through
``cli.main`` at seeds 1 and 2 with one worker, at the CLI seed the
benchmark derives from the seed (``Workload.argv``). Its exit code and the
sha256 of its output files (name and bytes, in name order) must be the
pinned ones. A change that moves them moves the bits of a workload: it
takes new digests only on purpose, with a seed sweep (``calib/sweep.py``)
of the checks it moves. ``clt_jumps``, which
the benchmark times at 2 workers, also keeps them at 2 and 3 workers with
its chunks run in forked children.
"""

import hashlib
import json

import pytest
from test_calib import checks, workloads
from test_experiments import _counted_forks

from locstat import experiments
from locstat.cli import main

CONFIGS = {**workloads.WORKLOADS, **checks.CHECKS}

# (exit code, sha256 of the output files) per check and seed
PINNED = {
    ("clt_jumps", 1): (0, "9b6eb4c5f55b1378eff73fae4e0f83860affcf5784232b96c3ab1e19ed0d68aa"),
    ("clt_jumps", 2): (0, "0fe5cfa052dea5b240bfe16e87617cca3a4e8fd619b67e982825c1a037b11512"),
    ("frozen_lipschitz", 1): (0, "37e0fbd86a5484e7ee3d309af32a2f7c6c304faf33628a0b03655f29c17875fa"),
    ("frozen_lipschitz", 2): (0, "266b6f2c1298ab001d517731ad0888210a1d06d4efc7758d51bfc40a3849077b"),
    ("lln_ladder", 1): (0, "54a4cba8b33c8979fb1643ef2434922f1f4bb5f49698ce04a719796cba1c19a9"),
    ("lln_ladder", 2): (0, "40b3330b6d2a9b82250afb5126a82f7d8fa6c6b2ca06d2b5dc5fe980f22b1836"),
    ("noncommuting_lln", 1): (0, "491160cbffeb0b78289bbbb244818dc19b5836ecd27ca8d01e318a0ee59dbdb9"),
    ("noncommuting_lln", 2): (0, "4792c7dbb231230c1f1e3870093a333f2a776049b45ba75176c2810887574209"),
    ("noncommuting_lipschitz", 1): (0, "42dccb3418b7cb0d8583b2d1d1a2b631a8e5737bd76695f3261e3ee2f24deb78"),
    ("noncommuting_lipschitz", 2): (0, "797f95ca3f1e8b8a14c19de8bd88fedb94e8c989a088a4f28b5488010c930203"),
    ("statespace_simulate", 1): (0, "a34d3535b64b6d01aaa298fede35b3e373c08d54fe5fd84e89714d8d0bd11ed0"),
    ("statespace_simulate", 2): (0, "9683ea72874cc7abacaa87d4a764aea5ddf33631463c40e9e9fae1ca3ece2f9e"),
}


def _outputs(workload, seed, tmp_path, workers=1):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    out = tmp_path / "out"
    code = main(workload.argv(str(config), seed, str(out), workers))
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return code, digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_workload_outputs_keep_their_bytes(name, seed, tmp_path):
    assert _outputs(CONFIGS[name], seed, tmp_path) == PINNED[name, seed]


def test_every_workload_and_the_noncommuting_check_are_pinned():
    assert sorted({name for name, _ in PINNED}) == sorted(CONFIGS)


@pytest.mark.parametrize("workers", [workloads.WORKLOADS["clt_jumps"].workers, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_clt_jumps_keeps_its_bytes_in_forked_children(workers, seed, tmp_path, monkeypatch):
    pids = _counted_forks(monkeypatch)  # forks whatever the work, on 4 usable CPUs
    assert _outputs(CONFIGS["clt_jumps"], seed, tmp_path, workers) == PINNED["clt_jumps", seed]
    assert len(pids) == workers - 1


def test_clt_jumps_at_its_worker_count_forks_no_child(tmp_path, monkeypatch):
    # its 2048 x (49 records + 56 expected jumps) units are less than the
    # 2 x _FORK_WORK that two processes need
    workload = CONFIGS["clt_jumps"]
    pids = _counted_forks(monkeypatch, fork_work=experiments._FORK_WORK)
    assert workload.workers == 2
    assert _outputs(workload, 1, tmp_path, workload.workers) == PINNED["clt_jumps", 1]
    assert pids == []
