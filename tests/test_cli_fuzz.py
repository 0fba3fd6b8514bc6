"""Schema-valid tiny configs through the CLI: every run ends with an exit
code in 0-4, never with a traceback.

Models are scalar ``car1`` or ``statespace`` with p = 1..3, commuting
(A(t) = g(t) M with M upper triangular) or not (A(t) = M + sin(t) E with E
strictly lower triangular). The declared margins and Lipschitz constants
hold for most draws; a draw whose declaration fails the sampled validation
must still end with exit 3, not a crash.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat.cli import main

SUBCOMMANDS = ("simulate", "moments", "lln", "clt", "coupling", "lipschitz")


def _num(x: float) -> str:
    return repr(float(x))


@st.composite
def car1_models(draw):
    base = draw(st.sampled_from([1.0, 1.5, 2.0]))
    amp = draw(st.sampled_from([0.0, 0.5]))
    return {"kind": "car1", "a": f"{_num(base)} + {_num(amp)}*sin(t)",
            "lipschitz": amp, "infimum": base - amp}


@st.composite
def statespace_models(draw):
    p = draw(st.integers(1, 3))
    commuting = draw(st.booleans())
    rates = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=p, max_size=p))
    upper = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=p * p, max_size=p * p))
    M = np.triu(np.reshape(upper, (p, p)), 1) - np.diag(rates)
    amp = draw(st.sampled_from([0.0, 0.25, 0.5]))
    if commuting:  # (1 + amp sin t) M: eigenvalues -(1 + amp sin t) rate_i
        entries = [[f"(1 + {_num(amp)}*sin(t))*({_num(M[i, j])})" for j in range(p)]
                   for i in range(p)]
        margin = (1.0 - amp) * min(rates)
        lip_A = amp * float(np.linalg.norm(M)) + 1e-6
    else:  # M + sin(t) E, E strictly lower triangular with entries amp
        entries = [[_num(M[i, j]) if i <= j else f"{_num(amp)}*sin(t)" for j in range(p)]
                   for i in range(p)]
        margin = 0.5 * min(rates)
        lip_A = amp * np.sqrt(p * (p - 1) / 2.0) + 1e-6
    vec = st.lists(st.sampled_from(["1", "0.5", "-1", "cos(t)"]), min_size=p, max_size=p)
    B, C = draw(vec), draw(vec)
    return {
        "kind": "statespace", "p": p, "A_entries": entries, "B": B, "C": C,
        "commuting": commuting, "stability_margin": margin,
        "lipschitz": {"A": lip_A, "B": np.sqrt(B.count("cos(t)")),
                      "C": np.sqrt(C.count("cos(t)"))},
    }


triplets = st.builds(
    lambda gamma, sigma2, jumps: {"gamma": gamma, "sigma2": sigma2,
                                  **({"jumps": jumps} if jumps else {})},
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([None, {"rate": 0.5, "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
                     {"rate": 1.0, "normal": [0.0, 0.5]}]),
)

schemes = st.one_of(
    st.builds(lambda beta, Delta: {"u": 1.0, "b": 0.5, "beta": beta, "scheme": "O1",
                                   "Delta": Delta},
              st.sampled_from([1.0 / 3.0, 0.55]), st.sampled_from([0.5, 1.0])),
    # rescaled spacing 0.25 N^0.5: 2 and 4 at N = 64 and 256
    st.just({"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O2", "d": 0.25, "alpha": 0.5}),
)


@st.composite
def sections(draw, subcommand):
    if subcommand == "simulate":
        return {"experiment": {"kind": "lln_discrete", "N_list": [8], "replications": 100},
                "simulate": {"times": [0.5, 0.75, 1.0]}}
    if subcommand == "moments":
        return {"moments": {"u": 1.0, "delta": 0.5, "autocov_lags": [0.0, 1.0],
                            "tilde_lags": [0, 1]}}
    if subcommand == "lln":
        kind = draw(st.sampled_from(["lln_discrete", "lln_continuous"]))
        exp = {"kind": kind, "N_list": [64, 256], "replications": 100}
        if kind == "lln_discrete":
            exp.update(draw(st.sampled_from([{"statistic": "mean"},
                                             {"statistic": "autocov", "lag": 1}])))
        else:
            exp["n_quad"] = 64
        return {"experiment": exp}
    if subcommand == "clt":
        kind = draw(st.sampled_from(["clt_mean", "clt_cov"]))
        exp = {"kind": kind, "N_list": [64], "replications": 1000}
        if kind == "clt_cov":
            exp["lag"] = 1
        return {"experiment": exp}
    if subcommand == "coupling":
        return {"experiment": {"kind": "coupling", "N_list": [8, 16], "replications": 100}}
    return {"experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 64,
                           "ladder": [0.05, 0.2], "time_points": 8,
                           "p_norm": draw(st.sampled_from([2, 4]))}}


@st.composite
def configs(draw):
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    cfg = {
        "model": draw(st.one_of(car1_models(), statespace_models())),
        "triplet": draw(triplets),
        "scheme": draw(schemes),
        "simulation": {"fine_step": draw(st.sampled_from([0.125, 0.0625]))},
        **draw(sections(subcommand)),
    }
    return subcommand, cfg


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=configs(), seed=st.integers(0, 1000))
def test_schema_valid_configs_end_with_a_documented_exit_code(case, seed):
    subcommand, cfg = case
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = main([subcommand, "--config", path, "--seed", str(seed), "--out", out])
    assert code in (0, 1, 2, 3, 4)
