"""Schema-valid tiny configs through the CLI: every run ends with an exit
code in 0-4, never with a traceback.

Models are scalar ``car1`` or ``statespace`` with p = 1..3, commuting
(A(t) = g(t) M with M upper triangular) or not (A(t) = M + sin(t) E with E
strictly lower triangular). The declared margins and Lipschitz constants
hold for most draws; a draw whose declaration fails the sampled validation
must still end with exit 3, not a crash. Boundary configs set one key of
the config table to 0, -1, 1e308, NaN, Infinity or [] (a lag also to 1.5),
or one element of a list key to a list, a string or NaN, and run in a child
interpreter, whose stderr must hold no traceback. Every key of the table is
drawn, or exempt for a stated reason.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat.cli import CONFIG, Maybe, Obj, Tagged, main

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


# keys a config may set to a boundary value: every key of the config table
# but those in EXEMPT_KEYS. Each must run or end with an exit code, never a
# traceback.
BOUNDARY_KEYS = (
    ("triplet", "gamma"), ("triplet", "sigma2"), ("triplet", "jumps", "rate"),
    ("triplet", "jumps", "atoms"), ("triplet", "jumps", "normal"), ("kernel",),
    ("scheme", "u"), ("scheme", "Delta"), ("scheme", "b"), ("scheme", "beta"),
    ("scheme", "d"), ("scheme", "alpha"),
    ("simulation", "fine_step"), ("simulation", "burn_in"), ("experiment", "N_list"),
    ("experiment", "t_end"), ("experiment", "n_quad"), ("experiment", "ladder"),
    ("experiment", "rmse_tol"), ("experiment", "replications"), ("experiment", "lag"),
    ("experiment", "statistic"), ("experiment", "time_points"), ("experiment", "p_norm"),
    ("experiment", "validate_inputs"),
    ("model", "p"), ("model", "A_entries"), ("model", "B"), ("model", "C"),
    ("model", "commuting"), ("model", "stability_margin"), ("model", "lipschitz", "A"),
    ("model", "lipschitz", "B"), ("model", "lipschitz", "C"), ("model", "lipschitz"),
    ("model", "infimum"),
    ("simulate", "times"), ("simulate", "use_scheme_grid"), ("simulate", "lag"),
    ("estimate", "path_file"), ("estimate", "statistics"),
    ("moments", "u"), ("moments", "delta"), ("moments", "tilde_lags"), ("moments", "autocov_lags"),
)
EXEMPT_KEYS = {
    ("model", "kind"): "a discriminator: any other value is one unknown-variant check",
    ("scheme", "scheme"): "a discriminator: any other value is one unknown-variant check",
    ("experiment", "kind"): "a discriminator of the run: any other value is one choice check",
    ("model", "a"): "an expression string: the grammar is tested in test_expressions.py",
}
CAR1_KEYS = (("model", "lipschitz"), ("model", "infimum"))
# a one-point path for the estimate subcommand
PATH_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "path.csv")
BOUNDARY_VALUES = (0, -1, 1e308, float("nan"), float("inf"), [])
LAG_VALUES = (*BOUNDARY_VALUES, 1.5)  # a lag must also be an integer
ELEMENT_VALUES = ([1.0], "x", float("nan"))


@st.composite
def boundary_cases(draw):
    """(subcommand, config) with one key of a valid tiny config set to 0, -1,
    1e308, NaN, Infinity or [] (or 1.5, for a lag), or one element of a
    list key set to a list, a string or NaN."""
    path = draw(st.sampled_from(BOUNDARY_KEYS))
    if path[-1] in ("t_end", "n_quad"):
        subcommand, section = "lln", {"experiment": {
            "kind": "lln_continuous", "N_list": [16], "replications": 100, "n_quad": 16}}
    elif path == ("experiment", "lag"):
        subcommand, section = draw(st.sampled_from((
            ("lln", {"experiment": {"kind": "lln_discrete", "N_list": [16, 64],
                                    "replications": 100, "statistic": "autocov", "lag": 1}}),
            ("clt", {"experiment": {"kind": "clt_cov", "N_list": [64], "replications": 1000,
                                    "lag": 1}}),
        )))
    elif path[-1] in ("ladder", "time_points", "p_norm"):
        subcommand, section = "lipschitz", draw(sections("lipschitz"))
    elif path in (("simulate", "lag"), ("simulate", "use_scheme_grid")):
        subcommand, section = "simulate", {
            "experiment": {"kind": "lln_discrete", "N_list": [64], "replications": 100},
            "simulate": {"use_scheme_grid": True, "lag": 1}}
    elif path[0] in ("simulate", "moments"):
        subcommand, section = path[0], draw(sections(path[0]))
    elif path[0] == "estimate":
        subcommand, section = "estimate", {
            "experiment": {"kind": "lln_discrete", "N_list": [64], "replications": 100},
            "estimate": {"path_file": PATH_CSV, "statistics": [{"kind": "mean"}]}}
    else:
        # the moments subcommand reads the triplet too
        subcommand = draw(st.sampled_from(("simulate", "lln", "coupling", "lipschitz")
                                          + (("moments",) if path[0] == "triplet" else ())))
        section = draw(sections(subcommand))
    jumps = ({"rate": 0.5, "normal": [0.0, 0.5]} if path[-1] == "normal"
             else {"rate": 0.5, "atoms": [[1.0, 0.5], [-1.0, 0.5]]})
    scheme = ({"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O2", "d": 0.25, "alpha": 0.5}
              if path[-1] in ("d", "alpha") else
              {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0})
    cfg = {
        "model": draw(statespace_models() if path[0] == "model" and path not in CAR1_KEYS
                      else car1_models()),
        "triplet": {"gamma": 0.0, "sigma2": 0.5, "jumps": jumps},
        "scheme": scheme,
        "simulation": {"fine_step": 0.125, "burn_in": 8.0},
        **section,
    }
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if isinstance(node.get(path[-1]), list) and draw(st.booleans()):
        node, path = node[path[-1]], (draw(st.integers(0, len(node[path[-1]]) - 1)),)
        values = ELEMENT_VALUES
    else:
        values = LAG_VALUES if path[-1] == "lag" else BOUNDARY_VALUES
    node[path[-1]] = draw(st.sampled_from(values))
    return subcommand, cfg


def _run_in_child(cases, timeout, address_space=None):
    """Exit codes and stderr of ``cases`` (subcommand, config), run one after
    another in one child interpreter, as the command line would run them, so
    a traceback reaches its stderr. The child is killed after ``timeout`` s,
    and its address space is capped at ``address_space`` bytes if given."""
    script = textwrap.dedent("""
        import json, os, sys, tempfile
        from locstat.cli import main
        codes = []
        for subcommand, cfg in json.load(sys.stdin):
            with tempfile.TemporaryDirectory() as out:
                path = os.path.join(out, "config.json")
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
                codes.append(main([subcommand, "--config", path, "--out", out]))
                print(f"--- {subcommand} exit {codes[-1]}", file=sys.stderr)
        print(json.dumps(codes))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cap = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    run = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases), env=env,
                         capture_output=True, text=True, timeout=timeout, preexec_fn=cap)
    assert "Traceback" not in run.stderr, run.stderr
    codes = json.loads(run.stdout.splitlines()[-1])
    assert len(codes) == len(cases), codes
    return codes, run.stderr


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(cases=st.lists(boundary_cases(), min_size=12, max_size=12))
def test_boundary_values_end_with_a_documented_exit_code_and_no_traceback(cases):
    codes, _ = _run_in_child(cases, timeout=600)
    assert all(code in (0, 1, 2, 3, 4) for code in codes), codes


def test_driver_boundary_values_with_moments_exit_naming_what_is_not_finite():
    # triplet.gamma, triplet.sigma2 and triplet.jumps.rate at every boundary
    # value through the moments subcommand: a moment that overflows exits 3
    # naming its output key, never with a traceback
    cases = []
    for path in (("gamma",), ("sigma2",), ("jumps", "rate")):
        for value in BOUNDARY_VALUES:
            triplet = {"gamma": 0.0, "sigma2": 0.5,
                       "jumps": {"rate": 0.5, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}}
            node = triplet if len(path) == 1 else triplet["jumps"]
            node[path[-1]] = value
            cases.append(("moments", {"model": {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0,
                                                "infimum": 1.0},
                                      "triplet": triplet, **{"moments": {"u": 1.0}}}))
    codes, stderr = _run_in_child(cases, timeout=300)
    assert all(code in (0, 1, 2, 3, 4) for code in codes), codes
    huge = [code for (_, cfg), code in zip(cases, codes)
            if 1e308 in (cfg["triplet"]["gamma"], cfg["triplet"]["sigma2"], cfg["triplet"]["jumps"]["rate"])]
    assert huge == [3, 3, 3], codes
    assert stderr.count("is not finite (inf)") == 3, stderr


def _table_keys(domain, path=()):
    """The paths of the keys of the config table whose domain is not an
    object, over every variant."""
    domain = domain.domain if isinstance(domain, Maybe) else domain
    if isinstance(domain, Tagged):
        return set().union(*(_table_keys(v, path) for v in domain.variants.values()))
    if isinstance(domain, Obj):
        return set().union(*(_table_keys(item, path + (key,)) for key, item in
                             {**domain.required, **domain.optional}.items()))
    return {path}


def test_every_table_key_is_a_boundary_key_or_exempt():
    keys = _table_keys(CONFIG)
    unfuzzed = keys - set(BOUNDARY_KEYS) - set(EXEMPT_KEYS)
    assert not unfuzzed, f"keys neither fuzzed nor exempt: {sorted(unfuzzed)}"
    stale = (set(BOUNDARY_KEYS) | set(EXEMPT_KEYS)) - keys
    assert not stale, f"fuzzed or exempt keys not in the table: {sorted(stale)}"
    assert not set(BOUNDARY_KEYS) & set(EXEMPT_KEYS)


def test_huge_sizes_exit_naming_their_key():
    # replications 1e308 used to build its chunk list until memory ran out
    # (hence the cap), and n_quad and t_end 1e308 exited 3 with numpy's messages
    base = {
        "model": {"kind": "car1", "a": "1.5 + 0.5*sin(t)", "lipschitz": 0.5, "infimum": 1.0},
        "triplet": {"gamma": 1.0, "sigma2": 0.5},
        "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
        "simulation": {"fine_step": 0.125, "burn_in": 8.0},
    }
    keys = ("replications", "n_quad", "t_end")
    cases = [("lln", {**base, "experiment": {
        "kind": "lln_discrete" if key == "replications" else "lln_continuous",
        "N_list": [16], "replications": 100, "n_quad": 16, key: 1e308}}) for key in keys]
    codes, stderr = _run_in_child(cases, timeout=120, address_space=2 << 30)
    messages = stderr.split("--- ")
    for key, code, message in zip(keys, codes, messages):
        assert code in (2, 3) and f"experiment.{key}" in message, (key, code, message)


def test_tiny_sizes_exit_naming_what_they_bound():
    # an observation spacing or a lag-series spacing of 1e-9 sized its array
    # by the count it implies (m_N = 4e9 at N = 64, 1.6e10 lags) and ended in
    # numpy's allocation traceback; at 1e-17 exp(-margin delta) rounds to 1,
    # and at 5e-324 delta_N is 0 (a ZeroDivisionError) and the rate subnormal
    base = {
        "model": {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0},
        "triplet": {"gamma": 0.0, "sigma2": 1.0},
        "scheme": {"u": 1.0, "b": 0.5, "beta": 0.55, "scheme": "O1", "Delta": 1e-9},
        "simulation": {"fine_step": 0.125, "burn_in": 8.0},
    }
    o2 = {"u": 1.0, "b": 0.5, "beta": 0.4, "scheme": "O2", "d": 1e-9, "alpha": 0.5}
    lln = {"kind": "lln_discrete", "N_list": [64], "replications": 100}
    cases = [
        ("m_N", "clt", {**base, "experiment": {"kind": "clt_mean", "N_list": [64],
                                               "replications": 1000}}),
        ("m_N", "lln", {**base, "experiment": lln}),
        ("m_N", "lln", {**base, "scheme": {**base["scheme"], "Delta": 5e-324}, "experiment": lln}),
        ("m_N", "lln", {**base, "scheme": o2, "experiment": lln}),
        ("delta", "moments", {**base, "moments": {"u": 1.0, "delta": 1e-9}}),
        ("delta", "moments", {**base, "moments": {"u": 1.0, "delta": 1e-17}}),
        ("delta", "moments", {**base, "moments": {"u": 1.0, "delta": 5e-324}}),
    ]
    codes, stderr = _run_in_child([case[1:] for case in cases], timeout=120,
                                  address_space=2 << 30)
    messages = stderr.split("--- ")
    for (bound, _, _), code, message in zip(cases, codes, messages):
        assert code == 3 and bound in message and "more than 4194304" in message, message
