"""Command line interface: configuration, orchestration, data emission.

Exit codes: 0 success (and experiment passed), 1 experiment ran but failed
its acceptance window, 2 config schema violation, naming the key path and
any list index (moments.autocov_lags[0]), or a value a model, driver, scheme
or experiment constructor rejects, 3 semantic violation of a mathematical
precondition (a moments output or an experiment report number that is not
finite among them, naming its key path: rows[0].estimate; and a model whose
spectrum ratio max |lambda| / min(-Re lambda) needs more than 2^22 panels,
naming the ratio), 4 I/O failure.

Config schema (JSON; unknown keys rejected at every level; a key marked ?
may be left out). num is a finite number, real any number (NaN and Infinity
too, for the simulator to reject), int an integral number or numeric string
(at most 2^22 in size; N_list entries 2^53), bool true or false, str a string.

  model       {"kind": "car1", "a": EXPR, "lipschitz": num, "infimum": num}
            | {"kind": "statespace", "p": int >= 1, "A_entries": [[EXPR x p] x p],
               "B": [EXPR x p], "C": [EXPR x p], "commuting": bool,
               "stability_margin": num, "lipschitz": {"A"?: num, "B"?: num, "C"?: num}}
              EXPR is a str in the grammar {+,-,*,/, sin, cos, exp, numbers, t}.
  triplet     {"gamma": num, "sigma2": num, "jumps"?: null
                 | {"rate": num, "atoms": [[value num, prob num], ...] (at least one)}
                 | {"rate": num, "normal": [mean num, std num]}}
  kernel?     "rectangular" | "biweight"
  scheme?     {"u": num, "b": num, "beta": num, "scheme": "O1", "Delta": num}
            | {"u": num, "b": num, "beta": num, "scheme": "O2", "d": num, "alpha": num}
  simulation? {"fine_step"?: real, "burn_in"?: real}
  experiment? {"kind": "coupling"|"lln_discrete"|"lln_continuous"|
                       "clt_mean"|"clt_cov"|"lipschitz_u",
               "N_list": [int >= 1, ...] (at least one), "replications": int 1 to 2^24,
               "lag"?: int, "statistic"?: str, "t_end"?: num, "n_quad"?: int >= 1,
               "ladder"?: [num > 0, ...] (at least one), "p_norm"?: 2 | 4,
               "time_points"?: int >= 1, "rmse_tol"?: num, "validate_inputs"?: bool}
  simulate?   {"times"?: [real, ...] (at least one), "use_scheme_grid"?: bool,
               "lag"?: int >= 0}; times unless use_scheme_grid is true
  estimate?   {"path_file": str, "statistics": [{"kind": "mean"}
               | {"kind": "autocov", "k"?: int}
               | {"kind": "clt", "k"?: int|null, "center"?: num}, ...]}
  moments?    {"u"?: num, "delta"?: num, "autocov_lags"?: [num, ...], "tilde_lags"?: [int, ...]}
"""

import argparse
import csv
import itertools
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .dynamics import _MAX_STEPS, Lipschitz, ModelSpec, PathSample, car1, simulate_yn
from .estimators import clt_statistic, localized_autocov, localized_mean
from .expressions import ExprFunc, ExprMatrix, ExprVector
from .experiments import (
    ExperimentConfig, InadmissibleSchemeError, _union_offsets, clt_preconditions, run_experiment,
)
from .kernels import from_name, kernel_validate
from .noise import JumpSpec, LevyTriplet, triplet_moments
from .observation import BandwidthRule, StepRuleO1, StepRuleO2, make_scheme
from .rng import stream
from . import stationary

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_IO = 4

# 2^18 chunks of CHUNK replications: at most a few hundred MB of statistics
_MAX_REPLICATIONS = 1 << 24


class SchemaError(Exception):
    pass


class SemanticError(Exception):
    pass


# The domain of each key: ``str``, ``bool`` (a JSON string or boolean),
# ``float`` (a JSON number, NaN and the infinities included, which the
# simulator's own checks reject) or one of these.
class Real(NamedTuple):  # a finite JSON number, above 0 if positive
    positive: bool = False


class Int(NamedTuple):  # an integral number or numeric string from least to most, read as an int
    least: int
    most: int


class Choice(NamedTuple):  # one of values
    values: tuple


class List(NamedTuple):
    """A JSON array of ``item`` values: ``size`` of them if given (a count,
    or the name of an integer key checked before it in the same object),
    else any number, at least one if ``nonempty``."""
    item: object
    size: int | str | None = None
    nonempty: bool = False


class Obj(NamedTuple):  # an object of every required key, any optional one and no other
    required: dict
    optional: dict = {}


class Tagged(NamedTuple):
    """One of the ``variants`` objects: the one named by the value at its
    ``tag`` key, or with no tag, the one whose name is its only key among
    the variant names."""
    tag: str | None
    variants: dict


class Maybe(NamedTuple):  # JSON null, or a value of domain
    domain: object


_FINITE = Real()
_LAG = Int(-_MAX_STEPS, _MAX_STEPS)
_EXPRS = List(str, size="p")
_SCHEME = {"scheme": str, "u": _FINITE, "b": _FINITE, "beta": _FINITE}
_STATISTIC = {"kind": str}
CONFIG = Obj(
    required={
        "model": Tagged("kind", {
            "car1": Obj({"kind": str, "a": str, "lipschitz": _FINITE, "infimum": _FINITE}),
            "statespace": Obj({
                "kind": str, "p": Int(1, _MAX_STEPS), "A_entries": List(_EXPRS, size="p"),
                "B": _EXPRS, "C": _EXPRS, "commuting": bool, "stability_margin": _FINITE,
                "lipschitz": Obj({}, {"A": _FINITE, "B": _FINITE, "C": _FINITE}),
            }),
        }),
        "triplet": Obj({"gamma": _FINITE, "sigma2": _FINITE}, {"jumps": Maybe(Tagged(None, {
            "atoms": Obj({"rate": _FINITE, "atoms": List(List(_FINITE, size=2), nonempty=True)}),
            "normal": Obj({"rate": _FINITE, "normal": List(_FINITE, size=2)}),
        }))}),
    },
    optional={
        "kernel": Choice(("rectangular", "biweight")),
        "scheme": Tagged("scheme", {
            "O1": Obj({**_SCHEME, "Delta": _FINITE}),
            "O2": Obj({**_SCHEME, "d": _FINITE, "alpha": _FINITE}),
        }),
        "simulation": Obj({}, {"fine_step": float, "burn_in": float}),
        "experiment": Obj({
            "kind": Choice(("coupling", "lln_discrete", "lln_continuous", "clt_mean", "clt_cov",
                            "lipschitz_u")),
            "N_list": List(Int(1, 1 << 53), nonempty=True),
            "replications": Int(1, _MAX_REPLICATIONS),
        }, {
            "lag": _LAG, "statistic": str, "t_end": _FINITE, "n_quad": Int(1, _MAX_STEPS),
            "ladder": List(Real(positive=True), nonempty=True), "p_norm": Choice((2, 4)),
            "time_points": Int(1, _MAX_STEPS), "rmse_tol": _FINITE, "validate_inputs": bool,
        }),
        "simulate": Obj({}, {"times": List(float, nonempty=True), "use_scheme_grid": bool,
                             "lag": Int(0, _MAX_STEPS)}),
        "estimate": Obj({"path_file": str, "statistics": List(Tagged("kind", {
            "mean": Obj(_STATISTIC),
            "autocov": Obj(_STATISTIC, {"k": _LAG}),
            "clt": Obj(_STATISTIC, {"k": Maybe(_LAG), "center": _FINITE}),
        }))}),
        "moments": Obj({}, {"u": _FINITE, "delta": _FINITE, "autocov_lags": List(_FINITE),
                            "tilde_lags": List(_LAG)}),
    },
)


def _check(value, domain, path: str, siblings: dict):
    """``value`` if it lies in ``domain``, as a copy in which integers are
    ints; ``siblings`` holds the keys checked before it in its object. The
    first value outside its domain raises SchemaError naming its ``path``."""
    if isinstance(domain, Maybe):
        return None if value is None else _check(value, domain.domain, path, siblings)
    if isinstance(domain, (Obj, Tagged)):
        where = path or "config"
        if not isinstance(value, dict):
            raise SchemaError(f"{where} must be an object, got {value!r}")
        if isinstance(domain, Tagged) and domain.tag:
            name = value.get(domain.tag)
            if not isinstance(name, str) or name not in domain.variants:
                raise SchemaError(f"{where}.{domain.tag} must be one of "
                                  f"{sorted(domain.variants)}, got {name!r}")
            domain = domain.variants[name]
        elif isinstance(domain, Tagged):
            names = [name for name in domain.variants if name in value]
            if len(names) != 1:
                raise SchemaError(f"{where} must hold one of the keys {sorted(domain.variants)}")
            domain = domain.variants[names[0]]
        extra = set(value) - set(domain.required) - set(domain.optional)
        if extra:
            raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
        checked = {}
        for key, item in (*domain.required.items(), *domain.optional.items()):
            if key in value:
                checked[key] = _check(value[key], item, f"{path}.{key}" if path else key, checked)
            elif key in domain.required:
                raise SchemaError(f"{where}: missing required key {key!r}")
        return checked
    if isinstance(domain, List):
        if not isinstance(value, list):
            raise SchemaError(f"{path} must be a list, got {value!r}")
        size = siblings[domain.size] if isinstance(domain.size, str) else domain.size
        if size is not None and len(value) != size:
            raise SchemaError(f"{path} must have length {size}, got {value!r}")
        if domain.nonempty and not value:
            raise SchemaError(f"{path} must not be empty")
        return [_check(x, domain.item, f"{path}[{i}]", siblings) for i, x in enumerate(value)]
    if isinstance(domain, Int):
        try:
            number = float(value)
            ok = domain.least <= number <= domain.most and number.is_integer()
        except (ValueError, TypeError, OverflowError):
            ok = False
        if not ok:
            raise SchemaError(
                f"{path} must be an integer from {domain.least} to {domain.most}, got {value!r}")
        return int(number)
    finite = isinstance(domain, Real)
    if isinstance(domain, Choice):
        if value not in domain.values:
            raise SchemaError(f"{path} must be one of {list(domain.values)}, got {value!r}")
    elif domain in (str, bool):
        if not isinstance(value, domain):
            what = "a string" if domain is str else "true or false"
            raise SchemaError(f"{path} must be {what}, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path} must be a number, got {value!r}")
    # a float key takes NaN and the infinities, but no int beyond the doubles
    elif not abs(value) <= sys.float_info.max and (finite or isinstance(value, int)):
        raise SchemaError(f"{path} must be finite, got {value!r}")
    elif finite and domain.positive and value <= 0:
        raise SchemaError(f"{path} must be positive, got {value!r}")
    return value


def _built(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError names the config ``path``
    of the section it was built from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _build_model(section: dict):
    """The model of a checked ``model`` section."""
    if section["kind"] == "car1":
        return car1(ExprFunc(section["a"]), float(section["lipschitz"]), float(section["infimum"]))
    lip = section["lipschitz"]
    return ModelSpec(
        p=section["p"],
        A=ExprMatrix(section["A_entries"]),
        B=ExprVector(section["B"]),
        C=ExprVector(section["C"]),
        lipschitz=Lipschitz(L_A=float(lip.get("A", 0.0)), L_B=float(lip.get("B", 0.0)),
                            L_C=float(lip.get("C", 0.0))),
        commuting=section["commuting"],
        stability_margin=float(section["stability_margin"]),
    )


def _build_triplet(section: dict) -> LevyTriplet:
    """The driver of a checked ``triplet`` section."""
    jsec = section.get("jumps")
    jumps = None if jsec is None else _built(
        "triplet.jumps", JumpSpec, rate=float(jsec["rate"]),
        atoms=tuple(map(tuple, jsec["atoms"])) if "atoms" in jsec else None,
        normal=tuple(jsec["normal"]) if "normal" in jsec else None,
    )
    return _built("triplet", LevyTriplet, gamma=float(section["gamma"]),
                  sigma2=float(section["sigma2"]), jumps=jumps)


def _build_scheme_rules(section: dict):
    """The point u, bandwidth rule and step rule of a checked ``scheme``."""
    bandwidth = BandwidthRule(b=float(section["b"]), beta=float(section["beta"]))
    if section["scheme"] == "O1":
        step = StepRuleO1(Delta=float(section["Delta"]))
    else:
        step = StepRuleO2(d=float(section["d"]), alpha=float(section["alpha"]))
    return float(section["u"]), bandwidth, step


def _parse_config(text: str, seed: int, workers: int) -> dict:
    """Check the config document against ``CONFIG`` and build its objects.

    A value outside its key's domain raises SchemaError; a value the model,
    driver, scheme or experiment rejects raises their ValueError, and a
    scheme the central limit theorem does not cover raises SemanticError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    doc = _check(raw, CONFIG, "", {})
    out = {"model": _built("model", _build_model, doc["model"]),
           "triplet": _build_triplet(doc["triplet"])}
    out["kernel_name"] = doc.get("kernel", "rectangular")
    out["kernel"] = from_name(out["kernel_name"])
    if "scheme" in doc:
        out["u"], out["bandwidth"], out["step_rule"] = _built("scheme", _build_scheme_rules,
                                                              doc["scheme"])
    sim = doc.get("simulation", {})
    out["fine_step"] = float(sim.get("fine_step", 0.01))
    out["burn_in"] = float(sim.get("burn_in", 8.0 / out["model"].stability_margin))

    if "experiment" in doc:
        out["experiment"] = _built(
            "experiment", ExperimentConfig,
            **doc["experiment"], model=out["model"], triplet=out["triplet"], u=out.get("u", 1.0),
            seed=seed, fine_step=out["fine_step"], burn_in=out["burn_in"], kernel=out["kernel"],
            bandwidth=out.get("bandwidth"), step_rule=out.get("step_rule"), workers=workers,
        )
        # the semantic gates of the target theorem, at parse time
        if out["experiment"].kind in ("clt_mean", "clt_cov"):
            if "bandwidth" not in out:
                raise SchemaError("clt experiments need a scheme section")
            try:
                clt_preconditions(out["kernel"], out["bandwidth"], out["step_rule"], out["triplet"])
            except InadmissibleSchemeError as exc:
                raise SemanticError(str(exc)) from None
    out.update((key, doc[key]) for key in ("simulate", "estimate", "moments") if key in doc)
    return out


def _write_csv(path: str, header: list, rows: list) -> None:
    """Write the bytes ``csv.writer`` writes in its default dialect: cells
    joined by commas, each line ended by CRLF. That dialect would quote a
    cell holding a comma, a quote or a line break, or a row of one empty
    cell; those raise ValueError instead. A float cell is written as
    ``format(x, ".17g")`` and any other as ``str(x)``, by one %-format per
    run of rows of one length with floats in the same cells, whose template
    repeats the line of a row, CRLF included, once per row of the run."""
    rows = [header, *rows]
    parts = []
    for length, same in itertools.groupby(rows, len):
        same = list(same)
        # which cells of each row are floats, tested column by column
        kinds = (zip(*(map(isinstance, col, itertools.repeat(float)) for col in zip(*same)))
                 if length else itertools.repeat((), len(same)))
        start = 0
        for floats, run in itertools.groupby(kinds):
            stop = start + len(list(run))
            line = ",".join("%.17g" if f else "%s" for f in floats) + "\r\n"
            cells = tuple(itertools.chain.from_iterable(same[start:stop]))
            parts.append(line * (stop - start) % cells)
            start = stop
    text = "".join(parts)
    commas = sum(map(len, rows)) - sum(map(bool, rows))  # one fewer than cells in a row
    if (text.count(",") != commas or text.count("\n") != len(rows)
            or text.count("\r") != len(rows) or '"' in text):
        raise ValueError("a CSV cell holds a comma, a quote or a line break")
    if "\r\n\r\n" in "\r\n" + text:  # an empty line, which only an empty row may give
        if any(row and not line for row, line in zip(rows, text.split("\r\n"))):
            raise ValueError("a CSV row of one empty cell")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    # a number that is not finite has no JSON form: ValueError, and no file
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _eval_times_from_config(cfg: dict):
    sec = cfg.get("simulate", {})
    if sec.get("use_scheme_grid"):
        if "bandwidth" not in cfg:
            raise SemanticError("simulate.use_scheme_grid requires a scheme section")
        exp = cfg.get("experiment")
        N = exp.N_list[-1] if exp is not None else None
        if N is None:
            raise SemanticError("simulate.use_scheme_grid requires an experiment.N_list")
        scheme = make_scheme(cfg["u"], N, cfg["bandwidth"], cfg["step_rule"])
        # the union rule of the campaigns, so near-duplicate nodes collapse
        offsets, _, _ = _union_offsets(scheme, sec.get("lag", 0))
        return N, (N * scheme.u + offsets) / N
    if not sec.get("times"):
        raise SchemaError("simulate: provide 'times' or set 'use_scheme_grid'")
    exp = cfg.get("experiment")
    N = exp.N_list[-1] if exp is not None else 1
    return N, np.asarray(sec["times"], dtype=float)


def _cmd_simulate(cfg: dict, seed: int, out_dir: str) -> int:
    N, times = _eval_times_from_config(cfg)
    rng = stream(seed, "simulate", 0)
    path = simulate_yn(
        cfg["model"], cfg["triplet"], N, times, cfg["fine_step"], cfg["burn_in"], rng,
        meta={"seed": seed},
    )
    csv_path = os.path.join(out_dir, f"simulate-{seed}.csv")
    _write_csv(csv_path, ["time", "value"], list(zip(path.times, path.values)))
    _write_json(
        os.path.join(out_dir, f"simulate-{seed}.json"),
        {"N": N, "points": len(path.times), "seed": seed, "csv": os.path.basename(csv_path)},
    )
    return EXIT_OK


def _read_path_csv(file_path: str) -> PathSample:
    """The path in the CSV file at ``file_path``: a time,value header, then
    one time and one value per line. Anything else is a schema error naming
    the file and its 1-based line."""
    times, values = [], []
    with open(file_path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])[:2]] != ["time", "value"]:
            raise SchemaError(f"{file_path} line 1: expected header time,value")
        for row in reader:
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError):
                raise SchemaError(f"{file_path} line {reader.line_num}: expected a time and "
                                  f"a value, got {row!r}") from None
    return PathSample(times=np.asarray(times), values=np.asarray(values))


def _cmd_estimate(cfg: dict, seed: int, out_dir: str) -> int:
    sec = cfg.get("estimate")
    if sec is None:
        raise SchemaError("estimate subcommand needs an 'estimate' config section")
    if "bandwidth" not in cfg:
        raise SchemaError("estimate subcommand needs a scheme section")
    path = _read_path_csv(sec["path_file"])
    exp = cfg.get("experiment")
    N = exp.N_list[-1] if exp is not None else 1
    scheme = make_scheme(cfg["u"], N, cfg["bandwidth"], cfg["step_rule"])
    kernel = cfg["kernel"]
    rows = []
    for spec in sec["statistics"]:
        kind, k = spec["kind"], spec.get("k")
        if kind == "mean":
            st = localized_mean(path, scheme, kernel)
            rows.append([scheme.N, scheme.u, "mean", 0, st.value, st.weight_sum])
        elif kind == "autocov":
            st = localized_autocov(path, scheme, kernel, k or 0)
            rows.append([scheme.N, scheme.u, "autocov", k or 0, st.value, st.weight_sum])
        else:
            value = clt_statistic(path, scheme, kernel, k=k, center=float(spec.get("center", 0.0)))
            rows.append([scheme.N, scheme.u, "clt", k or 0, value, ""])
    csv_path = os.path.join(out_dir, f"estimate-{seed}.csv")
    _write_csv(csv_path, ["N", "u", "kind", "k", "value", "weight_sum"], rows)
    _write_json(
        os.path.join(out_dir, f"estimate-{seed}.json"),
        {"statistics": len(rows), "csv": os.path.basename(csv_path), "seed": seed},
    )
    return EXIT_OK


def _finite(key: str, compute) -> float:
    """``compute()`` as a float. A value that is not finite, or that overflows
    a float on the way, is an error naming its output key (exit 3)."""
    try:
        with np.errstate(all="ignore"):
            value = float(compute())
    except OverflowError:
        value = float("inf")
    if not np.isfinite(value):
        raise ValueError(f"moments: {key} is not finite ({value}) for this model and triplet")
    return value


def _nonfinite(doc, path: str = "") -> str | None:
    """The key path (rows[0].rmse_std_error) of the first float of the JSON
    document ``doc`` that is not finite, or None."""
    if isinstance(doc, float):
        return None if np.isfinite(doc) else path
    if isinstance(doc, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in doc.items())
    elif isinstance(doc, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(doc))
    else:
        return None
    for key, value in items:
        if (bad := _nonfinite(value, key)) is not None:
            return bad
    return None


def _cmd_moments(cfg: dict, seed: int, out_dir: str) -> int:
    sec = cfg.get("moments", {})
    u = float(sec.get("u", cfg.get("u", 1.0)))
    model, triplet = cfg["model"], cfg["triplet"]
    mean = _finite("mean", lambda: stationary.stationary_mean(model, u, triplet))
    var = _finite("variance", lambda: stationary.stationary_autocov(model, u, triplet, 0.0))
    record = {
        "u": u,
        "mean": mean,
        "variance": var,
        "second_moment": _finite("second_moment", lambda: var + mean**2),
        "fourth_moment": _finite("fourth_moment",
                                 lambda: stationary.fourth_moment_integral(model, u, triplet)),
    }
    for lag in sec.get("autocov_lags", [0.0, 0.5, 1.0, 2.0]):
        key = f"autocov_{lag:g}"
        record[key] = _finite(key, lambda: stationary.stationary_autocov(model, u, triplet, float(lag)))
    if abs(triplet_moments(triplet).mu_L) <= 1e-12:
        delta = float(sec.get("delta", 1.0))
        key = f"sigma2_O1_delta_{delta:g}"
        record[key] = _finite(key, lambda: stationary.sigma2(model, u, triplet, ("O1", delta)).value)
        record["sigma2_O2"] = _finite("sigma2_O2", lambda: stationary.sigma2(model, u, triplet, "O2").value)
        for k in sec.get("tilde_lags", [0, 1]):
            key = f"sigma2_tilde_O2_k{k:d}"
            record[key] = _finite(key, lambda: stationary.sigma2_tilde(model, u, triplet, k, "O2").value)
    else:
        record["sigma2_note"] = "driver not centered; limit variances undefined"
    _write_json(os.path.join(out_dir, f"moments-{seed}.json"), record)
    return EXIT_OK


def _cmd_validate_kernel(cfg: dict, seed: int, out_dir: str) -> int:
    report = kernel_validate(cfg["kernel"])
    _write_json(
        os.path.join(out_dir, f"validate-kernel-{seed}.json"),
        {
            "kernel": cfg["kernel_name"],
            "integral": report.integral,
            "support_ok": report.support_ok,
            "bounded_ok": report.bounded_ok,
            "passed": report.passed,
        },
    )
    return EXIT_OK if report.passed else EXIT_FAILED


def _cmd_experiment(cfg: dict, seed: int, out_dir: str, subcommand: str) -> int:
    exp: ExperimentConfig = cfg.get("experiment")
    if exp is None:
        raise SchemaError(f"{subcommand} subcommand needs an 'experiment' config section")
    expected = {
        "coupling": ("coupling",),
        "lln": ("lln_discrete", "lln_continuous"),
        "clt": ("clt_mean", "clt_cov"),
        "lipschitz": ("lipschitz_u",),
    }[subcommand]
    if exp.kind not in expected:
        raise SchemaError(
            f"experiment.kind {exp.kind!r} does not match subcommand {subcommand!r}"
        )
    with np.errstate(all="ignore"):  # a number that is not finite is named below
        report = run_experiment(exp)
    payload = report.to_dict()
    payload["seed"] = seed
    bad = _nonfinite(payload)
    if bad is not None:
        raise ValueError(f"{subcommand}: {bad} is not finite")
    base = f"{subcommand}-{seed}"
    if report.replication_values is not None:
        _write_csv(
            os.path.join(out_dir, base + ".csv"),
            ["replication", "value"],
            list(enumerate(report.replication_values.tolist())),
        )
    else:
        header = sorted({key for row in report.rows for key in row})
        _write_csv(
            os.path.join(out_dir, base + ".csv"),
            header,
            [[row.get(k, "") for k in header] for row in report.rows],
        )
    _write_json(os.path.join(out_dir, base + ".json"), payload)
    return EXIT_OK if report.passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locstat",
        description="Simulation and localized moment inference for time-varying "
        "Levy-driven state space models.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=[
        "simulate", "moments", "estimate", "lln", "clt", "coupling", "lipschitz",
        "validate-kernel",
    ])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument(
        "--workers",
        type=int,
        default=os.environ.get("LOCSTAT_WORKERS", "1"),  # a string: argparse applies int
        help="most processes of a campaign; it runs at most one per usable CPU, one per "
        "chunk of replications and one per 2^18 units of counted work "
        "(default: env LOCSTAT_WORKERS or 1)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"config error: --workers (or LOCSTAT_WORKERS) must be at least 1, got {args.workers}",
              file=sys.stderr)
        return EXIT_SCHEMA
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = _parse_config(text, args.seed, args.workers)
    except (SchemaError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_IO
    dispatch = {
        "simulate": _cmd_simulate,
        "moments": _cmd_moments,
        "estimate": _cmd_estimate,
        "validate-kernel": _cmd_validate_kernel,
    }
    try:
        if args.subcommand in dispatch:
            return dispatch[args.subcommand](cfg, args.seed, args.out)
        return _cmd_experiment(cfg, args.seed, args.out, args.subcommand)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ValueError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
