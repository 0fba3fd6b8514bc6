"""Command line interface: configuration, orchestration, data emission.

Exit codes: 0 success (and experiment passed), 1 experiment ran but failed
its acceptance window, 2 config schema violation, 3 semantic violation of a
mathematical precondition, 4 I/O failure.

Config schema (JSON, unknown keys rejected at every level):

  model       {"kind": "car1", "a": EXPR, "lipschitz": num, "infimum": num}
            | {"kind": "statespace", "p": int, "A_entries": [[EXPR,..],..],
               "B": [EXPR,..], "C": [EXPR,..], "commuting": bool,
               "stability_margin": num,
               "lipschitz": {"A": num, "B": num, "C": num}}
              EXPR uses the grammar {+,-,*,/, sin, cos, exp, numbers, t}.
  triplet     {"gamma": num, "sigma2": num,
               "jumps": {"rate": num, "atoms": [[value, prob], ...]}
                      | {"rate": num, "normal": [mean, std]}}   (jumps optional)
  kernel      "rectangular" | "biweight"
  scheme      {"u": num, "b": num, "beta": num, "scheme": "O1", "Delta": num}
            | {"u": num, "b": num, "beta": num, "scheme": "O2", "d": num, "alpha": num}
  simulation  {"fine_step": num, "burn_in": num}
  experiment  {"kind": "coupling"|"lln_discrete"|"lln_continuous"|
                       "clt_mean"|"clt_cov"|"lipschitz_u",
               "N_list": [int,..], "replications": int (1 to 2^24), ...optional fields:
               "lag", "statistic", "t_end", "n_quad", "ladder", "p_norm",
               "time_points", "rmse_tol", "validate_inputs"}
  simulate    {"times": [num,..]} | {"use_scheme_grid": true, "lag": int}
  estimate    {"path_file": str, "statistics": [{"kind": "mean"}
               | {"kind": "autocov", "k": int}
               | {"kind": "clt", "k": int|null, "center": num}, ...]}
  moments     {"u": num, "delta": num, "autocov_lags": [num,..], "tilde_lags": [int,..]}
"""

import argparse
import csv
import itertools
import json
import os
import sys

import numpy as np

from .dynamics import _MAX_STEPS, Car1Spec, Lipschitz, ModelSpec, PathSample, simulate_yn
from .estimators import clt_statistic, localized_autocov, localized_mean
from .expressions import ExprFunc, ExprMatrix, ExprVector
from .experiments import ExperimentConfig, InadmissibleSchemeError, _union_offsets, run_experiment
from .kernels import from_name, kernel_validate
from .noise import JumpSpec, LevyTriplet, triplet_moments
from .observation import BandwidthRule, StepRuleO1, StepRuleO2, clt_admissible, make_scheme
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


def _object(section, path: str) -> dict:
    """``section``; anything but a JSON object is a schema error naming it."""
    if not isinstance(section, dict):
        raise SchemaError(f"{path} must be an object, got {section!r}")
    return section


def _no_extra(section: dict, allowed: set, path: str) -> None:
    extra = set(_object(section, path)) - allowed
    if extra:
        raise SchemaError(f"{path}: unknown keys {sorted(extra)}")


def _need(section: dict, key: str, path: str):
    if key not in _object(section, path):
        raise SchemaError(f"{path}: missing required key {key!r}")
    return section[key]


def _list(section: dict, key: str, path: str, default: list | None = None) -> list:
    """The list at ``key``, or ``default`` when one is given and the key is
    absent; any other value (a number, a string, an object) is a schema error
    naming the key."""
    value = _need(section, key, path) if default is None else section.get(key, default)
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key} must be a list, got {value!r}")
    return value


def _build_model(section: dict):
    kind = _need(section, "kind", "model")
    if kind == "car1":
        _no_extra(section, {"kind", "a", "lipschitz", "infimum"}, "model")
        return Car1Spec(
            a=ExprFunc(_need(section, "a", "model")),
            lipschitz_a=float(_need(section, "lipschitz", "model")),
            infimum_a=float(_need(section, "infimum", "model")),
        )
    if kind == "statespace":
        _no_extra(
            section,
            {"kind", "p", "A_entries", "B", "C", "commuting", "stability_margin", "lipschitz"},
            "model",
        )
        lip = _need(section, "lipschitz", "model")
        _no_extra(lip, {"A", "B", "C"}, "model.lipschitz")
        p = int(_need(section, "p", "model"))
        entries = _list(section, "A_entries", "model")
        if len(entries) != p or any(not isinstance(r, list) or len(r) != p for r in entries):
            raise SchemaError(f"model.A_entries: expected a {p}x{p} expression matrix")
        A = ExprMatrix(entries)
        B = ExprVector(_list(section, "B", "model"))
        C = ExprVector(_list(section, "C", "model"))
        if len(B.funcs) != p or len(C.funcs) != p:
            raise SchemaError(f"model.B and model.C must have length {p}")
        return ModelSpec(
            p=p,
            A=A,
            B=B,
            C=C,
            lipschitz=Lipschitz(
                L_A=float(lip.get("A", 0.0)),
                L_B=float(lip.get("B", 0.0)),
                L_C=float(lip.get("C", 0.0)),
            ),
            commuting=bool(_need(section, "commuting", "model")),
            stability_margin=float(_need(section, "stability_margin", "model")),
        )
    raise SchemaError(f"model.kind: unknown kind {kind!r}")


def _build_triplet(section: dict) -> LevyTriplet:
    """The driver of the ``triplet`` section; a value the driver rejects (a
    negative variance, a non-finite number) is a schema error that names it."""
    _no_extra(section, {"gamma", "sigma2", "jumps"}, "triplet")
    jsec = section.get("jumps")
    if jsec is not None:
        _no_extra(jsec, {"rate", "atoms", "normal"}, "triplet.jumps")
    try:
        jumps = None if jsec is None else JumpSpec(
            rate=float(_need(jsec, "rate", "triplet.jumps")),
            atoms=None if jsec.get("atoms") is None else tuple(
                tuple(a) for a in _list(jsec, "atoms", "triplet.jumps")),
            normal=None if jsec.get("normal") is None else tuple(
                _list(jsec, "normal", "triplet.jumps")),
        )
        return LevyTriplet(
            gamma=float(_need(section, "gamma", "triplet")),
            sigma2=float(_need(section, "sigma2", "triplet")),
            jumps=jumps,
        )
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"triplet: {exc}") from None


def _finite(section: dict, key: str, path: str) -> float:
    """The number at ``key``; a NaN or an infinity is a schema error naming it."""
    value = float(_need(section, key, path))
    if not np.isfinite(value):
        raise SchemaError(f"{path}.{key} must be finite, got {value}")
    return value


def _count(section: dict, key: str, path: str, most: int, least: int = 1) -> int:
    """The integer at ``key``, from ``least`` to ``most``; anything else is a
    schema error naming it."""
    value = _need(section, key, path)
    try:
        ok = least <= float(value) <= most and float(value).is_integer()
    except (ValueError, TypeError):
        ok = False
    if not ok:
        raise SchemaError(f"{path}.{key} must be an integer from {least} to {most}, got {value!r}")
    return int(float(value))


def _lag(section: dict, key: str, path: str) -> int:
    """The integer lag at ``key``, of either sign: a negative lag is a
    semantic error of the statistic, not of the schema."""
    return _count(section, key, path, _MAX_STEPS, least=-_MAX_STEPS)


def _build_scheme_rules(section: dict):
    kind = _need(section, "scheme", "scheme")
    u = _finite(section, "u", "scheme")
    bw = BandwidthRule(b=_finite(section, "b", "scheme"), beta=_finite(section, "beta", "scheme"))
    if kind == "O1":
        _no_extra(section, {"scheme", "u", "b", "beta", "Delta"}, "scheme")
        step = StepRuleO1(Delta=_finite(section, "Delta", "scheme"))
    elif kind == "O2":
        _no_extra(section, {"scheme", "u", "b", "beta", "d", "alpha"}, "scheme")
        step = StepRuleO2(d=_finite(section, "d", "scheme"), alpha=_finite(section, "alpha", "scheme"))
    else:
        raise SchemaError(f"scheme.scheme must be 'O1' or 'O2', got {kind!r}")
    return u, bw, step


_EXPERIMENT_KEYS = {
    "kind",
    "N_list",
    "replications",
    "lag",
    "statistic",
    "t_end",
    "n_quad",
    "ladder",
    "p_norm",
    "time_points",
    "rmse_tol",
    "validate_inputs",
}


def _parse_config(text: str, seed: int, workers: int) -> dict:
    """Validate the full config document; raises SchemaError / SemanticError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    _no_extra(
        raw,
        {"model", "triplet", "kernel", "scheme", "simulation", "experiment", "simulate",
         "estimate", "moments"},
        "config",
    )
    out = {}
    try:
        out["model"] = _build_model(_need(raw, "model", "config"))
        out["triplet"] = _build_triplet(_need(raw, "triplet", "config"))
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from None
    out["kernel_name"] = raw.get("kernel", "rectangular")
    try:
        out["kernel"] = from_name(out["kernel_name"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    if "scheme" in raw:
        try:
            out["u"], out["bandwidth"], out["step_rule"] = _build_scheme_rules(raw["scheme"])
        except (ValueError, TypeError) as exc:
            raise SchemaError(str(exc)) from None
    sim = raw.get("simulation", {})
    _no_extra(sim, {"fine_step", "burn_in"}, "simulation")
    try:
        out["fine_step"] = float(sim.get("fine_step", 0.01))
        out["burn_in"] = float(sim.get("burn_in", 8.0 / out["model"].stability_margin))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"simulation: {exc}") from None

    if "experiment" in raw:
        esec = raw["experiment"]
        _no_extra(esec, _EXPERIMENT_KEYS, "experiment")
        kind = _need(esec, "kind", "experiment")
        if kind not in ("coupling", "lln_discrete", "lln_continuous", "clt_mean", "clt_cov",
                        "lipschitz_u"):
            raise SchemaError(f"experiment.kind: unknown kind {kind!r}")
        extra = {key: esec[key] for key in _EXPERIMENT_KEYS - {"kind", "N_list", "replications"}
                 if key in esec}
        if "n_quad" in esec:  # one fine step at least per interval
            extra["n_quad"] = _count(esec, "n_quad", "experiment", _MAX_STEPS)
        if "lag" in esec:
            extra["lag"] = _lag(esec, "lag", "experiment")
        if "ladder" in esec:
            extra["ladder"] = _list(esec, "ladder", "experiment")
        replications = _count(esec, "replications", "experiment", _MAX_REPLICATIONS)
        try:
            out["experiment"] = ExperimentConfig(
                kind=kind,
                model=out["model"],
                triplet=out["triplet"],
                u=out.get("u", 1.0),
                N_list=tuple(_list(esec, "N_list", "experiment")),
                replications=replications,
                seed=seed,
                fine_step=out["fine_step"],
                burn_in=out["burn_in"],
                kernel=out["kernel"],
                bandwidth=out.get("bandwidth"),
                step_rule=out.get("step_rule"),
                workers=workers,
                **extra,
            )
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"experiment: {exc}") from None
        # semantic gates that reference the target theorems
        if kind in ("clt_mean", "clt_cov"):
            if "bandwidth" not in out:
                raise SchemaError("clt experiments need a scheme section")
            if not clt_admissible(out["bandwidth"], out["step_rule"]):
                raise SemanticError(
                    "scheme violates the bandwidth condition sqrt(m_N)*b_N -> 0 "
                    f"(beta={out['bandwidth'].beta}, step rule={out['step_rule']}); "
                    "O1 needs beta > 1/3, O2 needs alpha < 3*beta"
                )
            mu = triplet_moments(out["triplet"]).mu_L
            if abs(mu) > 1e-12:
                raise SemanticError(
                    f"clt experiments need a centered driver; driver mean is {mu} "
                    "(set gamma to subtract it)"
                )
    for section, allowed in (
        ("simulate", {"times", "use_scheme_grid", "lag"}),
        ("estimate", {"path_file", "statistics"}),
        ("moments", {"u", "delta", "autocov_lags", "tilde_lags"}),
    ):
        if section in raw:
            _no_extra(raw[section], allowed, section)
            out[section] = raw[section]
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
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
        lag = _count(sec, "lag", "simulate", _MAX_STEPS, least=0) if "lag" in sec else 0
        # the union rule of the campaigns, so near-duplicate nodes collapse
        offsets, _, _ = _union_offsets(scheme, lag)
        return N, (N * scheme.u + offsets) / N
    times = _list(sec, "times", "simulate") if "times" in sec else []
    if not times:
        raise SchemaError("simulate: provide 'times' or set 'use_scheme_grid'")
    exp = cfg.get("experiment")
    N = exp.N_list[-1] if exp is not None else 1
    return N, np.asarray(times, dtype=float)


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
    times, values = [], []
    with open(file_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header[:2]] != ["time", "value"]:
            raise SchemaError(f"{file_path}: expected header time,value")
        for row in reader:
            times.append(float(row[0]))
            values.append(float(row[1]))
    return PathSample(times=np.asarray(times), values=np.asarray(values))


def _cmd_estimate(cfg: dict, seed: int, out_dir: str) -> int:
    sec = cfg.get("estimate")
    if sec is None:
        raise SchemaError("estimate subcommand needs an 'estimate' config section")
    if "bandwidth" not in cfg:
        raise SchemaError("estimate subcommand needs a scheme section")
    statistics = _list(sec, "statistics", "estimate")
    path = _read_path_csv(_need(sec, "path_file", "estimate"))
    exp = cfg.get("experiment")
    N = exp.N_list[-1] if exp is not None else 1
    scheme = make_scheme(cfg["u"], N, cfg["bandwidth"], cfg["step_rule"])
    kernel = cfg["kernel"]
    rows = []
    for spec in statistics:
        _no_extra(spec, {"kind", "k", "center"}, "estimate.statistics[]")
        kind = _need(spec, "kind", "estimate.statistics[]")
        k = _lag(spec, "k", "estimate.statistics[]") if spec.get("k") is not None else None
        if kind == "mean":
            st = localized_mean(path, scheme, kernel)
            rows.append([scheme.N, scheme.u, "mean", 0, st.value, st.weight_sum])
        elif kind == "autocov":
            st = localized_autocov(path, scheme, kernel, k or 0)
            rows.append([scheme.N, scheme.u, "autocov", k or 0, st.value, st.weight_sum])
        elif kind == "clt":
            value = clt_statistic(path, scheme, kernel, k=k, center=float(spec.get("center", 0.0)))
            rows.append([scheme.N, scheme.u, "clt", k or 0, value, ""])
        else:
            raise SchemaError(f"estimate.statistics[]: unknown kind {kind!r}")
    csv_path = os.path.join(out_dir, f"estimate-{seed}.csv")
    _write_csv(csv_path, ["N", "u", "kind", "k", "value", "weight_sum"], rows)
    _write_json(
        os.path.join(out_dir, f"estimate-{seed}.json"),
        {"statistics": len(rows), "csv": os.path.basename(csv_path), "seed": seed},
    )
    return EXIT_OK


def _cmd_moments(cfg: dict, seed: int, out_dir: str) -> int:
    sec = cfg.get("moments", {})
    tilde = {f"tilde_lags[{i}]": k
             for i, k in enumerate(_list(sec, "tilde_lags", "moments", [0, 1]))}
    tilde_lags = [_lag(tilde, key, "moments") for key in tilde]
    u = float(sec.get("u", cfg.get("u", 1.0)))
    mom = stationary.stationary_moments(cfg["model"], u, cfg["triplet"])
    record = {
        "u": u,
        "mean": mom.mean,
        "variance": mom.variance,
        "second_moment": mom.second_moment,
        "fourth_moment": mom.fourth_moment,
    }
    for lag in _list(sec, "autocov_lags", "moments", [0.0, 0.5, 1.0, 2.0]):
        record[f"autocov_{lag:g}"] = float(mom.autocov(float(lag)))
    if mom.sigma2_O2 is not None:
        delta = float(sec.get("delta", 1.0))
        record[f"sigma2_O1_delta_{delta:g}"] = float(mom.sigma2_O1(delta))
        record["sigma2_O2"] = float(mom.sigma2_O2)
        if mom.sigma2_tilde_O2 is not None:
            for k in tilde_lags:
                record[f"sigma2_tilde_O2_k{k:d}"] = float(mom.sigma2_tilde_O2(k))
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
    try:
        report = run_experiment(exp)
    except InadmissibleSchemeError as exc:
        raise SemanticError(str(exc)) from None
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
    payload = report.to_dict()
    payload["seed"] = seed
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
        help="processes of a campaign, at most one per core and one per chunk of "
        "replications (default: env LOCSTAT_WORKERS or 1)",
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
    except SchemaError as exc:
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
    except (SemanticError, InadmissibleSchemeError) as exc:
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
