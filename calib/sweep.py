"""Seed sweep of the statistical windows of the benchmark workloads.

Runs each seed of a check as one ``locstat`` CLI campaign, in a child forked
from this process after it has imported ``locstat.cli`` (as
``perfbench/run.py`` does), and records per seed the exit code, each
sub-verdict of the campaign's acceptance window and the statistic that
decides it. A check is one workload of ``perfbench/workloads.py`` or of
``calib/checks.py``, run with its config, subcommand and worker count at the
CLI seed the benchmark derives from the seed; nothing under ``perfbench/`` is
changed.

Run from the root of a checkout:

    python3 calib/sweep.py --check lln_ladder --check clt_jumps --seeds 1-1000 \\
        --out CALIB_2.json --previous CALIB_1.json

``--check all`` runs every workload and check. The record (``--out``) holds, per
check: the seeds, the runtime, the failure count and failing seeds of the
campaign and of each sub-verdict, and the quantiles of each statistic, plus
the commit and the digest of the sources. With ``--previous``, each failure
count is printed against the previous record's with a two-sided exact
binomial test: given the failures of both records, the count of this one is
Binomial(total, n / (n + n_previous)) when both have the same failure rate.

Sub-verdicts and their statistics:

    lln        strictly_decreasing (largest ratio of successive RMSEs, < 1)
               final_rmse_below_tol (final RMSE, < rmse_tol)
    clt        <candidate>.mean_ok, .variance_ok, .ks_ok (mean, variance and
               KS distance of the standardized statistic)
    lipschitz  slope_window (fitted slope, >= 0.9)
               rows_match_target (largest |estimate - target| / std_error)
    simulate   statespace_window (mean square of the path over its target,
               inside the window of ``workloads.statespace_window``)

The sweep changes no verdict, window or tolerance, and it reports every
failing seed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
QUANTILES = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0)
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def _campaign(workload, seed: int, out_dir: str) -> int:
    """Body of a forked child: one ``locstat.cli.main`` call."""
    import locstat.cli as cli

    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config, fh)
    return cli.main(workload.argv(config_path, seed, out_dir, workload.workers))


def _fork(workload, seed: int, out_dir: str) -> int:
    """Exit code of one campaign run in a child forked from this process."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            status = _campaign(workload, seed, out_dir)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _verdicts(workload, seed: int, out_dir: str) -> dict:
    """Sub-verdict -> [ok, statistic] of the outputs of one campaign."""
    base = os.path.join(out_dir, f"{workload.subcommand}-{workload.cli_seed(seed)}")
    if workload.subcommand == "simulate":
        import workloads

        with open(base + ".csv") as fh:
            window = workloads.statespace_window(workload.config, fh.read())
        ok = window["low"] <= window["mean_square"] <= window["high"]
        return {"statespace_window": [ok, window["mean_square"] / window["target"]]}
    with open(base + ".json") as fh:
        report = json.load(fh)
    summary, rows = report["summary"], report["rows"]
    if workload.subcommand == "lln":
        rmse = summary["rmse"]
        ratio = max((b / a for a, b in zip(rmse, rmse[1:])), default=0.0)
        return {"strictly_decreasing": [summary["strictly_decreasing"], ratio],
                "final_rmse_below_tol": [summary["final_rmse"] < summary["rmse_tol"],
                                         summary["final_rmse"]]}
    if workload.subcommand == "clt":
        out = {}
        for name, entry in sorted(summary["candidates"].items()):
            for gate, stat in (("mean_ok", "mean"), ("variance_ok", "variance"),
                               ("ks_ok", "ks_distance")):
                if gate in entry:
                    out[f"{name}.{gate}"] = [entry[gate], entry[stat]]
        return out
    if workload.subcommand == "lipschitz":
        z = max(abs(r["estimate"] - r["target"]) / r["std_error"] if r["std_error"] > 0
                else math.inf for r in rows)
        return {"slope_window": [summary["slope"] is not None
                                 and summary["slope"] >= summary["min_slope"], summary["slope"]],
                "rows_match_target": [all(r["pass"] for r in rows), z]}
    raise ValueError(f"no verdicts for subcommand {workload.subcommand!r}")


def _quantiles(values: list) -> dict:
    """Quantiles of the finite values, by linear interpolation of the sorted list."""
    xs = sorted(v for v in values if v is not None and math.isfinite(v))
    if not xs:
        return {}
    out = {}
    for q in QUANTILES:
        pos = q * (len(xs) - 1)
        i = int(pos)
        frac = pos - i
        out[f"{q:g}"] = xs[i] if frac == 0.0 else xs[i] + frac * (xs[i + 1] - xs[i])
    return out


def sweep(workload, seeds) -> dict:
    """Record of the campaigns of ``workload`` at ``seeds``."""
    per_seed = {}
    start = time.monotonic()
    work = tempfile.mkdtemp(prefix="locstat-sweep-")
    try:
        for seed in seeds:
            out_dir = os.path.join(work, str(seed))
            os.mkdir(out_dir)
            code = _fork(workload, seed, out_dir)
            try:
                verdicts = _verdicts(workload, seed, out_dir)
            except (OSError, ValueError, KeyError) as exc:
                verdicts = {"outputs": [False, None]}
                print(f"# {workload.name} seed {seed}: outputs unreadable: {exc}", file=sys.stderr)
            per_seed[seed] = {"exit": code, "verdicts": verdicts}
            shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = sorted({name for rec in per_seed.values() for name in rec["verdicts"]})
    failing = [s for s, rec in per_seed.items() if rec["exit"] != 0]
    return {
        "subcommand": workload.subcommand,
        "workers": workload.workers,
        "seeds": [seeds[0], seeds[-1]],
        "runs": len(per_seed),
        "runtime_s": round(time.monotonic() - start, 1),
        "failures": len(failing),
        "failing_seeds": failing,
        "exit_codes": {str(c): sum(r["exit"] == c for r in per_seed.values())
                       for c in sorted({r["exit"] for r in per_seed.values()})},
        "verdicts": {
            name: {
                "failures": len(bad := [s for s, r in per_seed.items()
                                        if not r["verdicts"].get(name, [False])[0]]),
                "failing_seeds": bad,
                "statistic": _quantiles([r["verdicts"].get(name, [False, None])[1]
                                         for r in per_seed.values()]),
            }
            for name in names
        },
    }


def binomial_p(k: int, n: int, k_prev: int, n_prev: int) -> float:
    """Two-sided exact p-value of k failures in n runs against k_prev in
    n_prev at one failure rate: conditional on the k + k_prev failures, k is
    Binomial(k + k_prev, n / (n + n_prev)); the p-value sums the
    probabilities of the counts no more likely than k (scipy's binomtest)."""
    total = k + k_prev
    if total == 0:
        return 1.0
    q = n / (n + n_prev)
    pmf = [math.comb(total, j) * q**j * (1.0 - q) ** (total - j) for j in range(total + 1)]
    return min(1.0, sum(p for p in pmf if p <= pmf[k] * (1.0 + 1e-7)))


def compare(record: dict, previous: dict) -> list:
    """Lines of each failure count against the previous record's."""
    lines = []
    for name, check in record["checks"].items():
        old = previous.get("checks", {}).get(name)
        if old is None:
            lines.append(f"{name}: not in the previous record")
            continue
        pairs = [("campaign", check, old)] + [
            (verdict, entry, old["verdicts"].get(verdict))
            for verdict, entry in check["verdicts"].items()]
        for label, new, was in pairs:
            if was is None:
                lines.append(f"{name} {label}: {new['failures']}/{check['runs']}, not in the "
                             "previous record")
                continue
            p = binomial_p(new["failures"], check["runs"], was["failures"], old["runs"])
            lines.append(f"{name} {label}: {new['failures']}/{check['runs']} failed against "
                         f"{was['failures']}/{old['runs']}, two-sided exact binomial p = {p:.3g}")
    return lines


def _environment() -> dict:
    import hashlib

    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "locstat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def _setup_paths() -> None:
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    os.environ.pop("LOCSTAT_WORKERS", None)
    for path in (str(SRC), str(ROOT / "perfbench"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="append", required=True,
                        help="a workload of perfbench/workloads.py or a check of "
                        "calib/checks.py, or all (repeatable)")
    parser.add_argument("--seeds", type=_seed_range, required=True, help="seed range A-B")
    parser.add_argument("--out", help="write the record to this JSON file")
    parser.add_argument("--previous", help="a previous record to compare the failure counts with")
    args = parser.parse_args(argv)
    _setup_paths()
    import checks
    import workloads

    known = {**workloads.WORKLOADS, **checks.CHECKS}
    names = sorted(known) if "all" in args.check else args.check
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown check {unknown}; choose from {sorted(known)} or all")
    import locstat.cli  # noqa: F401  (imported once here, inherited by every fork)

    record = {**_environment(), "checks": {}}
    for name in names:
        record["checks"][name] = check = sweep(known[name], args.seeds)
        print(f"# {name}: {check['failures']}/{check['runs']} campaigns failed "
              f"({check['runtime_s']} s); failing seeds {check['failing_seeds']}")
    if args.previous:
        with open(args.previous) as fh:
            for line in compare(record, json.load(fh)):
                print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

