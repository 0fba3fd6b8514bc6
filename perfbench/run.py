"""Campaign benchmark for the locstat CLI.

Runs one workload (see ``workloads.py``) as a closed loop of CLI
invocations for ``--seconds`` and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lln_ladder --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the metrics are end to end:

    setup_s          median over fresh interpreters of importing locstat.cli
                     and parsing and validating the config
    campaign_s       median time from the parsed config to the written outputs
    campaign_s_tail  90th percentile of the campaign times; the record line
                     gives the sample count and how many lie beyond it
    steps_per_s      problem-size steps (from the config) over campaign_s
    peak_rss_mb      median peak resident memory of an invocation (the largest
                     process of its tree)

The times are wall times scaled to a nominal host speed. The host this
benchmark was tuned on is shared, and its speed drifts by 10-60% over seconds
to minutes, in phases that often outlast a run. A fixed calibration kernel
(``_calibrate``) runs before every set-up probe and every invocation, and
every time is scaled by ``CAL_NOMINAL_S`` over the median calibration time of
the run. The unscaled wall times, the calibration times and the scale factor
are in the record line printed before the result.

With ``--trace 1`` the metrics are the per-layer split from traced
invocations at one worker (see ``spans.py``), alternated with untraced
invocations at one worker that give the tracing overhead and, for a workload
timed at two workers, untraced ones at two workers that give the parallel
efficiency. A workload timed at one worker reports a parallel efficiency of
1 by definition. These times are not scaled.

Every invocation runs in a child forked from this process after it has
imported ``locstat.cli``, so each campaign starts from a freshly imported
package, as a CLI call does, while the import itself is paid and measured
only by ``setup_s``. Every invocation must exit 0 (the campaign passed its
own acceptance window) and write the same bytes as the first invocation of
the run, which is at one worker (an untimed extra one for a workload timed
at two workers). Traced invocations must also agree on every count. On
``statespace_simulate`` the path's mean square must fall in a Monte Carlo
window around the frozen variance (``workloads.statespace_window``), which
the record line gives. BLAS is pinned to one thread, so workers x threads
<= 2 cores.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 3
# Median time of _calibrate on the host the benchmark was tuned on: a shared
# 2-core VM with Python 3.11 and numpy 2.4.
CAL_NOMINAL_S = 0.04
CHILD_TIMEOUT_S = 150
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LOCSTAT_WORKERS", None)
    return env


def _setup_sample(config_path: Path, seed: int, workers: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config_path), str(seed), str(workers)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child(argv: list, trace: bool, spans_path: Path | None) -> dict:
    """Body of a forked invocation: one ``locstat.cli.main`` call."""
    import locstat.cli as cli

    marks = {}
    parse = cli._parse_config
    tracer = installation = None

    def timed_parse(*args, **kwargs):
        nonlocal tracer, installation
        cfg = parse(*args, **kwargs)
        if trace:
            import spans

            tracer = spans.Tracer()
            installation = spans.Installation(tracer)
        marks["parsed"] = time.perf_counter()
        return cfg

    cli._parse_config = timed_parse
    rc = cli.main(argv)
    finished = time.perf_counter()
    record = {"rc": rc}
    if "parsed" in marks:
        record["campaign_s"] = finished - marks["parsed"]
    if installation is not None:
        import numpy as np
        import spans

        installation.remove()
        arrays = tracer.arrays()
        record["layers"] = spans.layer_metrics(arrays, record["campaign_s"])
        record["missing"] = installation.missing
        record["absent_layers"] = installation.absent_layers
        record["n_spans"] = int(arrays["t0"].size)
        if spans_path is not None:
            np.savez_compressed(spans_path, **arrays)
    return record


def _invoke(argv: list, trace: bool = False, spans_path: Path | None = None) -> dict:
    """Run one CLI invocation in a forked child and wait for it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            os.dup2(2, 1)  # keep the parent's stdout for the result line
            signal.alarm(CHILD_TIMEOUT_S)
            record = _child(argv, trace, spans_path)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(record, fh)
            status = record["rc"]
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status, usage = os.wait4(pid, 0)
    record = json.loads(text) if text else {}
    record["exit"] = os.waitstatus_to_exitcode(status)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def _outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tail(samples: list) -> tuple[float, int]:
    """(90th percentile, samples beyond it) of the campaign times.

    A 20 s run holds 5-20 campaigns, too few for a percentile with ten
    samples beyond it above the median, so the tail is the interpolated
    90th percentile and the record states how many samples lie beyond it.
    """
    if len(samples) < 2:
        return samples[0], 0
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return p90, sum(s > p90 for s in samples)


def _calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work campaigns do:
    counter-based normal draws, small matrix exponentials and interpreted
    Python. It runs no locstat code, so no change to the program moves it."""
    import numpy as np
    from scipy import linalg

    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(12345))
    for _ in range(10):  # small blocks keep this process's heap, which forks inherit, small
        gen.standard_normal(100_000)
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    for i in range(200):
        linalg.expm(A * (1e-3 * i))
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def _environment() -> dict:
    import numpy
    import scipy

    import locstat

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "locstat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": locstat.backend_name(),
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "blas_threads": PINNED_THREADS["OMP_NUM_THREADS"],
    }


class Run:
    """State of one benchmark run: invocations attempted and failures seen."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[str] = []
        self.dir = _fresh_dir(WORK / f"{workload.name}-{seed}")
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=2))
        self.reference = None
        self.cals: list[float] = []
        self.checks: dict = {}

    def setup(self) -> list:
        """Set-up probes, each in a fresh interpreter after a calibration."""
        seed = self.workload.cli_seed(self.seed)
        samples = []
        for _ in range(SETUP_SAMPLES):
            self.cals.append(_calibrate())
            samples.append(_setup_sample(self.config_path, seed, self.workload.workers))
        return samples

    def invoke(self, workers: int, trace: bool = False, label: str = "run") -> dict | None:
        """One invocation, checked against the reference outputs."""
        out_dir = _fresh_dir(self.dir / label)
        argv = self.workload.argv(str(self.config_path), self.seed, str(out_dir), workers)
        spans_path = self.dir / "spans.npz" if trace else None
        record = _invoke(argv, trace, spans_path)
        self.attempted += 1
        where = f"{label} invocation {self.attempted} (workers={workers}, trace={int(trace)})"
        if record["exit"] != 0 or "campaign_s" not in record:
            self.failures.append(f"{where}: exit code {record['exit']}")
            return None
        outputs = _outputs(out_dir)
        if self.reference is None:
            self.reference = outputs
            problem = self.check_reference()
            if problem:
                self.failures.append(f"{where}: {problem}")
                return None
        elif outputs != self.reference:
            self.failures.append(f"{where}: output bytes differ from the reference invocation")
            return None
        return record

    def check_reference(self) -> str | None:
        if self.workload.subcommand != "simulate":
            return None
        import workloads

        seed = self.workload.cli_seed(self.seed)
        csv_text = self.reference[f"simulate-{seed}.csv"].decode()
        window = workloads.statespace_window(self.workload.config, csv_text)
        self.checks["statespace_window"] = window
        if not window["low"] <= window["mean_square"] <= window["high"]:
            return (f"path mean square {window['mean_square']} outside "
                    f"[{window['low']}, {window['high']}]")
        return None

    def loop(self, step) -> None:
        """Call ``step`` at least twice, then while one more round is expected
        to end within the run's time."""
        start = time.monotonic()
        rounds = 0
        while True:
            step()
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= 2 and elapsed * (rounds + 1) / rounds > self.seconds:
                break


def measure_end_to_end(run: Run) -> tuple[dict, dict]:
    setup = [s["import_s"] + s["parse_s"] for s in run.setup()]
    if run.workload.workers > 1:
        run.invoke(workers=1, label="reference")
    records = []

    def step():
        run.cals.append(_calibrate())
        record = run.invoke(run.workload.workers)
        if record is not None:
            records.append(record)

    run.loop(step)
    run.cals.append(_calibrate())
    if not records:
        return {}, {}
    speed = CAL_NOMINAL_S / statistics.median(run.cals)
    wall = [r["campaign_s"] for r in records]
    campaign = speed * statistics.median(wall)
    tail, beyond = _tail(wall)
    metrics = {
        "setup_s": (speed * statistics.median(setup), "s"),
        "campaign_s": (campaign, "s"),
        "campaign_s_tail": (speed * tail, "s"),
        "steps_per_s": (run.workload.steps() / campaign, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
    }
    info = {"samples": len(wall), "tail_samples_beyond": beyond, "speed_factor": speed,
            "campaign_s_all": wall, "setup_s_all": setup, "calibration_s": run.cals}
    return metrics, info


def measure_layers(run: Run) -> tuple[dict, dict]:
    setup = run.setup()
    workers = run.workload.workers
    plain1, plain_w, traced = [], [], []
    kinds = [(1, False, plain1), (1, True, traced)]
    if workers > 1:
        kinds.append((workers, False, plain_w))
    else:
        plain_w = plain1

    def step():
        for n, trace, into in kinds:
            record = run.invoke(n, trace)
            if record is not None:
                into.append(record)

    run.loop(step)
    if not (plain1 and plain_w and traced):
        return {}, {}
    first = traced[0]["layers"]
    import spans

    for record in traced[1:]:
        for key in spans.COUNT_METRICS:
            if record["layers"][key] != first[key]:
                run.failures.append(f"count {key} differs between traced invocations: "
                                    f"{first[key]} vs {record['layers'][key]}")
    t1 = statistics.median(r["campaign_s"] for r in plain1)
    t_w = statistics.median(r["campaign_s"] for r in plain_w)
    values = {key: statistics.median(r["layers"][key] for r in traced) for key in first}
    values["experiments.parallel_eff"] = t1 / (workers * t_w)
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    values["cli.parse_s"] = statistics.median(s["parse_s"] for s in setup)
    values["cli.bytes_out"] = float(sum(len(b) for b in run.reference.values()))
    values["trace.overhead"] = statistics.median(r["campaign_s"] for r in traced) / t1 - 1.0
    metrics = {key: (values[key], unit) for key, (unit, _) in spans.PER_LAYER.items()}
    info = {
        "traced_samples": len(traced),
        "spans_per_invocation": traced[0]["n_spans"],
        "missing_targets": traced[0]["missing"],
        "absent_layers": traced[0]["absent_layers"],
    }
    return metrics, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "locstat" / "cli.py").is_file():
        print(f"error: no locstat sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import compileall

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "locstat"), quiet=1):
        print("error: locstat sources do not compile", file=sys.stderr)
        return 2
    import locstat.cli  # noqa: F401  (imported once here, inherited by every fork)

    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, info = measure(run)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "predictions": [list(p) for p in workload.predictions],
        "seed": args.seed,
        "cli_seed": workload.cli_seed(args.seed),
        "steps": workload.steps(),
        "workers": workload.workers,
        "trace": args.trace,
        **info,
        **run.checks,
        **_environment(),
        "failures": run.failures,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures) if run.failures else (0 if metrics else 1),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
