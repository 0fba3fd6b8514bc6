"""The four campaign workloads: seeded configs, problem sizes and checks.

Each workload is one ``locstat`` CLI invocation shaped like an acceptance
campaign. Its config is generated per run and its CLI seed is derived from
the benchmark seed, so the same seed gives the same inputs. Problem size is
counted from the config alone: a step is one fine-grid step of ``Y_N`` for
one replication, or one exact step of the frozen process. A faster sampler
that does the same job in fewer draws therefore counts as faster, not as
less work.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

_TVCAR = {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0}
_PM_ONE_JUMPS = {"rate": 1.0, "atoms": [[1.0, 0.5], [-1.0, 0.5]]}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    workers: int
    why: str
    # (layer metric, end-to-end metric it should move on this workload)
    predictions: tuple
    config: dict

    def cli_seed(self, seed: int) -> int:
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "little") >> 1

    def argv(self, config_path: str, seed: int, out_dir: str, workers: int) -> list:
        return [self.subcommand, "--config", config_path, "--seed", str(self.cli_seed(seed)),
                "--out", out_dir, "--workers", str(workers)]

    def steps(self) -> int:
        return problem_steps(self.config)


def _localized_steps(cfg: dict) -> int:
    """Fine-grid steps of the lln / clt chunks of a lag-free O1 statistic:
    burn-in plus the span of the observation grid, per N and replication."""
    sch, exp = cfg["scheme"], cfg["experiment"]
    h = cfg["simulation"]["fine_step"]
    burn = math.ceil(cfg["simulation"]["burn_in"] / h - 1e-12)
    N_list = exp["N_list"][-1:] if exp["kind"].startswith("clt") else exp["N_list"]
    per_rep = 0
    for N in N_list:
        m = math.floor((sch["b"] * float(N) ** (-sch["beta"])) / (sch["Delta"] / float(N)))
        per_rep += burn + round(2 * m * sch["Delta"] / h)
    return exp["replications"] * per_rep


def problem_steps(cfg: dict) -> int:
    exp = cfg["experiment"]
    if "simulate" in cfg:
        times = cfg["simulate"]["times"]
        h = cfg["simulation"]["fine_step"]
        N = exp["N_list"][-1]
        return math.ceil(cfg["simulation"]["burn_in"] / h - 1e-12) + round(
            N * (times[-1] - times[0]) / h
        )
    if exp["kind"] == "lipschitz_u":
        # time_points - 1 gaps plus the warm-start step, per rung and replication
        return exp["replications"] * len(exp["ladder"]) * exp["time_points"]
    return _localized_steps(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lln_ladder",
            subcommand="lln",
            workers=1,
            why="criterion 6 shape: fine-grid Gaussian noise draws dominate, the scan is a few percent",
            predictions=(
                ("noise.draw_s", "campaign_s"),
                ("noise.cells_per_record", "steps_per_s"),
                ("core.scan_s", "campaign_s"),
                ("dynamics.plan_s", "campaign_s"),
                ("dynamics.run_self_s", "campaign_s"),
                ("experiments.chunk_self_s", "campaign_s"),
                ("cli.import_s", "setup_s"),
            ),
            config={
                "model": _TVCAR,
                "triplet": {"gamma": 1.0, "sigma2": 1.0},
                "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
                "simulation": {"fine_step": 1.0 / 256.0, "burn_in": 8.0},
                "experiment": {"kind": "lln_discrete", "N_list": [2**8, 2**10, 2**12, 2**14],
                               "replications": 256, "statistic": "mean"},
            },
        ),
        Workload(
            name="clt_jumps",
            subcommand="clt",
            workers=2,
            why="jump branch of the sampler (Poisson counts, jump sizes) and the process pool at two workers",
            predictions=(
                ("noise.draw_s", "campaign_s"),
                ("experiments.parallel_eff", "campaign_s"),
                ("experiments.serial_share", "campaign_s"),
                ("cli.emit_s", "campaign_s"),
                ("observation.scheme_s", "campaign_s"),
                ("rng.stream_s", "campaign_s"),
            ),
            # clt_mean, not clt_cov: with a jump driver clt_cov standardizes by
            # a 200-path Monte Carlo sigma2_tilde whose error alone fails its
            # variance window for about one seed in four.
            config={
                "model": {"kind": "car1", "a": "1", "lipschitz": 0.0, "infimum": 1.0},
                "triplet": {"gamma": 0.0, "sigma2": 0.5, "jumps": _PM_ONE_JUMPS},
                "scheme": {"u": 1.0, "b": 0.5, "beta": 0.6, "scheme": "O1", "Delta": 1.0},
                "simulation": {"fine_step": 1.0 / 64.0, "burn_in": 8.0},
                "experiment": {"kind": "clt_mean", "N_list": [2**14], "replications": 2048},
            },
        ),
        Workload(
            name="frozen_lipschitz",
            subcommand="lipschitz",
            workers=1,
            why="exact frozen simulation and fourth-moment quadrature; no fine-grid noise, plan or scan",
            predictions=(
                ("stationary.exact_s", "campaign_s"),
                ("stationary.closed_form_s", "campaign_s"),
                ("noise.draw_s", "none (stays 0)"),
                ("observation.scheme_s", "none (stays 0)"),
                ("rng.stream_s", "campaign_s"),
            ),
            config={
                "model": _TVCAR,
                "triplet": {"gamma": 0.0, "sigma2": 1.0, "jumps": _PM_ONE_JUMPS},
                "simulation": {"fine_step": 0.01, "burn_in": 8.0},
                "experiment": {"kind": "lipschitz_u", "N_list": [1], "replications": 256,
                               "p_norm": 4, "time_points": 48,
                               "ladder": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]},
            },
        ),
        Workload(
            name="statespace_simulate",
            subcommand="simulate",
            workers=1,
            why="per-step state-space path with expression-matrix coefficients; one long noise row",
            predictions=(
                ("dynamics.statespace_s", "campaign_s"),
                ("dynamics.propagator_calls", "steps_per_s"),
                ("expressions.eval_s", "campaign_s"),
                ("noise.draw_s", "campaign_s"),
            ),
            config={
                "model": {
                    "kind": "statespace", "p": 2,
                    "A_entries": [["-1 - 0.5*sin(t)", "0"], ["0", "-2"]],
                    "B": ["1", "1"], "C": ["1", "1"], "commuting": True,
                    "stability_margin": 0.5, "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0},
                },
                "triplet": {"gamma": 0.0, "sigma2": 1.0},
                "simulation": {"fine_step": 0.01, "burn_in": 16.0},
                # the experiment section only fixes N for the simulate subcommand
                "experiment": {"kind": "lln_discrete", "N_list": [256], "replications": 100},
                "simulate": {"times": [float(t) for t in np.linspace(0.5, 1.5, 65)]},
            },
        ),
    )
}


def statespace_window(cfg: dict, csv_text: str, alpha: float = 1e-3) -> dict:
    """Mean square of a simulated path against the time-averaged frozen variance.

    The mean square of a centered Gaussian stationary sequence has variance
    (2 / n^2) sum_ij r(s_i - s_j)^2, with r the autocovariance frozen at the
    middle time and s the rescaled times. The window treats it as a scaled
    chi-square with matching mean and variance (``dof`` degrees of freedom)
    and takes its two-sided ``alpha`` quantiles, which allows for the skew of
    a mean square. Returns the mean square, the target and the window, the
    last also relative to the target.
    """
    from scipy.stats import chi2

    from locstat import cli, stationary

    model = cli._build_model(cfg["model"])
    triplet = cli._build_triplet(cfg["triplet"])
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    times = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    target = float(np.mean([stationary.stationary_autocov(model, t, triplet, 0.0) for t in times]))
    N = cfg["experiment"]["N_list"][-1]
    mid = 0.5 * (times[0] + times[-1])
    lags = np.abs(np.subtract.outer(times, times)) * N
    r = np.asarray(stationary.stationary_autocov(model, mid, triplet, lags.ravel()))
    var = 2.0 * float(np.sum(r**2)) / len(times) ** 2
    dof = 2.0 * target**2 / var
    rel_low, rel_high = chi2.ppf([alpha / 2.0, 1.0 - alpha / 2.0], dof) / dof
    return {
        "mean_square": float(np.mean(values**2)),
        "target": target,
        "dof": dof,
        "alpha": alpha,
        "low": target * rel_low,
        "high": target * rel_high,
        "rel_low": float(rel_low),
        "rel_high": float(rel_high),
    }
