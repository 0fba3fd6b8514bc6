"""Observation schemes: equidistant grids tau_i = u + i delta_N inside a
shrinking window [u - b_N, u + b_N].

Bandwidth and step are power-law rules in N, so every asymptotic condition
reduces to an exponent inequality that can be checked exactly:

    b_N = b N^{-beta},   0 < beta < 1
    O1:  delta_N = Delta / N          (fixed rescaled spacing N delta_N)
    O2:  delta_N = d N^{-alpha},      alpha < 1  (N delta_N -> infinity)

``make_scheme`` validates a single N (window inside positive time, at least
m_N = 2 and at most ``_MAX_STEPS`` grid steps per side); the exponent-level
checks live in ``clt_admissible`` and ``chain_satisfies_observation_limits``.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _MAX_STEPS

__all__ = [
    "BandwidthRule",
    "StepRuleO1",
    "StepRuleO2",
    "ObservationScheme",
    "make_scheme",
    "clt_admissible",
    "chain_satisfies_observation_limits",
]


@dataclass(frozen=True)
class BandwidthRule:
    b: float
    beta: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("bandwidth constant b must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("bandwidth exponent beta must satisfy 0 < beta < 1")

    def at(self, N: int) -> float:
        return self.b * float(N) ** (-self.beta)


@dataclass(frozen=True)
class StepRuleO1:
    Delta: float
    kind: str = "O1"

    def __post_init__(self):
        if self.Delta <= 0:
            raise ValueError("Delta must be positive")

    def at(self, N: int) -> float:
        return self.Delta / float(N)


@dataclass(frozen=True)
class StepRuleO2:
    d: float
    alpha: float
    kind: str = "O2"

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("d must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must satisfy 0 < alpha < 1 so that N delta_N diverges")

    def at(self, N: int) -> float:
        return self.d * float(N) ** (-self.alpha)


@dataclass(frozen=True)
class ObservationScheme:
    u: float
    N: int
    delta_N: float
    b_N: float
    kind: str  # "O1" | "O2"
    m_N: int
    grid: np.ndarray  # 2 m_N + 1 points, symmetric about u
    rescaled_spacing: float  # N * delta_N

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))


def make_scheme(u: float, N: int, bandwidth_rule: BandwidthRule, step_rule) -> ObservationScheme:
    """Materialize the observation grid for one N.

    Rejects windows reaching nonpositive time (b_N >= u), windows holding
    fewer than two grid steps per side (the localization needs b_N / delta_N
    to grow, and m_N < 2 means it has no room at this N) and windows holding
    more than ``_MAX_STEPS``, whose grid would not fit in memory.
    """
    if u <= 0:
        raise ValueError("localization point u must be positive")
    if N < 1:
        raise ValueError("N must be a positive integer")
    b_N = bandwidth_rule.at(N)
    delta_N = step_rule.at(N)
    if b_N >= u:
        raise ValueError(f"bandwidth b_N = {b_N} must stay below u = {u}")
    ratio = b_N / delta_N if delta_N > 0 else np.inf
    if ratio >= _MAX_STEPS + 1:
        raise ValueError(f"m_N = floor(b_N / delta_N) = {ratio:.3g} at N = {N} is more than "
                         f"{_MAX_STEPS} observations per side of the window")
    m_N = int(np.floor(ratio))
    if m_N < 2:
        raise ValueError(
            f"m_N = floor(b_N / delta_N) = {m_N} < 2 at N = {N}; "
            "the window holds too few observations (b_N / delta_N must diverge)"
        )
    upper = u + np.arange(1, m_N + 1) * delta_N
    lower = (2.0 * u - upper)[::-1]  # exact reflection keeps tau_{-i} + tau_i = 2u
    grid = np.concatenate([lower, [u], upper])
    return ObservationScheme(
        u=u,
        N=N,
        delta_N=delta_N,
        b_N=b_N,
        kind=step_rule.kind,
        m_N=m_N,
        grid=grid,
        rescaled_spacing=N * delta_N,
    )


def clt_admissible(bandwidth_rule: BandwidthRule, step_rule) -> bool:
    """Exponent check of sqrt(m_N) * b_N -> 0 for the rule chain.

    m_N grows like N^{1 - beta} under O1 and N^{alpha - beta} under O2, so the
    condition reads beta > 1/3 (O1) and alpha < 3 beta (O2; automatic when the
    m_N exponent is nonpositive).
    """
    beta = bandwidth_rule.beta
    if isinstance(step_rule, StepRuleO1):
        return beta > 1.0 / 3.0
    if isinstance(step_rule, StepRuleO2):
        m_exponent = step_rule.alpha - beta
        return m_exponent / 2.0 < beta
    raise TypeError("step_rule must be StepRuleO1 or StepRuleO2")


def chain_satisfies_observation_limits(bandwidth_rule: BandwidthRule, step_rule) -> bool:
    """Exponent check of the sampling-scheme limits along the whole chain:
    delta_N -> 0, b_N -> 0 and b_N / delta_N -> infinity."""
    if isinstance(step_rule, StepRuleO1):
        return True  # (1 - beta) > 0 always
    if isinstance(step_rule, StepRuleO2):
        return step_rule.alpha > bandwidth_rule.beta
    raise TypeError("step_rule must be StepRuleO1 or StepRuleO2")
