"""Two-sided Levy driver: characteristic triplet, exact moments, jump sizes.

The driver is described by a drift, a Gaussian variance and an optional
finite-activity jump component (compound Poisson). Restricting the jump
measure to finite activity keeps every moment the downstream formulas need
in closed form and makes increment simulation exact in distribution. The
driver itself is drawn in one place, ``dynamics.draw_segment_noise``.

Moment conventions, with ``J`` the jump size distribution and ``rate`` the
jump intensity:

    mu_L    = gamma + rate * E[J 1{|J|>1}]      (mean of L(1))
    Sigma_L = sigma2 + rate * E[J^2]            (variance of L(1))
    nu_k    = rate * E[J^k],  k = 2, 3, 4       (jump-measure moments)

The truncation set in ``mu_L`` uses the strict inequality |J| > 1, so atoms
sitting exactly at +-1 do not contribute.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "JumpSpec",
    "LevyTriplet",
    "LevyMoments",
    "triplet_moments",
    "centered",
    "BROWNIAN",
]

_PROB_TOL = 1e-12


def _require_finite(name: str, value) -> None:
    """Reject a non-finite value, naming it: a NaN passes every ordering test."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class JumpSpec:
    """Compound-Poisson jump component.

    Either a discrete atom list ``atoms = ((value, prob), ...)`` or a normal
    jump size law ``normal = (mean, std)``. Both have closed-form moments up
    to order four, which is what the admission rule requires.
    """

    rate: float
    atoms: tuple[tuple[float, float], ...] | None = None
    normal: tuple[float, float] | None = None

    def __post_init__(self):
        _require_finite("jump rate", self.rate)
        if self.rate < 0:
            raise ValueError("jump rate must be nonnegative")
        if (self.atoms is None) == (self.normal is None):
            raise ValueError("specify exactly one of atoms or normal")
        if self.atoms is not None:
            atoms = tuple((float(v), float(p)) for v, p in self.atoms)
            _require_finite("jump atoms", atoms)
            object.__setattr__(self, "atoms", atoms)
            probs = np.array([p for _, p in atoms])
            if np.any(probs < 0):
                raise ValueError("atom probabilities must be nonnegative")
            if abs(probs.sum() - 1.0) > _PROB_TOL:
                raise ValueError(
                    f"atom probabilities sum to {float(probs.sum())!r}, expected 1 within {_PROB_TOL}"
                )
            # the atom values and the cdf that ``sample`` searches, built once
            # as Generator.choice builds it; plain attributes, not fields, so
            # equality and hash see only the atoms
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            object.__setattr__(self, "_values", np.array([v for v, _ in atoms]))
            object.__setattr__(self, "_cdf", cdf)
        else:
            mean, std = self.normal
            _require_finite("jump normal", self.normal)
            if std < 0:
                raise ValueError("normal jump std must be nonnegative")
            object.__setattr__(self, "normal", (float(mean), float(std)))

    def moment(self, k: int) -> float:
        """E[J^k] for k = 1..4, exact."""
        if self.atoms is not None:
            return float(sum(p * v**k for v, p in self.atoms))
        m, s = self.normal
        if k == 1:
            return m
        if k == 2:
            return m**2 + s**2
        if k == 3:
            return m**3 + 3 * m * s**2
        if k == 4:
            return m**4 + 6 * m**2 * s**2 + 3 * s**4
        raise ValueError("moments implemented for k <= 4")

    def mean_inside_unit(self) -> float:
        """E[J 1{|J|<=1}], the compensated small-jump mean."""
        return self.moment(1) - self.mean_outside_unit()

    def mean_outside_unit(self) -> float:
        """E[J 1{|J|>1}], the truncated mean entering mu_L."""
        if self.atoms is not None:
            return float(sum(p * v for v, p in self.atoms if abs(v) > 1.0))
        m, s = self.normal
        if s == 0.0:
            return m if abs(m) > 1.0 else 0.0
        # E[J 1{J>b}] = m*(1-Phi(zb)) + s*phi(zb) with zb=(b-m)/s; lower tail analogous.
        # Phi and phi are evaluated as scipy's norm does (ndtr, and the density
        # on an array), so the result matches norm.sf/cdf/pdf bit for bit.
        zu, zl = z = np.array([(1.0 - m) / s, (-1.0 - m) / s])
        pu, pl = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        upper = m * special.ndtr(-zu) + s * pu
        lower = m * special.ndtr(zl) - s * pl
        return float(upper + lower)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n jump sizes from ``rng``. Atoms take one uniform each and give
        the sizes ``Generator.choice`` gives with ``p=probs``, without its
        per-call argument checks."""
        if self.atoms is not None:
            return self._values[self._cdf.searchsorted(rng.random(n), side="right")]
        m, s = self.normal
        return rng.normal(m, s, size=n)


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristic triplet (drift, Gaussian variance, finite-activity jumps)."""

    gamma: float
    sigma2: float
    jumps: JumpSpec | None = None

    def __post_init__(self):
        _require_finite("gamma", self.gamma)
        _require_finite("sigma2", self.sigma2)
        if self.sigma2 < 0:
            raise ValueError("Gaussian variance must be nonnegative")

    @property
    def jump_rate(self) -> float:
        return 0.0 if self.jumps is None else self.jumps.rate

    @property
    def path_drift(self) -> float:
        """Drift of the uncompensated path construction.

        The triplet drift gamma refers to the representation in which jumps
        with |x| <= 1 are compensated; simulating jumps at their raw sizes
        therefore shifts the drift by -rate * E[J 1{|J|<=1}].
        """
        if self.jumps is None or self.jumps.rate == 0.0:
            return self.gamma
        return self.gamma - self.jumps.rate * self.jumps.mean_inside_unit()


@dataclass(frozen=True)
class LevyMoments:
    mu_L: float
    Sigma_L: float
    nu2: float
    nu3: float
    nu4: float


BROWNIAN = LevyTriplet(gamma=0.0, sigma2=1.0)


def triplet_moments(triplet: LevyTriplet) -> LevyMoments:
    """Exact first to fourth moment data of the driver; no sampling involved."""
    if triplet.jumps is None or triplet.jumps.rate == 0.0:
        return LevyMoments(triplet.gamma, triplet.sigma2, 0.0, 0.0, 0.0)
    j = triplet.jumps
    rate = j.rate
    return LevyMoments(
        mu_L=triplet.gamma + rate * j.mean_outside_unit(),
        Sigma_L=triplet.sigma2 + rate * j.moment(2),
        nu2=rate * j.moment(2),
        nu3=rate * j.moment(3),
        nu4=rate * j.moment(4),
    )


def centered(triplet: LevyTriplet) -> LevyTriplet:
    """Shift the drift so the driver has mean zero."""
    mu = triplet_moments(triplet).mu_L
    return LevyTriplet(triplet.gamma - mu, triplet.sigma2, triplet.jumps)
