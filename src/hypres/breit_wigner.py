"""Generalized two-channel Breit-Wigner model with inelastic background.

The reaction matrix near an isolated narrow resonance is parametrized by a
real pole E1, a constant background block and a rank-1 residue:

    K(E) = [[a1, a], [a, a2]] - 1/(E - E1) [[b1, b], [b, b2]],
    b1 >= 0,  b2 >= 0,  b1 b2 - b^2 = 0.

The physical resonance position, total and partial widths follow in closed
form from the six parameters:

    d = a1 a2 - a^2,  f = a1 + a2,  g = b1 + b2,  h = a1 b2 + a2 b1 - 2 a b,
    E0     = E1 - (h (1 - d) - f g) / ((1 - d)^2 + f^2),
    Gamma1 = 2 (h a2 + b1 - d b2) / ((1 - d)^2 + f^2),
    Gamma2 = 2 (h a1 + b2 - d b1) / ((1 - d)^2 + f^2),
    Gamma  = Gamma1 + Gamma2 = 2 (f h + g (1 - d)) / ((1 - d)^2 + f^2).

The report's eigenphases Delta_j, mixing angle nu and real amplitudes bt_j
are the parameters of the equivalent scattering-matrix form, which
diagonalizes the background with an orthogonal mixing rotation R(nu):

    S(E) = R^-1 [ Sb - i Gamma B / (E - E0 + i Gamma/2) ] R,
    Sb_jk = delta_jk exp(2i Delta_j),
    B_jk  = bt_j bt_k exp(i (Delta_j + Delta_k)),   sum_j bt_j^2 = 1,

with complex channel amplitudes beta_j = sum_l R_lj bt_l e^{i(Delta_l-Delta_j)}
and partial widths Gamma_i = Gamma |beta_i|^2.  A nonzero mixing angle forces
both partial widths away from zero:

    2 Gamma_i / Gamma >= 1 - sqrt(cos^2(D1-D2) sin^2(2 nu) + cos^2(2 nu)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import KMatrix
from .errors import (
    InconsistentParametersError,
    PoleEvaluationError,
    ValidationError,
)

RANK_TOL = 1e-8
WIDTH_TOL = 1e-10
DEGENERACY_TOL = 1e-14
ILL_CONDITIONED_PHASE = 1.5  # rad; |Delta_j| beyond this flags a huge background


@dataclass(frozen=True)
class BWPoleParams:
    """Six-parameter pole form of the reaction matrix (plus signed b).

    b carries the physical sign of the off-diagonal residue; the rank-1
    constraint |b1 b2 - b^2| <= RANK_TOL * max(b1 b2, b^2) is enforced at
    construction.  Prefer `from_amplitudes`, which makes it exact.
    """

    E1: float
    a1: float
    a2: float
    a: float
    b1: float
    b2: float
    b: float

    def __post_init__(self):
        if self.b1 < 0.0 or self.b2 < 0.0:
            raise ValidationError(f"b1, b2 must be >= 0, got {self.b1}, {self.b2}")
        prod = self.b1 * self.b2
        sq = self.b * self.b
        defect = abs(prod - sq)
        if defect > RANK_TOL * max(prod, sq, 0.0) and defect > 0.0:
            raise ValidationError(
                f"residue not rank-1: |b1*b2 - b^2| = {defect:.3e} exceeds "
                f"tolerance {RANK_TOL:.1e} * {max(prod, sq):.3e}"
            )

    @classmethod
    def from_amplitudes(
        cls, E1: float, a1: float, a2: float, a: float, beta1: float, beta2: float
    ) -> "BWPoleParams":
        """Build with b1 = beta1^2, b2 = beta2^2, b = beta1*beta2 (rank-1 exact)."""
        return cls(
            E1=E1, a1=a1, a2=a2, a=a,
            b1=beta1 * beta1, b2=beta2 * beta2, b=beta1 * beta2,
        )

    @property
    def amplitudes(self) -> tuple[float, float]:
        """(beta1, beta2) of `from_amplitudes`: beta1 = sqrt(b1) >= 0, beta2
        carries the sign of b (positive when b = 0)."""
        return (math.sqrt(self.b1),
                math.copysign(math.sqrt(self.b2), self.b if self.b else 1.0))

    @property
    def rank_defect(self) -> float:
        return abs(self.b1 * self.b2 - self.b * self.b)

    def background(self) -> np.ndarray:
        return np.array([[self.a1, self.a], [self.a, self.a2]])

    def residue(self) -> np.ndarray:
        return np.array([[self.b1, self.b], [self.b, self.b2]])


@dataclass(frozen=True)
class ResonanceReport:
    """Physical resonance parameters derived from a K-matrix pole form."""

    E0: float
    Gamma: float
    partial_widths: tuple[float, float]
    branching: tuple[float, float]
    eigenphases: tuple[float, float]
    mixing_angle: float
    beta_tilde: tuple[float, float]
    beta: tuple[complex, complex]
    degenerate_background: bool = False
    ill_conditioned_background: bool = False


def bw_k(params: BWPoleParams, energy: float) -> KMatrix:
    """Evaluate the pole-form reaction matrix at one energy (E != E1)."""
    if energy == params.E1:
        raise PoleEvaluationError(f"K(E) evaluated exactly at its pole E1={energy!r}")
    entries = params.background() - params.residue() / (energy - params.E1)
    return KMatrix(energy=energy, entries=entries)


def partial_width_lower_bound(nu: float, delta1: float, delta2: float) -> float:
    """Lower bound on Gamma_i / Gamma imposed by background mixing; in [0, 1/2]."""
    radical = math.sqrt(
        math.cos(delta1 - delta2) ** 2 * math.sin(2.0 * nu) ** 2
        + math.cos(2.0 * nu) ** 2
    )
    return 0.5 * (1.0 - radical)


def _background_eigenphases(a1: float, a2: float, a: float):
    """Diagonalize Kb = R^-1 diag(tan D1, tan D2) R, R the rotation by nu.

    Returns (nu, D1, D2, degenerate).  Conventions: D_j on the principal
    arctan branch, eigenvalue ordering chosen so nu lies in [-pi/4, pi/4];
    a degenerate background (equal eigenvalues) reports nu = 0.
    """
    scale = max(abs(a1), abs(a2), abs(a), 1.0)
    if max(abs(2.0 * a), abs(a1 - a2)) <= DEGENERACY_TOL * scale:
        return 0.0, math.atan(a1), math.atan(a2), True
    nu = 0.5 * math.atan2(2.0 * a, a1 - a2)
    if nu > 0.25 * math.pi:
        nu -= 0.5 * math.pi
    elif nu < -0.25 * math.pi:
        nu += 0.5 * math.pi
    t = math.tan(nu)
    tan_d1 = a1 + a * t
    tan_d2 = a2 - a * t
    return nu, math.atan(tan_d1), math.atan(tan_d2), False


def resonance_from_pole(params: BWPoleParams) -> ResonanceReport:
    """Convert pole parameters to the physical resonance report.

    Evaluates the closed-form expressions for E0, Gamma and the partial
    widths, then fills the background decomposition (eigenphases, mixing
    angle, real and complex channel amplitudes).
    """
    a1, a2, a = params.a1, params.a2, params.a
    b1, b2, b = params.b1, params.b2, params.b

    d = a1 * a2 - a * a
    f = a1 + a2
    g = b1 + b2
    h = a1 * b2 + a2 * b1 - 2.0 * a * b
    # never 0: f = 0 makes d = -a1^2 - a^2 <= 0, so denom >= 1
    denom = (1.0 - d) ** 2 + f**2

    E0 = params.E1 - (h * (1.0 - d) - f * g) / denom
    gamma1 = 2.0 * (h * a2 + b1 - d * b2) / denom
    gamma2 = 2.0 * (h * a1 + b2 - d * b1) / denom
    gamma = 2.0 * (f * h + g * (1.0 - d)) / denom

    width_scale = max(gamma, abs(gamma1), abs(gamma2), 1e-300)
    for name, value in (("Gamma1", gamma1), ("Gamma2", gamma2), ("Gamma", gamma)):
        if value < -WIDTH_TOL * width_scale:
            raise InconsistentParametersError(
                f"{name} = {value:.6e} is negative beyond tolerance"
            )
    gamma1 = max(gamma1, 0.0)
    gamma2 = max(gamma2, 0.0)
    if gamma <= 0.0:
        raise InconsistentParametersError(f"total width {gamma:.6e} not positive")

    nu, d1, d2, degenerate = _background_eigenphases(a1, a2, a)
    rot = np.array(
        [[math.cos(nu), math.sin(nu)], [-math.sin(nu), math.cos(nu)]]
    )

    # Rotated residue; its diagonal gives the real amplitudes bt_j via
    # Ct_jj = (Gamma/2) bt_j^2 / cos^2 D_j.
    ct = rot @ params.residue() @ rot.T
    bt1_sq = 2.0 * ct[0, 0] * math.cos(d1) ** 2 / gamma
    bt2_sq = 2.0 * ct[1, 1] * math.cos(d2) ** 2 / gamma
    norm = bt1_sq + bt2_sq
    bt1 = math.sqrt(max(bt1_sq, 0.0) / norm)
    bt2 = math.copysign(math.sqrt(max(bt2_sq, 0.0) / norm), ct[0, 1] if ct[0, 1] else 1.0)

    beta1 = rot[0, 0] * bt1 + rot[1, 0] * bt2 * np.exp(1j * (d2 - d1))
    beta2 = rot[0, 1] * bt1 * np.exp(1j * (d1 - d2)) + rot[1, 1] * bt2

    return ResonanceReport(
        E0=E0,
        Gamma=gamma,
        partial_widths=(gamma1, gamma2),
        branching=(gamma1 / gamma, gamma2 / gamma),
        eigenphases=(d1, d2),
        mixing_angle=nu,
        beta_tilde=(bt1, bt2),
        beta=(complex(beta1), complex(beta2)),
        degenerate_background=degenerate,
        ill_conditioned_background=max(abs(d1), abs(d2)) > ILL_CONDITIONED_PHASE,
    )

