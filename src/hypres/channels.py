"""Channel bookkeeping and three-body mass data.

Energies are in the model's natural units throughout (for muonic systems,
units with hbar = e = m_light = 1); no unit conversion happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosedChannelError, ValidationError


@dataclass(frozen=True)
class ChannelSet:
    """Asymptotic two-fragment channels of the scattering problem.

    Channel i opens at E = thresholds[i].  Above threshold the hyperradial
    momentum is q_i = sqrt(E - thresholds[i]) and the physical relative
    momentum is k_i = sqrt(2 mu_i) q_i, with mu_i the fragment-fragment
    reduced mass.
    """

    thresholds: tuple[float, ...]
    reduced_masses: tuple[float, ...]

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        mu = np.asarray(self.reduced_masses, dtype=float)
        if thr.size < 1:
            raise ValidationError("need at least one channel")
        if thr.size != mu.size:
            raise ValidationError("thresholds and reduced_masses length mismatch")
        if np.any(np.diff(thr) <= 0.0):
            raise ValidationError("thresholds must be strictly ascending")
        if np.any(mu <= 0.0):
            raise ValidationError("reduced masses must be positive")
        if not np.all(np.isfinite(thr)) or not np.all(np.isfinite(mu)):
            raise ValidationError("non-finite channel data")

    @property
    def n_open(self) -> int:
        return len(self.thresholds)

    def q(self, energy: float) -> np.ndarray:
        """Hyperradial channel momenta q_i = sqrt(E - threshold_i) (open only)."""
        thr = np.asarray(self.thresholds)
        if np.any(thr >= energy):
            bad = int(np.argmax(thr >= energy))
            raise ClosedChannelError(
                f"channel {bad} closed at E={float(energy)!r} "
                f"(threshold {float(thr[bad])!r})"
            )
        return np.sqrt(energy - thr)

    def k(self, energy: float) -> np.ndarray:
        """Physical channel momenta k_i = sqrt(2 mu_i) q_i."""
        return np.sqrt(2.0 * np.asarray(self.reduced_masses)) * self.q(energy)


def hydrogenic_energy(m_nucleus: float, n: int = 1) -> float:
    """Bound-state energy -m_red / (2 n^2) of a unit-charge Coulomb pair.

    The light particle has unit mass, so m_red = m_nucleus / (m_nucleus + 1).
    """
    m_red = m_nucleus / (m_nucleus + 1.0)
    return -m_red / (2.0 * n * n)


@dataclass(frozen=True)
class ThreeBodyMasses:
    """Masses of a (heavy, heavy, light) muonic Coulomb three-body system.

    Masses are in units of the light particle's mass; the charges are +1,
    +1 and -1.  Derived quantities follow the mass-weighted Jacobi setup:

        mu^-1 = 1 + (m1 + m2)^-1        (light vs heavy pair)
        M^-1  = m1^-1 + m2^-1           (heavy vs heavy)
    """

    m1: float
    m2: float

    def __post_init__(self):
        if self.m1 <= 0 or self.m2 <= 0:
            raise ValidationError("masses must be positive")

    @property
    def mu(self) -> float:
        return 1.0 / (1.0 + 1.0 / (self.m1 + self.m2))

    @property
    def mass_heavy_pair(self) -> float:
        return 1.0 / (1.0 / self.m1 + 1.0 / self.m2)

    @property
    def heavy_fractions(self) -> tuple[float, float]:
        """(c1, c2) = (m2, m1) / (m1 + m2): the heavy particles sit at -c1 R
        and +c2 R from their center of mass."""
        return self.m2 / (self.m1 + self.m2), self.m1 / (self.m1 + self.m2)

    def atom_energy(self, heavy: int, n: int = 1) -> float:
        """Hydrogenic energy of the isolated (heavy i, light) atom, charges +1, -1."""
        m = self.m1 if heavy == 1 else self.m2
        return hydrogenic_energy(m, n=n)

    def channel_set(self) -> ChannelSet:
        """Two-channel ChannelSet for the (atom1 + heavy2, atom2 + heavy1) pair.

        Channel ordering follows ascending threshold; for m1 > m2 the deeper
        threshold belongs to the atom built on the heavier nucleus.
        """
        e1 = self.atom_energy(1, n=1)
        e2 = self.atom_energy(2, n=1)
        mu1 = 1.0 / (1.0 / (self.m1 + 1.0) + 1.0 / self.m2)
        mu2 = 1.0 / (1.0 / (self.m2 + 1.0) + 1.0 / self.m1)
        pairs = sorted([(e1, mu1), (e2, mu2)])
        return ChannelSet(
            thresholds=(pairs[0][0], pairs[1][0]),
            reduced_masses=(pairs[0][1], pairs[1][1]),
        )


# Standard nuclear masses in units of the muon mass (CODATA mass ratios).
MUON_MASS_ELECTRONS = 206.768283
DEUTERON_MASS_MUONS = 3670.482967 / MUON_MASS_ELECTRONS
TRITON_MASS_MUONS = 5496.921535 / MUON_MASS_ELECTRONS


def dtmu_masses() -> ThreeBodyMasses:
    """The (t, d, mu) system: heavy1 = triton, heavy2 = deuteron."""
    return ThreeBodyMasses(m1=TRITON_MASS_MUONS, m2=DEUTERON_MASS_MUONS)
