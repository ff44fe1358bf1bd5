"""Reaction-matrix / scattering-matrix algebra and partial cross sections.

Pure, stateless matrix operations: the Cayley transform between the real
symmetric reaction matrix K and the unitary symmetric scattering matrix S,

    S = (1 + iK)(1 - iK)^-1,        K = i (1 + S)^-1 (1 - S),

and the two-channel s-wave partial cross sections

    sigma_ij = (4 pi / k_i^2) (delta_ij D^2 + K_ij^2) / ((1 - D)^2 + F^2),
    D = det K,   F = tr K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ClosedChannelError,
    MatrixInversionError,
    UnsupportedShapeError,
    ValidationError,
)

if TYPE_CHECKING:
    from .channels import ChannelSet

SYMMETRY_TOL = 1e-10
UNITARITY_TOL = 1e-10


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KMatrix:
    """A reaction matrix sampled at one energy: real, symmetric, finite."""

    energy: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _frozen_array(self.entries, float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"K must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"non-finite K entries at E={self.energy!r}")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > SYMMETRY_TOL * scale:
            raise ValidationError(
                f"K not symmetric at E={self.energy!r}: "
                f"defect {np.abs(arr - arr.T).max():.3e}"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SMatrix:
    """A scattering matrix at one energy: complex, unitary, symmetric."""

    energy: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _frozen_array(self.entries, complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"S must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if np.abs(arr @ arr.conj().T - np.eye(n)).max() > UNITARITY_TOL:
            raise ValidationError(
                f"S not unitary at E={self.energy!r}: "
                f"defect {np.abs(arr @ arr.conj().T - np.eye(n)).max():.3e}"
            )
        if np.abs(arr - arr.T).max() > UNITARITY_TOL:
            raise ValidationError(f"S not symmetric at E={self.energy!r}")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def k_to_s(k: KMatrix) -> SMatrix:
    """Cayley transform S = (1 + iK)(1 - iK)^-1 of a reaction matrix."""
    n = k.n
    a = np.eye(n) - 1j * k.entries
    b = np.eye(n) + 1j * k.entries
    try:
        # S = b a^-1; solve on the right via the transposed system.
        s = np.linalg.solve(a.T, b.T).T
    except np.linalg.LinAlgError as exc:
        raise MatrixInversionError(
            f"(1 - iK) singular at E={k.energy!r}", energy=k.energy
        ) from exc
    return SMatrix(energy=k.energy, entries=s)


def s_to_k(s: SMatrix) -> KMatrix:
    """Inverse Cayley transform K = i (1 + S)^-1 (1 - S)."""
    n = s.n
    a = np.eye(n) + s.entries
    b = np.eye(n) - s.entries
    try:
        k = 1j * np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise MatrixInversionError(
            f"(1 + S) singular at E={s.energy!r}", energy=s.energy
        ) from exc
    k = k.real  # imaginary part is roundoff for unitary symmetric S
    k = 0.5 * (k + k.T)
    return KMatrix(energy=s.energy, entries=k)


def cross_sections(k: KMatrix, channels: ChannelSet) -> np.ndarray:
    """Two-channel elastic/inelastic s-wave cross sections from K.

    Returns the 2x2 array sigma[i, j] for entrance channel i, exit channel j,
    in absolute area units of the model (the 4 pi / k_i^2 factor included).
    Requires both channels open at k.energy.
    """
    if channels.n_open != 2 or k.n != 2:
        raise UnsupportedShapeError(
            f"cross-section formula is two-channel; got {channels.n_open} "
            f"channels and {k.n}x{k.n} K"
        )
    mask = channels.open_mask(k.energy)
    if not mask.all():
        closed = int(np.argmin(mask))
        raise ClosedChannelError(
            f"channel {closed} closed at E={k.energy!r} "
            f"(threshold {channels.thresholds[closed]!r})"
        )
    kk = channels.k(k.energy)
    km = k.entries
    det = km[0, 0] * km[1, 1] - km[0, 1] * km[1, 0]
    tr = km[0, 0] + km[1, 1]
    denom = (1.0 - det) ** 2 + tr**2
    sigma = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            num = (det**2 if i == j else 0.0) + km[i, j] ** 2
            sigma[i, j] = 4.0 * np.pi / kk[i] ** 2 * num / denom
    return sigma
