"""Reaction-matrix algebra, cross sections and the shared eigensolve.

`KMatrix` is a real symmetric reaction matrix at one energy; from it follow
the two-channel s-wave partial cross sections

    sigma_ij = (4 pi / k_i^2) (delta_ij D^2 + K_ij^2) / ((1 - D)^2 + F^2),
    D = det K,   F = tr K.

`shift_invert_eigsh` is both solver layers' one ARPACK call; it counts the
factor solves it applies in `EIGENSOLVE_WORK["operator_applications"]`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import EigensolverError, UnsupportedShapeError, ValidationError

if TYPE_CHECKING:
    from .channels import ChannelSet

SYMMETRY_TOL = 1e-10
# ARPACK start vector: a fixed generic draw (not ones, which can be orthogonal
# to antisymmetric states) so that every eigensolve is reproducible
START_VECTOR_SEED = 0
# OPinv applications of every shift_invert_eigsh call in this process
EIGENSOLVE_WORK = {"operator_applications": 0}


@dataclass(frozen=True)
class KMatrix:
    """A reaction matrix sampled at one energy: real, symmetric, finite."""

    energy: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        arr.flags.writeable = False
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


def cross_sections(k: KMatrix, channels: ChannelSet) -> np.ndarray:
    """Two-channel elastic/inelastic s-wave cross sections from K.

    Returns the 2x2 array sigma[i, j] for entrance channel i, exit channel j,
    in absolute area units of the model (the 4 pi / k_i^2 factor included).
    Requires both channels open at k.energy: `ChannelSet.q` raises
    ClosedChannelError otherwise.
    """
    if channels.n_open != 2 or k.n != 2:
        raise UnsupportedShapeError(
            f"cross-section formula is two-channel; got {channels.n_open} "
            f"channels and {k.n}x{k.n} K"
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


def shift_invert_eigsh(solve, m_apply, n, k, sigma, maxiter, stalled, rho,
                       vectors=True):
    """The min(k, n - 1) eigenpairs of A x = lambda M x nearest sigma.

    ARPACK's shift-invert mode applies only solve, x -> (A - sigma M)^-1 x,
    and m_apply, x -> M x, from a seeded start vector, in scipy's default
    Krylov subspace of min(max(2k + 1, 20), n) vectors, the ncv >= 2 nev the
    ARPACK Users' Guide recommends.  Returns eigsh's (vals, vecs), or vals
    alone if not vectors; a stall raises EigensolverError(stalled, rho=rho).
    """
    import scipy.sparse.linalg as spla  # the fit and xsec layers need no ARPACK

    def op_inv(x):
        EIGENSOLVE_WORK["operator_applications"] += 1
        return solve(x)

    m = spla.LinearOperator((n, n), m_apply, dtype=float)
    try:
        return spla.eigsh(  # eigsh reads A (here M) for its shape alone
            m, k=min(k, n - 1), M=m, sigma=sigma, which="LM",
            OPinv=spla.LinearOperator((n, n), op_inv, dtype=float),
            maxiter=maxiter, return_eigenvectors=vectors,
            v0=np.random.default_rng(START_VECTOR_SEED).standard_normal(n),
        )
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(stalled, rho=rho, iterations=maxiter) from exc
