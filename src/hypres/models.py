"""Analytic test systems: a two-channel resonance model and box modes.

The two-channel toy has smooth diagonal wells (tanh-edged, so high-order
integrators keep their accuracy) and a localized Gaussian coupling; channel
2 carries a pocket behind a barrier that traps one narrow quasibound state
above both thresholds.  It exercises the whole pipeline without the
three-body machinery: its terms/couplings are expressible as plain tables
(diagonal eps_j plus an off-diagonal H), with no first-derivative coupling.

Importing this module loads numpy alone: the problems below load the
radial solver on first use, so a process that only writes the toy's
tables never imports it.  Neither model is a dataclass or a NamedTuple, so
that no method is generated and compiled at import: the toy is a plain
class whose parameters are class attributes, BoxMode a plain slotted class.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .radial import RadialProblem


class TwoChannelToy:
    """Two open channels, one pocket-behind-barrier resonance in channel 2.

    The parameters are constants: the oracle pole (E0, Gamma) that the
    tests and the benchmark check holds for these values alone.
    """

    threshold_2 = 0.5
    depth_1 = 0.6
    pocket_depth = 4.0
    barrier_height = 9.5
    barrier_center = 3.6
    barrier_width = 1.0
    pocket_center = 1.7
    pocket_width = 1.0
    coupling = 0.10
    coupling_center = 2.0
    coupling_width = 0.8
    rho_start = 1e-3
    rho_match = 28.0
    n_rho = 1200  # points of the tables

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([0.0, self.threshold_2])

    def eps(self, rho):
        rho = np.asarray(rho, dtype=float)
        v11 = -self.depth_1 * np.exp(-((rho - 1.8) / 1.2) ** 2)
        v22 = (
            self.threshold_2
            - self.pocket_depth
            * np.exp(-(((rho - self.pocket_center) / self.pocket_width) ** 2))
            + self.barrier_height
            * np.exp(-(((rho - self.barrier_center) / self.barrier_width) ** 2))
        )
        return np.stack([v11, v22], axis=-1)

    def h_mat(self, rho):
        rho = np.asarray(rho, dtype=float)
        z = np.zeros(np.shape(rho))
        v = self.coupling * np.exp(
            -(((rho - self.coupling_center) / self.coupling_width) ** 2)
        )
        return np.stack(
            [np.stack([z, v], axis=-1), np.stack([v, z], axis=-1)], axis=-2
        )

    def problem(self) -> RadialProblem:
        from .radial import RadialProblem
        return RadialProblem(
            thresholds=self.thresholds,
            eps=self.eps,
            h_mat=self.h_mat,
            rho_start=self.rho_start,
            rho_match=self.rho_match,
            include_rho_term=False,
        )

    def tables(self):
        """Terms/couplings tables on a dense rho grid (file-contract form)."""
        rho = np.linspace(self.rho_start, self.rho_match, self.n_rho)
        eps = self.eps(rho)
        h = np.array([self.h_mat(r) for r in rho])
        q = np.zeros_like(h)
        return rho, eps, h, q


class BoxMode:
    """Uncoupled constant channel, no barrier term: exact box spectrum."""

    __slots__ = ("offset", "rho_start", "rho_match")

    def __init__(self, offset: float = 0.0, rho_start: float = 1.0,
                 rho_match: float = 40.0):
        self.offset, self.rho_start, self.rho_match = offset, rho_start, rho_match

    def problem(self) -> RadialProblem:
        from .radial import RadialProblem
        c = self.offset

        def eps(rho):
            return np.full(np.shape(rho) + (1,), c)

        return RadialProblem(
            thresholds=np.array([c]),
            eps=eps,
            rho_start=self.rho_start,
            rho_match=self.rho_match,
            include_rho_term=False,
        )

    def exact_levels(self, alpha: float, n: int) -> np.ndarray:
        width = alpha - self.rho_start
        return self.offset + (np.arange(1, n + 1) * math.pi / width) ** 2


def coupled_wells(n_channels: int = 4) -> RadialProblem:
    """Hierarchically coupled smooth wells for truncation-convergence checks.

    Channel couplings fall off geometrically, so retaining more channels
    changes K by a decreasing sequence.
    """
    from .radial import RadialProblem
    thresholds = np.array([0.0, 0.4, 2.5, 4.0])[:n_channels]
    depths = np.array([0.8, 1.1, 0.9, 0.7])[:n_channels]

    def eps(rho):
        rho_arr = np.asarray(rho, dtype=float)
        base = thresholds - depths * np.exp(
            -(((rho_arr[..., None] - 2.0) / 1.3) ** 2)
        )
        return base

    def h_mat(rho):
        shape = np.shape(rho)
        g = np.exp(-(((np.asarray(rho) - 2.2) / 0.9) ** 2))
        h = np.zeros(shape + (n_channels, n_channels))
        for i in range(n_channels):
            for j in range(i + 1, n_channels):
                h[..., i, j] = h[..., j, i] = 0.35 * 0.22 ** (j - 1) * g
        return h

    return RadialProblem(
        thresholds=thresholds,
        eps=eps,
        h_mat=h_mat,
        rho_start=1e-3,
        rho_match=24.0,
        include_rho_term=False,
    )
