"""Stabilization driver: box-size scans, plateau detection, K sampling.

Scanning the Dirichlet box size alpha sweeps the discrete eigenvalues
Lambda_j(alpha) downward through the spectrum; near a resonance a branch
flattens into a plateau (avoided crossings with the box continuum), so the
values E = Lambda_j(alpha) sampled on a fixed alpha step pile up densely
around the resonance energy.  Evaluating K(E) at exactly those energies
gives the near-pole sampling the fit needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

# called as radial.<name>, so a function replaced on radial is the one run
from . import radial
from .errors import ValidationError
from .radial import RadialGrid, RadialProblem
from .samples import KSample

# extra tracked levels guarding the top of the reported window
N_BUFFER = 4


@dataclass(frozen=True)
class ScanConfig:
    """Box-scan window and detection knobs."""

    alpha_min: float
    alpha_max: float
    alpha_step: float
    n_levels: int = 12
    sigma: float | None = None  # eigensolver target; None = lowest levels
    max_samples: int = 400
    energy_window_halfwidth: float = 1.0  # multiples of gamma_est
    plateau_slope_fraction: float = 0.05
    e_min: float | None = None  # detection bounds; bound states (below the
    e_max: float | None = None  # lowest threshold) are not resonances

    def __post_init__(self):
        if not self.alpha_min < self.alpha_max:
            raise ValidationError("need alpha_min < alpha_max")
        if self.alpha_step <= 0:
            raise ValidationError("alpha_step must be positive")

    def alphas(self) -> np.ndarray:
        # the relative slack keeps alpha_max when roundoff puts the step
        # count just under an integer ((20.7 - 20.0) / 0.1 = 6.99...)
        steps = (self.alpha_max - self.alpha_min) / self.alpha_step
        n = int(math.floor(steps * (1.0 + 1e-9)))
        return self.alpha_min + self.alpha_step * np.arange(n + 1)


@dataclass(frozen=True)
class StabilizationSpectrum:
    """Continuity-tracked eigenvalue branches Lambda_j(alpha).

    levels[a, b] is branch b at alpha_grid[a]; swaps[a] counts the order vs
    max-overlap label disagreements at step a (avoided crossings traversed
    inside one alpha step).
    """

    alpha_grid: np.ndarray
    levels: np.ndarray
    swaps: np.ndarray | None = None

    @property
    def n_branches(self) -> int:
        return self.levels.shape[1]

    def monotone_defect(self) -> float:
        """Largest upward jump along any branch (<= 0 for monotone branches)."""
        diffs = np.diff(self.levels, axis=0)
        return float(np.nanmax(np.concatenate([diffs.ravel(), [-np.inf]])))


@dataclass(frozen=True)
class ResonanceWindow:
    """Plateau energy and the stabilization samples around it.

    gamma_est is the width estimate 2 |dLambda/dalpha| / q read off the
    residual plateau slope (a box level pinned to a resonance moves at the
    rate set by the resonance's phase derivative 2/Gamma).
    """

    e_center: float
    slope: float
    alpha_at: float
    energies: np.ndarray
    provenance: tuple = ()  # (alpha, branch) per energy
    gamma_est: float = float("nan")

    @property
    def n_samples(self) -> int:
        return self.energies.size


def scan_branches(
    problem: RadialProblem, config: ScanConfig, grid: RadialGrid
) -> StabilizationSpectrum:
    """Eigenvalue branches over the alpha window, overlap-tracked.

    All alphas share one master grid, which must reach alpha_max (so box
    spaces nest and branches are monotone; a window past its end raises
    ValidationError before the first box); consecutive eigenvector sets are
    matched by maximal overlap via linear assignment, never assigning two
    branches to one continuation.
    """
    alphas = config.alphas()
    grid.check_reach(alphas[-1])
    k = config.n_levels
    k_solve = k + N_BUFFER
    levels = np.full((alphas.size, k), np.nan)
    swaps = np.zeros(alphas.size, dtype=int)
    prev_vecs = None
    for ia, alpha in enumerate(alphas):
        vals, vecs = radial.stabilization_eigenvalues(
            problem, alpha, k_solve, grid=grid, sigma=config.sigma,
            return_vectors=True,
        )
        if prev_vecs is not None:
            # bijective max-overlap continuation of the k reported branches
            # among the k + buffer candidates; character swaps (avoided
            # crossings traversed within one alpha step) are logged, but the
            # labels keep the eigenvalue order, which the Dirichlet nesting
            # of the shared master grid makes monotone branch by branch
            m = min(prev_vecs.shape[0], vecs.shape[0])
            overlap = np.abs(prev_vecs[:m, :k].T @ vecs[:m])
            row, col = linear_sum_assignment(-overlap)
            assign = np.empty(k, dtype=int)
            assign[row] = col
            swaps[ia] = int(np.count_nonzero(assign != np.arange(k)))
        levels[ia] = vals[:k]
        prev_vecs = vecs[:, :k]
    return StabilizationSpectrum(alpha_grid=alphas, levels=levels, swaps=swaps)


def _plateau_candidates(spectrum: StabilizationSpectrum, config: ScanConfig):
    alphas = spectrum.alpha_grid
    if alphas.size < 10 or spectrum.n_branches < 2:
        raise ValidationError("need >= 10 alpha points and >= 2 branches")
    cands = []
    lo = -np.inf if config.e_min is None else config.e_min
    hi = np.inf if config.e_max is None else config.e_max
    all_slopes = np.abs(np.gradient(spectrum.levels, alphas, axis=0))
    spectrum_scale = float(np.nanmedian(all_slopes))
    for b in range(spectrum.n_branches):
        lam = spectrum.levels[:, b]
        if np.any(np.isnan(lam)):
            continue
        slope = np.gradient(lam, alphas)
        scale = np.median(np.abs(slope))
        if scale == 0.0:
            scale = np.abs(slope).max()
        mask = np.abs(slope) < config.plateau_slope_fraction * scale
        if not mask.any():
            continue
        # contiguous runs of flat points; keep the flattest point of each
        idx = np.nonzero(mask)[0]
        splits = np.nonzero(np.diff(idx) > 1)[0]
        for run in np.split(idx, splits + 1):
            best = run[np.argmin(np.abs(slope[run]))]
            if not lo < lam[best] < hi:
                continue
            # a plateau is a stationary dip of the slope magnitude: the
            # branch must dive in before it and dive out after it at box-like
            # rates; branches that merely keep flattening toward a channel
            # threshold never steepen again, and exactly flat branches
            # (bound states) never dive at all
            floor = max(3.0 * abs(slope[best]),
                        config.plateau_slope_fraction * spectrum_scale)
            dives_in = best > 0 and np.abs(slope[:best]).max() >= floor
            dives_out = (
                best < alphas.size - 1 and np.abs(slope[best + 1 :]).max() >= floor
            )
            if not (dives_in and dives_out):
                continue
            span = float(lam[run].max() - lam[run].min())
            cands.append(
                dict(
                    e_center=float(lam[best]),
                    slope=float(abs(slope[best])),
                    span=span,
                    alpha_at=float(alphas[best]),
                )
            )
    return cands


def detect_resonances(
    spectrum: StabilizationSpectrum,
    config: ScanConfig,
    thresholds=None,
) -> list[ResonanceWindow]:
    """All plateau signatures in the spectrum, one window per resonance.

    Plateaus on different branches within each other's run span are merged
    (the same resonance crossed by consecutive box branches).  The sampling
    window is e_center +- halfwidth * gamma_est, with gamma_est from the
    plateau slope when channel thresholds are known (else from the run
    span).  An empty list means no resonance was detected.
    """
    cands = _plateau_candidates(spectrum, config)
    cands.sort(key=lambda c: c["e_center"])
    merged: list[dict] = []
    for c in cands:
        if merged:
            prev = merged[-1]
            scale = 2.0 * max(c["span"], prev["span"]) + 1e-12 * abs(c["e_center"])
            if abs(c["e_center"] - prev["e_center"]) < scale:
                if c["slope"] < prev["slope"]:
                    merged[-1] = c
                continue
        merged.append(c)

    windows = []
    for c in merged:
        gamma_est = c["span"]
        if thresholds is not None:
            thr = np.asarray(thresholds, dtype=float)
            below = thr[thr < c["e_center"]]
            if below.size:
                q = math.sqrt(c["e_center"] - float(below.min()))
                gamma_est = 2.0 * c["slope"] / q
        half = config.energy_window_halfwidth * max(
            gamma_est, 0.5 * c["span"], 1e-14 * abs(c["e_center"])
        )
        sel = np.abs(spectrum.levels - c["e_center"]) <= half
        e_list, prov = [], []
        for ia, ib in zip(*np.nonzero(sel)):
            e_list.append(spectrum.levels[ia, ib])
            prov.append((float(spectrum.alpha_grid[ia]), int(ib)))
        order = np.argsort(e_list)
        energies = np.asarray(e_list)[order]
        prov = [prov[i] for i in order]
        if energies.size > config.max_samples:
            keep = np.unique(
                np.round(np.linspace(0, energies.size - 1, config.max_samples))
            ).astype(int)
            energies = energies[keep]
            prov = [prov[i] for i in keep]
        windows.append(
            ResonanceWindow(
                e_center=c["e_center"],
                slope=c["slope"],
                alpha_at=c["alpha_at"],
                energies=energies,
                provenance=tuple(prov),
                gamma_est=gamma_est,
            )
        )
    return windows


def sample_k(
    problem: RadialProblem,
    window: ResonanceWindow,
    grid: RadialGrid,
) -> list[KSample]:
    """K(E) at every window energy; duplicate energies removed.

    Energies are batched through one propagation sweep; each sample records
    its asymmetry defect and (alpha, branch) provenance.  A defect above
    radial.ASYMMETRY_LIMIT raises MatchingQualityError.
    """
    if window.n_samples == 0:
        raise ValidationError("empty resonance window")
    energies = window.energies
    prov = list(window.provenance)
    keep = [0]
    for i in range(1, energies.size):
        if energies[i] - energies[keep[-1]] > 1e-14 * max(1.0, abs(energies[i])):
            keep.append(i)
    energies = energies[keep]
    prov = [prov[i] for i in keep]
    # keep energies with exactly the two lowest channels open (the 2x2
    # sample contract); with ascending thresholds the open set is a prefix
    thr = np.asarray(problem.thresholds)
    n_open = (energies[:, None] > thr[None, :]).sum(axis=1)
    two_open = n_open == 2
    if not two_open.any():
        raise ValidationError(
            "no window energy has exactly two open channels; "
            "the sampled window does not fit the 2x2 contract"
        )
    energies = energies[two_open]
    prov = [p for p, ok in zip(prov, two_open) if ok]
    mats, defects = radial.extract_k(problem, energies, grid=grid)
    out = [
        KSample(
            energy=km.energy, k11=float(km.entries[0, 0]),
            k12=float(km.entries[0, 1]), k22=float(km.entries[1, 1]),
            defect=float(defect), alpha=alpha, branch=branch,
        )
        for km, defect, (alpha, branch) in zip(mats, defects, prov)
    ]
    out.sort(key=lambda s: s.energy)
    return out
