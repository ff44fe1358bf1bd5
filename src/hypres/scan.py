"""Stabilization driver: box-size scans, level-density peaks, K sampling.

Scanning the Dirichlet box size alpha sweeps the discrete eigenvalues
Lambda_j(alpha) downward through the spectrum; near a resonance a level
flattens into a plateau (avoided crossings with the box continuum), so the
values E = Lambda_j(alpha) sampled on a fixed alpha step pile up densely
around the resonance energy.  On a uniform alpha grid the pooled levels
sample the stabilization density of states rho(E) = sum_n |dalpha/dE_n|
(Mandelshtam, Ravuri & Taylor, Phys. Rev. Lett. 70, 1932 (1993)), so a
resonance is a peak of the sorted levels, found without branch labels.
Boxes are solved for eigenvalues only; branch b is the b-th lowest level at
every alpha.  Evaluating K(E) at exactly those energies gives the near-pole
sampling the fit needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# called as radial.<name>, so a function replaced on radial is the one run
from . import radial
from .errors import ValidationError
from .radial import RadialGrid, RadialProblem
from .samples import KSample

# extra solved levels guarding the top of the reported window
N_BUFFER = 4
# a window keeps at most this many energies, evenly spread over its levels
MAX_SAMPLES = 400
# a density peak: every PEAK_RUN + 1 consecutive pooled levels span at most
# 1 / PEAK_DENSITY of the median such span
PEAK_RUN = 6
PEAK_DENSITY = 10.0


@dataclass(frozen=True)
class ScanConfig:
    """Box-scan window and detection bounds; the sample cap and the peak
    rule are the constants MAX_SAMPLES, PEAK_RUN and PEAK_DENSITY."""

    alpha_min: float
    alpha_max: float
    alpha_step: float
    n_levels: int = 12
    sigma: float | None = None  # eigensolver target; None = lowest levels
    energy_window_halfwidth: float = 1.0  # multiples of gamma_est
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
    """Eigenvalue branches Lambda_j(alpha), labelled in eigenvalue order.

    levels[a, b] is branch b at alpha_grid[a].
    """

    alpha_grid: np.ndarray
    levels: np.ndarray

    @property
    def n_branches(self) -> int:
        return self.levels.shape[1]

    @property
    def swaps(self) -> np.ndarray:
        """Zeros: branch swaps are no longer tracked; kept for the benchmark
        tracer until it reads stage run records (ROADMAP item 4)."""
        return np.zeros(self.alpha_grid.size, dtype=int)

    def monotone_defect(self) -> float:
        """Largest upward jump along any branch (<= 0 for monotone branches)."""
        diffs = np.diff(self.levels, axis=0)
        return float(np.nanmax(np.concatenate([diffs.ravel(), [-np.inf]])))


@dataclass(frozen=True)
class ResonanceWindow:
    """A level-density peak's centre and the stabilization samples around it.

    e_center is the peak's flattest level, slope its |dLambda/dalpha| and
    alpha_at its box size.  gamma_est is the width estimate 2 slope / q read
    off that residual plateau slope (a box level pinned to a resonance moves
    at the rate set by the resonance's phase derivative 2/Gamma).
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
    """Eigenvalue branches over the alpha window, labelled in eigenvalue order.

    All alphas share one master grid, which must reach alpha_max (so box
    spaces nest and, without sigma, branches are monotone; a window past its
    end raises ValidationError before the first box).  Branch b is the b-th
    lowest solved level at each alpha, so no eigenvectors are computed.
    """
    alphas = config.alphas()
    grid.check_reach(alphas[-1])
    k = config.n_levels
    levels = [radial.stabilization_eigenvalues(
        problem, alpha, k + N_BUFFER, grid=grid, sigma=config.sigma)[:k]
        for alpha in alphas]
    return StabilizationSpectrum(alpha_grid=alphas, levels=np.array(levels))


def _peaks(spectrum: StabilizationSpectrum, config: ScanConfig) -> list[dict]:
    """Peaks of the pooled level density, most pronounced first."""
    alphas, levels = spectrum.alpha_grid, spectrum.levels
    if alphas.size < 10 or spectrum.n_branches < 2:
        raise ValidationError("need >= 10 alpha points and >= 2 branches")
    lo = -np.inf if config.e_min is None else config.e_min
    hi = np.inf if config.e_max is None else config.e_max
    slope = np.abs(np.gradient(levels, alphas, axis=0))
    # strict local minima of |dLambda/dalpha| along each label: a branch
    # flattening toward a threshold or the scan's end has none, and neither
    # has an exactly flat level; NaN levels compare False throughout
    stationary = np.zeros(levels.shape, dtype=bool)
    stationary[1:-1] = (slope[1:-1] < slope[:-2]) & (slope[1:-1] < slope[2:])
    slope, stationary = slope.ravel(), stationary.ravel()
    pooled = np.flatnonzero((levels > lo) & (levels < hi))
    pooled = pooled[np.argsort(levels.ravel()[pooled], kind="stable")]
    energies = levels.ravel()[pooled]
    if energies.size <= PEAK_RUN:
        return []
    spans = energies[PEAK_RUN:] - energies[:-PEAK_RUN]
    median = float(np.median(spans))
    edges = np.diff(np.concatenate(([0], spans <= median / PEAK_DENSITY, [0])))
    peaks = []
    for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        members = pooled[i : j + PEAK_RUN]
        centres = members[stationary[members]]
        if not centres.size:
            continue
        best = centres[np.argmin(slope[centres])]
        smallest = float(spans[i:j].min())
        peaks.append(dict(
            e_center=float(levels.flat[best]),
            slope=float(slope[best]),
            span=float(energies[j + PEAK_RUN - 1] - energies[i]),
            alpha_at=float(alphas[best // spectrum.n_branches]),
            density=median / smallest if smallest > 0.0 else math.inf,
        ))
    # stable: peaks of equal density stay in ascending energy
    peaks.sort(key=lambda p: -p["density"])
    return peaks


def detect_resonances(
    spectrum: StabilizationSpectrum,
    config: ScanConfig,
    thresholds=None,
) -> list[ResonanceWindow]:
    """One window per peak of the stabilization level density, most
    pronounced (densest) peak first; an empty list means no resonance.

    All levels in (e_min, e_max) are pooled and sorted, with no branch
    labels.  A peak is a maximal stretch of them in which every PEAK_RUN + 1
    consecutive levels span at most 1 / PEAK_DENSITY of the median such
    span; its density is that median over the stretch's smallest span.  The
    peak's centre is its flattest level whose |dLambda/dalpha| is a strict
    local minimum along its label; a peak with no such level is dropped.
    The sampling window is e_center +- halfwidth * gamma_est, with
    gamma_est = 2 |slope| / q when channel thresholds are known (else the
    stretch's energy span).
    """
    windows = []
    for c in _peaks(spectrum, config):
        gamma_est = c["span"]
        if thresholds is not None:
            thr = np.asarray(thresholds, dtype=float)
            below = thr[thr < c["e_center"]]
            if below.size:
                q = math.sqrt(c["e_center"] - float(below.min()))
                gamma_est = 2.0 * c["slope"] / q
        half = config.energy_window_halfwidth * max(
            gamma_est, 1e-14 * abs(c["e_center"]))
        sel = np.abs(spectrum.levels - c["e_center"]) <= half
        e_list, prov = [], []
        for ia, ib in zip(*np.nonzero(sel)):
            e_list.append(spectrum.levels[ia, ib])
            prov.append((float(spectrum.alpha_grid[ia]), int(ib)))
        order = np.argsort(e_list)
        energies = np.asarray(e_list)[order]
        prov = [prov[i] for i in order]
        if energies.size > MAX_SAMPLES:
            keep = np.unique(
                np.round(np.linspace(0, energies.size - 1, MAX_SAMPLES))
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
