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
    """Box-scan window, level count and sampling half-width (every float
    finite, n_levels >= 2, halfwidth > 0); the detection floor is set by the
    thresholds, and the sample cap and the peak rule are the constants
    MAX_SAMPLES, PEAK_RUN and PEAK_DENSITY."""

    alpha_min: float
    alpha_max: float
    alpha_step: float
    n_levels: int
    halfwidth: float  # multiples of gamma_est
    sigma: float | None = None  # eigensolver target; None = lowest levels

    def __post_init__(self):
        for name in ("alpha_min", "alpha_max", "alpha_step", "halfwidth", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name}={value!r} must be finite")
        if not self.alpha_min < self.alpha_max:
            raise ValidationError("need alpha_min < alpha_max")
        if self.alpha_step <= 0:
            raise ValidationError("alpha_step must be positive")
        if self.n_levels < 2:
            raise ValidationError(
                f"n_levels={self.n_levels!r}: need at least 2 levels per box")
        if self.halfwidth <= 0:
            raise ValidationError(f"halfwidth={self.halfwidth!r} must be positive")

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
    at the rate set by the resonance's phase derivative 2/Gamma).  rows is
    an (n, 3) float array of (E, alpha, branch), one row per box level in
    the window, ascending in E: the level's energy, its box size and its
    branch index.
    """

    e_center: float
    slope: float
    alpha_at: float
    rows: np.ndarray
    gamma_est: float

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]


def scan_branches(
    problem: RadialProblem, config: ScanConfig, grid: RadialGrid
) -> StabilizationSpectrum:
    """Eigenvalue branches over the alpha window, labelled in eigenvalue order.

    All alphas share one master grid, which must reach alpha_max (so box
    spaces nest and, without sigma, branches are monotone; a window past its
    end, or a first box with no more pencil rows than n_levels, raises
    ValidationError before the first box).  Branch b is the b-th lowest
    solved level at each alpha, so no eigenvectors are computed.
    """
    alphas = config.alphas()
    grid.check_reach(alphas[-1])
    k = config.n_levels
    rows = max(grid.index_of(alphas[0]) - 1, 0) * grid.w_samples.shape[1]
    if rows <= k:
        raise ValidationError(
            f"alpha_min={float(alphas[0])!r} gives a box of {rows} pencil rows; "
            f"n_levels={k} needs more than {k}")
    levels = [radial.stabilization_eigenvalues(
        problem, alpha, k + N_BUFFER, grid=grid, sigma=config.sigma)[:k]
        for alpha in alphas]
    return StabilizationSpectrum(alpha_grid=alphas, levels=np.array(levels))


def detect_resonances(
    spectrum: StabilizationSpectrum,
    config: ScanConfig,
    thresholds,
) -> list[ResonanceWindow]:
    """One window per peak of the stabilization level density, most
    pronounced (densest) peak first; an empty list means no resonance.

    The levels above the detection floor, the second-lowest threshold +
    1e-9 (where the 2x2 sample contract of `sample_k` starts; the lowest
    one when there is only one), are pooled and sorted, with no branch
    labels.  A peak is a maximal stretch of them in which every PEAK_RUN +
    1 consecutive levels span at most 1 / PEAK_DENSITY of the median such
    span; its density is that median over the stretch's smallest span.  The
    peak's centre is its flattest level whose |dLambda/dalpha| is a strict
    local minimum along its label; a peak with no such level is dropped.
    The window's rows are the (E, alpha, branch) of every level within
    e_center +- halfwidth * gamma_est, with gamma_est = 2 |slope| / q and
    q = sqrt(e_center - lowest threshold), ascending in E and thinned
    evenly to at most MAX_SAMPLES.
    """
    thr = np.sort(np.asarray(thresholds, dtype=float))
    floor = float(thr[min(1, thr.size - 1)]) + 1e-9
    alphas, levels = spectrum.alpha_grid, spectrum.levels
    if alphas.size < 10 or spectrum.n_branches < 2:
        raise ValidationError("need >= 10 alpha points and >= 2 branches")
    slope = np.abs(np.gradient(levels, alphas, axis=0))
    # strict local minima of |dLambda/dalpha| along each label: a branch
    # flattening toward a threshold or the scan's end has none, and neither
    # has an exactly flat level; NaN levels compare False throughout
    stationary = np.zeros(levels.shape, dtype=bool)
    stationary[1:-1] = (slope[1:-1] < slope[:-2]) & (slope[1:-1] < slope[2:])
    slope, stationary = slope.ravel(), stationary.ravel()
    pooled = np.flatnonzero(levels > floor)
    pooled = pooled[np.argsort(levels.ravel()[pooled], kind="stable")]
    energies = levels.ravel()[pooled]
    if energies.size <= PEAK_RUN:
        return []
    spans = energies[PEAK_RUN:] - energies[:-PEAK_RUN]
    median = float(np.median(spans))
    edges = np.diff(np.concatenate(([0], spans <= median / PEAK_DENSITY, [0])))
    found = []  # (density, window) per peak, ascending in energy
    for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        members = pooled[i : j + PEAK_RUN]
        centres = members[stationary[members]]
        if not centres.size:
            continue
        best = centres[np.argmin(slope[centres])]
        e_center = float(levels.flat[best])
        gamma_est = 2.0 * float(slope[best]) / math.sqrt(e_center - float(thr[0]))
        half = config.halfwidth * max(gamma_est, 1e-14 * abs(e_center))
        ia, ib = np.nonzero(np.abs(levels - e_center) <= half)
        rows = np.column_stack([levels[ia, ib], alphas[ia], ib])
        rows = rows[np.argsort(rows[:, 0])]
        if len(rows) > MAX_SAMPLES:
            rows = rows[np.unique(
                np.round(np.linspace(0, len(rows) - 1, MAX_SAMPLES))).astype(int)]
        smallest = float(spans[i:j].min())
        found.append((
            median / smallest if smallest > 0.0 else math.inf,
            ResonanceWindow(
                e_center=e_center,
                slope=float(slope[best]),
                alpha_at=float(alphas[best // spectrum.n_branches]),
                rows=rows,
                gamma_est=gamma_est,
            ),
        ))
    # stable: peaks of equal density stay in ascending energy
    found.sort(key=lambda f: -f[0])
    return [window for _, window in found]


def sample_k(
    problem: RadialProblem,
    window: ResonanceWindow,
    grid: RadialGrid,
) -> np.ndarray:
    """K(E) at the window's energies: the (n, 7) rows E K11 K12 K22 defect
    alpha branch of `ksamples_v.dat`, one per window row kept, ascending.

    A row whose energy lies within 1e-14 (relative, absolute below 1) of
    the last kept row's is dropped, and so is a row that does not have
    exactly the two lowest channels open (the 2x2 sample contract); none
    left is a ValidationError.  The kept energies are batched through one
    propagation sweep; each sample records its asymmetry defect and its
    row's alpha and branch.  A defect above radial.ASYMMETRY_LIMIT raises
    MatchingQualityError.
    """
    if window.n_samples == 0:
        raise ValidationError("empty resonance window")
    rows = window.rows
    keep = [0]
    for i in range(1, len(rows)):
        if rows[i, 0] - rows[keep[-1], 0] > 1e-14 * max(1.0, abs(rows[i, 0])):
            keep.append(i)
    rows = rows[keep]
    # with ascending thresholds the open set is a prefix
    thr = np.asarray(problem.thresholds)
    two_open = (rows[:, :1] > thr[None, :]).sum(axis=1) == 2
    if not two_open.any():
        raise ValidationError(
            "no window energy has exactly two open channels; "
            "the sampled window does not fit the 2x2 contract"
        )
    rows = rows[two_open]
    mats, defects = radial.extract_k(problem, rows[:, 0], grid=grid)
    k = np.array([km.entries for km in mats])
    return np.column_stack(
        [rows[:, 0], k[:, 0, 0], k[:, 0, 1], k[:, 1, 1], defects, rows[:, 1:]])
