"""Coupled radial equations: scattering K-matrices and box eigenvalues.

The truncated N-channel radial system

    [-d2/drho2 + eps_j(rho) - E + 15/(4 rho^2)] f_j
      + sum_j' [H_jj' f_j' + Q_jj' f_j'' + d/drho (Q_jj' f_j')] = 0

is brought to symmetric Schroedinger form u'' = (W(rho) - E) u by the
orthogonal gauge S' = Q S, f = S u, which folds the antisymmetric
first-derivative coupling into the propagation matrix

    W = S^T [diag(eps) + H + Q^2 + 15/(4 rho^2)] S.

Both solvers share one discretization: a symmetric Numerov-quality
three-point pencil A0 u = E A1 u on a piecewise-uniform grid (steps halve
toward small rho, with the low-order join rows confined to the classically
forbidden region).  The pencil is block-tridiagonal (bandwidth 2N - 1) and
is never kept: the grid holds W, and each solve writes the rows it needs
from W straight into its own LAPACK band workspace, which LAPACK's banded
LU factors in place; no sparse (SuperLU) factor is built here or in the
adiabatic layer, which factors its pair as a band Cholesky.
The scattering solve takes the matrix ratio P = u_M u_{M-1}^{-1} at the
match point from a Dirichlet solve of the interior rows with u_0 = 0 and
u_M = I, so P = u_{M-1}^{-1}; the rows are eliminated in fixed chunks that
hand the ratio on (the ratio recursion of Johnson's renormalized Numerov
method, J. Chem. Phys. 69, 4678 (1978)), which keeps the workspace flat on
long grids.  K is
matched to the pencil's own free waves on the uniform tail.  There a
channel of threshold E_j carries the discrete wavenumber theta_j / h,
cos(theta_j) = -d_j / (2 g_j) with g_j, d_j the bond and diagonal entries
of the pencil at E, so

    f_j ~ delta_ij sin(theta_j rho/h) + (F_i/F_j)^(1/2) K_ij cos(theta_j rho/h),

with the discrete flux F_j = -g_j sin(theta_j) (the conserved Wronskian of
the pencil, -> q_j as h -> 0) and discrete decaying exponentials in closed
channels.  Matching to exact solutions of the same recursion makes K
symmetric to roundoff once the couplings have died out, instead of only to
the O(h^2) mismatch between continuum and discrete waves.  The auxiliary box
problem takes only the pencil's eigenvalues, with Dirichlet ends: every box
is a leading block of the pencil, written and factored once per box for
`algebra.shift_invert_eigsh`; a Krylov subspace larger than its default only
adds O(n ncv^2) reorthogonalization per restart and two larger work arrays.
Sharing the stencil keeps the box spectrum and the K(E) pole structure
consistent far below the discretization error of either alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack

from .algebra import KMatrix, shift_invert_eigsh
from .errors import (
    ClosedChannelError,
    EigensolverError,
    MatchingQualityError,
    MatrixInversionError,
    NoOpenChannelError,
    ValidationError,
)

THRESHOLD_GUARD = 1e-12
ASYMMETRY_LIMIT = 1e-4
# pencil rows per banded solve in propagate_ratio: bounds its workspace
CHUNK_ROWS = 256
# build_grid's step target: points per local wavelength of the stiffest channel
POINTS_PER_WAVE = 40.0
# build_grid's bound on (rho_end - rho_start) / h_max: 100 times criterion 6
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class RadialProblem:
    """Channel potentials/couplings and boundary data for the radial system.

    eps, h_mat, q_mat are callables of rho returning (N,), (N,N), (N,N)
    arrays, and (M, N), (M, N, N), (M, N, N) for an array of M points;
    thresholds are the asymptotic channel energies used in the matching,
    one per channel.  include_rho_term toggles the universal 15/(4 rho^2)
    barrier (off in flat test modes).  A given q_mat turns on the gauge
    rotation of build_grid, whatever its support.
    """

    thresholds: np.ndarray
    eps: object
    rho_start: float
    rho_match: float
    h_mat: object = None
    q_mat: object = None
    include_rho_term: bool = True

    def __post_init__(self):
        if self.rho_start <= 0 or self.rho_match <= self.rho_start:
            raise ValidationError("need 0 < rho_start < rho_match")
        object.__setattr__(
            self, "thresholds", np.asarray(self.thresholds, dtype=float)
        )

    @property
    def n_channels(self) -> int:
        return self.thresholds.size

    @classmethod
    def from_tables(
        cls,
        rho_table,
        eps_table,
        h_table=None,
        q_table=None,
        rho_start=None,
        rho_match=None,
        include_rho_term=True,
    ) -> "RadialProblem":
        """Build from per-rho tables (the coupling-file contract).

        Tables are interpolated by cubic splines and every table channel is
        kept; the thresholds are the term values at the last table point.
        This is the one home of that convention: the scan and the sample
        stage take the thresholds of the problem built here.  rho_start and
        rho_match default to the table's ends and must lie within them
        (a spline is never extrapolated: ValidationError).  An all-zero Q
        table (the toy's) gives no q_mat, so the problem has no gauge
        rotation.
        """
        rho_table = np.asarray(rho_table, dtype=float)
        eps_table = np.asarray(eps_table, dtype=float)
        lo, hi = float(rho_table[0]), float(rho_table[-1])
        rho_start = lo if rho_start is None else float(rho_start)
        rho_match = hi if rho_match is None else float(rho_match)
        if not (lo <= rho_start and rho_match <= hi):
            raise ValidationError(
                f"radial range [{rho_start!r}, {rho_match!r}] leaves the "
                f"coupling table's [{lo!r}, {hi!r}]"
            )
        eps_sp = CubicSpline(rho_table, eps_table, axis=0)
        h_sp = q_sp = None
        if h_table is not None:
            h_sp = CubicSpline(rho_table, np.asarray(h_table), axis=0)
        if q_table is not None and np.any(q_table):
            q_sp = CubicSpline(rho_table, np.asarray(q_table), axis=0)
        return cls(
            thresholds=eps_table[-1],
            eps=eps_sp,
            h_mat=h_sp,
            q_mat=q_sp,
            rho_start=rho_start,
            rho_match=rho_match,
            include_rho_term=include_rho_term,
        )

    def w_bare(self, rho) -> np.ndarray:
        """diag(eps) + H + Q^2 (+ barrier term), before the gauge rotation;
        (N, N) at a scalar rho, (M, N, N) at a 1-d array of M points.

        H, Q^2 and the barrier b I are added in this order, in place, into
        one diag(eps) buffer, which is symmetrized in place (_symmetrize),
        with the bytes of a new array per sum."""
        rho = np.asarray(rho, dtype=float)
        n = self.n_channels
        eps = np.asarray(self.eps(rho), dtype=float)
        w = np.zeros(eps.shape + (n,))
        w[..., np.arange(n), np.arange(n)] = eps
        if self.h_mat is not None:
            w += np.asarray(self.h_mat(rho), dtype=float)
        if self.q_mat is not None:
            q = np.asarray(self.q_mat(rho), dtype=float)
            w += q @ q
        if self.include_rho_term:
            w += (15.0 / (4.0 * rho * rho))[..., None, None] * np.eye(n)
        return _symmetrize(w)

    def has_gauge(self) -> bool:
        return self.q_mat is not None


def _symmetrize(w: np.ndarray) -> np.ndarray:
    """w <- (w + w^T) / 2 in place over its last two axes, one channel pair
    (r, c), r <= c, at a time: t = (w_rc + w_cr) 0.5 is written into both
    triangles, so no second W-sized array (nor numpy's iterator buffer for
    a transposed operand) is made; returns w."""
    n = w.shape[-1]
    for r in range(n):
        for c in range(r, n):
            t = w[..., r, c] + w[..., c, r]
            t *= 0.5
            w[..., r, c] = w[..., c, r] = t
    return w


@dataclass
class RadialGrid:
    """Piecewise-uniform master grid with W samples.

    points includes both ends; bond k connects points k and k+1.  The grid
    keeps only its points, steps, join marks, W and the gauge S at its last
    two points (the match, see _references); the pencil's rows are written
    from them by each solve (_write_a0), never kept.  W is symmetric bit for
    bit (build_grid symmetrizes it), which the row writer relies on.
    """

    points: np.ndarray
    bond_h: np.ndarray  # (n_pts - 1,)
    join_bond: np.ndarray  # bool (n_pts - 1,)
    w_samples: np.ndarray  # (n_pts, N, N) gauge-rotated W(rho)
    gauge: np.ndarray | None  # (2, N, N): S at the last two points, or None

    @property
    def n_points(self) -> int:
        return self.points.size

    def index_of(self, rho: float) -> int:
        return int(np.argmin(np.abs(self.points - rho)))

    def check_reach(self, alpha: float) -> None:
        """Refuse a box more than half a bond past the last point."""
        if alpha > self.points[-1] + 0.5 * self.bond_h[-1]:
            raise ValidationError(
                f"alpha={float(alpha)!r} past the grid's end at {self.points[-1]:.17g}"
            )


def _gauge_path(problem: RadialProblem, points: np.ndarray) -> np.ndarray:
    """Orthogonal gauge S(rho) with S' = Q S, midpoint-exponential steps:
    exp(a), a = h A with A the antisymmetric part of Q at the bond's
    midpoint, is cos(sqrt M) + sinc(sqrt M) a, M = a^T a, in real arithmetic
    from one batched SVD a = U diag(s) V^T as (V diag(cos s) + U diag(sin s))
    V^T (I where Q vanishes).  Unlike an eigh of M, the SVD keeps small
    rotation rates beside a huge one, and one Newton-Schulz step
    R (3 I - R^T R) / 2 keeps such a step orthogonal at roundoff.  2401
    points of 4 channels peak (tracemalloc) at 6.5 times the returned bytes."""
    h = np.diff(points)
    q = np.asarray(problem.q_mat(points[:-1] + 0.5 * h), dtype=float)
    u, sig, vt = np.linalg.svd(h[:, None, None] * (0.5 * (q - np.swapaxes(q, 1, 2))))
    steps = (np.swapaxes(vt, 1, 2) * np.cos(sig)[:, None, :]
             + u * np.sin(sig)[:, None, :]) @ vt
    eye = np.eye(problem.n_channels)
    steps = steps @ (1.5 * eye - 0.5 * np.swapaxes(steps, 1, 2) @ steps)
    out = np.empty((points.size,) + eye.shape)
    s = out[0] = eye
    for k, step in enumerate(steps, start=1):
        s = out[k] = step @ s
    return out


def build_grid(
    problem: RadialProblem,
    rho_end: float | None = None,
    *,
    h_max: float,
) -> RadialGrid:
    """Adapted-step master grid on [rho_start, rho_end], steps at most h_max.

    h halves wherever the local wavenumber asks: the step targets
    POINTS_PER_WAVE points per local wavelength of the stiffest channel,
    measured from one unit above the highest threshold.  Joins land in the
    strongly repulsive small-rho region.  Each step size runs on until the
    requirement allows doubling it, tested along the probe chain
    p -> 1.3 p + h from the step's start; the chain is fixed by its start
    and h, so all its points are tested in one batch.  h_max must be finite
    and positive, rho_end finite, past rho_start and at most MAX_GRID_POINTS
    steps h_max away (ValidationError, before anything is allocated).
    """
    rho_end = problem.rho_match if rho_end is None else float(rho_end)
    # the probe chain below only ends for h > 0 and a finite rho_end
    if not 0.0 < h_max < math.inf:
        raise ValidationError(f"need 0 < h_max < inf, got h_max={h_max!r}")
    if not problem.rho_start < rho_end < math.inf:
        raise ValidationError(
            f"need rho_start < rho_end < inf, got rho_start="
            f"{problem.rho_start!r}, rho_end={rho_end!r}")
    if (rho_end - problem.rho_start) / h_max > MAX_GRID_POINTS:
        raise ValidationError(f"h_max={h_max!r} gives more than {MAX_GRID_POINTS}"
                              f" grid points on [{problem.rho_start!r}, {rho_end!r}]")
    e_ref = float(np.max(problem.thresholds)) + 1.0

    def h_required(rho):
        """The step each point of the 1-d array rho asks for."""
        w = problem.w_bare(rho)
        kap_sq = np.max(np.abs(np.linalg.eigvalsh(w) - e_ref), axis=-1)
        kap = np.sqrt(np.maximum(kap_sq, 1e-12))
        return np.minimum(h_max, 2.0 * math.pi / (POINTS_PER_WAVE * kap))

    pieces = []
    rho = problem.rho_start
    h = h_max
    h_start = h_required(np.array([rho]))[0]
    while h_start < h:
        h *= 0.5
    while rho < rho_end - 1e-12:
        # extend with step h up to the chain point before the first whose
        # requirement allows doubling (past rho_end, tested at rho_end)
        chain = [rho]
        while chain[-1] < rho_end:
            chain.append(chain[-1] * 1.3 + h)
        keep = h_required(np.minimum(chain[1:], rho_end)) < 2.0 * h
        probe = chain[-1] if keep.all() else chain[int(np.argmin(keep))]
        limit = min(probe, rho_end)
        n_steps = max(1, int(math.ceil((limit - rho) / h)))
        if rho + n_steps * h > rho_end:
            n_steps = max(1, int(math.ceil((rho_end - rho) / h)))
            h_seg = (rho_end - rho) / n_steps
        else:
            h_seg = h
        seg = rho + h_seg * np.arange(1, n_steps + 1)
        pieces.append(seg)
        rho = seg[-1]
        h = min(2.0 * h, h_max)
    points = np.concatenate([[problem.rho_start]] + pieces)
    bond_h = np.diff(points)
    # both bonds beside a step change are joins (math.isclose's symmetric test)
    left, right = bond_h[:-1], bond_h[1:]
    step = np.abs(right - left) > 1e-9 * np.maximum(np.abs(left), np.abs(right))
    join_bond = np.zeros(bond_h.size, dtype=bool)
    join_bond[:-1] |= step
    join_bond[1:] |= step

    w = problem.w_bare(points)  # already symmetric
    ends = None
    if problem.has_gauge():
        # the rotation can break exact symmetry: S^T W S goes back into w
        # and is symmetrized there; only the match's two ends of the path
        # are kept (a copy, so the path itself is freed)
        gauge = _gauge_path(problem, points)
        np.matmul(np.matmul(np.swapaxes(gauge, 1, 2), w), gauge, out=w)
        _symmetrize(w)
        ends = gauge[-2:].copy()
    return RadialGrid(
        points=points, bond_h=bond_h, join_bond=join_bond,
        w_samples=w, gauge=ends,
    )


def _a1_weights(grid: RadialGrid, last: int):
    """(inv_h, d1) of the rows of the points 1..last-1 and g1 of the bonds
    1..last-1, each a vector over them (last < n_points).

    Bond k (between points k and k+1, step h):
        numerov: g0 = -I/h + h (W_k + W_{k+1}) / 24,   g1 = h/12
        join:    g0 = -I/h,                            g1 = 0
    Diagonal row k (left step hl, right step hr, hbar = (hl + hr) / 2):
        numerov: d0 = inv_h I + hbar (10/12) W_k,  d1 = hbar 10/12
        join:    d0 = inv_h I + hbar W_k,          d1 = hbar
    with inv_h = 1/hl + 1/hr, so each row approximates
    hbar (-u'' + W u - E u) = 0.  A row is plain (join) when either of its
    bonds is.  A1 is d1 I and g1 I blocks, so its users repeat d1 and g1
    over the N channels of a row (a broadcast over an inner axis of N takes
    numpy's buffered path, which is slower).
    """
    h, join = grid.bond_h, grid.join_bond
    hl, hr = h[:last - 1], h[1:last]
    plain = join[:last - 1] | join[1:last]
    d1 = 0.5 * (hl + hr) * np.where(plain, 1.0, 10.0 / 12.0)
    inv_h = 1.0 / hl + 1.0 / hr
    g1 = np.where(join[1:last], 0.0, hr / 12.0)
    return inv_h, d1, g1


def _blocks(ab: np.ndarray, n_ch: int, q: int, start: int, stop: int) -> np.ndarray:
    """Writable (stop - start, N, N) view of the Fortran band workspace ab
    whose [p, r, c] is A[(p + q) N + r, p N + c] over the column points
    start..stop-1 (stop > start): the diagonal blocks for q = 0, the blocks
    above them for q = -1 and below them for q = 1.  A[i, j] lies at
    ab[2 kl + i - j, j], so p, r and c step by fixed strides; numpy checks
    that they stay inside ab.  Only copy into it: numpy cannot prove that
    such a view does not overlap itself, so arithmetic in place on it goes
    through a hidden copy of its size."""
    s0, s1 = ab.strides
    kl = 2 * n_ch - 1
    return np.ndarray((stop - start, n_ch, n_ch), ab.dtype, ab.T,
                      (2 * kl + q * n_ch) * s0 + start * n_ch * s1,
                      (n_ch * s1, s0, s1 - s0))


def _bond_blocks(grid: RadialGrid, bonds) -> np.ndarray:
    """A0's blocks g0 of the bonds k of `bonds` (a slice or an index
    array), rows of point k over columns of point k + 1, (bonds, N, N).
    -I/h + x is x - 1/h on the diagonal and x off it, bit for bit."""
    w = grid.w_samples
    h = grid.bond_h[bonds]
    g0 = w[bonds] + w[1:][bonds]
    g0 *= h[:, None, None]
    g0 /= 24.0
    inv = 1.0 / h
    for i in range(w.shape[1]):
        g0[:, i, i] -= inv
    join = grid.join_bond[bonds]
    if join.any():
        g0[join] = -np.eye(w.shape[1]) / h[join, None, None]
    return g0


def _write_a0(grid: RadialGrid, ab: np.ndarray, first: int, last: int,
              inv_h: np.ndarray, d1: np.ndarray) -> None:
    """A0's rows of the points first..last-1 into the zeroed Fortran band
    workspace ab (3 kl + 1 rows, (last - first) N columns, the layout of
    LAPACK's banded LU), their couplings to rows outside the range left
    zero; inv_h and d1 are _a1_weights' of those rows.  The blocks of up
    to CHUNK_ROWS points at a time are computed from W and copied into
    strided views of ab, so no row array spans a long box; the blocks
    below the diagonal are the transposed ones above it."""
    w = grid.w_samples
    n_ch = w.shape[1]
    m = last - first
    for a in range(0, m, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, m)
        d0 = d1[a:b, None, None] * w[first + a:first + b]
        # inv_h 0 + d1 W off the diagonal: a -0.0 product reads 0.0
        d0 += 0.0
        for i in range(n_ch):
            d0[:, i, i] += inv_h[a:b]
        np.copyto(_blocks(ab, n_ch, 0, a, b), d0)
        # the bonds of these points to the next one, inside the range
        top = min(b, m - 1)
        if top > a:
            g0 = _bond_blocks(grid, slice(first + a, first + top))
            np.copyto(_blocks(ab, n_ch, -1, a + 1, top + 1), g0)
            np.copyto(_blocks(ab, n_ch, 1, a, top), g0.transpose(0, 2, 1))


def _subtract_a1(ab: np.ndarray, n_ch: int, d1_shift: np.ndarray,
                 g1_shift: np.ndarray) -> None:
    """ab -= shift A1 of its rows, given d1 and the interior bonds' g1
    times shift, each repeated over the N channels of a row."""
    main = 2 * (2 * n_ch - 1)
    ab[main] -= d1_shift
    ab[main - n_ch, n_ch:] -= g1_shift
    ab[main + n_ch, :-n_ch] -= g1_shift


def assemble_pencil(grid: RadialGrid, last_index: int, shift: float) -> np.ndarray:
    """A0 - shift A1 over interior points 1..last_index-1.

    Dirichlet ends at points[0] and points[last_index]; the rows are
    written from W (_write_a0, with the formulas of _a1_weights) into a
    fresh Fortran-ordered (3 kl + 1, n) workspace in the layout of LAPACK's
    banded LU (dgbtrf/dgbsv, kl = 2N - 1 extra rows for the fill-in).
    """
    n_ch = grid.w_samples.shape[1]
    kl = 2 * n_ch - 1
    ab = np.zeros((3 * kl + 1, (last_index - 1) * n_ch), order="F")
    inv_h, d1, g1 = _a1_weights(grid, last_index)
    _write_a0(grid, ab, 1, last_index, inv_h, d1)
    _subtract_a1(ab, n_ch, np.repeat(shift * d1, n_ch),
                 np.repeat(shift * g1[:-1], n_ch))
    return ab


def stabilization_eigenvalues(
    problem: RadialProblem,
    alpha: float,
    n_levels: int,
    grid: RadialGrid,
    sigma: float | None = None,
) -> np.ndarray:
    """Eigenvalues of the Dirichlet box problem on [rho_start, alpha].

    sigma=None targets the bottom of the spectrum (lowest n_levels);
    passing sigma returns the n_levels eigenvalues nearest to it.  A box of
    n pencil rows gives at most n - 1 of them, which `scan_branches` relies
    on for its smallest boxes.  alpha is snapped to the master grid, and may
    lie at most half a bond past its last point.
    """
    if alpha < problem.rho_start:
        raise ValidationError(f"alpha={float(alpha)!r} below rho_start")
    grid.check_reach(alpha)
    last = grid.index_of(alpha)
    if last < 3:
        raise ValidationError(f"alpha={float(alpha)!r} leaves too few grid points")
    if sigma is None:
        # the lowest eigenvalue of W over the box's points
        lam = float(np.linalg.eigvalsh(grid.w_samples[1:last]).min())
        sigma = lam - 0.5 * (abs(lam) + 1.0)
    n_ch = grid.w_samples.shape[1]
    kl = 2 * n_ch - 1
    lu, piv, info = lapack.dgbtrf(
        assemble_pencil(grid, last, sigma), kl, kl, overwrite_ab=1
    )
    if info != 0:
        raise EigensolverError(f"box pencil singular at sigma={float(sigma)!r}, "
                               f"alpha={float(alpha)!r}", rho=alpha)
    n = lu.shape[1]
    _, d1, g1 = _a1_weights(grid, last)
    # A1 per channel, repeated once per box: a broadcast product in the
    # matvec takes numpy's buffered path on every ARPACK step
    diag, off = np.repeat(d1, n_ch), np.repeat(g1[:-1], n_ch)

    def a1_matvec(x):
        x = x.ravel()
        y = diag * x
        y[n_ch:] += off * x[:-n_ch]
        y[:-n_ch] += off * x[n_ch:]
        return y

    vals = shift_invert_eigsh(
        lambda x: lapack.dgbtrs(lu, kl, kl, x, piv)[0], a1_matvec, n, n_levels,
        sigma, 600, f"box eigensolver stalled at alpha={float(alpha)!r}",
        alpha, vectors=False)
    return np.sort(vals)


def _free_waves(problem, grid, energies):
    """Discrete wavenumbers and fluxes of the pencil's free waves on the tail.

    Beyond the coupling range W = diag(thresholds), and on the uniform tail
    (the step h of the last bond) the pencil row of channel j reads
    g (u_{k-1} + u_{k+1}) + d u_k = 0 with
        g = -1/h - c_g h (E - E_j),   d = 2/h - c_d h (E - E_j),
    (c_g, c_d) = (1/12, 10/12) for Numerov bonds and (0, 1) for a join.
    Its exact solutions are sin/cos(theta k) with cos(theta) = -d/(2g) in
    open channels and exp(-/+ theta k) with cosh(theta) = -d/(2g) in closed
    ones.  Returns theta (ne, N), the step h, and the discrete flux
    -g sin(theta), the Wronskian g (a_k b_{k+1} - a_{k+1} b_k) of the
    sin/cos pair across the last bond (zero in closed channels).
    """
    h = float(grid.bond_h[-1])
    c_g, c_d = (0.0, 1.0) if grid.join_bond[-1] else (1.0 / 12.0, 10.0 / 12.0)
    de = energies[:, None] - problem.thresholds[None, :]
    g = -1.0 / h - c_g * h * de
    cos_theta = -(2.0 / h - c_d * h * de) / (2.0 * g)
    open_ = de > 0
    if np.any(open_ & (cos_theta <= -1.0)):
        raise ValidationError(
            f"radial step h={h!r} too coarse for the open-channel wavenumbers"
        )
    theta = np.where(
        open_,
        np.arccos(np.clip(cos_theta, -1.0, 1.0)),
        np.arccosh(np.maximum(cos_theta, 1.0)),
    )
    flux = np.where(open_, -g * np.sin(theta), 0.0)
    return theta, h, flux


def _references(problem, grid, energies, theta, h, end):
    """Diagonal free-wave reference values at the grid point `end` (-1, the
    match point, or -2, the one before it).

    Open channels: sin/cos(theta rho/h); closed channels: the
    decaying exp(-theta (rho - rho_m)/h), normalized at the match point,
    in the A slot and zero in the B slot.  Values are rotated into the
    gauge frame.
    """
    rho = grid.points[end]
    rho_m = grid.points[-1]
    n = problem.n_channels
    a = np.zeros((energies.size, n, n))
    b = np.zeros_like(a)
    phase = theta * (rho / h)
    open_ = energies[:, None] > problem.thresholds[None, :]
    diag = np.arange(n)
    a[:, diag, diag] = np.where(
        open_, np.sin(phase), np.exp(-theta * ((rho - rho_m) / h))
    )
    b[:, diag, diag] = np.where(open_, np.cos(phase), 0.0)
    if grid.gauge is not None:
        gt = grid.gauge[end].T
        a = gt[None] @ a
        b = gt[None] @ b
    return a, b


def propagate_ratio(grid: RadialGrid, energies) -> np.ndarray:
    """Ratio P = u_M u_{M-1}^{-1} of the pencil rows, one matrix per E.

    u solves the interior rows 1..M-1 with the Dirichlet ends u_0 = 0 (the
    strongly repulsive barrier enforces the regular solution) and u_M = I,
    so P = u_{M-1}^{-1}.  The rows are solved CHUNK_ROWS at a time with
    dgbsv, each chunk [a, b) with u_b = I; the next chunk's first row folds
    in its lower neighbour through d_b += bond_{b-1} u_{b-1} u_b^{-1}, the
    step of the ratio recursion, so the workspace stays small on any grid.
    That carried matrix is symmetric for the regular solution (its discrete
    Wronskian vanishes), so it is handed on symmetrized, which drops the
    antisymmetric roundoff of its chunk instead of passing it on.

    The sweep runs chunk by chunk, each chunk over every energy.  A chunk's
    A0 rows are written once (_write_a0) into a template; each energy
    copies the template into one workspace, takes E A1 off it, adds its
    carried ratio and solves.  Both arrays are sized for the longest chunk
    and allocated once per call, and across chunks each energy keeps only
    its N x N ratio and a copy of its u_{b-1}.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n_ch = grid.w_samples.shape[1]
    kl = 2 * n_ch - 1
    main = 2 * kl
    eye = np.eye(n_ch)
    r, c = np.indices((n_ch, n_ch))
    first_block = (main + r - c, c)
    last = grid.n_points - 1
    inv_h, d1, g1 = _a1_weights(grid, last)
    edges = list(range(1, last, CHUNK_ROWS)) + [last]
    # each chunk's bond to the row past it, its block in the right-hand side
    ends = _bond_blocks(grid, np.array(edges[1:]) - 1)
    shape = (3 * kl + 1, min(CHUNK_ROWS, last - 1) * n_ch)
    template, work = np.empty(shape, order="F"), np.empty(shape, order="F")
    ratios, us = [None] * energies.size, [None] * energies.size
    for a, b, g0 in zip(edges[:-1], edges[1:], ends):
        rows = slice(a - 1, b - 1)
        cols = (b - a) * n_ch
        base = template[:, :cols]
        base.fill(0.0)
        _write_a0(grid, base, a, b, inv_h[rows], d1[rows])
        diag = d1[rows].repeat(n_ch)
        off = g1[a - 1:b - 2].repeat(n_ch)
        rhs = np.empty((cols, n_ch), order="F")
        for i, e in enumerate(energies):
            ab = work[:, :cols]
            ab[...] = base
            _subtract_a1(ab, n_ch, e * diag, e * off)
            if a > 1:
                ab[first_block] += ratios[i]
            bond = g0 - e * (g1[b - 2] * eye)
            rhs.fill(0.0)
            rhs[-n_ch:] = -bond
            _, _, x, info = lapack.dgbsv(
                kl, kl, ab, rhs, overwrite_ab=1, overwrite_b=1
            )
            if info != 0:
                raise MatrixInversionError(
                    f"pencil rows {a}..{b - 1} singular at E={e!r}", energy=float(e)
                )
            # a copy (in x's Fortran order): x is rhs, which the next
            # energy overwrites
            u = us[i] = x[-n_ch:].copy(order="F")
            ratio = bond @ u
            ratios[i] = 0.5 * (ratio + ratio.T)
    out = np.empty((energies.size, n_ch, n_ch))
    for i, u in enumerate(us):
        out[i] = np.linalg.inv(u)
    return out


def extract_k(
    problem: RadialProblem,
    energies,
    grid: RadialGrid,
):
    """Reaction matrices K(E) for a batch of energies.

    The propagated ratio is matched at the last two grid points to the
    pencil's discrete free waves (sin/cos of theta rho/h in open channels,
    exp(-theta rho/h) in closed ones; see _free_waves) and K is normalized
    by their discrete flux -g sin(theta), so the asymmetry defect measures
    the residual coupling at the match point, not the discretization.

    Returns (list of KMatrix, asymmetry defects).  Raises ValidationError
    for an empty batch or one that mixes open-channel counts,
    NoOpenChannelError / ClosedChannelError guards at construction and
    MatchingQualityError when |K - K^T| exceeds ASYMMETRY_LIMIT times
    max(1, |K|).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if energies.size == 0:
        raise ValidationError("empty energy batch")
    thr = problem.thresholds
    if np.any(np.abs(energies[:, None] - thr[None, :]) < THRESHOLD_GUARD):
        raise ClosedChannelError(
            "energy within 1e-12 of a channel threshold; offset it"
        )
    if np.any(energies <= thr.min()):
        bad = float(energies[energies <= thr.min()][0])
        raise NoOpenChannelError(f"all channels closed at E={bad!r}")
    open_masks = energies[:, None] > thr[None, :]
    if not np.all(open_masks.sum(axis=1) == open_masks[0].sum()):
        raise ValidationError("energy batch mixes different open-channel counts")
    n_open = int(open_masks[0].sum())
    open_idx = np.nonzero(open_masks[0])[0]
    closed_idx = np.nonzero(~open_masks[0])[0]

    # by keyword: perfbench/tracer.py counts the energies by that name
    p = propagate_ratio(grid, energies=energies)
    theta, h, flux = _free_waves(problem, grid, energies)
    a_m, b_m = _references(problem, grid, energies, theta, h, -1)
    a_p, b_p = _references(problem, grid, energies, theta, h, -2)

    lhs = a_m - np.matmul(p, a_p)   # multiplies Ca
    rhs = np.matmul(p, b_p) - b_m   # multiplies Cb
    sys_mat = np.concatenate([rhs[:, :, open_idx], -lhs[:, :, closed_idx]], axis=2)
    sol = np.linalg.solve(sys_mat, lhs[:, :, open_idx])
    k_hat = sol[:, :n_open, :]

    sq = np.sqrt(flux[:, open_idx])
    k_full = sq[:, :, None] * k_hat / sq[:, None, :]

    out = []
    defects = np.empty(energies.size)
    for i, e in enumerate(energies):
        km = k_full[i]
        defect = float(np.abs(km - km.T).max())
        scale = max(1.0, float(np.abs(km).max()))
        if defect > ASYMMETRY_LIMIT * scale:
            raise MatchingQualityError(
                f"asymmetric K at E={e!r}: defect {defect:.3e}",
                energy=float(e), defect=defect,
            )
        out.append(KMatrix(energy=float(e), entries=0.5 * (km + km.T)))
        defects[i] = defect
    return out, defects

