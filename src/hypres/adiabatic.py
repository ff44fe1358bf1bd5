"""Adiabatic eigenproblem on the hyperangular (chi, theta) domain.

At fixed hyperradius rho the channel functions and terms solve

    h phi_j = eps_j(rho) phi_j,
    h = -(4 / (rho^2 sin^2 chi)) [d_chi sin^2 chi d_chi
        + (1/sin theta) d_theta sin theta d_theta] + V(rho, chi, theta),

with the volume element sin^2 chi sin theta dchi dtheta.  The weak form is
assembled with quadratic Lagrange elements on a tensor grid; for Coulomb
systems the element boundaries are clustered around the two light-heavy
coalescence points, whose angular size shrinks like 1/rho.  A is assembled
straight into the upper LAPACK band that `dpbtrf` reads; B is the
Kronecker product M2chi (x) Mtheta of two dense 1D mass matrices, applied
as x -> M2chi X Mtheta and never formed.  A point's lowest terms come from
the band Cholesky factor of A - sigma B (sigma B subtracted in the same
band, sigma placed below the lowest term by the Rayleigh quotient of a
constant trial state) in `algebra.shift_invert_eigsh`, which applies only
that factor and B.

Both solvers sweep the rho grid in order, one point at a time in this
process.  `solve_terms` gives the terms alone.  `solve_with_couplings` fixes
each point's eigenvector signs by continuity with the previous accepted
point (bisecting where the overlap drops) and forms the nonadiabatic
coupling tables by centered finite differences of the channel functions on
the rho grid (one-sided at the ends), all evaluated on the quadrature of the
point being differenced:

    H_jj'(rho) = < d_rho phi_j | d_rho phi_j' >,
    Q_jj'(rho) = - < phi_j | d_rho phi_j' >.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .algebra import shift_invert_eigsh
from .channels import ThreeBodyMasses
from .errors import AssemblyError, EigensolverError, TrackingError, ValidationError
from .fem import (Grid1D, TensorGrid, mass_matrix, potential_blocks,
                  stiffness_matrix)

# smallest |overlap| of a term with its previous-point continuation before
# the rho interval is bisected
OVERLAP_FLOOR = 0.5


@dataclass(frozen=True)
class HyperangularGrid:
    """Node counts of the (chi, theta) tensor grid; element order is 2."""

    n_chi: int
    n_theta: int

    def __post_init__(self):
        for name, n in (("n_chi", self.n_chi), ("n_theta", self.n_theta)):
            if n < 3 or n % 2 == 0:
                raise ValidationError(f"{name} must be odd and >= 3, got {n}")


class ClusterSpec:
    """Node-density model for the coalescence-point clusters.

    Each cluster is a graded well in the node density, 1/(core + |d|) under
    a Gaussian envelope: element sizes grow linearly away from the Coulomb
    cusp, which is what exponential atomic states need.  Extents are in
    units of the atom's length scale 1/m_red; the angular widths scale like
    1/rho and are capped so the density degrades to uniform at small rho.
    The parameters are constants (class attributes), which `build_grids`
    reads for every Coulomb grid.
    """

    extent_n1 = 9.0
    extent_n2 = 36.0
    core_frac = 0.125  # innermost element size as fraction of decay length
    frac_tight = 0.30
    frac_medium = 0.10
    frac_theta_tight = 0.24
    frac_theta_medium = 0.08
    width_cap = 1.2


def _distances(masses: ThreeBodyMasses, rho: float, chi, theta):
    """Heavy-heavy distance R and light-heavy distances r1, r2 at (chi, theta).

    In the mass-weighted coordinates r = rho sin(chi/2)/sqrt(2 mu) (light to
    heavy-pair center of mass) and R = rho cos(chi/2)/sqrt(2 M); the
    light-heavy separations follow from the heavy positions -c1 R, +c2 R
    (`ThreeBodyMasses.heavy_fractions`), theta the angle between r and R.
    """
    c1, c2 = masses.heavy_fractions
    r = rho * np.sin(0.5 * chi) / math.sqrt(2.0 * masses.mu)
    rr = rho * np.cos(0.5 * chi) / math.sqrt(2.0 * masses.mass_heavy_pair)
    ct = np.cos(theta)
    r1 = np.sqrt(r * r + (c1 * rr) ** 2 + 2.0 * c1 * r * rr * ct)
    r2 = np.sqrt(r * r + (c2 * rr) ** 2 - 2.0 * c2 * r * rr * ct)
    return rr, r1, r2


def coulomb_potential(masses: ThreeBodyMasses, rho: float):
    """V(chi, theta) at fixed rho of the charges +1, +1, -1 (`_distances`)."""
    if rho <= 0.0:
        raise AssemblyError(f"rho must be positive, got {rho!r}")

    def v(chi, theta):
        rr, r1, r2 = _distances(masses, rho, chi, theta)
        if np.any(rr == 0.0) or np.any(r1 == 0.0) or np.any(r2 == 0.0):
            raise AssemblyError(
                f"quadrature node exactly at a Coulomb singularity (rho={rho})"
            )
        return 1.0 / rr - 1.0 / r1 - 1.0 / r2

    return v


def coalescence_points(masses: ThreeBodyMasses):
    """(chi, theta) of the two light-heavy coalescence points."""
    ratio = math.sqrt(masses.mu / masses.mass_heavy_pair)
    c1, c2 = masses.heavy_fractions
    chi1 = 2.0 * math.atan(ratio * c1)
    chi2 = 2.0 * math.atan(ratio * c2)
    return (chi1, math.pi), (chi2, 0.0)


def build_grids(
    masses: ThreeBodyMasses | None, rho: float, grid: HyperangularGrid
) -> TensorGrid:
    """Tensor grid for one rho: clustered (`ClusterSpec`) around the
    coalescence points of masses, uniform when masses is None."""
    if masses is None:
        return TensorGrid(
            Grid1D.uniform(0.0, math.pi, grid.n_chi),
            Grid1D.uniform(0.0, math.pi, grid.n_theta),
        )
    cluster = ClusterSpec
    (chi1, _), (chi2, _) = coalescence_points(masses)
    m_red1 = masses.m1 / (masses.m1 + 1.0)
    m_red2 = masses.m2 / (masses.m2 + 1.0)
    chi_scale = 2.0 * math.sqrt(2.0 * masses.mu) / rho
    rr = rho / math.sqrt(2.0 * masses.mass_heavy_pair)

    def graded(frac, center, width, core):
        # term of a normalized 1/(core + |d|) well under a Gaussian envelope;
        # closed-form-ish normalization on a fine local grid, taken once
        t = np.linspace(-4.0 * width, 4.0 * width, 801)
        norm = np.trapezoid(np.exp(-0.5 * (t / width) ** 2) / (core + np.abs(t)), t)
        return frac, center, width, core, norm

    chi_terms = []
    theta_terms = []
    c1, c2 = masses.heavy_fractions
    for chi_c, m_red, cfrac in ((chi1, m_red1, c1), (chi2, m_red2, c2)):
        theta_c = math.pi if chi_c == chi1 else 0.0
        for n_sq, extent, frac, frac_t in (
            (1.0, cluster.extent_n1, cluster.frac_tight, cluster.frac_theta_tight),
            (4.0, cluster.extent_n2, cluster.frac_medium, cluster.frac_theta_medium),
        ):
            decay_chi = chi_scale * n_sq / m_red
            width = min(chi_scale * extent / m_red, cluster.width_cap)
            chi_terms.append(graded(frac, chi_c, width, cluster.core_frac * decay_chi))
            decay_t = (n_sq / m_red) / max(cfrac * rr * math.cos(0.5 * chi_c), 1e-12)
            width_t = min(decay_t * extent / n_sq, cluster.width_cap)
            theta_terms.append(
                graded(frac_t, theta_c, width_t, cluster.core_frac * decay_t)
            )

    def density(terms):
        base = max(0.04, 1.0 - sum(t[0] for t in terms))

        def w_of(x):
            w = np.full_like(x, base / math.pi)
            for frac, c, width, core, norm in terms:
                d = np.abs(x - c)
                w = w + frac * (np.exp(-0.5 * (d / width) ** 2) / (core + d) / norm)
            return w

        return w_of

    return TensorGrid(
        Grid1D.from_density(0.0, math.pi, grid.n_chi, density(chi_terms)),
        Grid1D.from_density(0.0, math.pi, grid.n_theta, density(theta_terms)),
    )


def assemble_adiabatic_operator(tensor: TensorGrid, rho: float, potential=None):
    """Weak-form (stiffness-like, mass-like) pair of the adiabatic Hamiltonian.

    Returns (A's upper LAPACK band, (M2chi, Mtheta)): A symmetric, and
    B = kron(M2chi, Mtheta) symmetric positive definite as its two dense 1D
    factors.  potential=None assembles the bare hyperangular kinetic operator.
    """
    if rho <= 0.0:
        raise AssemblyError(f"rho must be positive, got {rho!r}")
    sin2 = lambda x: np.sin(x) ** 2
    tx, ty = tensor.tables
    m_th = mass_matrix(ty, np.sin)
    band = np.zeros((tensor.kd + 1, tensor.n_dof), order="F")  # as dpbtrf reads
    tensor.add_kron(band, 4.0 / rho**2, stiffness_matrix(tx, sin2), m_th)
    tensor.add_kron(band, 4.0 / rho**2, mass_matrix(tx), stiffness_matrix(ty, np.sin))
    if potential is not None:
        tensor.add_element_blocks(band, potential_blocks(tx, ty, potential, sin2, np.sin))
    return band, (mass_matrix(tx, sin2), m_th)


def _sigma_estimate(band, b_pair, tensor: TensorGrid, rho) -> float:
    """Safe shift below the lowest eigenvalue, from a Rayleigh quotient.

    The quotient q of the constant trial state bounds eps_1 from above; the
    margin 0.25 |q| + 1 + 1/rho (rho floored at 0.02) puts the shift below
    eps_1.  A shift that is not below it fails the factorization in
    `solve_adiabatic_point`.
    """
    mx, my = b_pair
    t = np.ones((tensor.gx.n_nodes, tensor.gy.n_nodes))
    q = (float(t.ravel() @ blas.dsbmv(tensor.kd, 1.0, band, t.ravel()))
         / float(np.sum(t * (mx @ t @ my))))
    return q - 0.25 * abs(q) - 1.0 - 1.0 / max(rho, 0.02)


def solve_adiabatic_point(
    tensor: TensorGrid,
    rho: float,
    n_terms: int,
    potential=None,
    sigma: float | None = None,
):
    """Lowest n_terms eigenpairs at one rho; B-orthonormal, terms ascending.

    `algebra.shift_invert_eigsh` solves with the band Cholesky factor of
    A - sigma B (flat index ix n_theta + iy: 2 n_theta + 2 superdiagonals),
    formed in A's band.  sigma=None takes the constant trial's shift
    (`_sigma_estimate`).  The factor exists only for a sigma
    below every term, so the n_terms nearest sigma are the lowest
    (Sylvester's law of inertia); else EigensolverError.  n_terms must lie
    in (0, n_chi n_theta).
    """
    n = tensor.n_dof
    if not 0 < n_terms < n:
        raise ValidationError(f"n_terms must be above 0 and below the basis "
                              f"size {n}, got {n_terms}")
    band, b_pair = assemble_adiabatic_operator(tensor, rho, potential)
    if sigma is None:
        sigma = _sigma_estimate(band, b_pair, tensor, rho)
    tensor.add_kron(band, -sigma, *b_pair)
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise EigensolverError(f"sigma={sigma!r} is not below the lowest "
                               f"term at rho={rho!r}", rho=rho)
    mx, my = b_pair  # kron(mx, my) x as mx X my, X the grid view of x
    vals, vecs = shift_invert_eigsh(
        lambda x: lapack.dpbtrs(factor, x)[0],
        lambda x: (mx @ x.reshape(mx.shape[0], -1) @ my).ravel(), n, n_terms,
        sigma, 400, f"adiabatic eigensolver stalled at rho={rho!r}", rho)
    order = np.argsort(vals)
    return vals[order], vecs[:, order].T  # (n_terms, n_dof)


@dataclass(frozen=True)
class AdiabaticSolution:
    """Terms on a rho grid, with the coupling tables of the streamed solve."""

    rho_grid: np.ndarray
    terms: np.ndarray  # (n_rho, N)
    h_table: np.ndarray | None = None  # (n_rho, N, N)
    q_table: np.ndarray | None = None  # (n_rho, N, N)
    meta: dict = field(default_factory=dict)


def _on_quadrature(tensor: TensorGrid, vecs: np.ndarray):
    """Measure kernel, quadrature points and the basis values of one point.

    Returns (kern, px, py, values): kern is sin^2(chi) sin(theta) times the
    tensor weights, values has shape (N, nqx, nqy).
    """
    px, wx, py, wy = tensor.quad_points()
    kern = np.outer(wx * np.sin(px) ** 2, wy * np.sin(py))
    return kern, px, py, tensor.evaluate(vecs, px, py)


def _solve_one(masses, rho, grid, n_terms):
    tensor = build_grids(masses, rho, grid)
    vals, vecs = solve_adiabatic_point(
        tensor, rho, n_terms, potential=coulomb_potential(masses, rho))
    return tensor, vals, vecs


class _Point:
    """One solved rho point of the couplings sweep, with what its sign fix
    and its differencing share: the measure kernel, its own basis on its
    quadrature (here) and the previous accepted basis on it (prev_here)."""

    def __init__(self, rho: float, tensor: TensorGrid, vals, vecs):
        self.rho, self.tensor, self.vals, self.vecs = rho, tensor, vals, vecs
        self.kern, self.px, self.py, self.here = _on_quadrature(tensor, vecs)
        self.prev_here: np.ndarray | None = None


def _checked_rho_grid(rho_grid) -> np.ndarray:
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(np.diff(rho_grid) <= 0) or np.any(rho_grid <= 0):
        raise ValidationError("rho grid must be positive and strictly increasing")
    return rho_grid


def _solution_meta(masses, grid: HyperangularGrid, n_terms: int):
    return dict(mode="coulomb", n_chi=grid.n_chi, n_theta=grid.n_theta,
                n_terms=n_terms, m1=masses.m1, m2=masses.m2)


def solve_terms(
    masses: ThreeBodyMasses,
    grid: HyperangularGrid,
    rho_grid,
    n_terms: int,
) -> AdiabaticSolution:
    """Adiabatic terms of the Coulomb system at every rho point, in order.

    Each point is solved on the clustered grid of `build_grids` with the
    three-pair Coulomb potential, and keeps only its eigenvalues, so no
    grid or basis outlives its point: the sign fixing the couplings need
    leaves the eigenvalues unchanged, and the bases are left to
    `solve_with_couplings`.
    """
    rho_grid = _checked_rho_grid(rho_grid)
    terms = [_solve_one(masses, rho, grid, n_terms)[1] for rho in rho_grid]
    return AdiabaticSolution(
        rho_grid=rho_grid,
        terms=np.array(terms),
        meta=_solution_meta(masses, grid, n_terms),
    )


def solve_with_couplings(
    masses: ThreeBodyMasses,
    grid: HyperangularGrid,
    rho_grid,
    n_terms: int,
) -> AdiabaticSolution:
    """Terms plus coupling tables of the Coulomb system, in one ordered sweep.

    Solves each rho point as `solve_terms` does, fixes its basis's signs
    against the previous accepted point, and bisects the interval when the
    smallest overlap falls below OVERLAP_FLOOR (the rejected point waits,
    solved, on the stack until its midpoint is accepted).  The bisection
    limit counts the rejections since the last accepted point, each of
    which inserts a midpoint; an accepted midpoint resets it, so it does
    not bound the depth below one interval of rho_grid.  The sweep keeps
    its last accepted point and the rho of the one before it; once the
    next point is accepted, the last one's table row is differenced
    (`_couplings_at`), so besides the rejected points waiting on the stack
    only two bases are held at a time: the last accepted point's and the
    one under test.  H is the Gram matrix of the differenced derivatives
    (symmetric PSD by construction); Q is antisymmetrized.
    """
    rho_grid = _checked_rho_grid(rho_grid)
    if rho_grid.size < 3:
        raise ValidationError("need at least 3 rho points for differencing")

    # stack, smallest rho on top; a point under bisection goes back solved
    pending: list[tuple] = [(rho, None) for rho in rho_grid[::-1]]
    rows: list[tuple] = []  # (rho, terms, H, Q) of each accepted point
    prev_rho = last = None  # the last accepted point and the rho before it
    max_bisect = 7  # rejections in a row before TrackingError
    depth = 0
    while pending:
        rho, point = pending.pop()
        if point is None:
            point = _Point(rho, *_solve_one(masses, rho, grid, n_terms))
        ov = _fix_signs(point, last)
        if ov < OVERLAP_FLOOR:
            if depth >= max_bisect:
                raise TrackingError(
                    f"basis continuity lost near rho={rho:.6g} "
                    f"(overlap {ov:.3f} after {depth} bisections)"
                )
            # bisect: revisit this point after an inserted midpoint
            pending.append((rho, point))
            pending.append((0.5 * (last.rho + rho), None))
            depth += 1
            continue
        depth = 0
        if last is not None:
            rows.append(_couplings_at(prev_rho, last, point))
            prev_rho = last.rho
        last = point
    rows.append(_couplings_at(prev_rho, last, None))

    return AdiabaticSolution(*(np.asarray(col) for col in zip(*rows)),
                             meta=_solution_meta(masses, grid, n_terms))


def _fix_signs(point: _Point, prev: _Point | None) -> float:
    """Flip the point's basis toward positive overlap with the prev basis
    (toward a positive mean value when prev is None), keeping prev's values
    on the point's quadrature for the differencing; returns the smallest
    |overlap| (inf without prev)."""
    if prev is None:
        signs = np.einsum("xy,jxy->j", point.kern, point.here)
    else:
        point.prev_here = prev.tensor.evaluate(prev.vecs, point.px, point.py)
        signs = np.einsum("xy,jxy,jxy->j", point.kern, point.prev_here,
                          point.here)
    for j, o in enumerate(signs):
        if o < 0.0:
            point.vecs[j] *= -1.0
            point.here[j] *= -1.0
    return math.inf if prev is None else float(np.abs(signs).min())


def _couplings_at(prev_rho, point: _Point, nxt: _Point | None):
    """Table row (rho, terms, H, Q) of one accepted point.

    Its basis is differenced on its own quadrature over its stencil: the
    previous accepted point (at prev_rho; its basis there is prev_here),
    the point and the next accepted point nxt, centred, or one-sided at the
    first point (prev_rho None) and at the last (nxt None).
    """
    rho = point.rho
    if nxt is not None:
        there = nxt.tensor.evaluate(nxt.vecs, point.px, point.py)
    if prev_rho is None:
        step = nxt.rho - rho
        stencil = [(-1.0 / step, point.here), (1.0 / step, there)]
    elif nxt is None:
        step = rho - prev_rho
        stencil = [(-1.0 / step, point.prev_here), (1.0 / step, point.here)]
    else:
        hm, hp = rho - prev_rho, nxt.rho - rho
        stencil = [(-hp / (hm * (hm + hp)), point.prev_here),
                   ((hp - hm) / (hm * hp), point.here),
                   (hm / (hp * (hm + hp)), there)]
    dphi = np.zeros_like(point.here)
    for w, vals in stencil:
        dphi += w * vals
    h = np.einsum("xy,jxy,Jxy->jJ", point.kern, dphi, dphi)
    q_raw = -np.einsum("xy,jxy,Jxy->jJ", point.kern, point.here, dphi)
    return rho, point.vals, h, 0.5 * (q_raw - q_raw.T)


def refine_rho_grid(rho_grid: np.ndarray, terms: np.ndarray, n_extra: int):
    """Add n_extra points where the terms vary fastest (gradient-adapted).

    Extra points are midpoints of the intervals with the largest total term
    variation; returns the merged ascending grid.
    """
    if n_extra <= 0:
        return np.asarray(rho_grid, dtype=float)
    var = np.abs(np.diff(terms, axis=0)).sum(axis=1)
    order = np.argsort(var)[::-1][:n_extra]
    mids = 0.5 * (rho_grid[order] + rho_grid[order + 1])
    return np.unique(np.concatenate([rho_grid, mids]))
