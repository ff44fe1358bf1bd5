"""Second-order Lagrange finite elements on tensor-product 2D grids.

One-dimensional quadratic elements (3 nodes each, shared endpoints, so a
grid with n elements has 2n+1 nodes) are combined by tensor product into a
2D basis.  Dense 1D weighted mass/stiffness matrices come from element
blocks with Gauss-Legendre quadrature of N_QUAD = 4 points per element
(exact to polynomial degree 7), one quadrature call per grid.  A 2D
operator is held only as its upper LAPACK band (`TensorGrid.kd`): separable
terms are Kronecker products of 1D matrices, non-separable ones (the
potential) 2D element blocks, both added through strided band diagonals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ValidationError

N_QUAD = 4
# samples of the density on [a, b] whose trapezoid CDF places from_density's
# element boundaries
DENSITY_SAMPLES = 4096

# Quadratic shape functions and derivatives on the reference element [-1, 1].


def _shapes(xi: np.ndarray):
    return np.stack(
        [0.5 * xi * (xi - 1.0), 1.0 - xi * xi, 0.5 * xi * (xi + 1.0)], axis=-1
    )


def _dshapes(xi: np.ndarray):
    return np.stack([xi - 0.5, -2.0 * xi, xi + 0.5], axis=-1)


@dataclass(frozen=True)
class Grid1D:
    """Quadratic-element grid: odd node count, midpoints centered in elements."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.size < 3 or nodes.size % 2 == 0:
            raise ValidationError(
                f"quadratic elements need an odd node count >= 3, got {nodes.size}"
            )
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_elements(self) -> int:
        return (self.nodes.size - 1) // 2

    @property
    def boundaries(self) -> np.ndarray:
        return self.nodes[::2]

    @classmethod
    def uniform(cls, a: float, b: float, n_nodes: int) -> "Grid1D":
        return cls(np.linspace(a, b, n_nodes))

    @classmethod
    def from_density(cls, a, b, n_nodes, density) -> "Grid1D":
        """Place element boundaries by equal increments of the density CDF."""
        if n_nodes < 3 or n_nodes % 2 == 0:
            raise ValidationError(f"node count must be odd >= 3, got {n_nodes}")
        x = np.linspace(a, b, DENSITY_SAMPLES)
        w = np.asarray(density(x), dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("density must be positive and finite")
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(x))])
        cdf /= cdf[-1]
        n_el = (n_nodes - 1) // 2
        bounds = np.interp(np.linspace(0.0, 1.0, n_el + 1), cdf, x)
        bounds[0], bounds[-1] = a, b
        nodes = np.empty(n_nodes)
        nodes[::2] = bounds
        nodes[1::2] = 0.5 * (bounds[:-1] + bounds[1:])
        return cls(nodes)

    def quadrature(self):
        """Gauss points/weights mapped to every element: arrays (n_el, N_QUAD)."""
        xi, wq = np.polynomial.legendre.leggauss(N_QUAD)
        left = self.boundaries[:-1][:, None]
        right = self.boundaries[1:][:, None]
        jac = 0.5 * (right - left)
        pts = left + jac * (xi[None, :] + 1.0)
        return pts, jac * wq[None, :]

    def interp_matrix(self, x: np.ndarray) -> np.ndarray:
        """Dense (len(x), n_nodes) evaluation operator for nodal coefficients."""
        x = np.asarray(x, dtype=float)
        b = self.boundaries
        idx = np.clip(np.searchsorted(b, x, side="right") - 1, 0, self.n_elements - 1)
        xi = 2.0 * (x - b[idx]) / (b[idx + 1] - b[idx]) - 1.0
        out = np.zeros((x.size, self.n_nodes))
        out[np.arange(x.size)[:, None], 2 * idx[:, None] + np.arange(3)] = _shapes(xi)
        return out


def element_tables(grid: Grid1D):
    """(pts, wts, shp, dshp) at every element Gauss point, from the grid's one
    quadrature call: points and mapped weights (n_el, N_QUAD), shape values
    and x-derivatives (n_el, N_QUAD, 3)."""
    xi, _ = np.polynomial.legendre.leggauss(N_QUAD)
    pts, wts = grid.quadrature()
    shp = np.broadcast_to(_shapes(xi), (grid.n_elements, N_QUAD, 3))
    jac = 0.5 * np.diff(grid.boundaries)  # (n_el,)
    dshp = _dshapes(xi)[None, :, :] / jac[:, None, None]
    return pts, wts, shp, dshp


def _assemble_1d(kernel: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Symmetrized dense sum of the element blocks
    sum_q kernel[e, q] * table[e, q, a] * table[e, q, b]."""
    local = np.einsum("eq,eqa,eqb->eab", kernel, table, table)
    n_el = local.shape[0]
    ga = 2 * np.arange(n_el)[:, None] + np.arange(3)  # (n_el, 3) global indices
    mat = np.zeros((2 * n_el + 1, 2 * n_el + 1))
    np.add.at(mat, (ga[:, :, None], ga[:, None, :]), local)
    return 0.5 * (mat + mat.T)


def mass_matrix(tables, weight=None) -> np.ndarray:
    """1D weighted mass matrix: integral of u_a u_b w(x) dx."""
    pts, wts, shp, _ = tables
    return _assemble_1d(wts if weight is None else wts * weight(pts), shp)


def stiffness_matrix(tables, weight=None) -> np.ndarray:
    """1D weighted stiffness matrix: integral of u_a' u_b' w(x) dx."""
    pts, wts, _, dshp = tables
    return _assemble_1d(wts if weight is None else wts * weight(pts), dshp)


def potential_blocks(tx, ty, fn, wx_fn, wy_fn) -> np.ndarray:
    """(ex, ey, a, A, b, B) element blocks of the integral of
    phi_i phi_j f(x, y) w(x) w(y) dx dy, from both grids' element_tables."""
    px, wx, sx, _ = tx
    py, wy, sy, _ = ty
    vals = fn(px.reshape(-1, 1), py.reshape(1, -1))
    if not np.all(np.isfinite(vals)):
        raise AssemblyError("kernel not finite at a quadrature node "
                            "(singular point sampled exactly)")
    kern = np.outer((wx * wx_fn(px)).ravel(), (wy * wy_fn(py)).ravel()) * vals
    kern = kern.reshape(px.shape[0], N_QUAD, py.shape[0], N_QUAD)
    return np.einsum("xqyr,xqa,xqA,yrb,yrB->xyaAbB", kern, sx, sx, sy, sy,
                     optimize=True)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of two 1D quadratic grids; flat index = ix * ny + iy."""

    gx: Grid1D
    gy: Grid1D

    @property
    def n_dof(self) -> int:
        return self.gx.n_nodes * self.gy.n_nodes

    @cached_property
    def tables(self):
        """element_tables of gx and gy, computed once per tensor grid."""
        return element_tables(self.gx), element_tables(self.gy)

    @property
    def kd(self) -> int:
        """Superdiagonals of the upper band (band[kd + i - j, j] = entry
        (i, j), i <= j): nodes share elements when ix, iy differ by <= 2."""
        return 2 * self.gy.n_nodes + 2

    def _diagonal(self, band: np.ndarray, d: int) -> np.ndarray:
        """Superdiagonal d of the band as an (nx, ny) view over its columns."""
        return band[self.kd - d].reshape(self.gx.n_nodes, self.gy.n_nodes)

    def add_kron(self, band: np.ndarray, scale: float, x: np.ndarray,
                 y: np.ndarray) -> None:
        """band += scale * kron(x, y), x and y symmetric 1D matrices of gx
        and gy: entry (i ny + k, j ny + l) = x[i, j] y[k, l] lies on
        superdiagonal (j - i) ny + (l - k)."""
        ny = self.gy.n_nodes
        for p in range(3):
            for q in range(-2 if p else 0, 3):
                self._diagonal(band, p * ny + q)[p:, max(q, 0):ny + min(q, 0)] += (
                    scale * np.outer(np.diagonal(x, p), np.diagonal(y, q)))

    def add_element_blocks(self, band: np.ndarray, local: np.ndarray) -> None:
        """band += the symmetrized assembly of (ex, ey, a, A, b, B) element
        blocks: local index (a, b) is node (2 ex + a, 2 ey + b), so each
        (a, A, b, B) of the upper triangle adds to a strided slice of one
        superdiagonal."""
        nex, ney, ny = self.gx.n_elements, self.gy.n_elements, self.gy.n_nodes
        for a, A, b, B in itertools.product(range(3), repeat=4):
            d = (A - a) * ny + B - b
            if d >= 0:
                self._diagonal(band, d)[A:A + 2 * nex:2, B:B + 2 * ney:2] += (
                    0.5 * (local[:, :, a, A, b, B] + local[:, :, A, a, B, b]))

    def quad_points(self):
        """Full tensor quadrature: x pts, y pts (flattened per dim)."""
        (px, wx, _, _), (py, wy, _, _) = self.tables
        return px.ravel(), wx.ravel(), py.ravel(), wy.ravel()

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Nodal field(s) coeffs (..., n_dof) on the tensor of points x (x) y:
        shape (..., len(x), len(y))."""
        c = np.asarray(coeffs)
        c = c.reshape(*c.shape[:-1], self.gx.n_nodes, self.gy.n_nodes)
        return self.gx.interp_matrix(x) @ c @ self.gy.interp_matrix(y).T
