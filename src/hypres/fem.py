"""Second-order Lagrange finite elements on tensor-product 2D grids.

One-dimensional quadratic elements (3 nodes each, shared endpoints, so a
grid with n elements has 2n+1 nodes) are combined by tensor product into a
2D basis.  Weighted mass/stiffness matrices are assembled per element with
Gauss-Legendre quadrature of N_QUAD = 4 points per element and dimension
(exact to polynomial degree 7); separable operator terms use Kronecker
products of 1D matrices and non-separable terms (the potential) are
assembled from 2D element blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

    def locate(self, x: np.ndarray):
        """Element index and reference coordinate for arbitrary points."""
        x = np.asarray(x, dtype=float)
        b = self.boundaries
        idx = np.clip(np.searchsorted(b, x, side="right") - 1, 0, self.n_elements - 1)
        xi = 2.0 * (x - b[idx]) / (b[idx + 1] - b[idx]) - 1.0
        return idx, xi

    def interp_matrix(self, x: np.ndarray) -> sp.csr_matrix:
        """Sparse (len(x), n_nodes) evaluation operator for nodal coefficients."""
        x = np.asarray(x, dtype=float)
        idx, xi = self.locate(x)
        vals = _shapes(xi)
        rows = np.repeat(np.arange(x.size), 3)
        cols = (2 * idx[:, None] + np.arange(3)[None, :]).ravel()
        return sp.csr_matrix(
            (vals.ravel(), (rows, cols)), shape=(x.size, self.n_nodes)
        )


def _element_tables(grid: Grid1D):
    """Shape values/derivatives and mapped weights at all element Gauss points."""
    xi, wq = np.polynomial.legendre.leggauss(N_QUAD)
    pts, wts = grid.quadrature()
    shp = _shapes(xi)  # (N_QUAD, 3)
    jac = 0.5 * np.diff(grid.boundaries)  # (n_el,)
    dshp = _dshapes(xi)[None, :, :] / jac[:, None, None]  # (n_el, N_QUAD, 3)
    return pts, wts, np.broadcast_to(shp, (grid.n_elements, N_QUAD, 3)), dshp


def _assemble_1d(grid: Grid1D, kernel: np.ndarray, table: np.ndarray) -> sp.csr_matrix:
    """Sum_q kernel[e, q] * table[e, q, a] * table[e, q, b] scattered globally."""
    local = np.einsum("eq,eqa,eqb->eab", kernel, table, table)
    el = np.arange(grid.n_elements)
    ga = (2 * el[:, None] + np.arange(3)[None, :])  # (n_el, 3) global indices
    rows = np.repeat(ga[:, :, None], 3, axis=2).ravel()
    cols = np.repeat(ga[:, None, :], 3, axis=1).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(grid.n_nodes, grid.n_nodes)
    )
    return mat.tocsr()


def mass_matrix(grid: Grid1D, weight=None) -> sp.csr_matrix:
    """1D weighted mass matrix: integral of u_a u_b w(x) dx."""
    pts, wts, shp, _ = _element_tables(grid)
    kernel = wts if weight is None else wts * weight(pts)
    return _assemble_1d(grid, kernel, shp)


def stiffness_matrix(grid: Grid1D, weight=None) -> sp.csr_matrix:
    """1D weighted stiffness matrix: integral of u_a' u_b' w(x) dx."""
    pts, wts, _, dshp = _element_tables(grid)
    kernel = wts if weight is None else wts * weight(pts)
    return _assemble_1d(grid, kernel, dshp)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of two 1D quadratic grids; flat index = ix * ny + iy."""

    gx: Grid1D
    gy: Grid1D

    @property
    def n_dof(self) -> int:
        return self.gx.n_nodes * self.gy.n_nodes

    def quad_points(self):
        """Full tensor quadrature: x pts, y pts (flattened per dim)."""
        px, wx = self.gx.quadrature()
        py, wy = self.gy.quadrature()
        return px.ravel(), wx.ravel(), py.ravel(), wy.ravel()

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate nodal field(s) on the tensor of points x (x) y.

        coeffs has shape (..., n_dof); result (..., len(x), len(y)).
        """
        px = self.gx.interp_matrix(x)
        py = self.gy.interp_matrix(y)
        c = np.asarray(coeffs)
        lead = c.shape[:-1]
        c2 = c.reshape(-1, self.gx.n_nodes, self.gy.n_nodes)
        out = np.empty((c2.shape[0], x.size, y.size))
        for i, ci in enumerate(c2):
            out[i] = px @ ci @ py.T
        return out.reshape(*lead, x.size, y.size)

    def weighted_kernel(self, fn=None, wx_fn=None, wy_fn=None) -> np.ndarray:
        """Quadrature kernel w(x) w(y) f(x, y) on the full tensor, flat arrays."""
        px, wx, py, wy = self.quad_points()
        kx = wx * (wx_fn(px) if wx_fn else 1.0)
        ky = wy * (wy_fn(py) if wy_fn else 1.0)
        kern = np.outer(kx, ky)
        if fn is not None:
            vals = fn(px[:, None], py[None, :])
            if not np.all(np.isfinite(vals)):
                raise AssemblyError(
                    "kernel not finite at a quadrature node "
                    "(singular point sampled exactly)"
                )
            kern = kern * vals
        return kern

    def potential_matrix(self, fn, wx_fn=None, wy_fn=None) -> sp.csr_matrix:
        """Assemble integral of phi_i phi_j f(x,y) w(x) w(y) dx dy."""
        kern = self.weighted_kernel(fn=fn, wx_fn=wx_fn, wy_fn=wy_fn)
        nex, ney = self.gx.n_elements, self.gy.n_elements
        kern = kern.reshape(nex, N_QUAD, ney, N_QUAD)
        _, _, sx, _ = _element_tables(self.gx)
        _, _, sy, _ = _element_tables(self.gy)
        # local (ex, ey, a, A, b, B) blocks over both quadrature indices
        local = np.einsum("xqyr,xqa,xqA,yrb,yrB->xyaAbB", kern, sx, sx, sy, sy,
                          optimize=True)
        ex = np.arange(nex)
        ey = np.arange(ney)
        gx = 2 * ex[:, None] + np.arange(3)[None, :]  # (nex, 3)
        gy = 2 * ey[:, None] + np.arange(3)[None, :]  # (ney, 3)
        ny = self.gy.n_nodes
        gi = (gx[:, None, :, None, None, None] * ny
              + gy[None, :, None, None, :, None])  # rows (ex,ey,a,1,b,1)
        gj = (gx[:, None, None, :, None, None] * ny
              + gy[None, :, None, None, None, :])  # cols (ex,ey,1,A,1,B)
        rows = np.broadcast_to(gi, local.shape).ravel()
        cols = np.broadcast_to(gj, local.shape).ravel()
        mat = sp.coo_matrix(
            (local.ravel(), (rows, cols)), shape=(self.n_dof, self.n_dof)
        )
        return mat.tocsr()
