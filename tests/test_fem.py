"""Quadratic-element machinery and the bare hyperangular operator."""

import math

import numpy as np
import pytest
import scipy.linalg

from hypres.adiabatic import (
    HyperangularGrid,
    assemble_adiabatic_operator,
    build_grids,
    solve_adiabatic_point,
)
from hypres.errors import AssemblyError, ValidationError
from hypres.fem import (
    Grid1D,
    TensorGrid,
    element_tables,
    mass_matrix,
    stiffness_matrix,
)


class TestGrid1D:
    def test_odd_node_count_required(self):
        with pytest.raises(ValidationError):
            Grid1D.uniform(0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            Grid1D.uniform(0.0, 1.0, 1)

    def test_density_placement(self):
        grid = Grid1D.from_density(
            0.0, 1.0, 41, lambda x: 1.0 + 30.0 * np.exp(-((x - 0.5) / 0.05) ** 2)
        )
        assert grid.n_nodes == 41
        h = np.diff(grid.boundaries)
        mid = np.abs(0.5 * (grid.boundaries[:-1] + grid.boundaries[1:]) - 0.5)
        assert h[np.argmin(mid)] < 0.3 * h.max()

    def test_interp_partition_of_unity(self):
        grid = Grid1D.uniform(0.0, 2.0, 11)
        pts = np.linspace(0.05, 1.95, 37)
        p = grid.interp_matrix(pts)
        assert np.abs(p @ np.ones(grid.n_nodes) - 1.0).max() < 1e-13

    def test_interp_reproduces_quadratics(self):
        grid = Grid1D.uniform(0.0, 1.0, 21)
        coeffs = 3.0 * grid.nodes**2 - grid.nodes + 0.25
        pts = np.linspace(0.0, 1.0, 101)
        vals = grid.interp_matrix(pts) @ coeffs
        assert np.abs(vals - (3 * pts**2 - pts + 0.25)).max() < 1e-13


class TestMatrices:
    def test_mass_integral(self):
        grid = Grid1D.uniform(0.0, math.pi, 41)
        m = mass_matrix(element_tables(grid), np.sin)
        ones = np.ones(grid.n_nodes)
        # integral of sin over [0, pi] = 2
        assert ones @ (m @ ones) == pytest.approx(2.0, rel=1e-10)

    def test_stiffness_kernel(self):
        grid = Grid1D.uniform(0.0, 1.0, 31)
        k = stiffness_matrix(element_tables(grid), None)
        x = grid.nodes.copy()  # u = x has u' = 1: integral of 1 = 1
        assert x @ (k @ x) == pytest.approx(1.0, rel=1e-12)
        ones = np.ones(grid.n_nodes)
        assert np.abs(k @ ones).max() < 1e-12  # constants annihilated


class TestBareOperator:
    def test_constant_mode_at_zero(self):
        grid = HyperangularGrid(n_chi=31, n_theta=31)
        tensor = build_grids(None, 1.0, grid)
        vals, vecs = solve_adiabatic_point(tensor, 1.0, 3, sigma=-1.0)
        assert abs(vals[0]) < 1e-10
        v = vecs[0]
        assert np.abs(v - v.mean()).max() < 1e-6 * np.abs(v.mean())

    @pytest.mark.parametrize("rho", [1.0, 2.5])
    def test_grand_angular_spectrum(self, rho):
        # eigenvalues 4 L (L + 2) / rho^2 with degeneracies 1, 2, 3
        grid = HyperangularGrid(n_chi=61, n_theta=61)
        tensor = build_grids(None, rho, grid)
        vals, _ = solve_adiabatic_point(tensor, rho, 6, sigma=-1.0)
        exact = np.array([0.0, 12.0, 12.0, 32.0, 32.0, 32.0]) / rho**2
        rel = np.abs(vals[1:] - exact[1:]) / exact[1:]
        assert rel.max() < 1e-3

    def test_operator_pair_properties(self):
        grid = HyperangularGrid(n_chi=21, n_theta=21)
        tensor = build_grids(None, 2.0, grid)
        band, (m2_chi, m_th) = assemble_adiabatic_operator(tensor, 2.0, None)
        assert band.shape == (tensor.kd + 1, tensor.n_dof)
        for m in (m2_chi, m_th):
            assert np.array_equal(m, m.T)
        # mass-like operator positive definite
        lam = scipy.linalg.eigh(np.kron(m2_chi, m_th), subset_by_index=[0, 0],
                                eigvals_only=True)
        assert lam[0] > 0.0

    def test_domain_error(self):
        grid = HyperangularGrid(n_chi=21, n_theta=21)
        tensor = build_grids(None, 1.0, grid)
        with pytest.raises(AssemblyError):
            assemble_adiabatic_operator(tensor, -1.0, None)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            HyperangularGrid(n_chi=30, n_theta=31)
        with pytest.raises(ValidationError):
            HyperangularGrid(n_chi=31, n_theta=1)


class TestTensorEvaluation:
    def test_evaluate_matches_nodal(self):
        gx = Grid1D.uniform(0.0, 1.0, 11)
        gy = Grid1D.uniform(0.0, 2.0, 13)
        tensor = TensorGrid(gx, gy)
        coeffs = np.outer(gx.nodes**2, np.cos(gy.nodes)).ravel()
        x = np.linspace(0.1, 0.9, 7)
        y = np.linspace(0.2, 1.8, 9)
        vals = tensor.evaluate(coeffs, x, y)
        # quadratic in x exactly representable; cos(y) only approximately
        approx = np.outer(x**2, np.cos(y))
        assert np.abs(vals - approx).max() < 5e-4
        # a stack of fields evaluates as each field on its own
        stack = np.stack([coeffs, -2.0 * coeffs, np.ones_like(coeffs)])
        batch = tensor.evaluate(stack.reshape(3, 1, -1), x, y)
        assert batch.shape == (3, 1, 7, 9)
        for field, row in zip(batch[:, 0], stack):
            assert np.abs(field - tensor.evaluate(row, x, y)).max() < 1e-15
