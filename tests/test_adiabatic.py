"""Adiabatic terms, couplings and their invariants for Coulomb systems."""

import math
import tracemalloc

import numpy as np
import pytest

from hypres import adiabatic
from hypres.adiabatic import (
    ClusterSpec,
    HyperangularGrid,
    assemble_adiabatic_operator,
    coalescence_points,
    coulomb_potential,
    orthonormality_defect,
    solve_adiabatic_point,
    solve_terms,
    solve_with_couplings,
    build_grids,
    _sigma_estimate,
)
from hypres.channels import ThreeBodyMasses, dtmu_masses
from hypres.errors import EigensolverError, TrackingError, ValidationError
from hypres.tableio import load_couplings, load_terms, save_couplings, save_terms

DTMU = dtmu_masses()
GRID_FINE = HyperangularGrid(n_chi=181, n_theta=91)
GRID_COARSE = HyperangularGrid(n_chi=61, n_theta=31)


@pytest.fixture(scope="module")
def small_solution():
    """dt-mu terms + coupling tables on a short rho grid around the term well."""
    rho = np.linspace(30.0, 36.0, 7)
    return solve_with_couplings(DTMU, GRID_COARSE, rho, 4)


class TestThresholds:
    def test_hydrogenic_ratio(self):
        # 1/n^2 scaling: the n = 2 threshold of the same atom is a quarter
        # of the ground one
        e1 = DTMU.atom_energy(1, 1)
        e3 = DTMU.atom_energy(1, 2)
        assert abs(e3 / e1 - 0.25) < 1e-12

    def test_ground_term_at_large_rho(self):
        # eps_1(500) within 1e-4 of the two-body oracle -m_red/2
        rho = 500.0
        tensor = build_grids(DTMU, rho, GRID_FINE, ClusterSpec())
        vals, _ = solve_adiabatic_point(
            tensor, rho, 4, potential=coulomb_potential(DTMU, rho), masses=DTMU
        )
        oracle = -(DTMU.m1 / (DTMU.m1 + 1.0)) / 2.0
        assert abs(vals[0] - oracle) < 1e-4

    @pytest.mark.slow
    def test_threshold_approach_improves(self):
        oracle = DTMU.atom_energy(1, 1)
        errs = []
        for rho in (100.0, 300.0, 500.0):
            tensor = build_grids(DTMU, rho, GRID_FINE, ClusterSpec())
            vals, _ = solve_adiabatic_point(
                tensor, rho, 2,
                potential=coulomb_potential(DTMU, rho), masses=DTMU,
            )
            errs.append(abs(vals[0] - oracle))
        assert errs[0] > errs[1] > errs[2]

    def test_term_ordering(self, small_solution):
        for row in small_solution.terms:
            assert np.all(np.diff(row) >= 0.0)


class TestBasisInvariants:
    def test_orthonormality(self, small_solution):
        for rho in small_solution.rho_grid:
            tensor = build_grids(DTMU, rho, GRID_COARSE, ClusterSpec())
            _, vecs = solve_adiabatic_point(
                tensor, rho, 4, potential=coulomb_potential(DTMU, rho), masses=DTMU
            )
            assert orthonormality_defect(tensor, vecs) < 1e-5

    def test_coupling_tables_properties(self, small_solution):
        h, q = small_solution.h_table, small_solution.q_table
        assert np.abs(q + q.transpose(0, 2, 1)).max() < 1e-5
        assert np.abs(h - h.transpose(0, 2, 1)).max() < 1e-12
        # Gram diagonal nonnegative, Q diagonal vanishes
        assert h.diagonal(axis1=1, axis2=2).min() >= 0.0
        assert np.abs(q.diagonal(axis1=1, axis2=2)).max() < 1e-5
        # H positive semidefinite (Gram matrix of derivative functions)
        for hk in h:
            assert np.linalg.eigvalsh(hk).min() > -1e-10

    def test_variational_monotonicity(self):
        # refining the grid never raises a term by more than the coarse
        # grid's own discretization tolerance (meshes are not nested and the
        # singular potential is integrated numerically, so the variational
        # bound holds only within the quadrature error)
        rho = 30.0
        vals = {}
        for grid in (GRID_COARSE, HyperangularGrid(n_chi=121, n_theta=61)):
            tensor = build_grids(DTMU, rho, grid, ClusterSpec())
            vals[grid.n_chi], _ = solve_adiabatic_point(
                tensor, rho, 4,
                potential=coulomb_potential(DTMU, rho), masses=DTMU,
            )
        assert np.all(vals[121] <= vals[61] + 3e-4)


class TestSymmetricSystem:
    def test_exchange_parity(self):
        # equal heavy masses: terms carry definite parity under the heavy
        # exchange, which maps theta -> pi - theta at fixed chi
        masses = ThreeBodyMasses(m1=10.0, m2=10.0)
        rho = 20.0
        grid = HyperangularGrid(n_chi=61, n_theta=41)
        tensor = build_grids(masses, rho, grid, ClusterSpec())
        vals, vecs = solve_adiabatic_point(
            tensor, rho, 4,
            potential=coulomb_potential(masses, rho), masses=masses,
        )
        px, wx, py, wy = tensor.quad_points()
        kern = np.outer(wx * np.sin(px) ** 2, wy * np.sin(py))
        direct = tensor.evaluate(vecs, px, py)
        reflected = tensor.evaluate(vecs, px, math.pi - py)
        parities = [
            float(np.sum(kern * direct[j] * reflected[j])) for j in range(4)
        ]
        for j, parity in enumerate(parities):
            assert abs(abs(parity) - 1.0) < 1e-3, f"term {j}: {parity}"
        # both symmetry classes must appear among the lowest terms
        assert min(parities) < -0.9 and max(parities) > 0.9


class TestWellAndCrossing:
    @pytest.mark.slow
    def test_third_term_well(self):
        # the third term must dip below its asymptote (the well hosting the
        # metastable states)
        rho_grid = np.array([20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 110.0])
        sol = solve_terms(DTMU, GRID_COARSE, rho_grid, 4)
        eps3 = sol.terms[:, 2]
        asymptote = DTMU.atom_energy(1, 2)
        assert eps3.min() < asymptote - 0.02

    @pytest.mark.slow
    def test_coupling_peak_at_avoided_crossing(self):
        # Q_34 must peak where the 3-4 gap is smallest
        rho_grid = np.linspace(14.0, 28.0, 15)
        sol = solve_with_couplings(DTMU, GRID_COARSE, rho_grid, 4)
        gap = sol.terms[:, 3] - sol.terms[:, 2]
        q34 = np.abs(sol.q_table[:, 2, 3])
        i_gap = int(np.argmin(gap))
        i_q = int(np.argmax(q34))
        assert abs(sol.rho_grid[i_q] - sol.rho_grid[i_gap]) <= 2.5


class TestFileContract:
    def test_roundtrip(self, small_solution, tmp_path):
        sol = small_solution
        h, q = sol.h_table, sol.q_table
        path = tmp_path / "couplings.dat"
        save_couplings(path, sol.rho_grid, sol.terms, h, q,
                       {"config-digest": "test"})
        rho, eps, h2, q2, meta = load_couplings(path)
        assert np.array_equal(rho, sol.rho_grid)
        assert np.abs(eps - sol.terms).max() == 0.0
        assert np.abs(h2 - h).max() == 0.0
        assert np.abs(q2 - q).max() == 0.0
        assert meta["config-digest"] == "test"

    def test_terms_roundtrip(self, small_solution, tmp_path):
        sol = small_solution
        path = tmp_path / "terms.dat"
        save_terms(path, sol.rho_grid, sol.terms,
                   {**sol.meta, "config-digest": "test"})
        rho, eps, meta = load_terms(path)
        assert np.array_equal(rho, sol.rho_grid)
        assert np.array_equal(eps, sol.terms)
        # n_terms leads the header, then the solve's meta, then the stage's
        solve_keys = [k for k in sol.meta if k != "n_terms"]
        assert list(meta) == ["n_terms", *solve_keys, "config-digest", "columns"]
        assert int(meta["n_terms"]) == sol.terms.shape[1]
        assert meta["config-digest"] == "test"


class TestOperatorPair:
    def test_adiabatic_pair_matches_point_solve(self):
        import scipy.sparse.linalg as spla

        rho = 40.0
        tensor = build_grids(DTMU, rho, GRID_COARSE, ClusterSpec())
        a, b = assemble_adiabatic_operator(
            tensor, rho, coulomb_potential(DTMU, rho)
        )
        direct, _ = solve_adiabatic_point(
            tensor, rho, 2,
            potential=coulomb_potential(DTMU, rho), masses=DTMU,
        )
        vals = spla.eigsh(a, k=2, M=b, sigma=direct[0] - 0.2, which="LM",
                          return_eigenvectors=False)
        assert np.abs(np.sort(vals) - direct).max() < 1e-10

    @pytest.mark.parametrize("rho", [5.0, 30.0, 90.0])
    def test_band_cholesky_terms_match_sparse_eigsh(self, rho):
        # scipy's own shift-invert (a sparse LU of A - sigma B) at the same
        # shift is the independent solve
        import scipy.sparse.linalg as spla

        tensor = build_grids(DTMU, rho, GRID_COARSE, ClusterSpec())
        potential = coulomb_potential(DTMU, rho)
        a, b = assemble_adiabatic_operator(tensor, rho, potential)
        sigma = _sigma_estimate(a, b, tensor, DTMU, rho)
        direct, _ = solve_adiabatic_point(tensor, rho, 4, potential=potential,
                                          masses=DTMU)
        ref = np.sort(spla.eigsh(a, k=4, M=b, sigma=sigma, which="LM",
                                 return_eigenvectors=False))
        assert np.abs(direct - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_sigma_above_lowest_term_raises(self):
        # A - sigma B is then indefinite and has no Cholesky factor; the
        # terms nearest such a sigma need not be the lowest ones
        rho = 30.0
        tensor = build_grids(DTMU, rho, GRID_COARSE, ClusterSpec())
        potential = coulomb_potential(DTMU, rho)
        vals, _ = solve_adiabatic_point(tensor, rho, 3, potential=potential,
                                        masses=DTMU)
        with pytest.raises(EigensolverError) as err:
            solve_adiabatic_point(tensor, rho, 2, potential=potential,
                                  sigma=0.5 * (vals[1] + vals[2]))
        assert err.value.rho == rho


class TestBisection:
    # 4 points 5 apart lose basis continuity near the rho ~ 20 avoided
    # crossing: the sweep bisects and accepts 7 points
    GRID = HyperangularGrid(n_chi=21, n_theta=21)

    def test_bisected_sweep_reproduced_on_its_accepted_grid(self):
        sol = solve_with_couplings(DTMU, self.GRID, np.linspace(15.0, 30.0, 4), 3)
        assert sol.rho_grid.size == 7
        again = solve_with_couplings(DTMU, self.GRID, sol.rho_grid, 3)
        for name in ("rho_grid", "terms", "h_table", "q_table"):
            assert np.array_equal(getattr(again, name), getattr(sol, name)), name

    def test_unreachable_overlap_raises_after_bisections(self, monkeypatch):
        # no overlap reaches a floor above 1: the sweep bisects to its limit
        # and names the rho where continuity was lost
        monkeypatch.setattr(adiabatic, "OVERLAP_FLOOR", 1.5)
        with pytest.raises(TrackingError, match=r"rho=.*after 7 bisections"):
            solve_with_couplings(DTMU, self.GRID, [15.0, 20.0, 25.0], 3)


class TestMemory:
    def test_solve_terms_peak_independent_of_points(self):
        # a point's grid and basis are dropped once its eigenvalues are
        # read, so the traced peak must not grow with the number of points
        def peak(n_points):
            tracemalloc.start()
            try:
                solve_terms(DTMU, GRID_COARSE,
                            np.linspace(20.0, 30.0, n_points), 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solve_terms(DTMU, GRID_COARSE, np.linspace(20.0, 30.0, 4), 4)
        growth = peak(16) - peak(4)
        assert growth < 0.3e6, growth


class TestValidationPaths:
    def test_bad_rho_grid(self):
        with pytest.raises(ValidationError):
            solve_terms(DTMU, GRID_COARSE, [2.0, 1.0], 2)

    def test_couplings_need_three_points(self):
        with pytest.raises(ValidationError):
            solve_with_couplings(DTMU, GRID_COARSE, [30.0, 31.0], 4)

    def test_coalescence_points_ordering(self):
        (chi1, th1), (chi2, th2) = coalescence_points(DTMU)
        assert 0 < chi1 < chi2 < math.pi / 2
        assert th1 == math.pi and th2 == 0.0
