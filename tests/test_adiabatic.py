"""Adiabatic terms, couplings and their invariants for Coulomb systems."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from hypres import adiabatic
from hypres.adiabatic import (
    HyperangularGrid,
    assemble_adiabatic_operator,
    coalescence_points,
    coulomb_potential,
    solve_adiabatic_point,
    solve_terms,
    solve_with_couplings,
    build_grids,
    _on_quadrature,
    _sigma_estimate,
)
from hypres.channels import ThreeBodyMasses, dtmu_masses
from hypres.errors import EigensolverError, TrackingError, ValidationError
from hypres.fem import (
    Grid1D,
    element_tables,
    mass_matrix,
    potential_blocks,
    stiffness_matrix,
)
from hypres.tableio import load_couplings, load_terms, save_couplings, save_terms

DTMU = dtmu_masses()
GRID_FINE = HyperangularGrid(n_chi=181, n_theta=91)
GRID_COARSE = HyperangularGrid(n_chi=61, n_theta=31)


def orthonormality_defect(tensor, vecs):
    """Max |<phi_i|phi_j> - delta_ij| of one point's basis, by quadrature."""
    kern, _, _, vals = _on_quadrature(tensor, vecs)
    gram = np.einsum("xy,jxy,Jxy->jJ", kern, vals, vals)
    return float(np.abs(gram - np.eye(vecs.shape[0])).max())


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
        tensor = build_grids(DTMU, rho, GRID_FINE)
        vals, _ = solve_adiabatic_point(
            tensor, rho, 4, potential=coulomb_potential(DTMU, rho),
        )
        oracle = -(DTMU.m1 / (DTMU.m1 + 1.0)) / 2.0
        assert abs(vals[0] - oracle) < 1e-4

    @pytest.mark.slow
    def test_threshold_approach_improves(self):
        oracle = DTMU.atom_energy(1, 1)
        errs = []
        for rho in (100.0, 300.0, 500.0):
            tensor = build_grids(DTMU, rho, GRID_FINE)
            vals, _ = solve_adiabatic_point(
                tensor, rho, 2,
                potential=coulomb_potential(DTMU, rho),
            )
            errs.append(abs(vals[0] - oracle))
        assert errs[0] > errs[1] > errs[2]

    def test_term_ordering(self, small_solution):
        for row in small_solution.terms:
            assert np.all(np.diff(row) >= 0.0)


class TestBasisInvariants:
    def test_orthonormality(self, small_solution):
        for rho in small_solution.rho_grid:
            tensor = build_grids(DTMU, rho, GRID_COARSE)
            _, vecs = solve_adiabatic_point(
                tensor, rho, 4, potential=coulomb_potential(DTMU, rho),
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
            tensor = build_grids(DTMU, rho, grid)
            vals[grid.n_chi], _ = solve_adiabatic_point(
                tensor, rho, 4,
                potential=coulomb_potential(DTMU, rho),
            )
        assert np.all(vals[121] <= vals[61] + 3e-4)


class TestSymmetricSystem:
    def test_exchange_parity(self):
        # equal heavy masses: terms carry definite parity under the heavy
        # exchange, which maps theta -> pi - theta at fixed chi
        masses = ThreeBodyMasses(m1=10.0, m2=10.0)
        rho = 20.0
        grid = HyperangularGrid(n_chi=61, n_theta=41)
        tensor = build_grids(masses, rho, grid)
        vals, vecs = solve_adiabatic_point(
            tensor, rho, 4,
            potential=coulomb_potential(masses, rho),
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


def dense_from_band(band):
    """The symmetric matrix whose upper LAPACK band is band."""
    kd, n = band.shape[0] - 1, band.shape[1]
    a = np.zeros((n, n))
    for d in range(kd + 1):
        j = np.arange(d, n)
        a[j - d, j] = a[j, j - d] = band[kd - d, d:]
    return a


def dense_assembly(tensor, rho, potential):
    """A from the same element blocks, assembled densely: np.kron of the
    1D matrices, and each potential block scattered by global index, then
    symmetrized."""
    tx, ty = element_tables(tensor.gx), element_tables(tensor.gy)
    sin2 = lambda x: np.sin(x) ** 2
    a = (4.0 / rho**2) * (
        np.kron(stiffness_matrix(tx, sin2), mass_matrix(ty, np.sin))
        + np.kron(mass_matrix(tx), stiffness_matrix(ty, np.sin)))
    if potential is not None:
        local = potential_blocks(tx, ty, potential, sin2, np.sin)
        ny = tensor.gy.n_nodes
        ix = 2 * np.arange(local.shape[0])[:, None] + np.arange(3)
        iy = 2 * np.arange(local.shape[1])[:, None] + np.arange(3)
        rows = ix[:, None, :, None, None, None] * ny + iy[None, :, None, None, :, None]
        cols = ix[:, None, None, :, None, None] * ny + iy[None, :, None, None, None, :]
        v = np.zeros_like(a)
        np.add.at(v, (np.broadcast_to(rows, local.shape),
                      np.broadcast_to(cols, local.shape)), local)
        a += 0.5 * (v + v.T)
    return a


def dense_lowest(band, b_pair, k):
    """The k lowest eigenvalues of the pair, by dense generalized eigh of the
    whole spectrum: the subset driver (gvx) of the same pair strays by up to
    5e-10 where B's condition number reaches 1e8."""
    return scipy.linalg.eigh(dense_from_band(band), np.kron(*b_pair),
                             eigvals_only=True)[:k]


class TestOperatorPair:
    GRID = HyperangularGrid(n_chi=21, n_theta=21)

    @pytest.mark.parametrize("coulomb", [False, True], ids=["bare", "coulomb"])
    def test_band_equals_dense_assembly(self, coulomb):
        rho = 20.0
        if coulomb:
            tensor = build_grids(DTMU, rho, self.GRID)
            potential = coulomb_potential(DTMU, rho)
        else:
            tensor = build_grids(None, rho, self.GRID)
            potential = None
        band, _ = assemble_adiabatic_operator(tensor, rho, potential)
        ref = dense_assembly(tensor, rho, potential)
        assert np.abs(dense_from_band(band) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_mass_operator_is_the_kronecker_product(self, monkeypatch):
        # the M that ARPACK applies is kron(M2chi, Mtheta), never formed
        rho = 20.0
        tensor = build_grids(DTMU, rho, self.GRID)
        potential = coulomb_potential(DTMU, rho)
        _, (m2_chi, m_th) = assemble_adiabatic_operator(tensor, rho, potential)
        seen = {}
        eigsh = spla.eigsh

        def spy(*args, **kwargs):
            seen["M"] = kwargs["M"]
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", spy)
        solve_adiabatic_point(tensor, rho, 3, potential=potential)
        x = np.random.default_rng(1).standard_normal(tensor.n_dof)
        ref = np.kron(m2_chi, m_th) @ x
        assert np.abs(seen["M"] @ x - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_one_quadrature_per_grid(self, monkeypatch):
        calls = []
        quadrature = Grid1D.quadrature

        def counted(grid):
            calls.append(grid)
            return quadrature(grid)

        monkeypatch.setattr(Grid1D, "quadrature", counted)
        rho = 20.0
        tensor = build_grids(DTMU, rho, self.GRID)
        solve_adiabatic_point(tensor, rho, 3, potential=coulomb_potential(DTMU, rho))
        assert len(calls) == 2
        assert {id(g) for g in calls} == {id(tensor.gx), id(tensor.gy)}

    def test_two_quadratures_per_swept_point(self, monkeypatch):
        # the couplings sweep measures each point on the quadrature its
        # assembly computed: one call per 1D grid of each solved point
        calls, solved = [], []
        quadrature = Grid1D.quadrature
        solve = adiabatic.solve_adiabatic_point

        def counted(grid):
            calls.append(grid)
            return quadrature(grid)

        def counted_solve(tensor, *args, **kwargs):
            solved.append(tensor)
            return solve(tensor, *args, **kwargs)

        monkeypatch.setattr(Grid1D, "quadrature", counted)
        monkeypatch.setattr(adiabatic, "solve_adiabatic_point", counted_solve)
        solve_with_couplings(DTMU, self.GRID, [20.0, 21.0, 22.0], 3)
        assert len(solved) >= 3
        assert len(calls) == 2 * len(solved)

    @pytest.mark.parametrize("n_terms", [0, -1, 441, 600])
    def test_impossible_term_count_refused(self, n_terms):
        rho = 20.0
        tensor = build_grids(DTMU, rho, self.GRID)
        with pytest.raises(ValidationError, match="n_terms"):
            solve_adiabatic_point(tensor, rho, n_terms,
                                  potential=coulomb_potential(DTMU, rho))

    def test_adiabatic_pair_matches_point_solve(self):
        rho = 40.0
        tensor = build_grids(DTMU, rho, GRID_COARSE)
        band, b_pair = assemble_adiabatic_operator(
            tensor, rho, coulomb_potential(DTMU, rho)
        )
        direct, _ = solve_adiabatic_point(
            tensor, rho, 2,
            potential=coulomb_potential(DTMU, rho),
        )
        vals = dense_lowest(band, b_pair, 2)
        assert np.abs(vals - direct).max() < 1e-10

    @pytest.mark.parametrize("rho", [0.05, 5.0, 30.0, 90.0, 500.0])
    def test_band_cholesky_terms_match_dense_eigh(self, rho):
        # a dense generalized eigh of the same pair is the independent solve;
        # the estimated shift lies below its lowest term, also at the ends
        # of the full INI's sweep (rho 0.05 and 500)
        tensor = build_grids(DTMU, rho, GRID_COARSE)
        potential = coulomb_potential(DTMU, rho)
        band, b_pair = assemble_adiabatic_operator(tensor, rho, potential)
        sigma = _sigma_estimate(band, b_pair, tensor, rho)
        direct, _ = solve_adiabatic_point(tensor, rho, 4, potential=potential)
        ref = dense_lowest(band, b_pair, 4)
        assert sigma < ref[0]
        assert np.abs(direct - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("rho", [20.0, 100.0, 300.0])
    def test_sigma_close_below_lowest_term(self, rho):
        # shift-invert converges with (eps_k - sigma) / (eps_k+1 - sigma): the
        # constant trial's shift stays within 0.75 of the lowest term
        tensor = build_grids(DTMU, rho, GRID_COARSE)
        band, b_pair = assemble_adiabatic_operator(
            tensor, rho, coulomb_potential(DTMU, rho))
        sigma = _sigma_estimate(band, b_pair, tensor, rho)
        lowest = dense_lowest(band, b_pair, 1)[0]
        assert lowest - 0.75 < sigma < lowest

    def test_sigma_above_lowest_term_raises(self):
        # A - sigma B is then indefinite and has no Cholesky factor; the
        # terms nearest such a sigma need not be the lowest ones
        rho = 30.0
        tensor = build_grids(DTMU, rho, GRID_COARSE)
        potential = coulomb_potential(DTMU, rho)
        vals, _ = solve_adiabatic_point(tensor, rho, 3, potential=potential)
        with pytest.raises(EigensolverError) as err:
            solve_adiabatic_point(tensor, rho, 2, potential=potential,
                                  sigma=0.5 * (vals[1] + vals[2]))
        assert err.value.rho == rho


class TestDifferencing:
    GRID = HyperangularGrid(n_chi=21, n_theta=21)

    def test_rows_follow_the_difference_formulas(self):
        # three unevenly spaced points that need no bisection: each row is
        # rebuilt here from its own solve, its basis signs aligned as the
        # sweep aligns them (positive mean first, then positive overlap with
        # the previous point), and the derivative of the Lagrange
        # interpolant through the stencil (one-sided at either end)
        rho = np.array([30.0, 30.5, 31.5])
        sol = solve_with_couplings(DTMU, self.GRID, rho, 3)
        assert np.array_equal(sol.rho_grid, rho)
        assert len(sol.h_table) == len(sol.q_table) == 3
        points = []
        for r in rho:
            tensor = build_grids(DTMU, r, self.GRID)
            vals, vecs = solve_adiabatic_point(
                tensor, r, 3, potential=coulomb_potential(DTMU, r))
            px, wx, py, wy = tensor.quad_points()
            kern = np.outer(wx * np.sin(px) ** 2, wy * np.sin(py))
            here = tensor.evaluate(vecs, px, py)
            ref = (np.ones_like(here) if not points
                   else points[-1][0].evaluate(points[-1][1], px, py))
            flip = np.where(np.einsum("xy,jxy,jxy->j", kern, ref, here) < 0.0,
                            -1.0, 1.0)
            points.append((tensor, vecs * flip[:, None], kern, px, py))
            assert np.array_equal(sol.terms[len(points) - 1], vals)

        x0, x1, x2 = rho
        weights = [
            {0: -1.0 / (x1 - x0), 1: 1.0 / (x1 - x0)},
            {0: (x1 - x2) / ((x0 - x1) * (x0 - x2)),
             1: (2.0 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2)),
             2: (x1 - x0) / ((x2 - x0) * (x2 - x1))},
            {1: -1.0 / (x2 - x1), 2: 1.0 / (x2 - x1)},
        ]
        for k, stencil in enumerate(weights):
            _, _, kern, px, py = points[k]
            phi = {i: points[i][0].evaluate(points[i][1], px, py) for i in stencil}
            dphi = sum(w * phi[i] for i, w in stencil.items())
            h = np.einsum("xy,jxy,Jxy->jJ", kern, dphi, dphi)
            q = -np.einsum("xy,jxy,Jxy->jJ", kern, phi[k], dphi)
            q = 0.5 * (q - q.T)
            assert np.abs(sol.h_table[k] - h).max() <= 1e-12 * np.abs(h).max(), k
            assert np.abs(sol.q_table[k] - q).max() <= 1e-12 * np.abs(q).max(), k


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

    def test_couplings_sweep_peak_independent_of_points(self):
        # the sweep keeps the last accepted basis and its row, not every
        # point's basis: 8 unbisected points peak as 4 do
        def peak(n_points):
            tracemalloc.start()
            try:
                sol = solve_with_couplings(
                    DTMU, GRID_COARSE,
                    np.linspace(30.0, 30.0 + 0.75 * (n_points - 1), n_points), 4)
                assert sol.rho_grid.size == n_points
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(8) - peak(4)
        assert growth < 0.1e6, growth


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
