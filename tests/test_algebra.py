"""K-matrix algebra, cross sections and the shift-invert eigensolve."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from hypres.adiabatic import (HyperangularGrid, build_grids,
                              coulomb_potential, solve_adiabatic_point)
from hypres.algebra import EIGENSOLVE_WORK, KMatrix, cross_sections
from hypres.channels import ChannelSet, dtmu_masses
from hypres.errors import (
    ClosedChannelError,
    EigensolverError,
    UnsupportedShapeError,
    ValidationError,
)
from hypres.models import TwoChannelToy
from hypres.radial import build_grid, stabilization_eigenvalues

SRC = Path(__file__).resolve().parents[1] / "src" / "hypres"


def sym(rng, n, scale=5.0):
    m = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (m + m.T)


class TestKMatrix:
    def test_validation(self):
        with pytest.raises(ValidationError):
            KMatrix(energy=0.0, entries=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValidationError):
            KMatrix(energy=0.0, entries=np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestCrossSections:
    channels = ChannelSet(thresholds=(0.0, 0.5), reduced_masses=(0.5, 0.5))

    def test_zero_k(self):
        sigma = cross_sections(KMatrix(energy=1.0, entries=np.zeros((2, 2))),
                               self.channels)
        assert np.all(sigma == 0.0)

    def test_single_channel_reduction(self):
        # K12 = 0, K11 = tan d: the 2x2 algebra must collapse to the
        # one-channel sigma11 = (4 pi / k1^2) sin^2(d); checked at d = pi/4
        d = np.pi / 4.0
        e = 1.0
        km = KMatrix(energy=e, entries=np.diag([np.tan(d), 0.0]))
        sigma = cross_sections(km, self.channels)
        k1 = self.channels.k(e)[0]
        assert sigma[0, 0] == pytest.approx(4 * np.pi / k1**2 * np.sin(d) ** 2,
                                            rel=1e-12)
        assert sigma[0, 1] == 0.0 and sigma[1, 0] == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            km = KMatrix(energy=1.3, entries=sym(rng, 2))
            assert np.all(cross_sections(km, self.channels) >= 0.0)

    def test_relabeling_invariance(self):
        # relabeling channels 1 <-> 2 (swap of K entries and of k_i) permutes
        # sigma: the kinematics-stripped part sigma_ij k_i^2 obeys
        # T(P K P) = P T(K) P
        rng = np.random.default_rng(5)
        e = 2.0
        ch = ChannelSet(thresholds=(0.0, 0.5), reduced_masses=(0.5, 0.7))
        kk = ch.k(e)
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(50):
            m = sym(rng, 2)
            scaled = cross_sections(KMatrix(energy=e, entries=m), ch)
            scaled = scaled * kk[:, None] ** 2
            scaled2 = cross_sections(KMatrix(energy=e, entries=p @ m @ p), ch)
            scaled2 = scaled2 * kk[:, None] ** 2
            assert np.abs(p @ scaled @ p - scaled2).max() < 1e-10 * scaled.max()

    def test_closed_channel_error(self):
        # raised by ChannelSet.q, in plain floats
        km = KMatrix(energy=np.float64(0.3), entries=np.zeros((2, 2)))
        with pytest.raises(ClosedChannelError,
                           match=r"^channel 1 closed at E=0\.3 \(threshold 0\.5\)$"):
            cross_sections(km, self.channels)

    def test_shape_error(self):
        km = KMatrix(energy=1.0, entries=np.zeros((3, 3)))
        with pytest.raises(UnsupportedShapeError):
            cross_sections(km, self.channels)


class TestChannelSet:
    def test_momenta(self):
        ch = ChannelSet(thresholds=(0.0, 0.5), reduced_masses=(0.5, 0.5))
        q = ch.q(1.0)
        assert q[0] == pytest.approx(1.0)
        assert q[1] == pytest.approx(np.sqrt(0.5))
        k = ch.k(1.0)
        assert np.allclose(k, q)  # 2 mu = 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChannelSet(thresholds=(0.5, 0.0), reduced_masses=(1.0, 1.0))
        with pytest.raises(ValidationError):
            ChannelSet(thresholds=(0.0, 0.5), reduced_masses=(1.0, -1.0))
        with pytest.raises(ValidationError):
            ChannelSet(thresholds=(), reduced_masses=())

    def test_closed_channel_error(self):
        ch = ChannelSet(thresholds=(0.0, 0.5), reduced_masses=(0.5, 0.5))
        with pytest.raises(ClosedChannelError):
            ch.q(0.3)


def eigensolve_layer(layer):
    """(call, its LAPACK band solve, stall message, rho, maxiter) of one
    adiabatic point (21 x 21, 3 terms) or one toy box."""
    if layer == "adiabatic":
        rho, masses = 20.0, dtmu_masses()
        tensor = build_grids(masses, rho, HyperangularGrid(21, 21))
        potential = coulomb_potential(masses, rho)
        return (lambda: solve_adiabatic_point(tensor, rho, 3, potential=potential),
                "dpbtrs", f"adiabatic eigensolver stalled at rho={rho!r}", rho, 400)
    problem = TwoChannelToy().problem()
    grid = build_grid(problem, h_max=0.05)
    return (lambda: stabilization_eigenvalues(problem, 10.0, 4, grid=grid),
            "dgbtrs", "box eigensolver stalled at alpha=10.0", 10.0, 600)


@pytest.mark.parametrize("layer", ["adiabatic", "box"])
class TestShiftInvertEigsh:
    def test_counter_reads_the_band_solves(self, monkeypatch, layer):
        call, name, *_ = eigensolve_layer(layer)
        band_solve, solves = getattr(lapack, name), []

        def spy(*args, **kwargs):
            solves.append(name)
            return band_solve(*args, **kwargs)

        monkeypatch.setattr(lapack, name, spy)
        counts = []
        for _ in range(2):
            solves.clear()
            before = EIGENSOLVE_WORK["operator_applications"]
            call()
            counts.append(EIGENSOLVE_WORK["operator_applications"] - before)
            assert counts[-1] == len(solves) > 0
        assert counts[0] == counts[1]

    def test_stall_raises_eigensolver_error(self, monkeypatch, layer):
        call, _, message, rho, maxiter = eigensolve_layer(layer)

        def stall(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", stall)
        with pytest.raises(EigensolverError) as err:
            call()
        assert (str(err.value), err.value.rho, err.value.iterations) == (
            message, rho, maxiter)


class TestSolverSource:
    def lines(self, pattern):
        """The lines of src/hypres that pattern matches, as grep -rn lists them."""
        return [f"{path.name}:{n}: {line}" for path in sorted(SRC.rglob("*.py"))
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(pattern, line)]

    def test_no_sparse_matrix(self):
        # both solver layers keep their operators in LAPACK band storage
        assert self.lines(r"import scipy\.sparse as|from scipy\.sparse import|"
                          r"\.to(csr|csc|coo)\(|(coo|csr|csc)_matrix\(|"
                          r"sp\.(kron|triu)\(") == []

    def test_one_arpack_call(self):
        assert len(self.lines(r"\beigsh\(")) == 1
        assert len(self.lines(r"^START_VECTOR_SEED = ")) == 1
