"""Pole-form model, width formulas, and the background decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypres.breit_wigner import (
    BWPoleParams,
    bw_k,
    partial_width_lower_bound,
    resonance_from_pole,
)
from hypres.errors import (
    InconsistentParametersError,
    PoleEvaluationError,
    ValidationError,
)

finite = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)
amp = st.floats(min_value=0.05, max_value=1.5,
                allow_nan=False, allow_infinity=False)


def random_params(rng):
    return BWPoleParams.from_amplitudes(
        E1=rng.uniform(-1, 1),
        a1=rng.uniform(-2, 2),
        a2=rng.uniform(-2, 2),
        a=rng.uniform(-2, 2),
        beta1=rng.uniform(0.05, 1.5),
        beta2=rng.uniform(-1.5, 1.5),
    )


def mixing(rep):
    """The rotation R(nu) of a report's background decomposition."""
    c, s = math.cos(rep.mixing_angle), math.sin(rep.mixing_angle)
    return np.array([[c, s], [-s, c]])


def report_s(rep, energy):
    """S(E) = R^T [Sb - i Gamma B / (E - E0 + i Gamma/2)] R, the scattering
    form of the module docstring, from a report's fields alone."""
    phase = np.exp(1j * np.asarray(rep.eigenphases))
    amp = np.asarray(rep.beta_tilde) * phase
    core = np.diag(phase**2) - 1j * rep.Gamma * np.outer(amp, amp) / (
        energy - rep.E0 + 0.5j * rep.Gamma)
    return mixing(rep).T @ core @ mixing(rep)


def channel_amplitudes(rep):
    """Complex channel amplitudes beta_j = sum_l R_lj bt_l e^{i(Delta_l -
    Delta_j)} of the module docstring, from a report's fields alone."""
    phase = np.exp(1j * np.asarray(rep.eigenphases))
    return mixing(rep).T @ (np.asarray(rep.beta_tilde) * phase) / phase


def cayley(k):
    """S = (1 + iK)(1 - iK)^-1 of a KMatrix (the two factors commute)."""
    one = np.eye(k.n)
    return np.linalg.solve(one - 1j * k.entries, one + 1j * k.entries)


class TestPoleForm:
    def test_zero_residue_is_background(self):
        p = BWPoleParams(E1=0.0, a1=0.3, a2=-0.2, a=0.1, b1=0.0, b2=0.0, b=0.0)
        for e in [-2.0, 0.5, 3.0]:
            assert np.allclose(bw_k(p, e).entries, p.background())

    def test_direct_substitution(self):
        p = BWPoleParams(E1=0.0, a1=0.0, a2=0.0, a=0.0, b1=1.0, b2=1.0, b=1.0)
        k = bw_k(p, 1.0)
        assert np.allclose(k.entries, -np.ones((2, 2)))

    def test_pole_evaluation_error(self):
        p = BWPoleParams.from_amplitudes(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(PoleEvaluationError):
            bw_k(p, 1.5)

    def test_rank_constraint_enforced(self):
        with pytest.raises(ValidationError):
            BWPoleParams(E1=0.0, a1=0.0, a2=0.0, a=0.0, b1=1.0, b2=1.0, b=0.5)
        with pytest.raises(ValidationError):
            BWPoleParams(E1=0.0, a1=0.0, a2=0.0, a=0.0, b1=-1.0, b2=1.0, b=0.0)

    def test_from_amplitudes_exact(self):
        p = BWPoleParams.from_amplitudes(0.0, 0.1, 0.2, 0.3, 0.7, -0.4)
        # exact up to rounding of the products
        assert p.rank_defect <= 4 * np.finfo(float).eps * p.b1 * p.b2
        assert p.b == pytest.approx(-0.28)


class TestResonanceFromPole:
    def test_no_background(self):
        p = BWPoleParams.from_amplitudes(0.7, 0.0, 0.0, 0.0, 0.6, 0.3)
        rep = resonance_from_pole(p)
        assert rep.E0 == pytest.approx(0.7, abs=1e-15)
        assert rep.partial_widths[0] == pytest.approx(2 * 0.36, rel=1e-14)
        assert rep.partial_widths[1] == pytest.approx(2 * 0.09, rel=1e-14)
        assert rep.Gamma == pytest.approx(2 * 0.45, rel=1e-14)

    def test_pure_offdiagonal_background(self):
        # a1 = a2 = 0, a != 0: E0 = E1 + 2ab/(1+a^2), Gamma = 2(b1+b2)/(1+a^2)
        # (exact substitution into the closed-form expressions; checked at
        # a = 1, b1 = b2 = b = 1, E1 = 0)
        p = BWPoleParams(E1=0.0, a1=0.0, a2=0.0, a=1.0, b1=1.0, b2=1.0, b=1.0)
        rep = resonance_from_pole(p)
        assert rep.E0 == pytest.approx(2 * 1 * 1 / 2, rel=1e-14)
        assert rep.Gamma == pytest.approx(2 * 2 / 2, rel=1e-14)

    def test_width_identity_and_normalizations(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            rep = resonance_from_pole(random_params(rng))
            assert abs(rep.Gamma - sum(rep.partial_widths)) <= 1e-10 * rep.Gamma
            assert abs(sum(b * b for b in rep.beta_tilde) - 1.0) <= 1e-10
            beta = channel_amplitudes(rep)
            assert abs(sum(abs(b) ** 2 for b in beta)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_partial_widths_match_amplitude_route(self):
        # Gamma_i from the closed-form expressions equals Gamma |beta_i|^2
        # from the eigenphase decomposition
        rng = np.random.default_rng(21)
        for _ in range(300):
            rep = resonance_from_pole(random_params(rng))
            beta = channel_amplitudes(rep)
            for i in range(2):
                assert rep.partial_widths[i] == pytest.approx(
                    rep.Gamma * abs(beta[i]) ** 2, abs=1e-10 * rep.Gamma
                )

    def test_pole_position_consistency(self):
        # E1 = E0 - (Gamma/2) sum bt_j^2 tan(Delta_j) must invert the report
        rng = np.random.default_rng(33)
        for _ in range(300):
            p = random_params(rng)
            rep = resonance_from_pole(p)
            e1 = rep.E0 - 0.5 * rep.Gamma * sum(
                bt * bt * math.tan(d)
                for bt, d in zip(rep.beta_tilde, rep.eigenphases)
            )
            assert e1 == pytest.approx(p.E1, abs=1e-9 * max(1, abs(p.E1)))

    def test_bound_respected(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            rep = resonance_from_pole(random_params(rng))
            bound = partial_width_lower_bound(
                rep.mixing_angle, *rep.eigenphases
            )
            for frac in rep.branching:
                assert frac >= bound - 1e-10

    def test_degenerate_background_flag(self):
        p = BWPoleParams.from_amplitudes(0.0, 0.5, 0.5, 0.0, 0.7, 0.2)
        rep = resonance_from_pole(p)
        assert rep.degenerate_background
        assert rep.mixing_angle == 0.0

    def test_ill_conditioned_flag(self):
        p = BWPoleParams.from_amplitudes(0.0, 30.0, 0.1, 0.0, 0.7, 0.2)
        assert resonance_from_pole(p).ill_conditioned_background

    def test_unphysical_parameters_error(self):
        # zero residue: rank-1 exactly, but it has no width
        p = BWPoleParams(E1=0.0, a1=0.0, a2=0.0, a=0.0,
                         b1=0.0, b2=0.0, b=0.0)
        with pytest.raises(InconsistentParametersError):
            resonance_from_pole(p)

    def test_mixing_angle_range(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            rep = resonance_from_pole(random_params(rng))
            assert -np.pi / 4 - 1e-12 <= rep.mixing_angle <= np.pi / 4 + 1e-12

    def test_paper_scale_widths(self):
        # parameters at the dt-mu scale (widths ~ 1e-9 energy units, ratio
        # Gamma2/Gamma ~ 0.22) survive the closed forms without precision
        # loss: build amplitudes giving exactly that report and invert
        gamma = 0.47e-9
        ratio = 0.22
        beta1 = math.sqrt(0.5 * gamma * (1 - ratio))
        beta2 = math.sqrt(0.5 * gamma * ratio)
        p = BWPoleParams.from_amplitudes(-0.1592, 0.0, 0.0, 0.0, beta1, beta2)
        rep = resonance_from_pole(p)
        assert rep.Gamma == pytest.approx(gamma, rel=1e-12)
        assert rep.branching[1] == pytest.approx(ratio, rel=1e-12)


class TestLowerBound:
    def test_no_mixing(self):
        assert partial_width_lower_bound(0.0, 0.4, -0.3) == pytest.approx(0.0)

    def test_maximal(self):
        val = partial_width_lower_bound(np.pi / 4, np.pi / 2, 0.0)
        assert val == pytest.approx(0.5, abs=1e-14)

    def test_equal_phases(self):
        assert partial_width_lower_bound(np.pi / 8, 0.7, 0.7) == pytest.approx(
            0.0, abs=1e-14
        )

    @given(finite, finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_range(self, nu, d1, d2):
        val = partial_width_lower_bound(nu, d1, d2)
        assert -1e-12 <= val <= 0.5 + 1e-12


class TestScatteringForm:
    """The reported Delta_j, nu and beta_tilde against the fitted pole form."""

    def test_single_channel_reduction(self):
        # no background and beta2 = 0: S12 = 0 and S11 is the one-channel
        # resonance formula with Gamma = 2 beta1^2
        e0, gamma = 1.0, 0.1
        rep = resonance_from_pole(BWPoleParams.from_amplitudes(
            e0, 0.0, 0.0, 0.0, math.sqrt(0.5 * gamma), 0.0))
        assert (rep.E0, rep.Gamma) == pytest.approx((e0, gamma), abs=1e-15)
        for e in [0.5, 0.9, 1.0, 1.3]:
            s = report_s(rep, e)
            assert abs(s[0, 1]) < 1e-14
            expected = 1.0 - 1j * gamma / (e - e0 + 0.5j * gamma)
            assert s[0, 0] == pytest.approx(expected, abs=1e-12)
            assert s[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_far_field_approaches_background(self):
        rng = np.random.default_rng(2)
        p = random_params(rng)
        rep = resonance_from_pole(p)
        sb = report_s(rep, rep.E0 + 1e6 * rep.Gamma)
        far = report_s(rep, rep.E0 + 1e9 * rep.Gamma)
        assert np.abs(far - sb).max() < 2e-3 * np.abs(sb).max() + 1e-5

    def test_cross_representation_consistency(self):
        # the Cayley transform of bw_k(p, E) must equal the scattering form
        # built from the report of the same parameters, entrywise on a grid
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_params(rng)
            rep = resonance_from_pole(p)
            grid = p.E1 + np.concatenate(
                [np.linspace(0.05, 2.0, 25), -np.linspace(0.05, 2.0, 25)]
            )
            for e in grid:
                s1 = cayley(bw_k(p, float(e)))
                s2 = report_s(rep, float(e))
                assert np.abs(s1 - s2).max() < 1e-8

    def test_unitary_symmetric_everywhere(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        rep = resonance_from_pole(p)
        for e in rep.E0 + rep.Gamma * np.linspace(-20, 20, 41):
            s = report_s(rep, float(e))
            assert np.abs(s @ s.conj().T - np.eye(2)).max() < 1e-10
            assert np.abs(s - s.T).max() < 1e-10

    def test_residue_rank_one(self):
        rng = np.random.default_rng(8)
        p = random_params(rng)
        rep = resonance_from_pole(p)
        e = rep.E0 + 3.7 * rep.Gamma
        sb = mixing(rep).T @ np.diag(
            np.exp(2j * np.asarray(rep.eigenphases))
        ) @ mixing(rep)
        s = report_s(rep, e)
        b = (s - sb) * (e - rep.E0 + 0.5j * rep.Gamma) / (-1j * rep.Gamma)
        assert abs(np.linalg.det(b)) < 1e-10


class TestResonanceProfiles:
    channels = None  # set in setup

    def setup_method(self):
        from hypres.channels import ChannelSet

        self.channels = ChannelSet(
            thresholds=(0.0, 0.5), reduced_masses=(0.5, 0.5)
        )

    def _sigma12(self, params, energies):
        from hypres.algebra import cross_sections

        return np.array(
            [cross_sections(bw_k(params, float(e)), self.channels)[0, 1]
             for e in energies]
        )

    def test_inelastic_profile_symmetric_without_background(self):
        # with a = 0 the sigma12 profile is symmetric about E0 (up to the
        # slow kinematic 1/k^2 drift, negligible at narrow-width scale)
        p = BWPoleParams.from_amplitudes(2.0, 0.4, -0.6, 0.0, 0.003, 0.005)
        rep = resonance_from_pole(p)
        d = rep.Gamma * np.linspace(0.3, 4.0, 8)
        up = self._sigma12(p, rep.E0 + d)
        dn = self._sigma12(p, rep.E0 - d)
        assert np.abs(up - dn).max() < 1e-3 * up.max()

    def test_inelastic_profile_fano_with_background(self):
        # nonzero inelastic background: asymmetric profile with both an
        # enhancement above and a dip below the background level
        p = BWPoleParams.from_amplitudes(2.0, 0.4, -0.6, 0.3, 0.003, 0.005)
        rep = resonance_from_pole(p)
        d = rep.Gamma * np.linspace(0.3, 4.0, 8)
        up = self._sigma12(p, rep.E0 + d)
        dn = self._sigma12(p, rep.E0 - d)
        assert np.abs(up - dn).max() > 0.2 * max(up.max(), dn.max())
        background = self._sigma12(p, rep.E0 + np.array([3e3 * rep.Gamma]))[0]
        window = self._sigma12(p, rep.E0 + rep.Gamma * np.linspace(-6, 6, 121))
        assert window.max() > 1.5 * background  # resonant enhancement
        assert window.min() < 0.5 * background  # interference dip
