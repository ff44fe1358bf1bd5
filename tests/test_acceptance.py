"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-5 and 7 run on every invocation (seconds to minutes); the
full-scale three-body reproduction (criterion 6) takes about 4-6 minutes
(235 s on a 2-vCPU machine with one BLAS thread) and only runs when
HYPRES_RUN_FULL=1 is set -- everything else must pass without it.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hypres.adiabatic import (
    HyperangularGrid,
    build_grids,
    coulomb_potential,
    solve_adiabatic_point,
)
from hypres.breit_wigner import (
    BWPoleParams,
    bw_k,
    partial_width_lower_bound,
    resonance_from_pole,
)
from hypres.channels import dtmu_masses
from hypres.fitting import compare_models, fit
from hypres.models import BoxMode
from hypres.radial import build_grid, stabilization_eigenvalues

from conftest import TOY_E0
from oracles import complex_pole, pole_scan


@contextmanager
def verdict(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def synthesize(params, energies, noise=0.0, rng=None):
    """(n, 7) sample rows E K11 K12 K22 defect alpha branch of the pole
    form, with defect 0, alpha NaN and branch -1."""
    rows = []
    for e in energies:
        m = bw_k(params, float(e)).entries.copy()
        if noise:
            m = m + rng.normal(scale=noise, size=(2, 2))
            m = 0.5 * (m + m.T)
        rows.append([e, m[0, 0], m[0, 1], m[1, 1], 0.0, np.nan, -1.0])
    return np.array(rows)


def forty_sample_grid(e1):
    left = np.linspace(e1 - 0.8, e1 - 0.05, 14)
    right = np.linspace(e1 + 0.05, e1 + 0.8, 14)
    inner = e1 + np.linspace(-0.04, 0.04, 12)
    return np.unique(np.concatenate([left, right, inner]))


class TestCriterion1:
    def test_algebraic_identity_suite(self):
        with verdict(1, "algebraic identity suite"):
            rng = np.random.default_rng(20240801)
            n = 10_000
            # (a) width identity and bound (24) for every decomposition
            for _ in range(n):
                p = BWPoleParams.from_amplitudes(
                    E1=rng.uniform(-1, 1),
                    a1=rng.uniform(-2, 2),
                    a2=rng.uniform(-2, 2),
                    a=rng.uniform(-2, 2),
                    beta1=rng.uniform(0.02, 1.5),
                    beta2=rng.uniform(-1.5, 1.5),
                )
                rep = resonance_from_pole(p)
                assert abs(rep.Gamma - sum(rep.partial_widths)) <= (
                    1e-10 * rep.Gamma
                )
                bound = partial_width_lower_bound(
                    rep.mixing_angle, *rep.eigenphases
                )
                assert min(rep.branching) >= bound - 1e-10
            # (b) Cayley transform of random symmetric K: unitary symmetric
            mats = rng.uniform(-5, 5, (n, 2, 2))
            mats = 0.5 * (mats + mats.transpose(0, 2, 1))
            eye = np.eye(2)
            s = np.linalg.solve(
                (eye - 1j * mats).transpose(0, 2, 1),
                (eye + 1j * mats).transpose(0, 2, 1),
            ).transpose(0, 2, 1)
            unit = np.abs(s @ s.conj().transpose(0, 2, 1) - eye).max()
            symm = np.abs(s - s.transpose(0, 2, 1)).max()
            assert unit <= 1e-10 and symm <= 1e-10


class TestCriterion2:
    def test_fit_round_trip(self):
        with verdict(2, "fit round-trip"):
            truth = BWPoleParams.from_amplitudes(
                E1=1.0, a1=0.4, a2=-0.7, a=0.3, beta1=0.8, beta2=-0.5
            )
            truth_rep = resonance_from_pole(truth)
            energies = forty_sample_grid(truth.E1)
            assert energies.size == 40
            res = fit(synthesize(truth, energies))
            for got, want in [
                (res.report.E0, truth_rep.E0),
                (res.report.Gamma, truth_rep.Gamma),
                (res.report.partial_widths[0], truth_rep.partial_widths[0]),
                (res.report.partial_widths[1], truth_rep.partial_widths[1]),
            ]:
                assert abs(got - want) <= 1e-8 * abs(want)

            rng = np.random.default_rng(7)
            kmax = max(
                np.abs(bw_k(truth, float(e)).entries).max() for e in energies
            )
            worst = []
            for _ in range(100):
                noisy = synthesize(truth, energies, noise=1e-5 * kmax, rng=rng)
                r = fit(noisy)
                worst.append(
                    max(
                        abs(r.report.E0 - truth_rep.E0) / abs(truth_rep.E0),
                        abs(r.report.Gamma - truth_rep.Gamma) / truth_rep.Gamma,
                        abs(r.report.partial_widths[0]
                            - truth_rep.partial_widths[0])
                        / truth_rep.partial_widths[0],
                        abs(r.report.partial_widths[1]
                            - truth_rep.partial_widths[1])
                        / truth_rep.partial_widths[1],
                    )
                )
            assert np.percentile(worst, 95) <= 1e-3


class TestCriterion3:
    def test_toy_model_oracle_equivalence(self, toy_problem, toy_fit):
        with verdict(3, "toy-model oracle equivalence"):
            # independent oracle first: complex-plane root of the
            # outgoing-wave determinant, seeded by a coarse scan
            seeds, _, _ = pole_scan(
                toy_problem, 2.9, 3.15, n_e=120, gamma_scale=3e-3,
                n_steps=4000,
            )
            poles = []
            for seed in seeds:
                e0, gam = complex_pole(toy_problem, seed, 3e-3, n_steps=12000)
                if 2.9 < e0 < 3.15 and 1e-5 < gam < 0.05:
                    if not any(abs(e0 - p[0]) < 1e-6 for p in poles):
                        poles.append((e0, gam))
            assert len(poles) == 1, poles
            e0_oracle, gamma_oracle = poles[0]
            assert abs(e0_oracle - TOY_E0) < 1e-6  # frozen value sanity

            res = toy_fit
            assert abs(res.report.E0 - e0_oracle) <= 0.01 * gamma_oracle
            assert abs(res.report.Gamma - gamma_oracle) <= 0.01 * gamma_oracle


class TestCriterion4:
    def test_hyperangular_solver_checks(self):
        with verdict(4, "hyperangular solver checks"):
            # bare-operator spectrum at N_chi = N_theta = 61
            grid = HyperangularGrid(n_chi=61, n_theta=61)
            tensor = build_grids(None, 1.0, grid)
            vals, _ = solve_adiabatic_point(tensor, 1.0, 6, sigma=-1.0)
            exact = np.array([0.0, 12.0, 12.0, 32.0, 32.0, 32.0])
            rel = np.abs(vals[1:] - exact[1:]) / exact[1:]
            assert rel.max() <= 1e-3

            # hydrogenic thresholds: exact 1/4 ratio and the large-rho term
            masses = dtmu_masses()
            e1_inf = masses.atom_energy(1, 1)
            e3_inf = masses.atom_energy(1, 2)
            assert abs(e3_inf / e1_inf - 0.25) <= 1e-4

            rho = 500.0
            fine = HyperangularGrid(n_chi=181, n_theta=91)
            tensor = build_grids(masses, rho, fine)
            vals, _ = solve_adiabatic_point(
                tensor, rho, 2,
                potential=coulomb_potential(masses, rho),
            )
            assert abs(vals[0] - e1_inf) <= 1e-4


class TestCriterion5:
    def test_stabilization_properties(self, toy_spectrum):
        with verdict(5, "stabilization properties"):
            # analytic box spectrum in test mode
            box = BoxMode(offset=0.7, rho_start=1.0, rho_match=40.0)
            prob = box.problem()
            grid = build_grid(prob, rho_end=14.0, h_max=0.02)
            for alpha in (9.0, 11.0, 13.0):
                vals = stabilization_eigenvalues(prob, alpha, 5, grid=grid)
                assert np.abs(vals - box.exact_levels(alpha, 5)).max() <= 1e-6

            # every tracked branch nonincreasing at every step
            diffs = np.diff(toy_spectrum.levels, axis=0)
            assert np.nanmax(diffs) <= 1e-10


@pytest.mark.paper
@pytest.mark.skipif(
    os.environ.get("HYPRES_RUN_FULL") != "1",
    reason="full three-body reproduction takes about 4-6 minutes; set HYPRES_RUN_FULL=1",
)
class TestCriterion6:
    def test_full_three_body_reproduction(self, tmp_path):
        with verdict(6, "full three-body reproduction"):
            from hypres.pipeline import STAGE_TABLE, RunConfig, run_pipeline
            from hypres.tableio import read_keyvalues

            ini = tmp_path / "full.ini"
            ini.write_text(
                "[system]\nkind = three-body\n"
                "[scan]\nsigma = -0.16\nn_levels = 16\n"
                f"[output]\ndirectory = {tmp_path / 'out'}\n"
            )
            config = RunConfig.from_file(ini)
            start = time.time()
            run_pipeline(config, resonance=0)
            # each stage's wall time: from the previous stage's last artifact
            # (the run's start for the first) to its own, by modification time
            ends = [max((config.out_dir() / name.format(resonance=0)).stat().st_mtime
                        for name in stage.outputs) for stage in STAGE_TABLE]
            stage_s = " ".join(f"{stage.name} {end - begin:.1f}"
                               for stage, begin, end in zip(STAGE_TABLE, [start, *ends], ends))
            # the pipeline's last artifact is the xsec profile; the fit
            # report is the fit stage's
            pairs, _ = read_keyvalues(config.out_dir() / "fit_0.txt")
            minus_e0 = pairs["minus_E0"]
            gamma = pairs["Gamma"]
            ratio = pairs["Gamma2_over_Gamma"]
            # shown with pytest -rP, the verdict's numbers in one line
            print(f"criterion 6: minus_E0 {minus_e0!r} Gamma {gamma!r} "
                  f"Gamma2_over_Gamma {ratio!r} start {pairs['start']} "
                  f"iterations {pairs['iterations']} stage_s {stage_s}")
            assert abs(minus_e0 - 0.15917) <= 1e-3 * 0.15917
            assert 0.5 * 0.47e-9 <= gamma <= 2.0 * 0.47e-9
            assert abs(ratio - 0.22) <= 0.10


class TestCriterion7:
    def test_model_comparison_property(self):
        with verdict(7, "model-comparison property"):
            rng = np.random.default_rng(99)
            energies = forty_sample_grid(1.0)

            with_bg = BWPoleParams.from_amplitudes(
                E1=1.0, a1=0.4, a2=-0.7, a=0.3, beta1=0.8, beta2=-0.5
            )
            truth = resonance_from_pole(with_bg)
            cmp_bg = compare_models(synthesize(with_bg, energies))
            assert abs(
                cmp_bg.general.report.branching[1] - truth.branching[1]
            ) <= 1e-6
            assert abs(
                cmp_bg.diagonal.report.branching[1] - truth.branching[1]
            ) > 1e-3  # measurable shift when the background is ignored

            no_bg = BWPoleParams.from_amplitudes(
                E1=1.0, a1=0.4, a2=-0.7, a=0.0, beta1=0.8, beta2=-0.5
            )
            cmp0 = compare_models(synthesize(no_bg, energies))
            for attr in ("E0", "Gamma"):
                g = getattr(cmp0.general.report, attr)
                d = getattr(cmp0.diagonal.report, attr)
                assert abs(g - d) <= 1e-6 * max(1.0, abs(g))
            assert cmp0.branching_shift <= 1e-6
            _ = rng
