"""Stabilization scans: tracking, plateau detection, sampling."""

import numpy as np
import pytest

from hypres.errors import ValidationError
from hypres.models import BoxMode
from hypres.radial import build_grid
from hypres.scan import (
    ResonanceWindow,
    ScanConfig,
    StabilizationSpectrum,
    detect_resonances,
    sample_k,
    scan_branches,
)

from conftest import TOY_E0, TOY_GAMMA


def synthetic_crossing(e_res=1.5, slope=-0.08, coupling=2e-5, alpha0=20.0,
                       n_diabats=14):
    """Avoided-crossing model: linear diabats, one flat level, constant coupling.

    Eigenvalues of H(alpha) = diag(d_1..d_N, e_res) + c on the flat-level
    row/column, with d_k(alpha) = e_res + off_k + slope (alpha - alpha0).
    The sorted branches mimic a stabilization diagram whose only plateau
    sits at the flat-diabat energy e_res (to within c^2 / spacing).
    """
    alphas = np.linspace(alpha0 - 10.0, alpha0 + 10.0, 201)
    offsets = np.linspace(-0.9, 0.9, n_diabats)
    levels = np.empty((alphas.size, n_diabats + 1))
    for ia, alpha in enumerate(alphas):
        diag = np.concatenate(
            [e_res + offsets + slope * (alpha - alpha0), [e_res]]
        )
        h = np.diag(diag)
        h[:-1, -1] = h[-1, :-1] = coupling
        levels[ia] = np.linalg.eigvalsh(h)
    return alphas, levels


class TestScanBranches:
    def test_monotone_and_tracked(self, toy_spectrum):
        assert toy_spectrum.monotone_defect() <= 1e-10
        assert toy_spectrum.levels.shape[1] == 14
        assert not np.isnan(toy_spectrum.levels).any()

    def test_box_branches_have_no_plateau(self):
        box = BoxMode(offset=0.0, rho_start=1.0, rho_match=45.0)
        prob = box.problem()
        cfg = ScanConfig(alpha_min=10.0, alpha_max=40.0, alpha_step=0.5,
                         n_levels=6, e_min=0.0)
        grid = build_grid(prob, rho_end=cfg.alpha_max, h_max=0.05)
        spectrum = scan_branches(prob, cfg, grid=grid)
        assert spectrum.monotone_defect() <= 1e-10
        assert detect_resonances(spectrum, cfg) == []

    def test_tracking_is_bijective(self, toy_spectrum):
        # ordered labels: no two branches ever coincide along the scan
        diffs = np.diff(np.sort(toy_spectrum.levels, axis=1), axis=1)
        assert diffs.min() >= 0.0


class TestDetection:
    def test_synthetic_two_level_model(self):
        alphas, levels = synthetic_crossing(e_res=1.5, coupling=2e-5)
        spectrum = StabilizationSpectrum(alpha_grid=alphas, levels=levels)
        cfg = ScanConfig(alpha_min=alphas[0], alpha_max=alphas[-1],
                         alpha_step=alphas[1] - alphas[0],
                         n_levels=levels.shape[1])
        wins = detect_resonances(spectrum, cfg)
        assert wins
        win = min(wins, key=lambda w: w.slope)
        assert abs(win.e_center - 1.5) < 1e-6

    def test_monotone_spectrum_empty(self):
        alphas = np.linspace(5, 25, 101)
        levels = np.stack(
            [0.3 + 8.0 / alphas**2 * n**2 for n in range(1, 5)], axis=1
        )
        spectrum = StabilizationSpectrum(alpha_grid=alphas, levels=levels)
        cfg = ScanConfig(alpha_min=5.0, alpha_max=25.0, alpha_step=0.2,
                         n_levels=4)
        assert detect_resonances(spectrum, cfg) == []

    def test_toy_window_matches_oracle(self, toy_window):
        assert abs(toy_window.e_center - TOY_E0) < 0.1 * TOY_GAMMA
        assert toy_window.gamma_est == pytest.approx(TOY_GAMMA, rel=0.25)

    def test_exactly_one_toy_resonance(self, toy_spectrum, toy_scan_config,
                                        toy_problem):
        wins = detect_resonances(
            toy_spectrum, toy_scan_config, thresholds=toy_problem.thresholds
        )
        assert len(wins) == 1

    def test_plateau_stable_under_step_halving(self, toy_problem,
                                               toy_scan_config, toy_grid,
                                               toy_window):
        from dataclasses import replace

        fine_cfg = replace(toy_scan_config, alpha_step=0.125)
        spectrum = scan_branches(toy_problem, fine_cfg, grid=toy_grid)
        wins = detect_resonances(spectrum, fine_cfg,
                                 thresholds=toy_problem.thresholds)
        win = min(wins, key=lambda w: w.slope)
        assert abs(win.e_center - toy_window.e_center) < 0.1 * TOY_GAMMA

    def test_needs_enough_data(self):
        spectrum = StabilizationSpectrum(
            alpha_grid=np.linspace(0, 1, 5),
            levels=np.zeros((5, 1)),
        )
        cfg = ScanConfig(alpha_min=0.0, alpha_max=1.0, alpha_step=0.25)
        with pytest.raises(ValidationError):
            detect_resonances(spectrum, cfg)


class TestSampling:
    def test_samples_sorted_and_unique(self, toy_samples):
        e = np.array([s.energy for s in toy_samples])
        assert np.all(np.diff(e) > 0)

    def test_density_concentrates_near_center(self, toy_window, toy_samples):
        # stabilization property: sample spacing shrinks near the plateau
        e = np.array([s.energy for s in toy_samples])
        d = np.diff(e)
        center = toy_window.e_center
        mid = np.abs(0.5 * (e[1:] + e[:-1]) - center) < 0.5 * TOY_GAMMA
        edge = np.abs(0.5 * (e[1:] + e[:-1]) - center) > 3.0 * TOY_GAMMA
        assert mid.any() and edge.any()
        assert np.median(d[edge]) >= 5.0 * np.median(d[mid])

    def test_interlacing(self, toy_spectrum, toy_samples):
        # every sample lies strictly between the adjacent branch values at
        # its own alpha
        alphas = toy_spectrum.alpha_grid
        for s in toy_samples:
            ia = int(np.argmin(np.abs(alphas - s.alpha)))
            row = np.sort(toy_spectrum.levels[ia])
            j = int(np.searchsorted(row, s.energy))
            below = row[j - 2] if j >= 2 else -np.inf
            above = row[j + 1] if j + 1 < row.size else np.inf
            assert below < s.energy < above

    def test_all_samples_symmetric(self, toy_samples):
        # 1e-6 on well-conditioned energies; samples riding the pole (huge
        # entries) only have to meet the production matching guard
        for s in toy_samples:
            scale = max(1.0, np.sqrt(s.k11**2 + 2 * s.k12**2 + s.k22**2))
            limit = 1e-6 if scale < 10.0 else 1e-4
            assert s.defect < limit * scale

    def test_single_energy_window(self, toy_problem, toy_grid):
        win = ResonanceWindow(
            e_center=2.5, slope=1e-4, alpha_at=12.0,
            energies=np.array([2.5]), provenance=((12.0, 3),),
            gamma_est=1e-3,
        )
        out = sample_k(toy_problem, win, grid=toy_grid)
        assert len(out) == 1 and out[0].energy == 2.5

    def test_empty_window_rejected(self, toy_problem):
        win = ResonanceWindow(
            e_center=2.5, slope=1e-4, alpha_at=12.0,
            energies=np.array([]), provenance=(), gamma_est=1e-3,
        )
        with pytest.raises(ValidationError):
            sample_k(toy_problem, win)
