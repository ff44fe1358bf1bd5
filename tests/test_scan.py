"""Stabilization scans: tracking, plateau detection, sampling."""

import math

import numpy as np
import pytest

from hypres.errors import ValidationError
from hypres.models import BoxMode
from hypres.radial import build_grid
from hypres.scan import (
    MAX_SAMPLES,
    ResonanceWindow,
    ScanConfig,
    StabilizationSpectrum,
    detect_resonances,
    sample_k,
    scan_branches,
)

from conftest import TOY_E0, TOY_GAMMA

# one channel threshold below every synthetic level, so that all of them pool
BELOW_ALL = (-10.0,)


def synthetic_crossing(e_res=1.5, slope=-0.08, coupling=2e-5, alpha0=20.0,
                       n_diabats=14):
    """Avoided-crossing model: linear diabats, one flat level, constant coupling.

    Eigenvalues of H(alpha) = diag(d_1..d_N, e_res) + c on the flat-level
    row/column, with d_k(alpha) = e_res + off_k + slope (alpha - alpha0).
    The sorted branches mimic a stabilization diagram whose only plateau
    sits at the flat-diabat energy e_res (to within c^2 / spacing).
    """
    return synthetic_resonances([(e_res, coupling)], e_res, slope, alpha0,
                                n_diabats)


def synthetic_resonances(flat, e_mid=1.5, slope=-0.08, alpha0=20.0,
                         n_diabats=14):
    """synthetic_crossing with several flat levels, given as (energy,
    coupling) pairs; each couples only to the diabats, and the plateau
    slope, hence the width, grows as its coupling squared."""
    alphas = np.linspace(alpha0 - 10.0, alpha0 + 10.0, 201)
    offsets = np.linspace(-0.9, 0.9, n_diabats)
    levels = np.empty((alphas.size, n_diabats + len(flat)))
    for ia, alpha in enumerate(alphas):
        diag = np.concatenate(
            [e_mid + offsets + slope * (alpha - alpha0), [e for e, _ in flat]]
        )
        h = np.diag(diag)
        for m, (_, coupling) in enumerate(flat):
            h[:n_diabats, n_diabats + m] = h[n_diabats + m, :n_diabats] = coupling
        levels[ia] = np.linalg.eigvalsh(h)
    return alphas, levels


def detect_synthetic(alphas, levels, thresholds=BELOW_ALL):
    spectrum = StabilizationSpectrum(alpha_grid=alphas, levels=levels)
    cfg = ScanConfig(alpha_min=alphas[0], alpha_max=alphas[-1],
                     alpha_step=alphas[1] - alphas[0],
                     n_levels=levels.shape[1], halfwidth=1.0)
    return detect_resonances(spectrum, cfg, thresholds)


class TestScanConfig:
    def test_alpha_max_kept_under_roundoff(self):
        # (20.7 - 20.0) / 0.1 = 6.99...: the step count must still be 7
        alphas = ScanConfig(alpha_min=20.0, alpha_max=20.7, alpha_step=0.1,
                            n_levels=12, halfwidth=1.0).alphas()
        assert alphas.size == 8
        assert alphas[-1] == pytest.approx(20.7, rel=1e-12)

    @pytest.mark.parametrize("lo, hi, step, count", [
        (8.0, 24.0, 0.25, 65), (50.0, 90.0, 1.0, 41), (50.0, 400.0, 1.0, 351),
    ])
    def test_repository_grids_keep_their_counts(self, lo, hi, step, count):
        alphas = ScanConfig(alpha_min=lo, alpha_max=hi, alpha_step=step,
                            n_levels=12, halfwidth=1.0).alphas()
        assert alphas.size == count
        assert alphas[-1] == hi

    @pytest.mark.parametrize("key, value", [
        ("alpha_min", -math.inf), ("alpha_min", math.nan), ("alpha_max", math.inf),
        ("alpha_max", math.nan), ("alpha_step", math.nan), ("alpha_step", math.inf),
        ("halfwidth", math.nan), ("halfwidth", math.inf), ("sigma", math.nan),
        ("sigma", -math.inf),
    ])
    def test_non_finite_refused(self, key, value):
        # unchecked, a NaN step makes alphas() raise a bare ValueError, an
        # infinite alpha_max an OverflowError, and a NaN halfwidth passes
        kwargs = {"alpha_min": 8.0, "alpha_max": 24.0, "alpha_step": 0.25,
                  "n_levels": 12, "halfwidth": 1.0, key: value}
        with pytest.raises(ValidationError, match=f"^{key}=.* must be finite$"):
            ScanConfig(**kwargs)


class TestScanBranches:
    def test_monotone_and_tracked(self, toy_spectrum):
        assert toy_spectrum.monotone_defect() <= 1e-10
        assert toy_spectrum.levels.shape[1] == 14
        assert not np.isnan(toy_spectrum.levels).any()

    def test_box_branches_have_no_plateau(self):
        box = BoxMode(offset=0.0, rho_start=1.0, rho_match=45.0)
        prob = box.problem()
        cfg = ScanConfig(alpha_min=10.0, alpha_max=40.0, alpha_step=0.5,
                         n_levels=6, halfwidth=1.0)
        grid = build_grid(prob, rho_end=cfg.alpha_max, h_max=0.05)
        spectrum = scan_branches(prob, cfg, grid=grid)
        assert spectrum.monotone_defect() <= 1e-10
        assert detect_resonances(spectrum, cfg, prob.thresholds) == []

    def test_tracking_is_bijective(self, toy_spectrum):
        # ordered labels: no two branches ever coincide along the scan
        diffs = np.diff(np.sort(toy_spectrum.levels, axis=1), axis=1)
        assert diffs.min() >= 0.0


class TestDetection:
    def test_synthetic_two_level_model(self):
        wins = detect_synthetic(*synthetic_crossing(e_res=1.5, coupling=2e-5))
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
                         n_levels=4, halfwidth=1.0)
        assert detect_resonances(spectrum, cfg, BELOW_ALL) == []

    def test_floor_keeps_two_open_channels(self):
        # a plateau between the two lowest thresholds has one open channel,
        # outside the 2x2 sample contract: only the one above both pools
        wins = detect_synthetic(*synthetic_resonances([(1.3, 2e-5), (1.7, 2e-5)]),
                                thresholds=(1.0, 1.5))
        assert len(wins) == 1
        assert abs(wins[0].e_center - 1.7) < 1e-6

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

    def test_uncoupled_crossing_has_no_window(self):
        # an exact crossing: the flat level is exactly flat, its slope has no
        # strict minimum, and a zero-width window would carry gamma_est 0
        assert detect_synthetic(*synthetic_crossing(coupling=0.0)) == []

    def test_narrowest_resonance_first(self):
        # the narrower resonance lies higher: windows go by peak density,
        # not by energy
        wins = detect_synthetic(*synthetic_resonances([(1.3, 4e-5), (1.7, 1e-5)]))
        assert len(wins) == 2
        assert abs(wins[0].e_center - 1.7) < 1e-6
        assert abs(wins[1].e_center - 1.3) < 1e-6
        assert wins[0].slope < wins[1].slope

    def test_bit_identical_stretch(self):
        # coupling 1e-12 leaves the flat level bit-identical over long
        # stretches: the smallest span in the peak is zero
        wins = detect_synthetic(*synthetic_crossing(coupling=1e-12))
        assert len(wins) == 1
        win = wins[0]
        assert abs(win.e_center - 1.5) < 1e-12
        assert np.isfinite([win.e_center, win.slope, win.gamma_est]).all()
        assert win.n_samples > 0

    def test_short_scan_finds_the_toy_resonance(self, toy_problem,
                                                toy_scan_config, toy_grid):
        # 17 alphas pile only 8 levels around the resonance: a peak must
        # not need more than that
        from dataclasses import replace

        short_cfg = replace(toy_scan_config, alpha_min=12.0, alpha_max=16.0)
        spectrum = scan_branches(toy_problem, short_cfg, grid=toy_grid)
        wins = detect_resonances(spectrum, short_cfg,
                                 thresholds=toy_problem.thresholds)
        assert len(wins) == 1
        assert abs(wins[0].e_center - TOY_E0) < 0.1 * TOY_GAMMA

    def test_window_thinned_to_max_samples(self):
        # a halfwidth that takes in every level of the 201 x 15 spectrum:
        # the window keeps MAX_SAMPLES of them, evenly spread, both ends kept
        alphas, levels = synthetic_crossing()
        assert levels.size > MAX_SAMPLES
        spectrum = StabilizationSpectrum(alpha_grid=alphas, levels=levels)
        cfg = ScanConfig(alpha_min=alphas[0], alpha_max=alphas[-1],
                         alpha_step=alphas[1] - alphas[0],
                         n_levels=levels.shape[1], halfwidth=1e12)
        (win,) = detect_resonances(spectrum, cfg, BELOW_ALL)
        assert win.n_samples == MAX_SAMPLES
        assert np.all(np.diff(win.rows[:, 0]) >= 0.0)
        assert win.rows[0, 0] == levels.min()
        assert win.rows[-1, 0] == levels.max()

    def test_needs_enough_data(self):
        spectrum = StabilizationSpectrum(
            alpha_grid=np.linspace(0, 1, 5),
            levels=np.zeros((5, 1)),
        )
        cfg = ScanConfig(alpha_min=0.0, alpha_max=1.0, alpha_step=0.25,
                         n_levels=12, halfwidth=1.0)
        with pytest.raises(ValidationError):
            detect_resonances(spectrum, cfg, BELOW_ALL)


class TestSampling:
    def test_samples_sorted_and_unique(self, toy_samples):
        assert toy_samples.shape[1] == 7
        assert np.all(np.diff(toy_samples[:, 0]) > 0)

    def test_density_concentrates_near_center(self, toy_window, toy_samples):
        # stabilization property: sample spacing shrinks near the plateau
        e = toy_samples[:, 0]
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
        for e, alpha in toy_samples[:, [0, 5]]:
            ia = int(np.argmin(np.abs(alphas - alpha)))
            row = np.sort(toy_spectrum.levels[ia])
            j = int(np.searchsorted(row, e))
            below = row[j - 2] if j >= 2 else -np.inf
            above = row[j + 1] if j + 1 < row.size else np.inf
            assert below < e < above

    def test_all_samples_symmetric(self, toy_samples):
        # 1e-6 on well-conditioned energies; samples riding the pole (huge
        # entries) only have to meet the production matching guard
        for k11, k12, k22, defect in toy_samples[:, 1:5]:
            scale = max(1.0, np.sqrt(k11**2 + 2 * k12**2 + k22**2))
            limit = 1e-6 if scale < 10.0 else 1e-4
            assert defect < limit * scale

    def test_single_energy_window(self, toy_problem, toy_grid):
        win = ResonanceWindow(
            e_center=2.5, slope=1e-4, alpha_at=12.0,
            rows=np.array([[2.5, 12.0, 3]]), gamma_est=1e-3,
        )
        out = sample_k(toy_problem, win, grid=toy_grid)
        assert out.shape == (1, 7)
        assert (out[0, 0], out[0, 5], out[0, 6]) == (2.5, 12.0, 3)

    def test_repeated_energy_sampled_once(self, toy_problem, toy_grid):
        # the second row lies within 1e-14 relative of the first: one
        # sample, with the first row's alpha and branch
        e = 2.5
        win = ResonanceWindow(
            e_center=e, slope=1e-4, alpha_at=12.0,
            rows=np.array([[e, 12.0, 3], [e * (1 + 5e-15), 12.25, 4]]),
            gamma_est=1e-3,
        )
        out = sample_k(toy_problem, win, grid=toy_grid)
        assert out.shape == (1, 7)
        assert (out[0, 0], out[0, 5], out[0, 6]) == (e, 12.0, 3)

    def test_window_below_second_threshold_rejected(self, toy_problem,
                                                    toy_grid):
        # one channel open at every energy: nothing fits the 2x2 contract
        lo, hi = sorted(toy_problem.thresholds)[:2]
        energies = np.linspace(lo, hi, 5)[1:-1]
        win = ResonanceWindow(
            e_center=float(energies[1]), slope=1e-4, alpha_at=12.0,
            rows=np.column_stack([energies, [12.0] * 3, [0, 1, 2]]),
            gamma_est=1e-3,
        )
        with pytest.raises(ValidationError, match="2x2 contract"):
            sample_k(toy_problem, win, grid=toy_grid)

    def test_empty_window_rejected(self, toy_problem, toy_grid):
        win = ResonanceWindow(
            e_center=2.5, slope=1e-4, alpha_at=12.0,
            rows=np.empty((0, 3)), gamma_est=1e-3,
        )
        with pytest.raises(ValidationError):
            sample_k(toy_problem, win, grid=toy_grid)
