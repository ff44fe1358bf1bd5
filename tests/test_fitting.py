"""Least-squares recovery of pole parameters from sampled K(E)."""

import math
from pathlib import Path

import numpy as np
import pytest

from hypres import fitting
from hypres.breit_wigner import BWPoleParams, bw_k, resonance_from_pole
from hypres.errors import BracketError, CacheError, FitFailureError, ValidationError
from hypres.fitting import compare_models, fit, initial_guess
from hypres.samples import read_samples, write_samples

DATA = Path(__file__).parent / "data"

TRUTH = BWPoleParams.from_amplitudes(
    E1=1.0, a1=0.4, a2=-0.7, a=0.3, beta1=0.8, beta2=-0.5
)


def sample_grid(center=1.0, halfwidth=0.8, n_outer=28, n_inner=12):
    outer = np.concatenate(
        [
            np.linspace(center - halfwidth, center - 0.07, n_outer // 2),
            np.linspace(center + 0.07, center + halfwidth, n_outer // 2),
        ]
    )
    inner = center + np.linspace(-0.06, 0.06, n_inner)
    grid = np.unique(np.concatenate([outer, inner]))
    return grid[grid != center]


def sample_rows(energies, k11, k12, k22):
    """(n, 7) sample rows E K11 K12 K22 defect alpha branch of constant K,
    with defect 0, alpha NaN and branch -1."""
    return np.column_stack(
        np.broadcast_arrays(energies, k11, k12, k22, 0.0, np.nan, -1.0))


def synthesize(params, energies, noise=0.0, rng=None):
    rows = []
    for e in energies:
        m = bw_k(params, float(e)).entries.copy()
        if noise:
            m = m + rng.normal(scale=noise, size=(2, 2))
            m = 0.5 * (m + m.T)
        rows.append([e, m[0, 0], m[0, 1], m[1, 1], 0.0, np.nan, -1.0])
    return np.array(rows)


class TestInitialGuess:
    def test_exact_samples_recover_pole(self):
        samples = synthesize(TRUTH, sample_grid())
        guess = initial_guess(samples)
        assert guess.E1 == pytest.approx(TRUTH.E1, rel=0.01)

    def test_constant_samples_bracket_error(self):
        samples = sample_rows(np.linspace(0, 1, 12), 0.3, 0.1, -0.2)
        with pytest.raises(BracketError):
            initial_guess(samples)

    def test_too_few_samples(self):
        with pytest.raises(BracketError):
            initial_guess(sample_rows([0.0, 0.0], 1.0, 0.0, 0.0))

    def test_narrow_scale_guess_inside_window(self):
        # samples at the deep-three-body scale: widths ~ 1e-9 energy units
        gamma = 0.5e-9
        truth = BWPoleParams.from_amplitudes(
            E1=-0.1592, a1=0.8, a2=-0.4, a=0.25,
            beta1=np.sqrt(0.4 * gamma), beta2=-np.sqrt(0.1 * gamma),
        )
        energies = truth.E1 + gamma * np.concatenate(
            [np.linspace(-6, -0.2, 18), np.linspace(0.2, 6, 18)]
        )
        samples = synthesize(truth, energies)
        guess = initial_guess(samples)
        assert energies.min() <= guess.E1 <= energies.max()


class TestRoundTrip:
    def test_noiseless_recovery(self):
        samples = synthesize(TRUTH, sample_grid())
        res = fit(samples)
        truth_rep = resonance_from_pole(TRUTH)
        for got, want in [
            (res.params.E1, TRUTH.E1),
            (res.params.a1, TRUTH.a1),
            (res.params.a2, TRUTH.a2),
            (res.params.a, TRUTH.a),
            (res.params.b1, TRUTH.b1),
            (res.params.b2, TRUTH.b2),
            (res.report.E0, truth_rep.E0),
            (res.report.Gamma, truth_rep.Gamma),
            (res.report.partial_widths[0], truth_rep.partial_widths[0]),
            (res.report.partial_widths[1], truth_rep.partial_widths[1]),
        ]:
            assert got == pytest.approx(want, rel=1e-8)
        assert res.params.rank_defect <= 1e-12

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1234)
        energies = sample_grid()
        kmax = max(
            np.abs(bw_k(TRUTH, float(e)).entries).max() for e in energies
        )
        errs = []
        for _ in range(25):
            samples = synthesize(TRUTH, energies, noise=1e-5 * kmax, rng=rng)
            res = fit(samples)
            errs.append(
                max(
                    abs(res.params.E1 - TRUTH.E1) / abs(TRUTH.E1),
                    abs(res.params.a1 - TRUTH.a1) / abs(TRUTH.a1),
                    abs(res.params.b1 - TRUTH.b1) / TRUTH.b1,
                )
            )
        assert np.percentile(errs, 95) < 1e-3

    def test_deterministic(self):
        samples = synthesize(TRUTH, sample_grid())
        r1 = fit(samples)
        r2 = fit(samples)
        assert r1.params == r2.params
        assert r1.residual == r2.residual

    def test_order_invariance(self):
        samples = synthesize(TRUTH, sample_grid())
        r1 = fit(samples)
        r2 = fit(samples[::-1])
        assert r1.params.E1 == pytest.approx(r2.params.E1, rel=1e-12)
        assert r1.residual == pytest.approx(r2.residual, rel=1e-9)

    def test_shared_pole_across_entries(self):
        # the fitted model has one real pole common to all three entries
        samples = synthesize(TRUTH, sample_grid())
        res = fit(samples)
        km = res.params
        for e in [km.E1 + 1e-9, km.E1 - 1e-9]:
            vals = bw_k(km, e).entries
            assert np.abs(vals).min() > 1e6  # every entry blows up together


class TestAdmissiblePole:
    def test_coarse_three_body_samples(self):
        # the variable-projection start collapses onto the top sample energy
        # on these samples; the fit must fall back to the physical pole
        samples, _ = read_samples(DATA / "threebody_coarse_ksamples.dat")
        res = fit(samples, weighting="relative", model="general")
        e = samples[:, 0]
        assert (e < res.params.E1).sum() >= 2
        assert (e > res.params.E1).sum() >= 2
        assert res.start == "guess"
        assert res.report.Gamma >= 0.0

    def test_pole_outside_window_rejected(self):
        # every sample lies above the pole: no start can be admissible
        energies = np.linspace(TRUTH.E1 + 0.05, TRUTH.E1 + 0.8, 20)
        samples = synthesize(TRUTH, energies)
        with pytest.raises(FitFailureError) as err:
            fit(samples)
        assert err.value.best_params is not None

    def test_zero_width_pole_rejected(self, monkeypatch):
        # a converged pole inside the window whose residue underflows: b1 +
        # b2 = 2e-302, far below the float spacing at E1, so no energy grid
        # resolves its width and no start is left
        samples = synthesize(TRUTH, sample_grid())

        def collapsed(theta0, e, k, w, model):
            theta = theta0.copy()
            theta[0], theta[-2:] = TRUTH.E1 + 0.01, (1e-151, -1e-151)
            return theta, 1.0, 1, True

        monkeypatch.setattr(fitting, "_lm_minimize", collapsed)
        with pytest.raises(FitFailureError, match="float spacing at E1"):
            fit(samples)


class TestModelComparison:
    def test_nested_on_background_free_truth(self):
        truth = BWPoleParams.from_amplitudes(1.0, 0.4, -0.7, 0.0, 0.8, -0.5)
        samples = synthesize(truth, sample_grid())
        cmp_ = compare_models(samples)
        for attr in ("E0", "Gamma"):
            assert getattr(cmp_.general.report, attr) == pytest.approx(
                getattr(cmp_.diagonal.report, attr), rel=1e-6, abs=1e-12
            )
        assert cmp_.branching_shift < 1e-6

    def test_background_shifts_branching(self):
        samples = synthesize(TRUTH, sample_grid())
        cmp_ = compare_models(samples)
        truth_rep = resonance_from_pole(TRUTH)
        assert cmp_.general.report.branching[1] == pytest.approx(
            truth_rep.branching[1], rel=1e-6
        )
        assert cmp_.branching_shift > 0.01  # diagonal model misses it
        assert cmp_.residual_ratio >= 1.0

    def test_residual_nesting(self):
        samples = synthesize(TRUTH, sample_grid())
        cmp_ = compare_models(samples)
        assert cmp_.general.residual <= cmp_.diagonal.residual * (1 + 1e-12)

    def test_general_start_polished_once(self, monkeypatch):
        # both models admissible: the general fit computes its varpro start
        # once and polishes each distinct start (varpro, guess, diagonal
        # solution) exactly once
        samples = synthesize(TRUTH, sample_grid())
        starts, refined = [], []
        lm_minimize, varpro_refine = fitting._lm_minimize, fitting._varpro_refine

        def recording_lm(theta0, e, k, w, model):
            starts.append((model, tuple(theta0)))
            return lm_minimize(theta0, e, k, w, model)

        def recording_refine(*args):
            refined.append(args[-1])  # the model is the last argument
            return varpro_refine(*args)

        monkeypatch.setattr(fitting, "_lm_minimize", recording_lm)
        monkeypatch.setattr(fitting, "_varpro_refine", recording_refine)
        cmp_ = compare_models(samples)
        assert cmp_.diagonal is not None
        general = [theta for model, theta in starts if model == "general"]
        assert refined.count("general") == 1
        assert len(general) == len(set(general)) == 3

    def test_diagonal_pins_background_at_positive_zero(self):
        # a guess with a != 0 must not leak into the diagonal fit, and the
        # pinned a must be +0.0 (a -0.0 would print as such in fit_0.txt)
        samples = synthesize(TRUTH, sample_grid())
        diag = fit(samples, model="diagonal", guesses=(TRUTH,))
        cmp_ = compare_models(samples)
        for params in (diag.params, cmp_.diagonal.params):
            assert params.a == 0.0
            assert math.copysign(1.0, params.a) == 1.0

    @pytest.mark.parametrize("weighting", ["relative", "uniform"])
    def test_diagonal_without_admissible_start(self, weighting):
        # on these samples only the general model has an admissible start:
        # the comparison keeps the general fit from the guess alone
        samples, _ = read_samples(DATA / "threebody_coarse_ksamples_discrete.dat")
        with pytest.raises(FitFailureError):
            fit(samples, weighting=weighting, model="diagonal")
        cmp_ = compare_models(samples, weighting=weighting)
        assert cmp_.diagonal is None
        assert math.isnan(cmp_.residual_ratio)
        assert math.isnan(cmp_.branching_shift)
        alone = fit(samples, weighting=weighting, model="general",
                    guesses=(initial_guess(samples),))
        assert cmp_.general.params == alone.params

    def test_older_coarse_samples_fit_both_models(self):
        samples, _ = read_samples(DATA / "threebody_coarse_ksamples.dat")
        cmp_ = compare_models(samples, weighting="relative")
        assert cmp_.diagonal is not None
        assert cmp_.residual_ratio >= 1.0


class TestValidation:
    def test_too_few_samples(self):
        samples = synthesize(TRUTH, sample_grid()[:5])
        with pytest.raises(ValidationError, match="at least 7 samples, got 5"):
            fit(samples)

    def test_equal_energies(self):
        samples = sample_rows(np.full(8, 1.5), 0.1, 0.0, 0.0)
        with pytest.raises(ValidationError, match="all equal"):
            fit(samples)

    def test_bad_weights(self):
        # a weighting is one of the [fit] weighting words; there is no
        # free-form weight vector
        samples = synthesize(TRUTH, sample_grid())
        with pytest.raises(ValidationError, match="^unknown weighting 'custom'$"):
            fit(samples, weighting="custom")

    def test_unknown_model(self):
        samples = synthesize(TRUTH, sample_grid())
        with pytest.raises(ValidationError, match="^unknown model 'quadratic'$"):
            fit(samples, model="quadratic")


class TestSampleIO:
    def test_roundtrip(self, tmp_path):
        samples = synthesize(TRUTH, sample_grid()[:10])
        path = tmp_path / "k.dat"
        write_samples(path, samples, {"origin": "test"})
        back, meta = read_samples(path)
        assert meta["origin"] == "test"
        assert back.shape == samples.shape
        np.testing.assert_array_equal(back, samples)

    @pytest.mark.parametrize("row", [
        "1.0 0.1 0.2 0.3 0.0 nan",  # six fields
        "1.0 0.1 0.2 0.3 0.0 nan -1 7.0",  # eight fields
        "1.0 0.1 inf 0.3 0.0 nan -1",  # non-finite K entry
    ], ids=["six-fields", "eight-fields", "non-finite-k"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        # a row of seven fields with alpha = nan is read; the bad row is not
        path = tmp_path / "k.dat"
        path.write_text("# columns: E K11 K12 K22 defect alpha branch\n"
                        f"0.5 0.1 0.2 0.3 0.0 nan -1\n{row}\n")
        with pytest.raises(ValidationError, match=r"k\.dat, line 3"):
            read_samples(path)

    def test_missing_file_is_cache_error(self, tmp_path):
        with pytest.raises(CacheError, match="missing samples"):
            read_samples(tmp_path / "k.dat")
