"""Shared fixtures: the two-channel toy resonance and its scan artifacts."""

import pytest

from hypres.fitting import FitProblem, fit
from hypres.models import TwoChannelToy
from hypres.radial import build_grid
from hypres.scan import ScanConfig, detect_resonances, sample_k, scan_branches

# Oracle values for the default TwoChannelToy, frozen from the complex-pole
# search in tests/oracles.py (secant on det(Y - i diag q), RK4 integration,
# converged to 1e-10 across step halvings); the acceptance suite recomputes
# them from scratch.
TOY_E0 = 3.0218214054
TOY_GAMMA = 3.1215e-3


@pytest.fixture(scope="session")
def toy():
    return TwoChannelToy()


@pytest.fixture(scope="session")
def toy_problem(toy):
    return toy.problem()


@pytest.fixture(scope="session")
def toy_scan_config():
    return ScanConfig(
        alpha_min=8.0,
        alpha_max=24.0,
        alpha_step=0.25,
        n_levels=14,
        halfwidth=8.0,
    )


@pytest.fixture(scope="session")
def toy_grid(toy_problem):
    # ends at rho_match, past the scan's alpha_max
    return build_grid(toy_problem, h_max=0.008)


@pytest.fixture(scope="session")
def toy_spectrum(toy_problem, toy_scan_config, toy_grid):
    return scan_branches(toy_problem, toy_scan_config, grid=toy_grid)


@pytest.fixture(scope="session")
def toy_window(toy_spectrum, toy_scan_config, toy_problem):
    wins = detect_resonances(
        toy_spectrum, toy_scan_config, thresholds=toy_problem.thresholds
    )
    assert wins
    return min(wins, key=lambda w: w.slope)


@pytest.fixture(scope="session")
def toy_samples(toy_problem, toy_window, toy_grid):
    return sample_k(toy_problem, toy_window, grid=toy_grid)


@pytest.fixture(scope="session")
def toy_fit(toy_samples):
    return fit(FitProblem(samples=tuple(toy_samples)))
