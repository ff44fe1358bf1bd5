"""Coarse end-to-end run of the Coulomb three-body pipeline.

Reduced grids (coarse basis, rho <= 100, short box scan) keep the runtime
to a couple of minutes; the detected lowest metastable level of the
(t, d, mu) system must land close to its converged position even at this
resolution, and every stage artifact has to appear with fresh digests.
"""

import shutil

import numpy as np
import pytest

from hypres.cli import main
from hypres.pipeline import RunConfig, run_pipeline
from hypres.stages import load_windows
from hypres.tableio import load_couplings, read_keyvalues

INI = """
[system]
kind = three-body

[basis]
n_chi = 61
n_theta = 31
n_terms = 4
rho_min = 0.5
rho_max = 100.0
n_rho = 70
n_refine = 14

[radial]
rho_start = 0.5
rho_match = 100.0
h_max = 0.1

[scan]
alpha_min = 50.0
alpha_max = 90.0
alpha_step = 1.0
n_levels = 10
sigma = -0.157
halfwidth = 8.0

[fit]
model = general
weighting = relative

[output]
directory = {out}
"""


@pytest.fixture(scope="module")
def coarse_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("three-body")
    ini = base / "run.ini"
    out = base / "out"
    ini.write_text(INI.format(out=out))
    config = RunConfig.from_file(ini)
    run_pipeline(config, resonance=0, upto="fit")
    return dict(config=config, out=out)


@pytest.mark.slow
class TestCoarseThreeBody:
    def test_coupling_tables_shape(self, coarse_run):
        rho, eps, h, q, meta = load_couplings(coarse_run["out"] / "couplings.dat")
        assert int(meta["n_terms"]) == 4
        assert rho.size >= 70  # adaptive bisection may add points
        assert np.abs(q + q.transpose(0, 2, 1)).max() < 1e-12
        # the lowest two terms approach the ground-atom thresholds
        assert eps[-1, 0] == pytest.approx(-0.4819, abs=2e-3)
        assert eps[-1, 1] == pytest.approx(-0.4733, abs=2e-3)

    def test_lowest_resonance_position(self, coarse_run):
        windows, _ = load_windows(coarse_run["out"] / "windows.dat")
        assert windows, "no stabilization window detected"
        e0 = windows[0].e_center
        # converged position is -0.15917; the coarse basis should place the
        # plateau within a couple of 1e-3
        assert e0 == pytest.approx(-0.15917, abs=2e-3)

    def test_radial_range_past_the_table_is_config_error(self, coarse_run,
                                                         tmp_path, capsys):
        # the couplings table spans [rho_min, rho_max]: the INI is refused
        # when read, so no stage runs and no artifact is touched
        out = tmp_path / "out"
        shutil.copytree(coarse_run["out"], out)
        ini = tmp_path / "run.ini"
        ini.write_text(INI.replace("rho_match = 100.0", "rho_match = 105.0")
                       .format(out=out))
        stamps = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert main(["scan", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[config] error: [radial] range"), err
        assert "Traceback" not in err
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == stamps

    def test_fit_report_written(self, coarse_run):
        pairs, _ = read_keyvalues(coarse_run["out"] / "fit_0.txt")
        assert pairs["minus_E0"] == pytest.approx(0.15917, abs=2e-3)
        assert pairs["Gamma"] >= 0.0
