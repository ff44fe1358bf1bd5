"""Results agree across BLAS kernels, within stated tolerances.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel per process, and
OPENBLAS_CORETYPE forces one.  A kernel changes the last bits of every
computed artifact, so byte identity (test_reproducibility.py) holds within
one kernel only.  Here the toy INI and the coarse three-body INI run through
the cross sections in two subprocesses at once, one under the default kernel
and one under Prescott, a kernel that no AVX host picks by itself.  Then:

- some artifact differs in its bytes, which shows that the switch took effect;
- both runs find the same number of windows and of K samples;
- E0, Gamma and Gamma2/Gamma agree within RESULT_RTOL, relative;
- every K sample entry agrees within K_TOL * max(1, |K|).

On one 2-core host the toy's Gamma moved 1.2e-9 relative and its K 8.4e-8;
the coarse three-body Gamma moved 3.7e-7 and its Gamma2/Gamma 1.5e-6.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from hypres.samples import read_samples
from hypres.stages import load_windows
from hypres.tableio import read_keyvalues
from test_reproducibility import _configs, artifact_bytes, start_stages

FORCED_KERNEL = "Prescott"
RESULT_RTOL = 1e-5
K_TOL = 1e-6
RUN_TIMEOUT_S = 600


def blas_name() -> str:
    """The BLAS that numpy was built against, as numpy reports it."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return deps.get("blas", {}).get("name", "unknown")


def results(base: Path) -> dict:
    """Per INI label: (window count, K sample array, fit report)."""
    found = {}
    for label, config in _configs(base).items():
        out = config.out_dir()
        windows, _ = load_windows(out / "windows.dat")
        samples, _ = read_samples(out / "ksamples_0.dat")
        report, _ = read_keyvalues(out / "fit_0.txt")
        found[label] = (len(windows), samples[:, 1:4], report)
    return found


@pytest.mark.slow
@pytest.mark.skipif("openblas" not in blas_name().lower(),
                    reason=f"numpy's BLAS is {blas_name()}, not OpenBLAS: "
                           "OPENBLAS_CORETYPE cannot switch its kernel")
def test_results_agree_across_kernels(tmp_path):
    default, forced = tmp_path / "default", tmp_path / "forced"
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_CORETYPE"}
    runs = [start_stages(default, env),
            start_stages(forced, dict(env, OPENBLAS_CORETYPE=FORCED_KERNEL))]
    try:
        assert [run.wait(timeout=RUN_TIMEOUT_S) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()  # a no-op once the run has exited

    old, new = artifact_bytes(default), artifact_bytes(forced)
    assert any(new[name] != data for name, data in old.items()), (
        f"no artifact changed under OPENBLAS_CORETYPE={FORCED_KERNEL}")

    moved = results(forced)
    for label, (n_windows, k, report) in results(default).items():
        n_windows_f, k_f, report_f = moved[label]
        assert (n_windows_f, len(k_f)) == (n_windows, len(k)), label
        for key in ("E0", "Gamma", "Gamma2_over_Gamma"):
            assert report_f[key] == pytest.approx(report[key], rel=RESULT_RTOL), (
                f"{label} {key}")
        assert np.all(np.abs(k_f - k) <= K_TOL * np.maximum(1.0, np.abs(k))), (
            f"{label} K samples: max move {np.abs(k_f - k).max():.3e}")
