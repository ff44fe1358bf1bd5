"""Results agree across BLAS kernels, within stated tolerances.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel per process, and
OPENBLAS_CORETYPE forces one.  A kernel changes the last bits of every
computed artifact, so byte identity (test_reproducibility.py) holds within
one kernel only.  Here the toy INI and the coarse three-body INI run through
the cross sections in three subprocesses at once: one under the default
kernel, one under Haswell and one under Sandybridge.  Both forced kernels
move the toy fit's two tied starts across each other, which a kernel such
as Prescott does not; an AVX2 host may pick Haswell by itself, so the
second forced kernel keeps the check alive there.  Then:

- some artifact of a forced run differs in its bytes, which shows that
  the switch took effect;
- every run finds the same number of windows and of K samples;
- E0, Gamma and Gamma2/Gamma agree within RESULT_RTOL, relative;
- every K sample entry agrees within K_TOL * max(1, |K|);
- every fit reports the same winning start, for each model it fits.

On one 2-core AVX-512 host, Haswell against the default moved the toy's
Gamma 1.2e-9 relative and its K 8.4e-8, and the coarse three-body Gamma
4.8e-7 and its Gamma2/Gamma 1.5e-6.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from hypres.samples import read_samples
from hypres.stages import load_windows
from hypres.tableio import read_keyvalues
from test_reproducibility import _configs, artifact_bytes, start_stages

FORCED_KERNELS = ("Haswell", "Sandybridge")
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
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_CORETYPE"}
    bases = {"default": tmp_path / "default"}
    runs = [start_stages(bases["default"], env)]
    for kernel in FORCED_KERNELS:
        bases[kernel] = tmp_path / kernel
        runs.append(start_stages(bases[kernel],
                                 dict(env, OPENBLAS_CORETYPE=kernel)))
    try:
        assert [run.wait(timeout=RUN_TIMEOUT_S) for run in runs] == [0] * len(runs)
    finally:
        for run in runs:
            run.kill()  # a no-op once the run has exited

    old = artifact_bytes(bases["default"])
    changed = [kernel for kernel in FORCED_KERNELS
               if artifact_bytes(bases[kernel]) != old]
    assert changed, f"no artifact changed under any of {FORCED_KERNELS}"

    default = results(bases["default"])
    for kernel in FORCED_KERNELS:
        moved = results(bases[kernel])
        for label, (n_windows, k, report) in default.items():
            n_windows_f, k_f, report_f = moved[label]
            where = f"{label} under {kernel}"
            assert (n_windows_f, len(k_f)) == (n_windows, len(k)), where
            for key in ("E0", "Gamma", "Gamma2_over_Gamma"):
                assert report_f[key] == pytest.approx(
                    report[key], rel=RESULT_RTOL), f"{where} {key}"
            assert np.all(np.abs(k_f - k) <= K_TOL * np.maximum(1.0, np.abs(k))), (
                f"{where} K samples: max move {np.abs(k_f - k).max():.3e}")
            for key in ("start", "diagonal_start"):
                assert report_f.get(key) == report.get(key), f"{where} {key}"
