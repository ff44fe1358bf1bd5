"""Stage artifacts are reproducible byte for byte, within and across processes.

The toy INI and the coarse three-body INI run up to the fit twice in this
process (the second time forced, so every stage recomputes) and once more
in a fresh interpreter; every artifact must come out with the same bytes.

Run as a script, it writes both runs under the given directory and prints
the sha256 prefix of each artifact, the list a byte-identity comparison
between two versions of the code needs:

    PYTHONPATH=src python tests/test_reproducibility.py OUT_DIR
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypres
from hypres.pipeline import RunConfig, run_pipeline
from test_three_body_pipeline import INI as THREE_BODY_INI

pytestmark = pytest.mark.slow

TOY_INI = Path(__file__).resolve().parents[1] / "configs" / "toy.ini"
ARTIFACTS = (
    "terms.dat", "couplings.dat", "branches.dat", "windows.dat",
    "ksamples_0.dat", "fit_0.txt",
)


def _configs(base: Path):
    base.mkdir(parents=True, exist_ok=True)
    toy = RunConfig.from_file(TOY_INI)
    toy.parser.set("output", "directory", str(base / "toy"))
    ini = base / "three-body.ini"
    ini.write_text(THREE_BODY_INI.format(out=base / "three-body"))
    return {"toy": toy, "three-body": RunConfig.from_file(ini)}


def run_stages(base: Path) -> None:
    """Forced run of both configurations up to the fit, artifacts under base."""
    for config in _configs(base).values():
        run_pipeline(config, resonance=0, upto="fit", force=True)


def artifact_bytes(base: Path) -> dict:
    return {
        f"{label}/{name}": (config.out_dir() / name).read_bytes()
        for label, config in _configs(base).items()
        for name in ARTIFACTS
    }


def test_artifacts_byte_identical(tmp_path):
    here = tmp_path / "in-process"
    run_stages(here)
    first = artifact_bytes(here)
    run_stages(here)
    second = artifact_bytes(here)

    there = tmp_path / "subprocess"
    paths = [str(Path(hypres.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    subprocess.run(
        [sys.executable, "-c",
         "import sys, pathlib; from test_reproducibility import run_stages; "
         "run_stages(pathlib.Path(sys.argv[1]))", str(there)],
        env=env, check=True,
    )
    third = artifact_bytes(there)

    for name in first:
        assert second[name] == first[name], f"{name} differs between runs"
        assert third[name] == first[name], f"{name} differs across processes"


if __name__ == "__main__":
    out = Path(sys.argv[1])
    run_stages(out)
    for name, data in artifact_bytes(out).items():
        print(name, hashlib.sha256(data).hexdigest()[:16])
