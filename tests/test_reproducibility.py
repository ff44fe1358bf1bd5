"""Stage artifacts are reproducible byte for byte, within and across processes.

The toy INI and the coarse three-body INI run through the cross sections
twice in this process (the second time forced, so every stage recomputes)
and once more in a fresh interpreter; every artifact must come out with the
same bytes.

Run as a script, it writes both runs under the given directory and prints
the sha256 prefix of each artifact, the list a byte-identity comparison
between two versions of the code needs:

    PYTHONPATH=src python tests/test_reproducibility.py OUT_DIR

With --against LISTING (that output, saved from an earlier run) it also
names every artifact whose prefix differs or is missing from the listing
and exits with status 1, so one command proves byte identity:

    PYTHONPATH=src python tests/test_reproducibility.py OUT_DIR --against LISTING
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypres
from hypres.pipeline import RunConfig, run_pipeline
from test_three_body_pipeline import INI as THREE_BODY_INI

TOY_INI = Path(__file__).resolve().parents[1] / "configs" / "toy.ini"
ARTIFACTS = (
    "terms.dat", "couplings.dat", "branches.dat", "windows.dat",
    "ksamples_0.dat", "fit_0.txt",
    "profiles_k_0.dat", "profiles_invk_0.dat", "profiles_xsec_0.dat",
)


def _configs(base: Path):
    base.mkdir(parents=True, exist_ok=True)
    toy = RunConfig.from_file(TOY_INI, directory=base / "toy")
    ini = base / "three-body.ini"
    ini.write_text(THREE_BODY_INI.format(out=base / "three-body"))
    return {"toy": toy, "three-body": RunConfig.from_file(ini)}


def run_stages(base: Path) -> None:
    """Forced run of both configurations through the cross sections,
    artifacts under base."""
    for config in _configs(base).values():
        run_pipeline(config, resonance=0, upto="xsec", force=True)


def artifact_bytes(base: Path) -> dict:
    return {
        f"{label}/{name}": (config.out_dir() / name).read_bytes()
        for label, config in _configs(base).items()
        for name in ARTIFACTS
    }


@pytest.mark.slow
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


def differing(found: dict, listing: Path) -> list:
    """Lines naming each artifact whose digest prefix is not the listed one;
    the listing's other lines (not "label/name prefix") are ignored."""
    expected = {}
    for line in listing.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and "/" in parts[0]:
            expected[parts[0]] = parts[1]
    return [f"{name}: {expected.get(name, 'not listed')} -> {digest}"
            for name, digest in found.items() if expected.get(name) != digest]


def test_against_listing_names_each_difference(tmp_path):
    listing = tmp_path / "listing.txt"
    listing.write_text("real 0m8s\ntoy/terms.dat 716d3f9578563278\n"
                       "toy/fit_0.txt 0000000000000000\n")
    found = {"toy/terms.dat": "716d3f9578563278",
             "toy/fit_0.txt": "f216e36f88e71c46",
             "three-body/fit_0.txt": "510a79d13c04d359"}
    assert differing(found, listing) == [
        "toy/fit_0.txt: 0000000000000000 -> f216e36f88e71c46",
        "three-body/fit_0.txt: not listed -> 510a79d13c04d359",
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Run both INIs through xsec and print artifact digests.")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, metavar="LISTING",
                        help="digest listing printed by an earlier run; exit 1 "
                             "naming every artifact that differs from it")
    args = parser.parse_args()
    run_stages(args.out_dir)
    found = {name: hashlib.sha256(data).hexdigest()[:16]
             for name, data in artifact_bytes(args.out_dir).items()}
    for name, digest in found.items():
        print(name, digest)
    if args.against is not None:
        changed = differing(found, args.against)
        for line in changed:
            print(f"differs: {line}", file=sys.stderr)
        sys.exit(1 if changed else 0)
