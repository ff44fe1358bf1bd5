"""Reaction-matrix sample records and their delimited-text file format."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tableio import _write_header, read_lines, replacing


@dataclass(frozen=True)
class KSample:
    """One sampled energy point: E, the symmetric 2x2 K(E), and metadata.

    `defect` records the pre-symmetrization asymmetry |K12 - K21| of the
    matching step; `alpha` and `branch` carry the stabilization provenance
    (box size and branch index) when the sample came from a scan.
    """

    energy: float
    k11: float
    k12: float
    k22: float
    defect: float = 0.0
    alpha: float = float("nan")
    branch: int = -1


def write_samples(path, samples, meta: dict) -> None:
    """Write samples as delimited text: E K11 K12 K22 defect alpha branch."""
    with replacing(path) as fh:
        _write_header(fh, {**meta, "columns": "E K11 K12 K22 defect alpha branch"})
        for s in samples:
            fh.write(
                f"{s.energy:.17e} {s.k11:.17e} {s.k12:.17e} {s.k22:.17e} "
                f"{s.defect:.6e} {s.alpha:.10e} {s.branch:d}\n"
            )


def _sample(line: str) -> KSample:
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"{len(parts)} fields, expected 7")
    values = [float(x) for x in parts[:6]] + [int(parts[6])]
    if not all(math.isfinite(x) for x in values[:4]):
        raise ValueError("non-finite E or K entry")
    return KSample(*values)


def read_samples(path) -> tuple[list[KSample], dict]:
    """(rows of write_samples, header key/values): 7 fields, E and K
    finite; else ValidationError naming the line.  A missing path is a
    CacheError."""
    meta, samples = read_lines(path, "samples", _sample)
    return samples, meta
