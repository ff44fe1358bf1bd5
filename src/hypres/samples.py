"""Reaction-matrix sample records and their delimited-text file format."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .tableio import _write_header, replacing


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


def read_samples(path) -> list[KSample]:
    """Rows of write_samples: 7 fields, E and K finite; else ValidationError."""
    samples = []
    with open(path) as fh:
        for n, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}, line {n}"
            parts = line.split()
            if len(parts) != 7:
                raise ValidationError(f"{where}: {len(parts)} fields, expected 7")
            try:
                values = [float(x) for x in parts[:6]] + [int(parts[6])]
            except ValueError as exc:
                raise ValidationError(f"{where}: {exc}") from None
            if not all(math.isfinite(x) for x in values[:4]):
                raise ValidationError(f"{where}: non-finite E or K entry")
            samples.append(KSample(*values))
    return samples
