"""Reaction-matrix sample records and their delimited-text file format."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .tableio import replacing


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


def write_samples(path, samples, header_lines=()) -> None:
    """Write samples as delimited text: E K11 K12 K22 defect alpha branch."""
    with replacing(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("# columns: E K11 K12 K22 defect alpha branch\n")
        for s in samples:
            fh.write(
                f"{s.energy:.17e} {s.k11:.17e} {s.k12:.17e} {s.k22:.17e} "
                f"{s.defect:.6e} {s.alpha:.10e} {s.branch:d}\n"
            )


def read_samples(path) -> list[KSample]:
    samples = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValidationError(f"malformed sample row: {line!r}")
            e, k11, k12, k22 = (float(x) for x in parts[:4])
            defect = float(parts[4]) if len(parts) > 4 else 0.0
            alpha = float(parts[5]) if len(parts) > 5 else float("nan")
            branch = int(parts[6]) if len(parts) > 6 else -1
            samples.append(
                KSample(
                    energy=e, k11=k11, k12=k12, k22=k22,
                    defect=defect, alpha=alpha, branch=branch,
                )
            )
    return samples
