"""Reaction-matrix samples: one (n, 7) float table and its file format.

A row is E K11 K12 K22 defect alpha branch: the energy, the symmetric 2x2
K(E), the pre-symmetrization asymmetry |K12 - K21| of the matching step,
and the stabilization provenance (box size and branch index) of the row's
energy when it came from a scan (else alpha NaN, branch -1).
"""

from __future__ import annotations

import math

import numpy as np

from .tableio import _write_header, read_lines, replacing


def write_samples(path, samples: np.ndarray, meta: dict) -> None:
    """Write the (n, 7) samples as delimited text, one row per line."""
    with replacing(path) as fh:
        _write_header(fh, {**meta, "columns": "E K11 K12 K22 defect alpha branch"})
        for e, k11, k12, k22, defect, alpha, branch in samples.tolist():
            fh.write(
                f"{e:.17e} {k11:.17e} {k12:.17e} {k22:.17e} "
                f"{defect:.6e} {alpha:.10e} {int(branch):d}\n"
            )


def _sample(line: str) -> list[float]:
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"{len(parts)} fields, expected 7")
    values = [float(x) for x in parts[:6]] + [int(parts[6])]
    if not all(math.isfinite(x) for x in values[:4]):
        raise ValueError("non-finite E or K entry")
    return values


def read_samples(path) -> tuple[np.ndarray, dict]:
    """((n, 7) rows of write_samples, header key/values): 7 fields, E and
    K finite, branch an integer; else ValidationError naming the line.  A
    missing path is a CacheError."""
    meta, rows = read_lines(path, "samples", _sample)
    return np.array(rows, dtype=float).reshape(-1, 7), meta
