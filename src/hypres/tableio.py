"""Line-oriented delimited-text tables with digest-carrying headers.

Every stage artifact is plain text: '#'-prefixed header lines carry
key: value metadata (including the config digest that produced the file),
then whitespace-delimited numeric rows.  Formatting is deterministic, so
identical inputs reproduce identical bytes, and every file is replaced
whole, so a header that reads back belongs to a complete file.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
from pathlib import Path

import numpy as np

from .errors import CacheError, ValidationError


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


@contextlib.contextmanager
def replacing(path):
    """Text handle whose content replaces path only once fully written; on
    failure path keeps its previous content and no partial file is left."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_header(fh, meta: dict) -> None:
    """The '# key: value' line of each item of meta, in its order."""
    fh.writelines(f"# {key}: {value}\n" for key, value in meta.items())


def write_table(path, rows: np.ndarray, meta: dict, columns: str) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with replacing(path) as fh:
        _write_header(fh, {**meta, "columns": columns})
        for row in rows:
            fh.write(" ".join(f"{v:.17e}" for v in row) + "\n")


def _open(path, what: str):
    if not Path(path).exists():
        raise CacheError(f"missing {what} {path}")
    return open(path)


def _header(fh):
    """Key/values of the leading '#' lines of an open file, and the stripped
    line after them ('' at the end of the file)."""
    meta = {}
    for raw in fh:
        line = raw.strip()
        if not line.startswith("#"):
            return meta, line
        body = line[1:].strip()
        if ":" in body:
            key, value = body.split(":", 1)
            meta[key.strip()] = value.strip()
    return meta, ""


def read_header(path) -> dict:
    """Key/values of the leading '#' lines of path; the body is not read."""
    with _open(path, "file") as fh:
        return _header(fh)[0]


def _read(path, what: str):
    """(header key/values, non-blank stripped body lines) of path."""
    with _open(path, what) as fh:
        meta, first = _header(fh)
        lines = [first] + [raw.strip() for raw in fh]
    return meta, [line for line in lines if line]


def read_table(path):
    """Returns (rows array, meta dict); raises CacheError when missing and
    ValidationError naming the line of a field that is not a number."""
    meta, lines = _read(path, "table")
    try:
        rows = [[float(x) for x in line.split()] for line in lines]
    except ValueError:
        raise ValidationError(_unreadable_line(path)) from None
    if rows and len({len(r) for r in rows}) != 1:
        raise ValidationError(f"ragged rows in {path}")
    return np.asarray(rows, dtype=float), meta


def _unreadable_line(path) -> str:
    """'path, line n: error' of the first line past path's header with a
    field that is not a number."""
    with open(path) as fh:
        for n, raw in itertools.dropwhile(
                lambda item: item[1].lstrip().startswith("#"), enumerate(fh, 1)):
            try:
                [float(x) for x in raw.split()]
            except ValueError as exc:
                return f"{path}, line {n}: {exc}"
    return f"{path}: a field is not a number"


def write_keyvalues(path, pairs: dict, header: dict | None = None) -> None:
    with replacing(path) as fh:
        _write_header(fh, header or {})
        for key, value in pairs.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.17e}\n")
            else:
                fh.write(f"{key} = {value}\n")


def read_keyvalues(path):
    meta, lines = _read(path, "report")
    pairs = {}
    for line in lines:
        key, value = line.split("=", 1)
        value = value.strip()
        try:
            pairs[key.strip()] = float(value)
        except ValueError:
            pairs[key.strip()] = value
    return pairs, meta


def save_couplings(path, rho, eps, h, q, meta) -> None:
    """Terms + coupling tables: rho, eps_1..N, H flattened, Q flattened.

    rho (n_rho,), eps (n_rho, N), h and q (n_rho, N, N) are the arrays
    load_couplings returns; the header is n_terms first, then the other
    keys of meta in their order.
    """
    n_rho, n = eps.shape
    rows = np.hstack(
        [rho[:, None], eps, h.reshape(n_rho, n * n), q.reshape(n_rho, n * n)]
    )
    cols = (
        "rho eps_1..eps_N H_11..H_NN(row-major) Q_11..Q_NN(row-major)"
    )
    write_table(path, rows, {"n_terms": n, **meta}, cols)


def load_couplings(path):
    """Inverse of save_couplings: (rho, eps, H, Q, meta)."""
    rows, meta = read_table(path)
    n = int(meta["n_terms"])
    expected = 1 + n + 2 * n * n
    if rows.shape[1] != expected:
        raise ValidationError(
            f"{path}: expected {expected} columns for n_terms={n}, "
            f"got {rows.shape[1]}"
        )
    rho = rows[:, 0]
    eps = rows[:, 1 : 1 + n]
    h = rows[:, 1 + n : 1 + n + n * n].reshape(-1, n, n)
    q = rows[:, 1 + n + n * n :].reshape(-1, n, n)
    return rho, eps, h, q, meta


def save_terms(path, rho, eps, meta) -> None:
    """Terms table: rho, eps_1..N.  rho (n_rho,) and eps (n_rho, N) are the
    arrays load_terms returns; the header is n_terms first, then the other
    keys of meta in their order."""
    rows = np.hstack([rho[:, None], eps])
    write_table(path, rows, {"n_terms": eps.shape[1], **meta}, "rho eps_1..eps_N")


def load_terms(path):
    rows, meta = read_table(path)
    return rows[:, 0], rows[:, 1:], meta
