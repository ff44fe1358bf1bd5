"""Line-oriented delimited-text tables with digest-carrying headers.

Every stage artifact is plain text: '#'-prefixed header lines carry
key: value metadata (including the config digest that produced the file),
then whitespace-delimited numeric rows.  Formatting is deterministic, so
identical inputs reproduce identical bytes, and every file is replaced
whole, so a header that reads back belongs to a complete file.  One
parser, read_lines, reads every artifact: its header, and each body line
through a line function of the caller (tables, reports and K samples).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
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


def read_lines(path, what: str, parse_line=None):
    """(header key/values, [parse_line(line) for each non-blank body line])
    of the artifact path, each line stripped and parsed as it is read (no
    body is read without parse_line).  A missing path is a CacheError; a
    ValueError of parse_line is a ValidationError "path, line n: error",
    and text that is not UTF-8 a ValidationError naming path."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise CacheError(f"missing {what} {path}") from None
    meta, parsed, header = {}, [], True
    with fh:
        try:
            for n, raw in enumerate(fh, 1):
                line = raw.strip()
                if header and line.startswith("#"):
                    key, colon, value = line[1:].partition(":")
                    if colon:
                        meta[key.strip()] = value.strip()
                elif line:
                    if parse_line is None:
                        break
                    header = False
                    parsed.append(parse_line(line))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError as exc:
            raise ValidationError(f"{path}, line {n}: {exc}") from None
    return meta, parsed


def read_header(path) -> dict:
    """Key/values of the leading '#' lines of path; the body is not read."""
    return read_lines(path, "file")[0]


def _floats(line: str) -> list:
    return list(map(float, line.split()))


def read_table(path):
    """Returns (rows array, meta dict); raises CacheError when missing and
    ValidationError naming the line of a field that is not a number."""
    meta, rows = read_lines(path, "table", _floats)
    if rows and len({len(r) for r in rows}) != 1:
        raise ValidationError(f"ragged rows in {path}")
    return np.asarray(rows, dtype=float), meta


def header_number(path, meta: dict, key: str, kind=int):
    """The header value meta[key] of path as a count (kind int) or a finite
    float (kind float), else ValidationError naming path and key."""
    text = meta.get(key, "")
    with contextlib.suppress(ValueError):
        if text.isdecimal() if kind is int else math.isfinite(float(text)):
            return kind(text)
    what = "a count" if kind is int else "a finite number"
    raise ValidationError(f"{path}: header {key} {meta.get(key)!r} is not {what}")


def write_keyvalues(path, pairs: dict, header: dict | None = None) -> None:
    with replacing(path) as fh:
        _write_header(fh, header or {})
        for key, value in pairs.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.17e}\n")
            else:
                fh.write(f"{key} = {value}\n")


def _keyvalue(line: str):
    """(key, value) of a 'key = value' line, value a float where it can be."""
    key, sep, value = line.partition("=")
    if not sep:
        raise ValueError(f"no '=' in {line!r}")
    value = value.strip()
    try:
        return key.strip(), float(value)
    except ValueError:
        return key.strip(), value


def read_keyvalues(path):
    meta, pairs = read_lines(path, "report", _keyvalue)
    return dict(pairs), meta


def check_numbers(path, pairs: dict, keys) -> None:
    """ValidationError naming path unless pairs holds a number for each key
    of keys (a report read by read_keyvalues)."""
    if unread := [key for key in keys if not isinstance(pairs.get(key), float)]:
        raise ValidationError(f"{path}: no number for {', '.join(unread)}")


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


def _term_rows(path, couplings: bool):
    """(rows, n, meta) of a terms or couplings table: n the header count
    n_terms, each row 1 + n columns, 1 + n + 2 n^2 with couplings; a table
    without rows or with other columns is a ValidationError naming path."""
    rows, meta = read_table(path)
    n = header_number(path, meta, "n_terms")
    expected = 1 + n + (2 * n * n if couplings else 0)
    if rows.shape[-1] != expected:
        raise ValidationError(
            f"{path}: expected {expected} columns for n_terms={n}, "
            f"got {rows.shape[-1]}"
        )
    return rows, n, meta


def load_couplings(path):
    """Inverse of save_couplings: (rho, eps, H, Q, meta)."""
    rows, n, meta = _term_rows(path, couplings=True)
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
    """Inverse of save_terms: (rho, eps, meta)."""
    rows, _, meta = _term_rows(path, couplings=False)
    return rows[:, 0], rows[:, 1:], meta
