"""File formats: headerless CSV matrices, one-label-per-line files, and
deterministic JSON. Floats are serialized with repr, the shortest decimal
string that round-trips to the same double, so write/read cycles are exact.
"""

import json
import warnings

import numpy as np

from .linalg import DataError

__all__ = [
    "DataError",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_labels",
    "write_labels",
    "read_json",
    "write_json",
    "json_bytes",
]


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV of reals with np.loadtxt. On any input it refuses
    (an empty file warns instead), rescan line by line to name the bad line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64, encoding="utf-8")
    except (ValueError, UserWarning):
        return _scan_matrix_csv(path)


def _scan_matrix_csv(path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: could not parse a real number")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(path, X) -> None:
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in X)


def read_labels(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: could not parse a real number")
    if not values:
        raise DataError(f"{path}: no labels")
    return np.array(values, dtype=np.float64)


def write_labels(path, y) -> None:
    y = np.asarray(y, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{v!r}\n" for v in y.tolist())


def json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2).encode("utf-8")


def write_json(path, obj) -> None:
    with open(path, "wb") as fh:
        fh.write(json_bytes(obj))
        fh.write(b"\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid JSON: {e}")
