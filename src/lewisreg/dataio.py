"""File formats: headerless CSV matrices, one-label-per-line files (a
one-column CSV) and deterministic JSON, all UTF-8 text. Floats are serialized
with repr, the shortest decimal string that round-trips to the same double,
so write/read cycles are exact.
"""

import json
import warnings
from collections.abc import Sequence

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


def _read_text(path) -> str:
    """The UTF-8 text of a file, its CRLF and CR line ends read as LF;
    DataError naming the line of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines
            return fh.read()
    except UnicodeDecodeError as e:  # one read decodes, so e.object is the whole file
        head = e.object[:e.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{path}: line {lineno}: not UTF-8 text") from None


class TextLines(Sequence):
    """(line number, stripped text) of every nonblank line of a text whose
    lines end in LF. The text is held once, with the offset at which each
    line starts and the indices of the nonblank lines; a line is cut out
    and stripped when it is read."""

    def __init__(self, text: str):
        lines = text.split("\n")
        lengths = np.fromiter(map(len, lines), np.int64, len(lines))
        self._text = text
        self._starts = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=self._starts[1:])
        self._nonblank = np.flatnonzero(
            (lengths > 0) & ~np.fromiter(map(str.isspace, lines), bool, len(lines)))

    def __len__(self) -> int:
        return self._nonblank.size

    def _line(self, k: int) -> tuple[int, str]:
        return k + 1, self._text[self._starts[k]:self._starts[k + 1] - 1].strip()

    def __getitem__(self, i: int) -> tuple[int, str]:
        return self._line(int(self._nonblank[i]))

    def __iter__(self):
        return map(self._line, self._nonblank.tolist())


def text_lines(path) -> TextLines:
    """The nonblank lines of a UTF-8 text file whose lines end in LF, CRLF or
    CR: the one line reader, used by the CSV rescan and by the file-backed
    label oracle."""
    return TextLines(_read_text(path))


def parse_real(path, lineno: int, text: str) -> float:
    """float(text), or a DataError naming the file line it came from."""
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: could not parse a real number") from None


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV of reals with np.loadtxt. On any input it refuses
    (an empty file warns instead), rescan line by line to name the bad line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64, encoding="utf-8")
    except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        return _scan_matrix_csv(path)


def _scan_matrix_csv(path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in text_lines(path):
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} columns, got {len(parts)}"
            )
        rows.append([parse_real(path, lineno, p) for p in parts])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(path, X) -> None:
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in X)


def read_labels(path) -> np.ndarray:
    """A labels file, one real per line: a one-column CSV."""
    Y = read_matrix_csv(path)
    if Y.shape[1] != 1:  # then every line has that width, the first one too
        lineno, _ = text_lines(path)[0]
        raise DataError(f"{path}: line {lineno}: expected one label, got {Y.shape[1]} columns")
    return Y[:, 0]


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
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from None
