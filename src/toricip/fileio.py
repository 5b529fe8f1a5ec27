"""Input parsing: matrix and vector files, inline vectors, face specs.

Matrix files are bit-exact: line one holds "d n", the next d lines hold n
base-10 integers each.  Vector files hold one whitespace-separated line.
Column indices are 1-based in every external surface and 0-based internally.
"""

import json
import os

from .core import IntMatrix
from .errors import ParseError, _face


def read_raw_matrix(path):
    """(rows, n) of a matrix file, without structural validation; n even with no rows."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
        d, n = int(tokens[0]), int(tokens[1])
        vals = [int(t) for t in tokens[2:]]
        if len(vals) != d * n:
            raise ParseError(f"expected {d * n} entries, found {len(vals)}")
        return tuple(tuple(vals[i * n : (i + 1) * n]) for i in range(d)), n
    except (OSError, ValueError, IndexError) as exc:
        raise ParseError(f"bad matrix file {path}: {exc}") from exc


def read_matrix(path) -> IntMatrix:
    return IntMatrix(read_raw_matrix(path)[0])


def read_vector(spec):
    """A vector from a file path, or inline as comma/space separated integers."""
    text = spec
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {spec}: {exc}") from exc
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"bad vector {spec!r}: {exc}") from exc


def read_face(spec, n):
    """1-based comma-separated indices of n columns to a 0-based face; '' is empty."""
    try:
        idx = [int(t) for t in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad face {spec!r}: {exc}") from exc
    return _face(idx, n, base=1)


def read_faces_json(path, n):
    """A triangulation of n columns as a JSON list of 1-based index lists."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return tuple(_face(face, n, base=1) for face in data)
    except (OSError, ValueError, TypeError) as exc:
        raise ParseError(f"bad triangulation file {path}: {exc}") from exc


def face_out(face):
    return [i + 1 for i in face]


def face_key(face):
    return ",".join(str(i + 1) for i in face)
