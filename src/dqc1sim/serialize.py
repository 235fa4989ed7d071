"""JSON exchange formats shared by the modules and the CLI.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}; density
matrices add an optional "qubit_dims" list, and readers default to a
control-register split (1, k-1) when it is absent.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .dqc1 import UnitaryMatrix
from .qmath import DensityMatrix, qubit_count


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def json_excerpt(value) -> str:
    """The start of value as JSON, for an error message. A value read by
    load_json can be too deep to encode from a deeper stack."""
    try:
        return json.dumps(value)[:40]
    except RecursionError:
        return "a value nested too deeply"


def json_int(value, what: str) -> int:
    """value if the JSON held an integer there; the one type check of the
    sizes and indices read from a file (bool, float, null and string fail)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json_excerpt(value)}")
    return value


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {json_excerpt(value)}")
    return value


def _float_rows(rows) -> np.ndarray:
    """A matrix JSON's "re" or "im" as floats. Each entry must be a JSON
    number, int or float: numpy alone would also read a bool, a numeric
    string or null. The entry types are collected by map over chain, with
    no Python loop per entry."""
    kinds = set(map(type, rows)) if type(rows) is list else {type(rows)}
    if list in kinds:
        if kinds != {list} or len(set(map(len, rows))) > 1:
            raise ValueError("matrix JSON rows must be lists of one length")
        kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= {int, float}:
        raise ValueError("matrix JSON entries must be numbers")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError("matrix JSON entries must be numbers") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object, got {json_excerpt(obj)}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing key {key!r}")
    dim = json_int(obj["dim"], "dim")
    re, im = _float_rows(obj["re"]), _float_rows(obj["im"])
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix JSON shapes {re.shape}/{im.shape} do not match dim {dim}"
        )
    # JSON admits NaN and Infinity: the DensityMatrix or UnitaryMatrix this
    # feeds rejects them before any arithmetic.
    m = re.astype(complex)
    m.imag = im
    return m


def density_to_json(rho: DensityMatrix) -> dict:
    obj = matrix_to_json(rho.entries)
    obj["qubit_dims"] = list(rho.qubit_dims)
    return obj


def density_from_json(obj: dict) -> DensityMatrix:
    m = matrix_from_json(obj)
    if "qubit_dims" in obj:
        qubit_dims = [json_int(k, "qubit_dims entry")
                      for k in json_list(obj["qubit_dims"], "qubit_dims")]
    else:
        total = qubit_count(m.shape[0])
        qubit_dims = (1,) if total <= 1 else (1, total - 1)
    return DensityMatrix(m, tuple(qubit_dims))


def unitary_from_json(obj: dict) -> UnitaryMatrix:
    """Load a unitary; UnitaryMatrix checks it and names the worst entry."""
    m = matrix_from_json(obj)
    return UnitaryMatrix(qubit_count(m.shape[0]), m)


def load_json(path) -> dict:
    """The JSON value in the file at path. A file that is not UTF-8, is
    nested too deeply for the parser or holds an integer past Python's
    digit limit raises one ValueError that names the file; a syntax error
    keeps json's own JSONDecodeError."""
    name = str(path)
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ValueError(f"JSON file {name!r} is not UTF-8 text") from None
    except RecursionError:
        raise ValueError(f"JSON file {name!r} is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a literal past the digit limit
        raise ValueError(
            f"JSON file {name!r} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None

