"""JSON exchange formats shared by the modules and the CLI.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}; density
matrices add an optional "qubit_dims" list, and readers default to a
control-register split (1, k-1) when it is absent.
"""

from __future__ import annotations

import json
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


def matrix_from_json(obj: dict) -> np.ndarray:
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing key {key!r}")
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
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


def density_from_json(obj: dict, qubit_dims=None) -> DensityMatrix:
    m = matrix_from_json(obj)
    if qubit_dims is None:
        qubit_dims = obj.get("qubit_dims")
    if qubit_dims is None:
        total = qubit_count(m.shape[0])
        qubit_dims = (1,) if total == 1 else (1, total - 1)
    return DensityMatrix(m, tuple(qubit_dims))


def unitary_from_json(obj: dict) -> UnitaryMatrix:
    """Load a unitary; UnitaryMatrix checks it and names the worst entry."""
    return UnitaryMatrix.from_matrix(matrix_from_json(obj))


def unitary_to_json(u: UnitaryMatrix) -> dict:
    return matrix_to_json(u.entries)


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
