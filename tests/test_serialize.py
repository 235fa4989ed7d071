import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dqc1sim import DensityMatrix, output_state, z_theta
from dqc1sim.serialize import (
    density_from_json,
    density_to_json,
    json_int,
    load_json,
    matrix_from_json,
    matrix_to_json,
    unitary_from_json,
)

from helpers import save_json, unitary_to_json


def test_matrix_round_trip():
    m = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
    obj = matrix_to_json(m)
    assert obj["dim"] == 2
    assert_allclose(matrix_from_json(obj), m)


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="missing key"):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="shapes"):
        matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})


def test_density_round_trip_keeps_partition():
    rho = output_state(z_theta(0.3), 0.9)
    obj = density_to_json(rho)
    assert obj["qubit_dims"] == [1, 1]
    back = density_from_json(obj)
    assert back.qubit_dims == (1, 1)
    assert_allclose(back.entries, rho.entries)


def test_density_infers_control_register_split():
    obj = matrix_to_json(np.eye(8) / 8)
    rho = density_from_json(obj)
    assert rho.qubit_dims == (1, 2)
    single = density_from_json(matrix_to_json(np.eye(2) / 2))
    assert single.qubit_dims == (1,)


@pytest.mark.parametrize("entries, needle", [
    (np.eye(2), "trace"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
    (np.diag([1.5, -0.5]), "positive semidefinite"),
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), "finite"),
    # a 1x1 matrix is no qubit state; the error names its own size
    (np.eye(1), "entries shape (1, 1) does not match qubit_dims (1,)"),
])
def test_density_reader_checks_the_state(entries, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        density_from_json(matrix_to_json(entries))


def test_unitary_round_trip():
    u = z_theta(1.2)
    back = unitary_from_json(unitary_to_json(u))
    assert back.n == 1
    assert_allclose(back.entries, u.entries)


def test_unitary_validation_names_worst_entry():
    m = np.eye(2, dtype=complex)
    m[1, 1] = 0.9
    with pytest.raises(ValueError, match=r"\[1,1\]"):
        unitary_from_json(matrix_to_json(m))


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    rho = DensityMatrix(np.eye(4) / 4, (1, 1))
    save_json(path, density_to_json(rho))
    assert_allclose(density_from_json(load_json(path)).entries, rho.entries)


def test_too_deep_a_value_is_named_in_one_line(tmp_path):
    deep = []
    for _ in range(10**5):
        deep = [deep]
    with pytest.raises(ValueError, match="^n must be an integer, got a value nested too deeply$"):
        json_int(deep, "n")
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5)
    with pytest.raises(ValueError, match=r"^JSON file '.*deep\.json' is nested too deeply$"):
        load_json(path)
