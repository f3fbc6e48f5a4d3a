import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etbell.numerics import (
    as_matrix,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
)

from conftest import dft_literal, random_unitary


def test_matrix_must_be_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])


def test_is_unitary_examples():
    assert is_unitary(dft_literal(3), 1e-12)
    assert not is_unitary(np.ones((3, 3)), 1e-6)
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


def test_unitary_cascade_product():
    from etbell.optics import compose, generation_cascade

    assert is_unitary(compose(generation_cascade(4)), 1e-12)


def test_matrix_json_round_trip():
    m = random_unitary(4, seed=5)
    again = matrix_from_json(matrix_to_json(m))
    assert np.abs(again - m).max() == 0.0
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


_GOOD_MATRIX = {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, -1.0]]}


@pytest.mark.parametrize(
    "data, field",
    [
        ([[1.0, 0.0]], "matrix"),
        ({"cols": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}, "rows"),
        ({"rows": 1, "entries": [[1.0, 0.0], [0.0, 1.0]]}, "cols"),
        ({"rows": 1, "cols": 2}, "entries"),
        ({**_GOOD_MATRIX, "extra": 1}, "extra"),
        ({**_GOOD_MATRIX, "rows": 1.9}, "rows"),
        ({**_GOOD_MATRIX, "cols": 2.0}, "cols"),
        ({**_GOOD_MATRIX, "rows": True}, "rows"),
        ({**_GOOD_MATRIX, "rows": 0, "entries": []}, "rows"),
        ({**_GOOD_MATRIX, "entries": "ab"}, "entries"),
        ({**_GOOD_MATRIX, "entries": [["1", "0"], [0.0, 1.0]]}, "entries"),
        ({**_GOOD_MATRIX, "entries": [[True, 0.0], [0.0, 1.0]]}, "entries"),
        ({**_GOOD_MATRIX, "entries": [[1.0], [0.0, 1.0]]}, "entries"),
        ({**_GOOD_MATRIX, "entries": [1.0, [0.0, 1.0]]}, "entries"),
        ({**_GOOD_MATRIX, "entries": [[1.0, 0.0]]}, "entries"),
    ],
)
def test_matrix_from_json_rejects_malformed_input(data, field):
    with pytest.raises(ValueError, match=field):
        matrix_from_json(data)


_parts = st.floats(allow_nan=False, allow_infinity=False)


@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_matrix_json_round_trip_property(shape, data):
    rows, cols = shape
    parts = data.draw(st.lists(_parts, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.empty((rows, cols), dtype=complex)
    m.real = np.reshape(parts[0::2], shape)
    m.imag = np.reshape(parts[1::2], shape)
    text = json.dumps(matrix_to_json(m))
    again = matrix_from_json(json.loads(text))
    assert again.shape == m.shape
    assert again.tobytes() == m.tobytes()
