import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield import _text

# +-0, the extreme subnormals and normals, every power of two and of ten, the
# edges of the fixed layout (decpt -3 and 16) and the integers around 2^53
EDGES = sorted(
    {
        0.0,
        -0.0,
        5e-324,
        struct.unpack("<d", struct.pack("<Q", (1 << 52) - 1))[0],
        sys.float_info.min,
        sys.float_info.max,
        *(2.0**e for e in range(-1074, 1024)),
        *(float(f"1e{k}") for k in range(-323, 309)),
        1e-5, 1e-4, 1e15, 1e16, 1e17,
        2.0**53 - 1, 2.0**53 + 2, float(2**53 + 1),
    },
    key=lambda v: (abs(v), v),
)


def _texts(values) -> list[str]:
    # the renderer's cells without their NUL padding
    return [bytes(cell).replace(b"\0", b"").decode("ascii") for cell in _text.render(np.array(values, dtype=np.float64))]


def test_edges_render_as_repr():
    values = EDGES + [-v for v in EDGES] + [float("inf"), float("-inf"), float("nan"), -float("nan")]
    assert _texts(values) == [repr(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=80))
def test_floats_render_as_repr(values):
    assert _texts(values) == [repr(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
def test_bit_patterns_render_as_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64).tolist()
    assert _texts(values) == [repr(v) for v in values]


@pytest.mark.parametrize("size", [1, 63, 64, 65])
def test_rows_of_a_block_are_the_reprs(size):
    rng = np.random.default_rng(size)
    x = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
    x[::7] = EDGES[: len(x[::7])]
    assert _text.rows(x) == "".join(f"{v!r}\n" for v in x.tolist()).encode()


def test_rows_broadcast_a_column_against_a_block():
    t = np.array([[0.5], [1e-7]])
    values = np.array([[1.0, -2.5, 0.0], [np.inf, 3e20, -0.0]])
    text = _text.rows(t, np.arange(3)[None, :], values).decode()
    assert text == "0.5,0,1.0\n0.5,1,-2.5\n0.5,2,0.0\n1e-07,0,inf\n1e-07,1,3e+20\n1e-07,2,-0.0\n"


def test_integer_cells_are_decimal():
    ints = np.array([0, 7, -7, 10, 99, -100, 2**63 - 1, -(2**63)])
    assert _text.rows(ints).decode().split("\n")[:-1] == [str(v) for v in ints.tolist()]
