import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcpursuit.errors import ZeroVector
from mcpursuit.geometry import PlanarVector, cross, dot, norm, perp, unit

coords = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
vectors = st.builds(PlanarVector, coords, coords)


def test_perp_is_a_counterclockwise_quarter_turn():
    assert perp(PlanarVector(1.0, 0.0)) == PlanarVector(0.0, 1.0)
    assert perp(PlanarVector(0.0, 1.0)) == PlanarVector(-1.0, 0.0)
    assert perp(PlanarVector(3.0, -2.0)) == PlanarVector(2.0, 3.0)


@given(vectors)
def test_perp_is_orthogonal_and_isometric(v):
    assert dot(v, perp(v)) == 0.0
    assert norm(perp(v)) == norm(v)


@given(vectors)
def test_double_perp_negates(v):
    assert perp(perp(v)) == PlanarVector(-v.x, -v.y)


@given(vectors, vectors)
def test_cross_is_dot_with_perp(a, b):
    # cross(a, b) and dot(perp(a), b) expand to the same two products.
    assert cross(a, b) == dot(perp(a), b)


@given(vectors, vectors)
def test_cross_antisymmetry(a, b):
    assert cross(a, b) == -cross(b, a)


def test_cross_sign_convention():
    # The second argument counterclockwise of the first gives a positive sign.
    assert cross(PlanarVector(1.0, 0.0), PlanarVector(0.0, 1.0)) == 1.0
    assert cross(PlanarVector(0.0, 1.0), PlanarVector(1.0, 0.0)) == -1.0


def test_norm_examples():
    assert norm(PlanarVector(3.0, 4.0)) == 5.0
    assert norm(PlanarVector(0.0, 0.0)) == 0.0


@given(vectors)
@example(PlanarVector(5e-324, 5e-324))
def test_unit_has_unit_norm(v):
    if norm(v) == 0.0:
        with pytest.raises(ZeroVector):
            unit(v)
    else:
        assert norm(unit(v)) == pytest.approx(1.0, abs=1e-12)


def test_unit_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        unit(PlanarVector(0.0, 0.0))


def test_vector_arithmetic():
    a = PlanarVector(1.0, 2.0)
    b = PlanarVector(-3.0, 5.0)
    assert a + b == PlanarVector(-2.0, 7.0)
    assert a - b == PlanarVector(4.0, -3.0)
    assert a * 2.0 == PlanarVector(2.0, 4.0)
    assert 2.0 * a == PlanarVector(2.0, 4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rejects_non_finite_components(bad):
    with pytest.raises(ValueError):
        PlanarVector(bad, 0.0)
    with pytest.raises(ValueError):
        PlanarVector(0.0, bad)
