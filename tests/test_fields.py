"""The one scalar field, the rationals: every entry is a ``Fraction``,
and literals are checked where they enter, by the JSON matrix decoder
and the public ``Matrix`` constructor."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywit.errors import SingularMatrixError
from polywit.matrices import Matrix, inverse
from polywit.serialize import matrix_from_json, matrix_to_json


def _scalar(text):
    return matrix_from_json({"size": 1, "rows": [[text]]})[1, 1]


def test_basic_constants():
    a = Matrix([[1, 2], [3, 4]])
    built = [Matrix.zeros(2), Matrix.identity(2), a * a, inverse(a), a.scale(1)]
    for m in built:
        assert all(type(x) is Fraction for row in m.rows for x in row)
    assert Matrix.zeros(1)[1, 1] == Fraction(0)
    assert Matrix.identity(1)[1, 1] == Fraction(1)


def test_coerce_accepts_exact_inputs():
    m = Matrix([[3, "3/2"], [Fraction(-7, 4), 0]])
    assert m.rows == ((Fraction(3), Fraction(3, 2)), (Fraction(-7, 4), Fraction(0)))


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        Matrix([[0.5]])


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-3", Fraction(-3)), ("3/2", Fraction(3, 2)),
     ("+5/10", Fraction(1, 2)), (" 4 / 6 ", Fraction(2, 3))],
)
def test_parse_literals(text, value):
    assert _scalar(text) == value


@pytest.mark.parametrize("text", ["", "x", "1.5", "3/0", "1/2/3", "2e3"])
def test_parse_rejects_non_literals(text):
    with pytest.raises(ValueError):
        _scalar(text)


def test_inverse():
    assert inverse(Matrix([["3/2"]])) == Matrix([["2/3"]])
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[0]]))


@given(st.fractions())
def test_format_parse_round_trip(q):
    doc = matrix_to_json(Matrix([[q]]))
    assert doc["rows"] == [[str(q)]]
    assert _scalar(doc["rows"][0][0]) == q
