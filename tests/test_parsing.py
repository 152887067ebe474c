"""Polynomial text format: parsing, canonical printing, error positions."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywit.errors import MultilinearityError, PolynomialSyntaxError
from polywit.parsing import parse_omega, parse_poly, poly_to_str
from polywit.polynomials import MultilinearPoly
from polywit.randgen import random_multilinear


def test_parse_single_variable():
    f = parse_poly("X1")
    assert f.n == 1
    assert f.coeffs == {(1,): Fraction(1)}


def test_parse_coefficients_and_signs():
    f = parse_poly("2*X1*X2 - 1/2*X2*X1")
    assert f.coeffs == {(1, 2): Fraction(2), (2, 1): Fraction(-1, 2)}
    g = parse_poly("-X1*X2 + X2*X1")
    assert g.coeffs == {(1, 2): Fraction(-1), (2, 1): Fraction(1)}
    assert parse_poly("+3/6*X1").coeffs == {(1,): Fraction(1, 2)}


def test_parse_is_whitespace_insensitive():
    assert parse_poly(" X1 * X2-X2* X1 ") == parse_poly("X1*X2 - X2*X1")


def test_parse_merges_repeated_monomials():
    f = parse_poly("X1*X2 + 2*X1*X2")
    assert f.coeffs == {(1, 2): Fraction(3)}


def test_parse_accepts_cancelling_terms():
    f = parse_poly("X1 - X1")
    assert f.is_zero()
    assert f.n == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("X1*X1", "X1*X1"),
        ("X1*X2 + X1", "X1"),
        ("X2*X3", "X2*X3"),
        ("X0", "X0"),
        ("X1 + X2", "X2"),
    ],
)
def test_parse_rejects_non_multilinear(text, fragment):
    with pytest.raises(MultilinearityError) as err:
        parse_poly(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,position",
    [
        ("X1 @ X2", 4),
        ("2*", 3),
        ("X1*", 4),
        ("X1 X2", 4),
        ("3/0*X1", 3),
        ("*X1", 1),
        ("2/2/2*X1", 4),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly(text)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_parse_rejects_empty_input():
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("   ")


# A number one digit past the interpreter's int() digit limit, and the
# message int() gives for it; a limit of 0 means there is none.
_LIMIT = sys.get_int_max_str_digits()
BIG = "9" * (_LIMIT + 1)


def _int_error(digits):
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return None


_BIG_MSG = _int_error(BIG)
_limited = pytest.mark.skipif(not _LIMIT, reason="no int() digit limit is set")

SYNTAX = PolynomialSyntaxError
MULTI = MultilinearityError

# (text, error class, position, full message).  Errors come in three
# steps: first an unexpected character or an over-long number, whichever
# is first in the text; then the first grammar fault; then the first
# non-multilinear monomial.
ERROR_TABLE = [
    ("", SYNTAX, 1, "empty input (at position 1)"),
    ("  \t\n ", SYNTAX, 1, "empty input (at position 1)"),
    ("X 1", SYNTAX, 1, "unexpected character 'X' (at position 1)"),
    ("@", SYNTAX, 1, "unexpected character '@' (at position 1)"),
    ("x1", SYNTAX, 1, "unexpected character 'x' (at position 1)"),
    ("2X1", SYNTAX, 2, "expected '*' after the coefficient, found 1 (at position 2)"),
    ("X1X2", SYNTAX, 3, "expected '+' or '-' between terms, found 2 (at position 3)"),
    ("X1 007", SYNTAX, 4, "expected '+' or '-' between terms, found 7 (at position 4)"),
    ("X1 / X2", SYNTAX, 4, "expected '+' or '-' between terms, found '/' (at position 4)"),
    ("- -X1", SYNTAX, 3, "expected a variable like X1, found '-' (at position 3)"),
    ("*X1", SYNTAX, 1, "expected a variable like X1, found '*' (at position 1)"),
    ("+", SYNTAX, 2, "expected a variable like X1, found end of input (at position 2)"),
    ("2*", SYNTAX, 3, "expected a variable like X1, found end of input (at position 3)"),
    ("1/2/3*X1", SYNTAX, 4, "expected '*' after the coefficient, found '/' (at position 4)"),
    ("1/2", SYNTAX, 4, "expected '*' after the coefficient, found end of input (at position 4)"),
    ("3/0*X1", SYNTAX, 3, "zero denominator (at position 3)"),
    ("3 / 00 X1", SYNTAX, 5, "zero denominator (at position 5)"),
    ("1/*X1", SYNTAX, 3, "expected a denominator, found '*' (at position 3)"),
    ("1/", SYNTAX, 3, "expected a denominator, found end of input (at position 3)"),
    ("X1*", SYNTAX, 4, "expected a variable after '*', found end of input (at position 4)"),
    ("X1 * 2", SYNTAX, 6, "expected a variable after '*', found 2 (at position 6)"),
    ("X1 +", SYNTAX, 5, "expected a variable like X1, found end of input (at position 5)"),
    ("X1 X2 @", SYNTAX, 7, "unexpected character '@' (at position 7)"),
    ("X1*X1 + X2 X1", SYNTAX, 12, "expected '+' or '-' between terms, found 1 (at position 12)"),
    ("X1*X1", MULTI, None, "monomial X1*X1 must use X1..X2 exactly once each"),
    ("X1*X2 + X1", MULTI, None, "monomial X1 must use X1..X2 exactly once each"),
    ("X0", MULTI, None, "monomial X0 must use X1..X1 exactly once each"),
]

BIG_TABLE = {
    "coefficient": (BIG + "*X1", 1),
    "denominator": ("1/" + BIG + "*X1", 3),
    "index": ("X" + BIG, 1),
    "later-index": ("X1*X2 - 2*X" + BIG, 11),
    "before-bad-character": ("X" + BIG + " X2 @", 1),
    "before-zero-denominator": ("1/0*X" + BIG, 5),
    "after-grammar-fault": ("X1 X2 " + BIG, 7),
    "after-repeated-variable": ("X1*X1 + " + BIG, 9),
}


@pytest.mark.parametrize("text,cls,position,message", ERROR_TABLE)
def test_error_table(text, cls, position, message):
    with pytest.raises(cls) as err:
        parse_poly(text)
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


@_limited
@pytest.mark.parametrize("case", sorted(BIG_TABLE))
def test_number_past_digit_limit(case):
    text, position = BIG_TABLE[case]
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly(text)
    assert str(err.value) == f"{_BIG_MSG} (at position {position})"
    assert err.value.position == position


@_limited
def test_character_before_long_number_wins():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("X1 @ X" + BIG)
    assert str(err.value) == "unexpected character '@' (at position 4)"


@_limited
def test_number_at_digit_limit_parses():
    f = parse_poly("9" * _LIMIT + "*X1")
    assert f.coeffs == {(1,): Fraction(int("9" * _LIMIT))}


def test_leading_zeros_in_indices():
    assert parse_poly("X01*X2") == MultilinearPoly(2, {(1, 2): 1})


_SPACE = st.text(alphabet=" \t\n\r\u3000", max_size=3)


def _tokens(f):
    """The tokens of ``poly_to_str(f)``, numbers and X-indices whole."""
    out = []
    for sigma, lam in f.items_sorted():
        out.append("-" if lam < 0 else "+")
        mag = abs(lam)
        if mag != 1:
            out.append(str(mag.numerator))
            if mag.denominator != 1:
                out += ["/", str(mag.denominator)]
            out.append("*")
        for i, v in enumerate(sigma):
            out += ["*", f"X{v}"] if i else [f"X{v}"]
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.data())
def test_round_trip_with_random_whitespace(n, seed, data):
    f = random_multilinear(n, density=0.5, seed=seed)
    tokens = _tokens(f)
    text = "".join(data.draw(_SPACE) + tok for tok in tokens) + data.draw(_SPACE)
    assert parse_poly(text) == f


def test_poly_to_str_canonical():
    f = MultilinearPoly(2, {(1, 2): Fraction(1), (2, 1): Fraction(-1)})
    assert poly_to_str(f) == "X1*X2 - X2*X1"
    g = MultilinearPoly(2, {(1, 2): Fraction(-3, 2), (2, 1): Fraction(1, 5)})
    assert poly_to_str(g) == "-3/2*X1*X2 + 1/5*X2*X1"
    assert poly_to_str(MultilinearPoly(1, {})) == "0"


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_print_parse_round_trip(n, seed):
    f = random_multilinear(n, density=0.5, seed=seed)
    assert parse_poly(poly_to_str(f)) == f


def test_parsed_coefficients_are_fractions():
    f = parse_poly("2*X1*X2 - X2*X1 + 3*X2*X1 + 1/2*X1*X2 - 5/2*X1*X2")
    assert f.coeffs == {(2, 1): 2}
    assert all(type(lam) is Fraction for lam in f.coeffs.values())
    assert f == MultilinearPoly(2, f.coeffs)


def test_parse_omega():
    assert parse_omega("") == ()
    assert parse_omega("3") == (3,)
    assert parse_omega("4,3") == (3, 4)
    assert parse_omega("3,3,5") == (3, 5)
    with pytest.raises(PolynomialSyntaxError):
        parse_omega("3,x")


def test_parse_omega_rejects_index_past_digit_limit():
    with pytest.raises(PolynomialSyntaxError, match="value has 5000 digits"):
        parse_omega("3," + "7" * 5000)
