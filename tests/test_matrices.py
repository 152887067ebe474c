"""Exact matrix arithmetic and block constructions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywit.errors import DimensionError, SingularMatrixError
from polywit.matrices import (
    Matrix,
    block_diagonal,
    block_flatten,
    block_unit,
    commutator,
    cyclic_shift,
    embed,
    inverse,
    iterated_commutator,
    rank_of_rows,
    rref_with_transform,
)
from polywit.randgen import random_invertible, random_matrix


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix([[1, 2]])
    with pytest.raises(DimensionError):
        Matrix([])


def test_arithmetic_small():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - b == Matrix([[1, 1], [2, 4]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert -a == a.scale(-1)
    assert a.scale(Fraction(1, 2)) == Matrix([["1/2", 1], ["3/2", 2]])
    assert Fraction(2) * a == a + a
    assert a.trace() == 5
    assert a[1, 2] == 2


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        Matrix([[1]]) + Matrix([[1, 0], [0, 1]])


def test_unit_and_diagonal():
    e12 = Matrix.unit(2, 1, 2)
    assert e12 == Matrix([[0, 1], [0, 0]])
    assert Matrix.diagonal([1, 2]) == Matrix([[1, 0], [0, 2]])
    assert Matrix.zeros(2).is_zero()
    with pytest.raises(DimensionError):
        Matrix.unit(2, 3, 1)


def test_hollow_predicate():
    assert Matrix([[0, 5], [7, 0]]).has_zero_diagonal()
    assert not Matrix([[1, 0], [0, -1]]).has_zero_diagonal()


def test_commutators():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 1]])
    assert commutator(a, b) == a * b - b * a
    assert commutator(a, b) == -commutator(b, a)
    x = Matrix([[2, 0], [1, 1]])
    assert iterated_commutator([], x) == x
    assert iterated_commutator([a], x) == commutator(a, x)
    assert iterated_commutator([a, b], x) == commutator(a, commutator(b, x))


def test_embed():
    a = Matrix([[1, 2], [3, 4]])
    big = embed(a, 4)
    assert big.size == 4
    assert big[1, 1] == 1 and big[2, 2] == 4 and big[4, 4] == 0
    assert embed(a, 2) == a
    with pytest.raises(DimensionError):
        embed(a, 1)


def test_block_tools():
    a = Matrix([[1, 0], [0, 2]])
    b = Matrix([[0, 1], [1, 0]])
    flat = block_flatten([[a, b], [b, a]])
    assert flat.size == 4
    assert flat[1, 1] == 1 and flat[1, 4] == 1 and flat[4, 1] == 1
    assert block_diagonal([a, b]) == block_flatten(
        [[a, Matrix.zeros(2)], [Matrix.zeros(2), b]]
    )
    unit = block_unit(3, 3, 1, b)
    assert unit.size == 6
    assert unit[5, 2] == 1 and unit[6, 1] == 1 and unit[1, 1] == 0


def test_cyclic_shift():
    assert cyclic_shift(0, 2) == Matrix.identity(2)
    v = cyclic_shift(2, 1)
    assert v == Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert v * v * v == Matrix.identity(3)
    w = cyclic_shift(1, 2)
    assert w[1, 3] == 1 and w[3, 1] == 1 and w[2, 4] == 1


def test_rref_with_transform():
    rows = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(3)]]
    reduced, transform, pivots = rref_with_transform(rows)
    assert pivots == [0, 1]
    assert reduced[0] == [Fraction(1), Fraction(0)]
    assert reduced[1] == [Fraction(0), Fraction(1)]
    assert reduced[2] == [Fraction(0), Fraction(0)]
    for r in range(3):
        for c in range(2):
            acc = sum(transform[r][k] * rows[k][c] for k in range(3))
            assert acc == reduced[r][c]
    assert rank_of_rows(rows) == 2
    assert rank_of_rows([[1, 2], [2, 4]]) == 1


def test_inverse_and_similarity():
    p = Matrix([[1, 2], [3, 4]])
    assert p * inverse(p) == Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 2], [2, 4]]))
    a = Matrix([[0, 1], [0, 0]])
    assert Matrix.identity(2) * a * inverse(Matrix.identity(2)) == a
    conj = p * a * inverse(p)
    assert conj.trace() == a.trace()


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_random_inverse_round_trip(size, seed):
    p = random_invertible(size, seed)
    q = inverse(p)
    assert p * q == Matrix.identity(size)
    assert q * p == Matrix.identity(size)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_transform_reproduces_rref(size, seed):
    rows = [list(r) for r in random_matrix(size, seed).rows]
    reduced, transform, pivots = rref_with_transform(rows)
    for r in range(size):
        for c in range(size):
            acc = sum(transform[r][k] * rows[k][c] for k in range(size))
            assert acc == reduced[r][c]
    assert len(pivots) == rank_of_rows(rows)


# ------------------------------------------------------------- kernel oracles


def _textbook_product(a, b):
    """Row-by-column sums of Fraction products, the definition of a * b."""
    cols = list(zip(*b.rows))
    return Matrix._trusted(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows]
    )


def _augmented_inverse(p):
    """Inverse read off the right half of the reduced [p | I]."""
    n = p.size
    aug = [list(p.rows[i]) + [Fraction(i == j) for j in range(n)] for i in range(n)]
    reduced, _, pivots = rref_with_transform(aug)
    assert pivots == list(range(n))
    return Matrix._trusted(row[n:] for row in reduced)


def _assert_same_product(a, b):
    got, want = a * b, _textbook_product(a, b)
    assert all(type(x) is Fraction for row in got.rows for x in row)
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)


_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-60, 60),
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 35, 2**61 - 1]),
    ),
    st.builds(Fraction, st.integers(-(2**1000), 2**1000), st.integers(1, 2**1000)),
)


@st.composite
def _matrices(draw, n):
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[j] = Fraction(0)
    return Matrix(rows)


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(_matrices(n)), draw(_matrices(n))


@settings(deadline=None, max_examples=150)
@given(_pairs())
def test_product_matches_textbook_oracle(pair):
    a, b = pair
    _assert_same_product(a, b)
    _assert_same_product(b, a)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5).flatmap(_matrices))
def test_product_with_identity_and_zero(m):
    n = m.size
    for other in (Matrix.identity(n), Matrix.zeros(n)):
        _assert_same_product(m, other)
        _assert_same_product(other, m)
    assert m * Matrix.identity(n) == m == Matrix.identity(n) * m
    assert (m * Matrix.zeros(n)).is_zero() and (Matrix.zeros(n) * m).is_zero()


def test_product_small_cases():
    one_by_one = Matrix([["-2/3"]]) * Matrix([["9/4"]])
    assert one_by_one.rows == ((Fraction(-3, 2),),)
    _assert_same_product(Matrix([[0]]), Matrix([[5]]))
    # Coprime denominators cancel to integers; a zero row stays zero.
    a = Matrix([["1/2", "1/3"], [0, 0]])
    b = Matrix([[2, 0], [3, "1/7"]])
    assert a * b == Matrix([[2, "1/21"], [0, 0]])
    _assert_same_product(a, b)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(0, 10 ** 6))
def test_inverse_matches_augmented_elimination(size, seed):
    p = random_invertible(size, seed)
    q = inverse(p)
    assert q == _augmented_inverse(p)
    assert all(type(x) is Fraction for row in q.rows for x in row)
    assert p * q == Matrix.identity(size)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [4, 5, 6], [5, 7, 9]],
        [[0]],
    ],
)
def test_inverse_rejects_singular(rows):
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(rows))
