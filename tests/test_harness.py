"""The integer verifier against the dense evaluator it must agree with."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywit import harness, polynomials
from polywit.construct import witness_for_multilinear
from polywit.errors import ArityError
from polywit.harness import verify
from polywit.matrices import Matrix, embed
from polywit.polynomials import MultilinearPoly, evaluate
from polywit.randgen import random_matrix, random_multilinear, random_trace_zero
from polywit.witness import WitnessAssignment

# Mixed denominators and signs; zero is drawn too.
_SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def instances(draw):
    """(f, w): a multilinear f with rational coefficients, and X's for it.

    Some coefficient lists are rebalanced to sum to zero, and some X's are
    all zero.
    """
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 4))
    words = draw(
        st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6, unique_by=tuple)
    )
    lams = [draw(_SCALARS.filter(bool)) for _ in words]
    if len(lams) > 1 and draw(st.booleans()):
        lams[-1] = -sum(lams[:-1])
    f = MultilinearPoly(n, {tuple(word): lam for word, lam in zip(words, lams)})
    row = st.lists(_SCALARS, min_size=size, max_size=size)
    grid = st.lists(row, min_size=size, max_size=size)
    xs = {
        i: Matrix.zeros(size) if draw(st.integers(0, 4)) == 0 else Matrix(draw(grid))
        for i in range(1, n + 1)
    }
    return f, WitnessAssignment(size, xs, {})


def _bumped(m: Matrix, r: int, c: int, by=Fraction(1)) -> Matrix:
    rows = [list(row) for row in m.rows]
    rows[r][c] += by
    return Matrix(rows)


def _top_left(m: Matrix, d: int) -> Matrix:
    return Matrix([row[:d] for row in m.rows[:d]])


@settings(deadline=None, max_examples=100)
@given(instances(), st.integers(0, 3))
def test_accepts_the_evaluated_value(instance, pad):
    f, w = instance
    value = evaluate(f, w)
    assert verify(f, w, value) is True
    # The same X's embedded top-left in a larger size give the same value
    # embedded, so the target is then a proper top-left block.
    big = w.size + pad
    w_big = WitnessAssignment(big, {i: embed(x, big) for i, x in w.x_assign.items()}, {})
    assert verify(f, w_big, value) is True


@settings(deadline=None, max_examples=100)
@given(instances(), st.data())
def test_matches_the_dense_oracle(instance, data):
    f, w = instance
    value = evaluate(f, w)
    d = data.draw(st.integers(1, w.size))
    rows = st.lists(st.lists(_SCALARS, min_size=d, max_size=d), min_size=d, max_size=d)
    r, c = data.draw(st.integers(0, w.size - 1)), data.draw(st.integers(0, w.size - 1))
    targets = [
        Matrix(data.draw(rows)),
        _top_left(value, d),
        _bumped(value, r, c, data.draw(_SCALARS.filter(bool))),
    ]
    for a in targets:
        assert verify(f, w, a) == (value == embed(a, w.size))


# A fixed instance whose dense value is nonzero outside its top-left 2x2
# block; each control below must also change the dense value.
def _control_instance():
    f = random_multilinear(3, density=0.7, seed=11)
    w = WitnessAssignment(3, {i: random_matrix(3, seed=20 + i) for i in (1, 2, 3)}, {})
    return f, w, evaluate(f, w)


def test_control_instance_is_accepted():
    f, w, value = _control_instance()
    assert any(value.rows[r][c] for r in range(3) for c in range(3) if max(r, c) == 2)
    assert verify(f, w, value) is True


def test_rejects_one_bumped_x_entry():
    f, w, value = _control_instance()
    x_assign = dict(w.x_assign)
    x_assign[2] = _bumped(x_assign[2], 1, 0)
    w_bad = WitnessAssignment(w.size, x_assign, {})
    assert evaluate(f, w_bad) != value
    assert verify(f, w_bad, value) is False


def test_rejects_one_bumped_coefficient():
    f, w, value = _control_instance()
    sigma = min(f.coeffs)
    coeffs = dict(f.coeffs)
    coeffs[sigma] += Fraction(1, 2)
    f_bad = MultilinearPoly(f.n, coeffs)
    assert evaluate(f_bad, w) != value
    assert verify(f_bad, w, value) is False


def test_rejects_one_bumped_target_entry():
    f, w, value = _control_instance()
    assert verify(f, w, _bumped(value, 0, 2)) is False


def test_rejects_a_value_nonzero_outside_the_target_block():
    f, w, value = _control_instance()
    # The top-left block agrees exactly; only the entries outside it differ.
    assert verify(f, w, _top_left(value, 2)) is False


def test_independent_of_matrix_arithmetic_and_evaluate(monkeypatch):
    f = random_multilinear(4, density=0.7, seed=5)
    a = random_trace_zero(3, seed=6)
    _, w = witness_for_multilinear(f, a)

    def refuse(*args, **kwargs):
        raise AssertionError("verify must not use the dense path")

    for owner, name in (
        (Matrix, "__mul__"),
        (Matrix, "__add__"),
        (Matrix, "scale"),
        (polynomials, "evaluate"),
        (harness, "evaluate"),
        (harness, "embed"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert verify(f, w, a) is True
    assert verify(f, w, _bumped(a, 0, 1)) is False


def test_contract_smaller_witness_and_missing_variable():
    f = MultilinearPoly(2, {(1, 2): 1, (2, 1): -1})
    w = WitnessAssignment(2, {1: Matrix.identity(2), 2: Matrix.identity(2)}, {})
    assert verify(f, w, Matrix.zeros(3)) is False
    with pytest.raises(ArityError):
        verify(f, WitnessAssignment(2, {1: Matrix.identity(2)}, {}), Matrix.zeros(2))
