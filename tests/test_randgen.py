"""Seeded generator guarantees: reproducibility and structural properties."""

import pytest

from polywit.errors import DimensionError
from polywit.matrices import Matrix, inverse
from polywit.construct import BRANCH_REWRITE, reduce_step
from polywit.polynomials import from_multilinear, marker_at_one
from polywit.randgen import (
    random_admissible,
    random_bracket,
    random_commuting_assignment,
    random_invertible,
    random_marked,
    random_marked_pi_zero,
    random_matrix,
    random_multilinear,
    random_trace_zero,
)


def test_random_multilinear_reproducible_and_nonzero():
    for seed in range(20):
        f = random_multilinear(3, density=0.05, seed=seed)
        assert not f.is_zero()
        assert f == random_multilinear(3, density=0.05, seed=seed)
    assert random_multilinear(2, density=0.0, seed=1).is_zero()
    assert random_multilinear(2, seed=1) != random_multilinear(2, seed=2)
    with pytest.raises(DimensionError):
        random_multilinear(0)


def test_random_bracket_takes_the_rewrite_branch():
    for seed in range(10):
        for n in (2, 3, 4):
            f = random_bracket(n, density=0.5, seed=seed)
            assert f == random_bracket(n, density=0.5, seed=seed)
            assert reduce_step(from_multilinear(f)).branch == BRANCH_REWRITE
    with pytest.raises(DimensionError):
        random_bracket(1)


def test_random_trace_zero():
    for seed in range(20):
        for d in (1, 2, 5):
            a = random_trace_zero(d, seed=seed)
            assert a.size == d
            assert a.trace() == 0
            assert a == random_trace_zero(d, seed=seed)
    assert random_trace_zero(1, seed=0).is_zero()


def test_random_invertible():
    for seed in range(10):
        p = random_invertible(4, seed=seed)
        assert p * inverse(p) == Matrix.identity(4)


def test_random_matrix_reproducible():
    assert random_matrix(3, seed=7) == random_matrix(3, seed=7)


def test_random_admissible_nonzero():
    for seed in range(10):
        f = random_admissible(2, (3,), density=0.05, seed=seed)
        assert not f.is_zero()
        assert f.omega == (3,)


def test_random_marked_shape():
    g = random_marked(3, (4, 5), (5,), density=0.5, seed=3)
    assert g.n == 3 and g.omegabar == (5,)
    assert not g.is_zero()
    for (_, _, parts) in g.coeffs:
        assert parts[2] == (5,)


def test_random_marked_pi_zero_property():
    for seed in range(20):
        g = random_marked_pi_zero(2, (3,), (3,), density=0.7, seed=seed)
        assert not g.is_zero()
        assert marker_at_one(g).is_zero()
        h = random_marked_pi_zero(3, (4, 5), (4,), density=0.5, seed=seed)
        assert not h.is_zero()
        assert marker_at_one(h).is_zero()


def test_random_commuting_assignment():
    w = random_commuting_assignment((1, 2), (3, 4, 5), size=3, seed=9)
    assert set(w.x_assign) == {1, 2}
    assert set(w.u_assign) == {3, 4, 5}
    for a in w.u_assign.values():
        for b in w.u_assign.values():
            assert a * b == b * a
