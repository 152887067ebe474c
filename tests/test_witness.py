"""Witness assignment container: validation and accessors."""

import pytest

from polywit.errors import ArityError, CommutativityError, DimensionError
from polywit.matrices import Matrix
from polywit.witness import WitnessAssignment


def test_accessors():
    w = WitnessAssignment(
        2, {1: Matrix.identity(2)}, {3: Matrix.diagonal([1, 2])}
    )
    assert w.size == 2
    assert w.x(1) == Matrix.identity(2)
    assert w.u(3) == Matrix.diagonal([1, 2])
    with pytest.raises(ArityError):
        w.x(2)
    with pytest.raises(ArityError):
        w.u(4)


def test_size_validation_names_the_slot():
    with pytest.raises(DimensionError) as err:
        WitnessAssignment(2, {1: Matrix.identity(3)}, {})
    assert "X1" in str(err.value)
    with pytest.raises(DimensionError) as err:
        WitnessAssignment(2, {}, {5: Matrix.identity(1)})
    assert "U5" in str(err.value)


def test_commutation_enforced():
    a = Matrix.unit(2, 1, 2)
    b = Matrix.unit(2, 2, 1)
    with pytest.raises(CommutativityError) as err:
        WitnessAssignment(2, {}, {3: a, 4: b})
    msg = str(err.value)
    assert "U3" in msg and "U4" in msg
    WitnessAssignment(2, {}, {3: a, 4: a + a})
    WitnessAssignment(2, {1: a, 2: b}, {})


def test_equality_ignores_trace():
    w1 = WitnessAssignment(1, {1: Matrix.zeros(1)}, {})
    w2 = WitnessAssignment(
        1, {1: Matrix.zeros(1)}, {}, trace=[{"k": 0, "omegabar": [], "branch": "pi"}]
    )
    assert w1 == w2
    assert w2.trace != w1.trace
