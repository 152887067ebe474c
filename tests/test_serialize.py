"""JSON round trips and schema validation."""

from fractions import Fraction

import pytest

from polywit.construct import reduce_step, witness_for_multilinear
from polywit.errors import CommutativityError, DimensionError
from polywit.matrices import Matrix, parse_rational
from polywit.polynomials import (
    AdmissiblePoly,
    MultilinearPoly,
    enumerate_partitions,
    from_multilinear,
    marked_form,
    reindex_by_position,
)
from polywit.randgen import random_admissible, random_trace_zero
from polywit.serialize import (
    admissible_to_json,
    marked_to_json,
    matrix_from_json,
    matrix_to_json,
    partitions_to_json,
    reduction_to_json,
    witness_from_json,
    witness_to_json,
)


def test_matrix_round_trip():
    m = Matrix([[Fraction(1, 2), 3], [-2, 0]])
    doc = matrix_to_json(m)
    assert doc == {"size": 2, "rows": [["1/2", "3"], ["-2", "0"]]}
    assert matrix_from_json(doc) == m


@pytest.mark.parametrize(
    "doc",
    [
        {"size": 2, "rows": [["1", "0"]]},
        {"size": 2, "rows": [["1", "0"], ["0"]]},
        {"size": 0, "rows": []},
        {"rows": [["1"]]},
        {"size": 1},
        {"size": "2", "rows": [["1", "0"], ["0", "1"]]},
        {"size": True, "rows": [["1"]]},
        {"size": 2, "rows": 7},
        {"size": 1, "rows": None},
    ],
)
def test_matrix_rejects_bad_shapes(doc):
    with pytest.raises(DimensionError):
        matrix_from_json(doc)


@pytest.mark.parametrize("entry", ["1.5", "x", "1/0", ""])
def test_matrix_rejects_bad_entries(entry):
    with pytest.raises(ValueError):
        matrix_from_json({"size": 1, "rows": [[entry]]})


def test_witness_round_trip():
    f = MultilinearPoly(2, {(1, 2): 1, (2, 1): -1})
    a = random_trace_zero(2, seed=4)
    s, w = witness_for_multilinear(f, a)
    doc = witness_to_json(w, a, True)
    assert doc["s"] == s
    assert set(doc["x"]) == {"1", "2"}
    assert doc["u"] == {}
    assert doc["verified"] is True
    assert doc["trace"] == [{"k": 0, "omegabar": [], "branch": "rewrite"}]
    w2, target2, verified2 = witness_from_json(doc)
    assert w2 == w
    assert w2.trace == w.trace
    assert target2 == a
    assert verified2 is True


def test_witness_rejects_missing_keys():
    with pytest.raises(DimensionError):
        witness_from_json({"s": 1, "x": {}, "u": {}})


def test_witness_rejects_bad_trace_shape():
    doc = {
        "s": 1,
        "x": {"1": {"size": 1, "rows": [["0"]]}},
        "u": {},
        "target": {"size": 1, "rows": [["0"]]},
        "verified": False,
        "trace": [{"k": 0}],
    }
    with pytest.raises(DimensionError):
        witness_from_json(doc)


def _small_witness_doc(**changes):
    doc = {
        "s": 1,
        "x": {"1": {"size": 1, "rows": [["0"]]}},
        "u": {},
        "target": {"size": 1, "rows": [["0"]]},
        "verified": False,
        "trace": [{"k": 0, "omegabar": [], "branch": "rewrite"}],
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "changes",
    [
        {"s": True},
        {"trace": [{"k": 0, "omegabar": 3, "branch": "pi"}]},
        {"trace": [{"k": 0, "omegabar": [1.5], "branch": "pi"}]},
        {"trace": [{"k": None, "omegabar": [], "branch": "pi"}]},
        {"trace": [{"k": True, "omegabar": [], "branch": "pi"}]},
    ],
)
def test_witness_rejects_bad_types(changes):
    witness_from_json(_small_witness_doc())
    with pytest.raises(DimensionError):
        witness_from_json(_small_witness_doc(**changes))


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_witness_rejects_non_boolean_verified(flag):
    with pytest.raises(DimensionError, match="verified flag must be a boolean"):
        witness_from_json(_small_witness_doc(verified=flag))


@pytest.mark.parametrize(
    "keys", [("1", "01"), ("1_0",), ("0",), ("-1",), ("+1",), (" 1",), ("1\n",), ("x",)]
)
def test_witness_rejects_noncanonical_keys(keys):
    one = {"size": 1, "rows": [["0"]]}
    for label in ("x", "u"):
        with pytest.raises(DimensionError):
            witness_from_json(_small_witness_doc(**{label: {k: one for k in keys}}))


def test_witness_rejects_noncommuting_u():
    doc = {
        "s": 2,
        "x": {"1": matrix_to_json(Matrix.identity(2))},
        "u": {
            "3": matrix_to_json(Matrix.unit(2, 1, 2)),
            "4": matrix_to_json(Matrix.unit(2, 2, 1)),
        },
        "target": matrix_to_json(Matrix.zeros(2)),
        "verified": False,
    }
    with pytest.raises(CommutativityError):
        witness_from_json(doc)


def test_admissible_round_trip():
    f = random_admissible(2, (3, 4), density=0.6, seed=2)
    records = admissible_to_json(f)
    assert all(set(r) == {"sigma", "parts", "coeff"} for r in records)
    coeffs = {
        (tuple(r["sigma"]), tuple(map(tuple, r["parts"]))): r["coeff"]
        for r in records
    }
    assert AdmissiblePoly(f.n, f.omega, coeffs) == f


def test_reduction_to_json_shape():
    f = from_multilinear(MultilinearPoly(2, {(1, 2): 1, (2, 1): -1}))
    step = reduce_step(f)
    doc = reduction_to_json(f, step)
    assert doc["branch"] == "rewrite"
    assert doc["k"] == 0 and doc["omegabar"] == []
    assert doc["pi_of_g"] == []
    assert doc["rewritten"] == [
        {"sigma": [1], "parts": [[2]], "coeff": "-1"}
    ]
    assert doc["g"] == marked_to_json(marked_form(reindex_by_position(f), 0, (), 2, ()))
    assert len(doc["g"]["terms"]) == 2


def test_partitions_to_json():
    doc = partitions_to_json(enumerate_partitions((3,), 2))
    assert doc == [[[3], []], [[], [3]]]


@pytest.mark.parametrize("bad", ["1.5", "3/0"])
def test_matrix_rejects_bad_entry_after_repeated_zeros(bad):
    rows = [["0"] * 6 for _ in range(6)]
    rows[5][5] = bad
    with pytest.raises(ValueError):
        matrix_from_json({"size": 6, "rows": rows})


def test_matrix_decodes_equal_values_written_differently():
    rows = [["1/2", "2/4", 1], ["1", "-0", "0"], ["2/4", 1, "1/2"]]
    m = matrix_from_json({"size": 3, "rows": rows})
    assert m.rows == tuple(
        tuple(parse_rational(str(entry)) for entry in row) for row in rows
    )
    assert m[1, 1] == m[1, 2] == Fraction(1, 2) and m[1, 3] == m[2, 1] == 1
