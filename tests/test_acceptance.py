"""Acceptance suite.

Each test exercises one advertised guarantee end to end and prints one
PASS/FAIL line.  All comparisons are exact rational equality; there are
no tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from polywit.construct import (
    hollow_similarity,
    lift_witness,
    reduce_step,
    shift_bracket_closed_form,
    size_bound,
    witness_for_multilinear,
)
from polywit.errors import (
    InternalInvariantError,
    MultilinearityError,
    PreconditionError,
)
from polywit.harness import verify
from polywit.matrices import (
    Matrix,
    cyclic_shift,
    embed,
    inverse,
    iterated_commutator,
)
from polywit.parsing import parse_poly
from polywit.polynomials import (
    MultilinearPoly,
    all_permutations,
    evaluate,
    marker_at_one,
    marker_into_brackets,
    merge_position_index,
    from_multilinear,
)
from polywit.randgen import (
    random_admissible,
    random_commuting_assignment,
    random_marked,
    random_marked_pi_zero,
    random_multilinear,
    random_trace_zero,
)
from word_oracle import (
    expand_admissible,
    extract_coefficients,
    extraction_has_full_column_rank,
)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, name


FIXED_POLYS = [
    "X1",
    "X1*X2 - X2*X1",
    "X1*X2",
    "X1*X2*X3 - X1*X3*X2 + X3*X1*X2 - X2*X1*X3 + X2*X3*X1 - X3*X2*X1",
]


def test_criterion_end_to_end():
    """Fixed polynomial family against 50 seeded targets per size."""
    start = time.perf_counter()
    runs = 0
    ok = True
    for text in FIXED_POLYS:
        f = parse_poly(text)
        for d in (1, 2, 3, 4):
            for seed in range(50):
                a = random_trace_zero(d, seed=seed)
                s, w = witness_for_multilinear(f, a)
                runs += 1
                if not verify(f, w, a):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        "end-to-end: fixed family verified on seeded targets",
        ok,
        f"{runs} runs in {elapsed:.2f}s",
    )


def _standard(n: int) -> MultilinearPoly:
    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))

    return MultilinearPoly(n, {p: sign(p) for p in all_permutations(n)})


# The omegabar slots at which s_n takes the (pi, k=1) lift.
_STANDARD_LIFTS = {6: (4, 5), 7: (4, 5), 8: (5, 6, 7)}


@pytest.mark.parametrize("n, d", [(6, 3), (7, 2), (8, 2)])
def test_criterion_standard_polynomial_lift(n, d):
    """s_6, s_7 and s_8 reach the k=1 lift and still verify exactly."""
    a = random_trace_zero(d, seed=n)
    s, w = witness_for_multilinear(_standard(n), a)
    levels = [(e["k"], tuple(e["omegabar"]), e["branch"]) for e in w.trace]
    ok = (
        verify(_standard(n), w, a)
        and s <= size_bound(d, w.trace)
        and all((1, (slot,), "pi") in levels for slot in _STANDARD_LIFTS[n])
    )
    _report(f"s_{n} at d={d}: verified through the k=1 lift", ok, f"s={s}")


def test_criterion_commutator_walkthrough():
    f = parse_poly("X1*X2 - X2*X1")
    a = Matrix.unit(2, 1, 2)
    s, w = witness_for_multilinear(f, a)
    ok = (
        s == 3
        and verify(f, w, a)
        and w.trace == [{"k": 0, "omegabar": [], "branch": "rewrite"}]
    )
    _report("commutator walkthrough: s=3, one rewrite step with k=0", ok)


def test_criterion_shift_bracket_closed_form():
    checked = 0
    ok = True
    for k in range(9):
        v = cyclic_shift(k, 1)
        corner = Matrix.unit(k + 1, k + 1, 1)
        for j in range(k + 1):
            want = iterated_commutator([v] * j, corner)
            if shift_bracket_closed_form(k, j) != want:
                ok = False
            checked += 1
    ok = ok and checked == 45
    _report(
        "shift-bracket closed form equals brute force for 0<=j<=k<=8",
        ok,
        f"{checked} equalities",
    )


def test_criterion_hollow_property():
    ok = True
    for case in range(200):
        d = 1 + case % 8
        a = random_trace_zero(d, seed=10_000 + case)
        p, p_inv, h = hollow_similarity(a)
        if (
            not h.has_zero_diagonal()
            or h != p * embed(a, d + 1) * p_inv
            or p_inv != inverse(p)
        ):
            ok = False
    _report("hollow conjugation: zero diagonal and exact similarity, 200 cases", ok)


_EXTRACTION_SHAPES = [
    (1, ()), (1, (2,)), (1, (2, 3)),
    (2, (3,)), (2, (3, 4)),
    (3, (4,)), (3, (4, 5)),
]


def test_criterion_extraction_round_trip():
    ok = True
    for n in (1, 2, 3):
        for omega in ((), (n + 1,), (n + 1, n + 2)):
            if not extraction_has_full_column_rank(n, omega):
                ok = False
    for case in range(100):
        n, omega = _EXTRACTION_SHAPES[case % len(_EXTRACTION_SHAPES)]
        f = random_admissible(n, omega, density=0.5, seed=20_000 + case)
        if extract_coefficients(expand_admissible(f), n, omega) != f:
            ok = False
    _report(
        "expand/extract round trip identity, 100 cases, full column rank", ok
    )


_MARKED_SHAPES = [
    (2, (3,), ()),
    (2, (3,), (3,)),
    (2, (3, 4), (4,)),
    (2, (3, 4), (3, 4)),
    (3, (4,), (4,)),
    (3, (4, 5), (4, 5)),
]


def _marked_case(case: int, seed: int):
    n, omega, omegabar = _MARKED_SHAPES[case % len(_MARKED_SHAPES)]
    g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
    rest = tuple(w for w in omega if w not in omegabar)
    gw = random_commuting_assignment(
        range(1, n), rest + (n,), size=2 + case % 2, seed=seed + 1
    )
    return g, gw, omega, omegabar


def test_criterion_lift_oracle():
    ok = True
    for case in range(100):
        g, gw, omega, omegabar = _marked_case(case, 30_000 + case)
        k = len(omegabar)
        parent = merge_position_index(g.n, omega, dict(g.coeffs))
        lifted = lift_witness(gw, k, omegabar, omega, g.n)
        want = embed(evaluate(g, gw), (k + 1) * gw.size)
        if evaluate(parent, lifted) != want:
            ok = False
    _report(
        "block lift: f on lifted witness embeds the marked value, 100 cases", ok
    )


def test_criterion_pi_and_rewrite_oracles():
    ok_pi = True
    for case in range(100):
        g, gw, _, _ = _marked_case(case, 40_000 + case)
        w_id = gw.with_u(g.marker, Matrix.identity(gw.size))
        if evaluate(marker_at_one(g), gw) != evaluate(g, w_id):
            ok_pi = False
    ok_rw = True
    for case in range(100):
        n, omega, omegabar = _MARKED_SHAPES[case % len(_MARKED_SHAPES)]
        g = random_marked_pi_zero(
            n, omega, omegabar, density=0.7, seed=50_000 + case
        )
        rest = tuple(w for w in omega if w not in omegabar)
        gw = random_commuting_assignment(
            range(1, n), rest + (n,), size=2 + case % 2, seed=51_000 + case
        )
        if not marker_at_one(g).is_zero():
            ok_rw = False
        elif evaluate(marker_into_brackets(g), gw) != evaluate(g, gw):
            ok_rw = False
    _report("marker-to-1 oracle: 100 cases", ok_pi)
    _report("bracket-rewrite oracle under vanishing image: 100 cases", ok_rw)


def test_criterion_reduction_soundness():
    ok = True
    for case in range(200):
        n = 1 + case % 4
        d = 1 + case % 3
        f = random_multilinear(n, density=0.5, seed=60_000 + case)
        try:
            if n >= 2:
                reduce_step(from_multilinear(f))
            a = random_trace_zero(d, seed=61_000 + case)
            s, w = witness_for_multilinear(f, a)
        except InternalInvariantError:
            ok = False
            continue
        if not verify(f, w, a) or s > size_bound(d, w.trace):
            ok = False
    _report(
        "reduction soundness: no both-zero violation, size within bound, "
        "200 cases",
        ok,
    )


def test_criterion_negative_controls():
    f = parse_poly("X1*X2 - X2*X1")
    a = Matrix.unit(2, 1, 2)
    s, w = witness_for_multilinear(f, a)
    tampered = dict(w.x_assign)
    bumped = [list(row) for row in tampered[1].rows]
    bumped[0][1] += Fraction(1)
    tampered[1] = Matrix(bumped)
    from polywit.witness import WitnessAssignment

    w_bad = WitnessAssignment(w.size, tampered, w.u_assign)
    ok_perturb = verify(f, w, a) and not verify(f, w_bad, a)

    ok_parse = False
    try:
        parse_poly("X1*X1 + X2*X2")
    except MultilinearityError:
        ok_parse = True

    ok_trace = False
    try:
        witness_for_multilinear(f, Matrix([[Fraction(2, 7), 1], [0, 0]]))
    except PreconditionError as err:
        ok_trace = "2/7" in str(err)

    _report("negative control: perturbed witness fails verification", ok_perturb)
    _report("negative control: non-multilinear input rejected", ok_parse)
    _report(
        "negative control: nonzero trace rejected with exact trace shown",
        ok_trace,
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
