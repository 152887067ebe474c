"""Constructor stages: hollow conjugation, base case, lift, recursion."""

import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polywit import construct
from polywit.construct import (
    BRANCH_PI,
    BRANCH_REWRITE,
    base_case_witness,
    construct_witness,
    hollow_similarity,
    lift_witness,
    reduce_step,
    size_bound,
    witness_for_multilinear,
)
from polywit.errors import (
    EmptyPolynomialError,
    PreconditionError,
)
from polywit.matrices import (
    Matrix,
    cyclic_shift,
    embed,
    height,
    inverse,
    iterated_commutator,
)
from polywit.polynomials import (
    AdmissiblePoly,
    MarkedPoly,
    MultilinearPoly,
    from_multilinear,
    marked_form,
    marker_at_one,
    marker_into_brackets,
    min_k_and_omegabar,
    reindex_by_position,
)
from polywit.randgen import random_bracket, random_multilinear, random_trace_zero
from polywit.harness import verify
from polywit.serialize import witness_to_json
from polywit.witness import WitnessAssignment
from reference import (
    evaluate,
    merge_position_index,
    random_admissible,
    random_commuting_assignment,
    random_marked,
    reference_images,
    shift_bracket_closed_form,
    swap_labels,
)

# ----------------------------------------------------------- hollow form


def test_hollow_nilpotent_hand_trace():
    # e_12 is already hollow, so the sweep does nothing.
    a = Matrix.unit(2, 1, 2)
    p, p_inv, h = hollow_similarity(a)
    assert p == Matrix.identity(2)
    assert p_inv == Matrix.identity(2)
    assert h == Matrix.unit(2, 1, 2)
    assert h == p * a * inverse(p)


def test_hollow_diagonal_hand_trace():
    # Column 1 is zero below the diagonal, so I + e_21 comes first (t = 1:
    # h_11 - h_22 = 2 != h_12 = 0); it makes h_21 = 2, and I - 1/2 e_12
    # then zeroes h_11.
    a = Matrix.diagonal([1, -1])
    p, p_inv, h = hollow_similarity(a)
    half = Fraction(1, 2)
    assert p == Matrix([[half, -half], [1, 1]])
    assert p_inv == Matrix([[1, half], [-1, half]])
    assert h == Matrix([[0, half], [2, 0]])
    assert h.has_zero_diagonal()


def test_hollow_diagonal_pre_conjugates_twice():
    # diag(2, -1, -1): column 1 is zero below the diagonal, so I + e_21
    # (t = 1: 2 - (-1) = 3 != h_12 = 0) makes h_21 = 3, and I - 2/3 e_12
    # zeroes h_11 but leaves h_22 = 1 over a zero h_32.  So I + e_32
    # (t = 1: 1 - (-1) = 2 != h_23 = 0) makes h_32 = 2, and I - 1/2 e_23
    # zeroes h_22; h_33 is then the trace, 0.  No fourth index is needed.
    a = Matrix.diagonal([2, -1, -1])
    p, p_inv, h = hollow_similarity(a)
    assert p == Matrix([["1/3", "-2/3", 0], ["1/2", "1/2", "-1/2"], [1, 1, 1]])
    assert p_inv == Matrix([[1, "2/3", "1/3"], [-1, "1/3", "1/6"], [0, -1, "1/2"]])
    assert h == Matrix([[0, "2/3", "1/3"], ["3/2", 0, "1/2"], [3, 2, 0]])
    assert h == p * a * p_inv


@pytest.mark.parametrize(
    "rows, t, p, p_inv, h",
    [
        # h_11 - h_22 = 2 != h_12 = 1: pre-conjugate by I + e_21, which
        # already zeroes h_11.
        (
            [[1, 1], [0, -1]],
            1,
            [[1, 0], [1, 1]],
            [[1, 0], [-1, 1]],
            [[0, 1], [1, 0]],
        ),
        # h_11 - h_22 = 2 = h_12: t = 1 would leave h_21 = 0, so t = 2.
        (
            [[1, 2], [0, -1]],
            2,
            [["-1/2", "-3/4"], [2, 1]],
            [[1, "3/4"], [-2, "-1/2"]],
            [[0, "-1/4"], [-4, 0]],
        ),
    ],
)
def test_hollow_pre_conjugation_branches(rows, t, p, p_inv, h):
    a = Matrix(rows)
    got_p, got_p_inv, got_h = hollow_similarity(a)
    # The first transvection is I + t*e_21 and later ones add to row 1
    # only, so row 2 of p is (t, 1).
    assert got_p.rows[1] == (t, 1)
    assert (got_p, got_p_inv, got_h) == (Matrix(p), Matrix(p_inv), Matrix(h))
    assert got_h == got_p * a * got_p_inv


@pytest.mark.parametrize(
    "rows, first_row",
    [
        # t = -2 for both j = 2 and j = 3: the tie goes to j = 2.
        ([[2, 0, 0], [1, -1, 0], [1, 0, -1]], (1, -2, 0)),
        # t = -2/5 for j = 2 and t = -2 for j = 3: the shorter ratio wins.
        ([[2, 0, 0], [5, -1, 0], [1, 0, -1]], (1, 0, -2)),
    ],
)
def test_hollow_pivot_has_least_height(rows, first_row):
    a = Matrix(rows)
    p, p_inv, h = hollow_similarity(a)
    # Only the first transvection, I + t*e_1j, writes to row 1 of p.
    assert p.rows[0] == first_row
    assert h.has_zero_diagonal()
    assert h == p * a * p_inv


def test_hollow_zero_matrix():
    for d in (1, 2, 3):
        p, p_inv, h = hollow_similarity(Matrix.zeros(d))
        assert p == Matrix.identity(d)
        assert p_inv == Matrix.identity(d)
        assert h.is_zero()


def test_hollow_rejects_nonzero_trace():
    with pytest.raises(PreconditionError) as err:
        hollow_similarity(Matrix([[Fraction(5, 3)]]))
    assert "5/3" in str(err.value)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 10 ** 6))
def test_hollow_property(d, seed):
    a = random_trace_zero(d, seed)
    p, p_inv, h = hollow_similarity(a)
    assert p.size == p_inv.size == h.size == d
    assert h.has_zero_diagonal()
    assert p * p_inv == Matrix.identity(d)
    assert p_inv == inverse(p)
    assert h == p * a * p_inv


@settings(deadline=None, max_examples=25)
@given(
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
    st.fractions().filter(bool),
)
def test_hollow_commutes_with_scaling(d, seed, scale):
    # witness_for_multilinear builds toward L*a and relies on p and p^-1
    # not depending on L.  The upper triangle of a has zeros below the
    # diagonal, so it takes the pre-conjugation branch too.
    a = random_trace_zero(d, seed)
    upper = Matrix(
        [[x if c >= r else 0 for c, x in enumerate(row)] for r, row in enumerate(a.rows)]
    )
    for m in (a, upper):
        p, p_inv, h = hollow_similarity(m)
        assert hollow_similarity(m.scale(scale)) == (p, p_inv, h.scale(scale))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hollow_height_stays_low(seed):
    # The least-height pivot keeps entries short; the old basis change
    # reached thousands of bits at d = 16.
    p, p_inv, h = hollow_similarity(random_trace_zero(40, seed))
    assert max(height(x) for row in h.rows for x in row) <= 48
    assert h.has_zero_diagonal()


# --------------------------------------------------------------- base case


def test_base_case_plain_variable():
    a = random_trace_zero(3, seed=5)
    w = base_case_witness(Fraction(2), (), a)
    assert w.size == 3
    assert w.x(1) == a.scale(Fraction(1, 2))
    assert w.u_assign == {}


def test_base_case_with_brackets():
    a = random_trace_zero(2, seed=9)
    lam = Fraction(-3, 2)
    for omegas in ((5,), (4, 7)):
        w = base_case_witness(lam, omegas, a)
        assert w.size == 2
        f = AdmissiblePoly(1, omegas, {((1,), (omegas,)): lam})
        assert evaluate(f, w) == embed(a, 2)
        us = [w.u(o) for o in omegas]
        assert all(u == us[0] for u in us)


def test_base_case_rejects_bad_inputs():
    a = random_trace_zero(2, seed=1)
    with pytest.raises(PreconditionError):
        base_case_witness(Fraction(0), (), a)
    with pytest.raises(PreconditionError) as err:
        base_case_witness(Fraction(1), (), Matrix([[1, 0], [0, 1]]))
    assert "2" in str(err.value)


# -------------------------------------------------------------- closed form


def test_shift_bracket_matches_brute_force():
    for k in range(5):
        v = cyclic_shift(k, 1)
        corner = Matrix.unit(k + 1, k + 1, 1)
        for j in range(k + 1):
            assert shift_bracket_closed_form(k, j) == iterated_commutator(
                [v] * j, corner
            )


def test_shift_bracket_block_form():
    from polywit.matrices import block_unit

    b = 2
    for k in (1, 2):
        v = cyclic_shift(k, b)
        corner = block_unit(k + 1, k + 1, 1, Matrix.identity(b))
        for j in range(k + 1):
            assert shift_bracket_closed_form(k, j, block=b) == iterated_commutator(
                [v] * j, corner
            )


def test_shift_bracket_rejects_bad_range():
    with pytest.raises(PreconditionError):
        shift_bracket_closed_form(2, 3)


# --------------------------------------------------------------------- lift


def _lift_case(n, omega, omegabar, seed, extras=()):
    g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
    rest = tuple(w for w in omega if w not in omegabar)
    gw = random_commuting_assignment(
        range(1, n), rest + (n,), size=2, seed=seed + 1
    )
    k = len(omegabar)
    parent_coeffs = dict(
        merge_position_index(n, omega, dict(g.coeffs)).coeffs
    )
    for key, lam in extras:
        parent_coeffs[key] = parent_coeffs.get(key, Fraction(0)) + lam
    parent = AdmissiblePoly(n, omega, parent_coeffs)
    lifted = lift_witness(gw, k, omegabar, omega, n)
    assert lifted.size == (k + 1) * gw.size
    assert evaluate(parent, lifted) == embed(
        evaluate(g, gw), (k + 1) * gw.size
    )


def test_lift_equality_plain():
    for seed in range(4):
        _lift_case(2, (3,), (3,), seed)
        _lift_case(2, (3, 4), (4,), seed)
        _lift_case(3, (4,), (), seed)


def test_lift_kills_terms_with_other_slots():
    # Terms whose top-variable slot leaves the selected set must vanish.
    extras = [
        (((1, 2), ((3,), (4,))), Fraction(7)),
        (((2, 1), ((), (3, 4))), Fraction(-2)),
    ]
    for seed in range(4):
        _lift_case(2, (3, 4), (3,), seed, extras=extras)


def test_lift_validates_omegabar():
    gw = random_commuting_assignment((1,), (2,), size=2, seed=0)
    with pytest.raises(PreconditionError):
        lift_witness(gw, 1, (5,), (3,), 2)


# ---------------------------------------------------------------- reduction


def test_reduce_step_pi_branch():
    f = from_multilinear(MultilinearPoly(2, {(1, 2): 1}))
    step = reduce_step(f)
    assert step.branch == BRANCH_PI
    assert step.k == 0 and step.omegabar == ()
    _, pi_part, rewritten = reference_images(f, step)
    assert step.reduced == pi_part == AdmissiblePoly(1, (), {((1,), ((),)): 1})
    assert rewritten is None


def test_reduce_step_rewrite_branch():
    f = from_multilinear(MultilinearPoly(2, {(1, 2): 1, (2, 1): -1}))
    step = reduce_step(f)
    assert step.branch == BRANCH_REWRITE
    _, pi_part, rewritten = reference_images(f, step)
    assert pi_part.is_zero()
    assert step.reduced == rewritten == AdmissiblePoly(1, (2,), {((1,), ((2,),)): -1})


def test_reduce_step_rejects_degenerate_inputs():
    with pytest.raises(EmptyPolynomialError):
        reduce_step(AdmissiblePoly(2, (), {}))
    with pytest.raises(PreconditionError):
        reduce_step(from_multilinear(MultilinearPoly(1, {(1,): 1})))


_REDUCTION_SHAPES = [(2, ()), (3, ()), (4, ()), (2, (3,)), (2, (3, 4)), (3, (4,))]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, len(_REDUCTION_SHAPES) - 1), st.integers(0, 10 ** 6))
def test_trusted_constructors_match_checked(shape, seed):
    """Every polynomial the reduction and ``reference_images`` build
    without validation passes it."""
    n, omega = _REDUCTION_SHAPES[shape]
    starts = [random_admissible(n, omega, density=0.5, seed=seed)]
    if not omega:
        starts.append(from_multilinear(random_multilinear(n, 0.6, seed)))
    built = list(starts)
    for f in starts:
        while f.n > 1:
            step = reduce_step(f)
            built += [p for p in reference_images(f, step) if p is not None]
            f = step.reduced
            built.append(f)
    for p in built:
        if isinstance(p, MarkedPoly):
            checked = MarkedPoly(p.n, p.omega, p.omegabar, p.coeffs)
        else:
            checked = AdmissiblePoly(p.n, p.omega, p.coeffs)
        assert p == checked
        assert all(type(lam) is Fraction and lam for lam in p.coeffs.values())


def _reference_step(f: AdmissiblePoly):
    """(v, k, omegabar, branch, next level) by reduce_step's rule, with
    every candidate built in full by the reference helpers."""
    candidates = []
    for v in range(f.n, 0, -1):
        idx = reindex_by_position(swap_labels(f, v))
        k, omegabar = min_k_and_omegabar(idx, f.n)
        marked = marked_form(idx, k, omegabar, f.n, f.omega)
        image = marker_at_one(marked)
        if image.is_zero():
            candidates.append((v, k, omegabar, BRANCH_REWRITE, marker_into_brackets(marked)))
        else:
            candidates.append((v, k, omegabar, BRANCH_PI, image))
    k = min(c[1] for c in candidates)
    candidates = [c for c in candidates if c[1] == k]
    for c in candidates:
        if len(c[4].coeffs) <= len(f.coeffs):
            return c
    # min keeps the first of equal keys, so a tie goes to the larger v
    return min(candidates, key=lambda c: len(c[4].coeffs))


# Sparse inputs give the variables different k_v and make candidates
# other than v = n win, with X_v's and X_n's slots both nonempty.
_ORACLE_SHAPES = _REDUCTION_SHAPES + [(3, (4, 5)), (4, (5, 6))]


@settings(deadline=None, max_examples=120)
@given(
    st.integers(0, len(_ORACLE_SHAPES) - 1),
    st.integers(0, 10 ** 6),
    st.booleans(),
    st.sampled_from([0.5, 0.1, 0.03]),
)
def test_reduce_step_matches_reference_helpers(shape, seed, multilinear, density):
    """The grouping pass, the counts and the build agree with the marked
    form and its images built by the reference helpers, on every level of
    the chain."""
    n, omega = _ORACLE_SHAPES[shape]
    if multilinear and not omega:
        f = from_multilinear(random_multilinear(n, density, seed))
    else:
        f = random_admissible(n, omega, density=density, seed=seed)
    assume(not f.is_zero())
    while f.n > 1:
        step = reduce_step(f)
        v, k, omegabar, branch, reduced = _reference_step(f)
        assert (step.v, step.k, step.omegabar, step.branch) == (v, k, omegabar, branch)
        assert step.reduced == reduced
        f = step.reduced


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10 ** 6), st.booleans())
def test_internal_assignments_pass_the_public_constructor(n, d, seed, bracket):
    """The recursion builds its assignments unchecked; each one, the
    base case's, the pi branch's and every lift's, passes the checked
    constructor, and the final witness verifies."""
    make = random_bracket if bracket else random_multilinear
    f = make(n, density=0.6, seed=seed)
    a = random_trace_zero(d, seed=seed + 1)
    built = []
    trusted = WitnessAssignment._trusted.__func__

    def recording(cls, size, x_assign, u_assign):
        w = trusted(cls, size, x_assign, u_assign)
        built.append(w)
        return w

    with mock.patch.object(WitnessAssignment, "_trusted", classmethod(recording)):
        s, w = witness_for_multilinear(f, a)
    assert built[-1] is w
    assert len(built) >= n
    for internal in built:
        checked = WitnessAssignment(internal.size, internal.x_assign, internal.u_assign)
        assert checked == internal
    assert verify(f, w, a)


# ---------------------------------------------------------------- recursion


def test_construct_commutator_hand_trace():
    f = MultilinearPoly(2, {(1, 2): 1, (2, 1): -1})
    a = Matrix.unit(2, 1, 2)
    s, w = witness_for_multilinear(f, a)
    assert s == 2
    assert w.trace == [{"k": 0, "omegabar": [], "branch": "rewrite"}]
    assert w.x(1) == Matrix.unit(2, 1, 2)
    assert w.x(2) == Matrix.diagonal([0, 1])
    assert verify(f, w, a)


def test_construct_product_uses_pi_branch():
    f = MultilinearPoly(2, {(1, 2): 1})
    a = random_trace_zero(2, seed=3)
    s, w = witness_for_multilinear(f, a)
    assert s == 2
    assert w.trace == [{"k": 0, "omegabar": [], "branch": "pi"}]
    assert w.x(2) == Matrix.identity(2)
    assert verify(f, w, a)


def test_construct_alternating_cubic():
    f = MultilinearPoly(
        3,
        {
            (1, 2, 3): 1, (1, 3, 2): -1, (3, 1, 2): 1,
            (2, 1, 3): -1, (2, 3, 1): 1, (3, 2, 1): -1,
        },
    )
    a = random_trace_zero(3, seed=11)
    s, w = witness_for_multilinear(f, a)
    assert [t["branch"] for t in w.trace] == [BRANCH_PI, BRANCH_REWRITE]
    assert s == 3
    assert verify(f, w, a)


def test_construct_rejects_nonzero_trace():
    f = MultilinearPoly(1, {(1,): 1})
    with pytest.raises(PreconditionError) as err:
        construct_witness(from_multilinear(f), Matrix([[2, 0], [0, 1]]))
    assert "3" in str(err.value)


def test_construct_rejects_zero_polynomial():
    with pytest.raises(EmptyPolynomialError):
        witness_for_multilinear(MultilinearPoly(2, {}), Matrix.zeros(2))


def test_size_bound():
    assert size_bound(2, []) == 2
    assert size_bound(2, [{"k": 1}, {"k": 0}]) == 4


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_construct_random_property(n, d, seed):
    f = random_multilinear(n, density=0.6, seed=seed)
    a = random_trace_zero(d, seed=seed + 1)
    s, w = witness_for_multilinear(f, a)
    assert verify(f, w, a)
    assert s == size_bound(d, w.trace)


def _base_commuting_count(kind, n, d, seed, zero):
    """Build and check a witness at the exact size d * prod(k+1); return
    how many commuting indices the base case peeled off."""
    if kind == "bracket" and n > 1:
        f = random_bracket(n, density=0.7, seed=seed)
    else:
        f = random_multilinear(n, density=0.7, seed=seed)
    a = Matrix.zeros(d) if zero else random_trace_zero(d, seed=seed + 1)
    with mock.patch.object(
        construct, "base_case_witness", wraps=base_case_witness
    ) as base:
        s, w = witness_for_multilinear(f, a)
    assert verify(f, w, a)
    assert s == w.size == size_bound(d, w.trace)
    return len(base.call_args.args[1])


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["multilinear", "bracket"]),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
    st.booleans(),
)
def test_witness_has_exact_size(kind, n, d, seed, zero):
    _base_commuting_count(kind, n, d, seed, zero)


@pytest.mark.parametrize(
    "kind, n, d, zero, commuting",
    [
        ("multilinear", 1, 1, False, 0),
        ("multilinear", 3, 4, False, 0),
        ("bracket", 2, 1, False, 1),
        ("bracket", 4, 5, False, 3),
        ("bracket", 3, 3, True, 2),
        ("multilinear", 2, 3, True, 0),
    ],
)
def test_exact_size_reaches_both_base_branches(kind, n, d, zero, commuting):
    # Brackets reach the base case with commuting indices (the hollow
    # branch), dense polynomials without (the rescaled target).
    assert _base_commuting_count(kind, n, d, 0, zero) == commuting


def _standard(n: int) -> MultilinearPoly:
    """s_n: the alternating sum over all permutations."""
    coeffs = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
        coeffs[sigma] = (-1) ** inversions
    return MultilinearPoly(n, coeffs)


def _left_normed(n: int) -> MultilinearPoly:
    """The Lie monomial [[..[X1,X2]..],Xn], expanded."""
    words = {(1,): 1}
    for v in range(2, n + 1):
        nxt = {}
        for w, c in words.items():
            nxt[w + (v,)] = c
            nxt[(v,) + w] = -c
        words = nxt
    return MultilinearPoly(n, words)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans())
def test_scaled_reduction_matches_fraction_run(n, d, seed, bracket):
    """Scaling f to integer coefficients changes no entry of the witness:
    the oracle is the recursion run on the Fraction coefficients.  The
    brackets reach the hollow base case, which dense polynomials rarely do."""
    if bracket and n > 1:
        f = random_bracket(n, density=0.7, seed=seed)
    else:
        f = random_multilinear(n, density=0.7, seed=seed)
    assume(any(lam.denominator != 1 for lam in f.coeffs.values()))
    a = random_trace_zero(d, seed=seed + 1)
    s, w = witness_for_multilinear(f, a)
    ref = construct_witness(from_multilinear(f), a)
    assert s == ref.size
    assert w.x_assign == ref.x_assign
    assert w.u_assign == ref.u_assign
    assert w.trace == ref.trace
    assert json.dumps(witness_to_json(w, a, True)) == json.dumps(
        witness_to_json(ref, a, True)
    )


@pytest.mark.parametrize("f", [_standard(6), _left_normed(6)], ids=["s_6", "lie_6"])
def test_reduction_runs_on_int_coefficients(monkeypatch, f):
    polys = []

    def recording(g):
        step = reduce_step(g)
        polys.extend([g, step.reduced])
        polys.extend(p for p in reference_images(g, step) if p is not None)
        return step

    monkeypatch.setattr(construct, "reduce_step", recording)
    a = random_trace_zero(2, seed=5)
    s, w = witness_for_multilinear(f, a)
    assert len(polys) >= 3 * (f.n - 1)
    for p in polys:
        assert all(type(lam) is int for lam in p.coeffs.values())
    assert verify(f, w, a)


# ------------------------------------------------------- elimination order


def _fixed_order(f: MultilinearPoly, d: int):
    """Witness size and (k, branch) per level when every level eliminates
    X_n, rebuilt from the polynomial helpers alone."""
    g = from_multilinear(f)
    s = 1
    levels = []
    while g.n > 1:
        idx = reindex_by_position(g)
        k, omegabar = min_k_and_omegabar(idx, g.n)
        marked = marked_form(idx, k, omegabar, g.n, g.omega)
        image = marker_at_one(marked)
        if image.is_zero():
            g, branch = marker_into_brackets(marked), BRANCH_REWRITE
        else:
            g, branch = image, BRANCH_PI
        s *= k + 1
        levels.append((k, branch))
    return s * d, levels


_SPARSE_WORDS = st.integers(2, 6).flatmap(
    lambda n: st.dictionaries(
        st.permutations(range(1, n + 1)).map(tuple),
        st.sampled_from([-2, -1, 1, 2]),
        min_size=1,
        max_size=8,
    )
)


@settings(deadline=None, max_examples=60)
@given(_SPARSE_WORDS, st.integers(1, 3))
def test_chosen_order_never_grows_s(coeffs, d):
    """Sparse polynomials are where k >= 1 occurs, so where the order
    changes s; the fixed X_n order is the reference."""
    f = MultilinearPoly(len(next(iter(coeffs))), coeffs)
    a = random_trace_zero(d, seed=d)
    s, w = witness_for_multilinear(f, a)
    assert s <= _fixed_order(f, d)[0]
    assert verify(f, w, a)


def test_lie_4_eliminates_x3_first():
    # Eliminating X4 would rewrite the 8 terms into 12; X3 keeps 8.
    f = _left_normed(4)
    step = reduce_step(from_multilinear(f))
    assert (step.v, step.k, step.branch) == (3, 0, BRANCH_REWRITE)
    assert len(step.reduced.coeffs) == 8
    a = random_trace_zero(3, seed=7)
    s, w = witness_for_multilinear(f, a)
    assert s == 3
    assert verify(f, w, a)


def test_swap_back_after_eliminating_x3():
    # [X1*X2*X3, X4]: eliminating X4 rewrites 2 terms into 3, while X3 goes
    # to 1 and leaves [X1*X2, X4], so X3 gets the marker matrix I.
    f = MultilinearPoly(4, {(1, 2, 3, 4): 1, (4, 1, 2, 3): -1})
    step = reduce_step(from_multilinear(f))
    assert (step.v, step.branch) == (3, BRANCH_PI)
    a = random_trace_zero(2, seed=7)
    s, w = witness_for_multilinear(f, a)
    assert w.x(3) == Matrix.identity(s)
    assert verify(f, w, a)
    # Without the swap back X4 would be I, and f would vanish.
    x = dict(w.x_assign)
    x[3], x[4] = x[4], x[3]
    assert not verify(f, WitnessAssignment(s, x, w.u_assign), a)


def test_lie_10_chain_never_grows(monkeypatch):
    # Candidates are counted, not built: each level builds one next level.
    built = []
    for name in ("pi_image", "bracket_rewrite"):
        def counting(*args, _build=getattr(construct, name)):
            built.append(args[1])
            return _build(*args)

        monkeypatch.setattr(construct, name, counting)
    g = from_multilinear(_left_normed(10))
    while g.n > 1:
        g = reduce_step(g).reduced
        assert len(g.coeffs) <= 512
    assert built == list(range(10, 1, -1))


# Two sparse n=6 polynomials that reach k >= 1 when X_n is always
# eliminated: (rewrite, 1) and (pi, 2) at the last level.
_SPARSE_N6 = {
    "rewrite_k1": {
        (6, 1, 4, 5, 2, 3): 2, (6, 1, 2, 3, 4, 5): -2, (5, 6, 3, 2, 4, 1): 2,
        (5, 2, 3, 4, 1, 6): -2, (3, 4, 5, 2, 1, 6): -2, (2, 6, 5, 3, 4, 1): 2,
    },
    "pi_k2": {
        (2, 4, 6, 3, 1, 5): -2, (6, 1, 4, 2, 3, 5): 1, (1, 5, 2, 3, 6, 4): -1,
        (1, 4, 3, 6, 5, 2): -1, (2, 6, 4, 3, 1, 5): 2, (1, 3, 2, 4, 5, 6): 1,
    },
}


@pytest.mark.parametrize(
    "name,d,size,fixed_size,fixed_last",
    [
        ("rewrite_k1", 2, 2, 4, (1, BRANCH_REWRITE)),
        ("rewrite_k1", 3, 3, 6, (1, BRANCH_REWRITE)),
        ("pi_k2", 2, 2, 6, (2, BRANCH_PI)),
        ("pi_k2", 3, 3, 9, (2, BRANCH_PI)),
    ],
)
def test_sparse_n6_polynomials_stay_at_k0(name, d, size, fixed_size, fixed_last):
    f = MultilinearPoly(6, _SPARSE_N6[name])
    a = random_trace_zero(d, seed=d)
    s, w = witness_for_multilinear(f, a)
    assert s == size
    assert [t["k"] for t in w.trace] == [0] * 5
    assert verify(f, w, a)
    fixed_s, fixed_levels = _fixed_order(f, d)
    assert (fixed_s, fixed_levels[-1]) == (fixed_size, fixed_last)
