"""Polynomial representations, expansion, extraction, and reduction algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywit.errors import (
    DimensionError,
    EmptyPolynomialError,
    PreconditionError,
    ResourceLimitError,
)
from polywit.matrices import Matrix
from polywit.polynomials import (
    MAX_PARTITIONS,
    AdmissiblePoly,
    MarkedPoly,
    MultilinearPoly,
    _group_marked,
    all_permutations,
    bracket_rewrite_size,
    enumerate_partitions,
    evaluate,
    from_multilinear,
    group_marker_positions,
    insert_symbol,
    marked_form,
    marker_at_one,
    marker_into_brackets,
    merge_position_index,
    min_k_and_omegabar,
    pi_image_size,
    reindex_by_position,
    swap_labels,
)
from polywit.randgen import (
    random_admissible,
    random_commuting_assignment,
    random_marked,
    random_marked_pi_zero,
    random_multilinear,
)
from polywit.witness import WitnessAssignment
from word_oracle import (
    NotAdmissibleError,
    PCPoly,
    evaluate_pc,
    expand_admissible,
    expand_marked,
    extract_coefficients,
    extraction_has_full_column_rank,
    substitute_u_one,
)

# ------------------------------------------------------------- combinatorics


def test_all_permutations_lex():
    assert all_permutations(1) == [(1,)]
    perms = all_permutations(3)
    assert len(perms) == 6
    assert perms[0] == (1, 2, 3)
    assert perms == sorted(perms)


def test_insert_symbol():
    assert insert_symbol((1, 2), 1, 3) == (3, 1, 2)
    assert insert_symbol((1, 2), 3, 3) == (1, 2, 3)
    with pytest.raises(DimensionError):
        insert_symbol((1, 2), 4, 3)


@pytest.mark.parametrize("n,omega", [(1, ()), (1, (2, 3)), (2, (3,)),
                                     (2, (3, 4)), (3, (4, 5))])
def test_partition_count_and_cover(n, omega):
    parts_list = enumerate_partitions(omega, n)
    assert len(parts_list) == n ** len(omega)
    assert len(set(parts_list)) == len(parts_list)
    for parts in parts_list:
        assert len(parts) == n
        merged = sorted(w for p in parts for w in p)
        assert merged == sorted(omega)
        for p in parts:
            assert list(p) == sorted(set(p))


def test_partitions_past_the_limit_are_refused():
    assert len(enumerate_partitions(range(3, 19), 2)) == 2 ** 16 <= MAX_PARTITIONS
    with pytest.raises(ResourceLimitError):
        enumerate_partitions(range(3, 20), 2)


def test_partition_order_is_reproducible():
    first = enumerate_partitions((3, 4), 2)
    assert first[0] == ((3, 4), ())
    assert first == enumerate_partitions((3, 4), 2)


# ---------------------------------------------------------------- containers


def test_multilinear_drops_zeros_and_validates():
    f = MultilinearPoly(2, {(1, 2): 1, (2, 1): 0})
    assert f.coeffs == {(1, 2): Fraction(1)}
    with pytest.raises(DimensionError):
        MultilinearPoly(2, {(1, 1): 1})


def test_admissible_validates_partition():
    AdmissiblePoly(1, (2,), {((1,), ((2,),)): 1})
    with pytest.raises(DimensionError):
        AdmissiblePoly(1, (2,), {((1,), ((),)): 1})
    with pytest.raises(DimensionError):
        AdmissiblePoly(1, (1,), {((1,), ((1,),)): 1})


def test_marked_validates_selected_slot():
    key = ((1,), 1, (((), (3,))))
    MarkedPoly(2, (3,), (3,), {((1,), 1, ((), (3,))): 1})
    with pytest.raises(DimensionError):
        MarkedPoly(2, (3,), (3,), {((1,), 1, ((3,), ())): 1})
    with pytest.raises(DimensionError):
        MarkedPoly(2, (3,), (3,), {((1,), 5, ((), (3,))): 1})
    assert key  # silence the unused-name check


def test_pcpoly_commutative_segments():
    omega = (3, 4)
    u3 = PCPoly.u_var(3, 1, omega)
    u4 = PCPoly.u_var(4, 1, omega)
    x1 = PCPoly.x_var(1, 1, omega)
    assert u3 * u4 == u4 * u3
    assert x1 * u3 != u3 * x1
    assert (u3 * u3).terms == {((), ((3, 3),)): Fraction(1)}
    left = (x1 * u3) * (u4 * x1)
    assert left.terms == {((1, 1), ((), (3, 4), ())): Fraction(1)}
    assert x1 - x1 == PCPoly.zero(1, omega)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_pcpoly_multiplication_associative(seed):
    import random

    rng = random.Random(seed)
    omega = (3, 4)

    def rand_poly():
        gens = [PCPoly.x_var(1, 2, omega), PCPoly.x_var(2, 2, omega),
                PCPoly.u_var(3, 2, omega), PCPoly.u_var(4, 2, omega),
                PCPoly.one(2, omega)]
        acc = PCPoly.zero(2, omega)
        for _ in range(rng.randint(1, 3)):
            term = rng.choice(gens)
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(gens)
            acc = acc + term.scale(Fraction(rng.randint(-3, 3)))
        return acc

    a, b, c = rand_poly(), rand_poly(), rand_poly()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ----------------------------------------------------------------- expansion


def test_expand_single_bracket():
    f = AdmissiblePoly(1, (3,), {((1,), ((3,),)): 1})
    p = expand_admissible(f)
    assert p.terms == {
        ((1,), ((3,), ())): Fraction(1),
        ((1,), ((), (3,))): Fraction(-1),
    }


def test_expand_nested_bracket():
    f = AdmissiblePoly(1, (3, 4), {((1,), ((3, 4),)): 1})
    p = expand_admissible(f)
    assert p.terms == {
        ((1,), ((3, 4), ())): Fraction(1),
        ((1,), ((3,), (4,))): Fraction(-1),
        ((1,), ((4,), (3,))): Fraction(-1),
        ((1,), ((), (3, 4))): Fraction(1),
    }


def test_expand_undecorated_word():
    f = from_multilinear(MultilinearPoly(2, {(2, 1): Fraction(5)}))
    p = expand_admissible(f)
    assert p.terms == {((2, 1), ((), (), ())): Fraction(5)}


def test_substitute_u_one():
    f = AdmissiblePoly(1, (3,), {((1,), ((3,),)): 1})
    collapsed = substitute_u_one(expand_admissible(f), 3)
    assert collapsed.is_zero()
    assert collapsed.omega == ()
    p = PCPoly(1, (3,), {((1,), ((), (3,))): 1})
    q = substitute_u_one(p, 3)
    assert q.terms == {((1,), ((), ())): Fraction(1)}


# ---------------------------------------------------------------- extraction


@pytest.mark.parametrize("n,omega", [(1, ()), (1, (2,)), (2, (3,)), (2, (3, 4))])
def test_extraction_round_trip_known_sizes(n, omega):
    for seed in range(5):
        f = random_admissible(n, omega, density=0.6, seed=seed)
        assert extract_coefficients(expand_admissible(f), n, omega) == f


def test_extract_rejects_unknown_word():
    p = PCPoly.x_var(1, 1, (3,))
    with pytest.raises(NotAdmissibleError):
        extract_coefficients(p, 1, (3,))


def test_extract_rejects_off_span_combination():
    # U3*X1 occurs in expansions but is not itself admissible.
    p = PCPoly(1, (3,), {((1,), ((3,), ())): 1})
    with pytest.raises(NotAdmissibleError):
        extract_coefficients(p, 1, (3,))


def test_full_column_rank_at_small_sizes():
    for n in (1, 2, 3):
        for omega in ((), (n + 1,), (n + 1, n + 2)):
            assert extraction_has_full_column_rank(n, omega)


# ---------------------------------------------------------------- evaluation


def test_evaluate_multilinear_matches_admissible_view():
    for seed in range(5):
        f = random_multilinear(3, density=0.7, seed=seed)
        w = random_commuting_assignment(range(1, 4), (), size=3, seed=seed)
        assert evaluate(f, w) == evaluate(from_multilinear(f), w)


def test_evaluate_admissible_against_hand_value():
    # 2di[U3, X1] at x1 = e12, u3 = diag(1, 2): [u, x1] = -e12.
    f = AdmissiblePoly(1, (3,), {((1,), ((3,),)): 2})
    w_assign = {1: Matrix.unit(2, 1, 2)}
    from polywit.witness import WitnessAssignment

    w = WitnessAssignment(2, w_assign, {3: Matrix.diagonal([1, 2])})
    assert evaluate(f, w) == Matrix.unit(2, 1, 2).scale(-2)


def test_evaluate_pc_matches_expand():
    for seed in range(5):
        f = random_admissible(2, (3,), density=0.6, seed=seed)
        w = random_commuting_assignment(range(1, 3), (3,), size=2, seed=seed + 7)
        assert evaluate(f, w) == evaluate_pc(expand_admissible(f), w)
    assert evaluate_pc(PCPoly.one(0, ()), w) == Matrix.identity(2)


def test_evaluate_starts_each_term_at_its_first_factor(monkeypatch):
    f = random_multilinear(4, density=1.0, seed=2)
    w = random_commuting_assignment(range(1, 5), (), size=2, seed=3)
    want = evaluate(f, w)
    calls = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert evaluate(f, w) == want
    # 24 words of 4 letters: 3 products each, none against an identity.
    assert len(calls) == 24 * 3


# ----------------------------------------------------------------- reduction


def test_reindex_round_trip():
    for seed in range(5):
        f = random_admissible(3, (4,), density=0.5, seed=seed)
        idx = reindex_by_position(f)
        assert merge_position_index(f.n, f.omega, idx) == f


def test_min_slot_selection():
    f = AdmissiblePoly(
        2,
        (3, 4),
        {
            ((1, 2), ((3,), (4,))): 1,
            ((2, 1), ((), (3, 4))): 1,
        },
    )
    idx = reindex_by_position(f)
    k, omegabar = min_k_and_omegabar(idx, 2)
    assert k == 1
    assert omegabar == (4,)
    with pytest.raises(EmptyPolynomialError):
        min_k_and_omegabar({}, 2)


def test_marked_form_selects_matching_slot():
    f = AdmissiblePoly(
        2,
        (3, 4),
        {
            ((1, 2), ((3,), (4,))): Fraction(2),
            ((2, 1), ((4,), (3,))): Fraction(5),
        },
    )
    idx = reindex_by_position(f)
    k, omegabar = min_k_and_omegabar(idx, 2)
    g = marked_form(idx, k, omegabar, 2, f.omega)
    assert g.omegabar == (3,)
    assert set(g.coeffs) == {((1,), 1, ((4,), (3,)))}
    assert g.coeffs[((1,), 1, ((4,), (3,)))] == Fraction(5)


def test_marker_at_one_sums_positions():
    g = MarkedPoly(
        2,
        (),
        (),
        {((1,), 1, ((), ())): Fraction(3), ((1,), 2, ((), ())): Fraction(4)},
    )
    pi = marker_at_one(g)
    assert pi.coeffs == {((1,), ((),)): Fraction(7)}


def test_marker_into_brackets_requires_vanishing_image():
    g = MarkedPoly(2, (), (), {((1,), 1, ((), ())): 1})
    with pytest.raises(PreconditionError):
        marker_into_brackets(g)


def test_marker_into_brackets_partial_sums():
    # 3 X2 X1 - 3 X1 X2 with X2 as marker: partial sum after X1 is 3.
    g = MarkedPoly(
        2,
        (),
        (),
        {((1,), 1, ((), ())): Fraction(3), ((1,), 2, ((), ())): Fraction(-3)},
    )
    rew = marker_into_brackets(g)
    assert rew.coeffs == {((1,), ((2,),)): Fraction(3)}
    assert rew.omega == (2,)


# ------------------------------- symbolic identities behind the two branches


_SHAPES = [
    (2, (), ()),
    (2, (3,), ()),
    (2, (3,), (3,)),
    (2, (3, 4), (4,)),
    (3, (4,), (4,)),
    (3, (4, 5), ()),
]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, len(_SHAPES) - 1),
    st.sampled_from(["random", "pi_zero", "one_group"]),
    st.integers(0, 10 ** 6),
)
def test_marker_into_brackets_raises_exactly_when_image_nonzero(shape, kind, seed):
    """The rewrite checks its precondition on its own group sums; that must
    agree with building the marker-to-1 image."""
    n, omega, omegabar = _SHAPES[shape]
    if kind == "random":
        g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
    else:
        g = random_marked_pi_zero(n, omega, omegabar, density=0.7, seed=seed)
    if kind == "one_group":
        keys = sorted(g.coeffs)
        sigma, j, parts = keys[seed % len(keys)]
        coeffs = dict(g.coeffs)
        coeffs[(sigma, j, parts)] += 1
        g = MarkedPoly(n, omega, omegabar, coeffs)
        assert marker_at_one(g).coeffs == {(sigma, parts[: n - 1]): 1}
    if marker_at_one(g).is_zero():
        marker_into_brackets(g)
    else:
        with pytest.raises(PreconditionError):
            marker_into_brackets(g)


@pytest.mark.parametrize("n,omega,omegabar", _SHAPES)
def test_marker_image_identity_symbolic(n, omega, omegabar):
    for seed in range(4):
        g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
        collapsed = substitute_u_one(expand_marked(g), g.marker)
        assert collapsed == expand_admissible(marker_at_one(g))


@pytest.mark.parametrize("n,omega,omegabar", _SHAPES)
def test_bracket_rewrite_identity_symbolic(n, omega, omegabar):
    for seed in range(4):
        g = random_marked_pi_zero(n, omega, omegabar, density=0.8, seed=seed)
        assert expand_marked(g) == expand_admissible(marker_into_brackets(g))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_marker_image_identity_random(seed):
    g = random_marked(3, (4, 5), (5,), density=0.4, seed=seed)
    collapsed = substitute_u_one(expand_marked(g), g.marker)
    assert collapsed == expand_admissible(marker_at_one(g))


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 10 ** 6), st.data())
def test_swap_labels_exchanges_the_variables(n, m, seed, data):
    """g = swap_labels(f, v) satisfies g(X) = f(X with X_v and X_n exchanged)."""
    omega = tuple(range(n + 1, n + 1 + m))
    f = random_admissible(n, omega, density=0.5, seed=seed)
    v = data.draw(st.integers(1, n))
    g = swap_labels(f, v)
    assert g == AdmissiblePoly(n, omega, g.coeffs)
    assert swap_labels(g, v) == f
    w = random_commuting_assignment(range(1, n + 1), omega, size=2, seed=seed)
    x = dict(w.x_assign)
    x[v], x[n] = x[n], x[v]
    assert evaluate(g, w) == evaluate(f, WitnessAssignment(2, x, w.u_assign))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 10 ** 6), st.sampled_from([0.5, 0.1]))
def test_grouping_pass_matches_the_marked_form_for_every_variable(n, m, seed, density):
    """For each v, the one-pass grouping of f equals the grouped marked
    form of swap_labels(f, v), and the counts equal the sizes of the
    images built from that marked form."""
    omega = tuple(range(n + 1, n + 1 + m))
    f = random_admissible(n, omega, density=density, seed=seed)
    for v in range(1, n + 1):
        idx = reindex_by_position(swap_labels(f, v))
        k, omegabar = min_k_and_omegabar(idx, n)
        marked = marked_form(idx, k, omegabar, n, omega)
        groups = group_marker_positions(f, v, omegabar)
        assert groups == _group_marked(marked)
        assert sum(lam != 0 for row in groups.values() for lam in row) == len(marked.coeffs)
        image = marker_at_one(marked)
        assert pi_image_size(groups) == len(image.coeffs)
        if image.is_zero():
            assert bracket_rewrite_size(groups) == len(marker_into_brackets(marked).coeffs)
