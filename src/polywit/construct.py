"""Witness construction: hollow similarity, the single-variable base
case, the block lift, and the recursion that strips the cheapest
noncommuting variable per level.

Every returned assignment makes f evaluate to the target embedded
top-left, by exact arithmetic; the test suite and the verification
harness re-evaluate rather than trusting this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    EmptyPolynomialError,
    InternalInvariantError,
    PreconditionError,
)
from .matrices import (
    Matrix,
    as_rational,
    block_diagonal,
    block_unit,
    cyclic_shift,
    embed,
    height,
)
from .polynomials import (
    AdmissiblePoly,
    MultilinearPoly,
    bracket_rewrite,
    bracket_rewrite_size,
    group_marker_positions,
    pi_image,
    pi_image_size,
)
from .witness import WitnessAssignment

# Unused here.  bench/tracing.py patches these names in this module, and
# its traced run fails if one is missing; delete them together once the
# tracing no longer patches them.
from .matrices import block_flatten, inverse, rank_of_rows  # noqa: F401
from .polynomials import (  # noqa: F401
    from_multilinear,
    marked_form,
    marker_at_one,
    marker_into_brackets,
    min_k_and_omegabar,
    reindex_by_position,
)

BRANCH_PI = "pi"
BRANCH_REWRITE = "rewrite"


# -------------------------------------------------------------- hollow form


def _transvect(h, p, p_inv, i: int, j: int, t: Fraction) -> None:
    """Conjugate by E = I + t*e_ij in place: h <- E h E^-1, p <- E p and
    p_inv <- p_inv E^-1, with E^-1 = I - t*e_ij."""
    for m in (h, p):
        row_i = m[i]
        for c, v in enumerate(m[j]):
            if v:
                row_i[c] += t * v
    for m in (h, p_inv):
        for row in m:
            if row[i]:
                row[j] -= t * row[i]


def hollow_similarity(a: Matrix):
    """Conjugator into zero-diagonal form at the matrix's own size.

    Returns (p, p_inv, h) with h = p * a * p_inv and diag(h) = 0.  Over
    Q every non-scalar matrix is similar to one with any prescribed
    diagonal of the same trace, and the only trace-zero scalar matrix is
    0, which is already hollow, so no padding is needed.  This is
    Fillmore's sweep by transvections I + t*e_ij (P. A. Fillmore, "On
    similarity and the diagonal of a matrix", Amer. Math. Monthly 76,
    1969), starting from h = a.  Row by row, for each i but the last
    with h_ii != 0, the pivot is the j > i with h_ji != 0 whose ratio
    t = -h_ii/h_ji has the least ``height`` (the smallest such j on a
    tie); conjugating by I + t*e_ij zeroes h_ii and changes no other
    diagonal entry but h_jj.  If column i is zero below the diagonal, h
    is first conjugated by I + t*e_ji for the first j > i with
    h_jj != h_ii, with t = 2 when h_ii - h_jj = h_ij and t = 1
    otherwise, which makes h_ji nonzero.  Such a j exists: the diagonal
    before i is already zero, so h_ii and the entries after it sum to
    the trace, 0, and cannot all equal h_ii.  The last diagonal entry is
    then the trace, 0.  Each conjugation is one row and one column
    operation, and p and p_inv are carried along, so nothing is
    multiplied or inverted.  Every t is a ratio of entries of h and
    every branch compares entries of h, so scaling a leaves p and p_inv
    unchanged and scales h alike.
    """
    if a.trace():
        raise PreconditionError(f"hollow form needs trace zero, got trace {a.trace()}")
    n = a.size
    h = [list(row) for row in a.rows]
    p = [list(row) for row in Matrix.identity(n).rows]
    p_inv = [list(row) for row in p]
    for i in range(n - 1):
        if h[i][i] and not any(h[j][i] for j in range(i + 1, n)):
            j = next(j for j in range(i + 1, n) if h[j][j] != h[i][i])
            t = Fraction(2 if h[i][i] - h[j][j] == h[i][j] else 1)
            _transvect(h, p, p_inv, j, i, t)
        if h[i][i]:
            ratios = {j: -h[i][i] / h[j][i] for j in range(i + 1, n) if h[j][i]}
            # min keeps the first of equal keys, so a tie goes to the smallest j
            j = min(ratios, key=lambda j: height(ratios[j]))
            _transvect(h, p, p_inv, i, j, ratios[j])
    h = Matrix._trusted(h)
    if not h.has_zero_diagonal():
        raise InternalInvariantError("hollow conjugation left a nonzero diagonal")
    return Matrix._trusted(p), Matrix._trusted(p_inv), h


# ---------------------------------------------------------------- base case


def base_case_witness(lam, omegas, a: Matrix) -> WitnessAssignment:
    """Witness for a single scaled iterated-commutator variable.

    With no commuting indices the witness is just the rescaled target at
    size d.  Otherwise the target is conjugated hollow, also at size d,
    the commuting variables all receive one diagonal matrix with
    distinct entries 0..d-1, and the variable matrix divides each
    off-diagonal entry by the appropriate power of the diagonal gap.
    """
    lam = as_rational(lam)
    if not lam:
        raise PreconditionError("leading coefficient must be nonzero")
    if a.trace():
        raise PreconditionError(f"target trace is {a.trace()}, expected 0")
    omegas = tuple(omegas)
    if list(omegas) != sorted(set(omegas)):
        raise PreconditionError("commuting indices must be strictly increasing")
    d = a.size
    m = len(omegas)
    inv_lam = 1 / lam
    if m == 0:
        return WitnessAssignment._trusted(d, {1: a.scale(inv_lam)}, {})
    p, pinv, h = hollow_similarity(a)
    u = Matrix.diagonal(range(d))
    rows = [
        [h.rows[i][j] / (i - j) ** m if i != j else Fraction(0) for j in range(d)]
        for i in range(d)
    ]
    x = Matrix._trusted(rows)
    x1 = (pinv * x * p).scale(inv_lam)
    uu = pinv * u * p
    return WitnessAssignment._trusted(d, {1: x1}, {om: uu for om in omegas})


# -------------------------------------------------------------------- lift


def lift_witness(
    gw: WitnessAssignment, k: int, omegabar, omega, n: int
) -> WitnessAssignment:
    """Blow a reduced witness up by a factor of k+1 blocks.

    Survivor variables keep their matrices in the leading block, the
    recovered top variable places the marker matrix at block (k+1, 1),
    the k consumed commuting indices all become the cyclic shift, and
    the remaining commuting indices repeat along the block diagonal.
    """
    omegabar = tuple(omegabar)
    omega = tuple(sorted(omega))
    if len(omegabar) != k:
        raise PreconditionError(f"slot {omegabar} does not have length {k}")
    if not set(omegabar) <= set(omega):
        raise PreconditionError("slot indices must come from the commuting set")
    s = gw.size
    big = (k + 1) * s
    xbar = {i: embed(gw.x(i), big) for i in range(1, n)}
    xbar[n] = block_unit(k + 1, k + 1, 1, gw.u(n))
    shift = cyclic_shift(k, s)
    ubar = {}
    for om in omega:
        if om in omegabar:
            ubar[om] = shift
        else:
            ubar[om] = block_diagonal([gw.u(om)] * (k + 1))
    return WitnessAssignment._trusted(big, xbar, ubar)


# --------------------------------------------------------------- recursion


class ReductionStep:
    """Record of one variable-elimination level.

    ``v`` is the eliminated variable and ``reduced`` the next level's
    polynomial, written with the labels v and n exchanged, so in it the
    label v (when v < n) stands for f's X_n.  The marked form and the
    images it came from are not kept; ``group_marker_positions(f, v,
    omegabar)`` gives them again.
    """

    __slots__ = ("v", "k", "omegabar", "branch", "reduced")

    def __init__(self, v, k, omegabar, branch, reduced):
        self.v = v
        self.k = k
        self.omegabar = tuple(omegabar)
        self.branch = branch
        self.reduced = reduced

    def __repr__(self):
        return (
            f"ReductionStep(v={self.v}, k={self.k}, omegabar={self.omegabar}, "
            f"branch={self.branch!r})"
        )


def _least_slots(f: AdmissiblePoly):
    """For v = 1..n, the slot ``min_k_and_omegabar`` would pick were X_v
    eliminated: the shortest slot X_v carries in any term, the
    lexicographically first on a tie.  Its length is k_v."""
    if not f.omega:
        return [()] * f.n
    patterns = {parts for (_, parts) in f.coeffs}
    return [min((len(p[i]), p[i]) for p in patterns)[1] for i in range(f.n)]


def _next_level_size(groups):
    """(branch, exact term count) of the level a grouped marked form
    leads to.

    If sending the marker to 1 leaves something nonzero, that image is
    the next polynomial.  Otherwise the bracket rewrite is, and it must
    be nonzero: were both zero, all selected coefficients would telescope
    to zero, contradicting how the slot was chosen.  Reaching that state
    means a bug, so it raises instead of being swallowed.
    """
    terms = pi_image_size(groups)
    if terms:
        return BRANCH_PI, terms
    terms = bracket_rewrite_size(groups)
    if not terms:
        raise InternalInvariantError(
            "marker image and bracket rewrite are both zero; the slot "
            "selection guarantees this cannot happen"
        )
    return BRANCH_REWRITE, terms


def reduce_step(f: AdmissiblePoly) -> ReductionStep:
    """Eliminate the cheapest variable X_v at its cheapest slot.

    f is multilinear in the X's, so any variable can be the one removed:
    X_v is eliminated as X_n of f with the labels v and n exchanged.
    Only the v whose least slot length k_v is minimal are candidates,
    since k sets the lift's block growth.  They are tried from v = n
    down, and the first whose next level has no more terms than f is
    taken; if none qualifies, the one with the fewest terms is (the
    first on a tie).  Each candidate's next level is counted from one
    grouping pass over f, and only the chosen one is built.
    """
    if f.is_zero():
        raise EmptyPolynomialError("cannot reduce the zero polynomial")
    if f.n < 2:
        raise PreconditionError("reduction needs at least two variables")
    n = f.n
    slots = _least_slots(f)
    k = min(map(len, slots))
    best = None
    for v in range(n, 0, -1):
        omegabar = slots[v - 1]
        if len(omegabar) != k:
            continue
        groups = group_marker_positions(f, v, omegabar)
        branch, terms = _next_level_size(groups)
        if best is None or terms < best[-1]:
            best = (v, omegabar, groups, branch, terms)
        if terms <= len(f.coeffs):
            break
    v, omegabar, groups, branch, terms = best
    omega = tuple(w for w in f.omega if w not in omegabar)
    if branch == BRANCH_PI:
        reduced = pi_image(groups, n, omega)
    else:
        reduced = bracket_rewrite(groups, n, tuple(sorted(omega + (n,))))
    if len(reduced.coeffs) != terms:
        raise InternalInvariantError(
            f"the next level has {len(reduced.coeffs)} terms, counted {terms}"
        )
    return ReductionStep(v, k, omegabar, branch, reduced)


def construct_witness(f: AdmissiblePoly, a: Matrix) -> WitnessAssignment:
    """Recursive witness construction for an admissible polynomial.

    One noncommuting variable X_v, chosen by ``reduce_step``, is
    eliminated per level; the reduced witness is lifted back through
    blocks of size k+1 as the witness of f with X_v and X_n exchanged,
    and exchanging their matrices again gives f's witness.  On the
    marker-to-1 branch the marker matrix is the identity, realizing the
    fact that values of the marker-free image are values of the marked
    form.
    """
    if f.is_zero():
        raise EmptyPolynomialError("cannot construct a witness for zero")
    if a.trace():
        raise PreconditionError(f"target trace is {a.trace()}, expected 0")
    if f.n == 1:
        ((_, parts), lam) = next(iter(f.coeffs.items()))
        w = base_case_witness(lam, parts[0], a)
        w.trace = []
        return w
    step = reduce_step(f)
    sub = construct_witness(step.reduced, a)
    gw = sub
    if step.branch == BRANCH_PI:
        u = dict(sub.u_assign)
        u[f.n] = Matrix.identity(sub.size)
        gw = WitnessAssignment._trusted(sub.size, sub.x_assign, u)
    w = lift_witness(gw, step.k, step.omegabar, f.omega, f.n)
    # The U's are keyed above n, so only the two X's change places.
    x = w.x_assign
    x[step.v], x[f.n] = x[f.n], x[step.v]
    w.trace = [
        {"k": step.k, "omegabar": list(step.omegabar), "branch": step.branch}
    ] + sub.trace
    return w


def size_bound(d: int, trace) -> int:
    """Exact witness size: d times the product of the block growths k+1."""
    bound = d
    for entry in trace:
        bound *= entry["k"] + 1
    return bound


def witness_for_multilinear(f: MultilinearPoly, a: Matrix):
    """Top-level entry: witness size and assignment for a multilinear input.

    The recursion runs on g = L*f, where L is the LCM of the coefficient
    denominators, toward the target L*a.  Every level only adds and
    subtracts coefficients, so g's coefficients stay ``int`` all the way
    down, and g(X) = L*f(X) equals L*a exactly when f(X) = a.  The
    witness is the one the unscaled recursion builds, entry for entry:
    with no commuting indices the base case returns (L*a)/(L*lam) = a/lam;
    otherwise ``hollow_similarity`` takes every transvection ratio as a
    quotient of two entries and every branch on a comparison of entries,
    so scaling the target by L leaves p and p^-1 unchanged while h and
    the variable matrix x built from it gain the factor L, which cancels
    in p^-1 x p / (L*lam).
    """
    if f.is_zero():
        raise EmptyPolynomialError("the zero polynomial only attains zero")
    scale = math.lcm(*(lam.denominator for lam in f.coeffs.values()))
    empty = ((),) * f.n
    g = AdmissiblePoly._trusted(
        f.n,
        (),
        {
            (sigma, empty): lam.numerator * (scale // lam.denominator)
            for sigma, lam in f.coeffs.items()
        },
    )
    w = construct_witness(g, a.scale(scale))
    if w.size != size_bound(a.size, w.trace):
        raise InternalInvariantError(
            f"witness size {w.size} differs from the size formula "
            f"{size_bound(a.size, w.trace)}"
        )
    return w.size, w
