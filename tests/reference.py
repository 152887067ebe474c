"""Reference code the package does not ship: the tests' oracles and
generators.

No construction, verification or serialization calls anything here.
The tests use it to check the shipped path independently:

- ``evaluate`` extends the package's dense multilinear evaluator to
  admissible and marked polynomials, so the reduction identities and
  the block lift can be checked on matrices;
- ``swap_labels``, ``merge_position_index`` and ``reference_images``
  rebuild a reduction level from the reference helpers of
  ``polywit.polynomials``, and ``reference_reduction_to_json`` the
  ``polywit reduce`` document from them;
- ``shift_bracket_closed_form`` is the closed form the lift relies on;
- the ``random_*`` generators draw matrices, admissible and marked
  polynomials, and commuting assignments.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from polywit import polynomials
from polywit.construct import BRANCH_PI, ReductionStep
from polywit.errors import DimensionError, PreconditionError
from polywit.matrices import Matrix, block_flatten, iterated_commutator
from polywit.polynomials import (
    AdmissiblePoly,
    MarkedPoly,
    _product,
    all_permutations,
    marked_form,
    marker_at_one,
    marker_into_brackets,
    reindex_by_position,
)
from polywit.randgen import _nonzero_scalar, _scalar
from polywit.serialize import admissible_to_json, marked_to_json
from polywit.witness import WitnessAssignment

# ------------------------------------------------------------ combinatorics


def insert_symbol(tau, j: int, sym: int):
    """Insert ``sym`` at 1-based position ``j`` of the word ``tau``."""
    if not (1 <= j <= len(tau) + 1):
        raise DimensionError(f"position {j} outside 1..{len(tau) + 1}")
    return tau[: j - 1] + (sym,) + tau[j - 1 :]


def enumerate_partitions(omega, n: int):
    """All splits of ``omega`` into ``n`` labeled increasing slots.

    Each index is assigned independently to one slot, so the result has
    exactly n**len(omega) entries.  Order of the result is the product
    order of those assignments, which keeps outputs reproducible.
    """
    if n < 1:
        raise DimensionError("need at least one slot")
    omega = tuple(sorted(omega))
    out = []
    for assignment in itertools.product(range(n), repeat=len(omega)):
        slots = [[] for _ in range(n)]
        for w, slot in zip(omega, assignment):
            slots[slot].append(w)
        out.append(tuple(tuple(s) for s in slots))
    return out


# --------------------------------------------------------------- evaluation


def _eval_decorated(var: int, slot, w: WitnessAssignment) -> Matrix:
    return iterated_commutator([w.u(om) for om in slot], w.x(var))


def _eval_admissible(f: AdmissiblePoly, w: WitnessAssignment) -> Matrix:
    out = Matrix.zeros(w.size)
    for (sigma, parts), lam in f.coeffs.items():
        term = _product(
            _eval_decorated(var, parts[var - 1], w) for var in sigma
        )
        out = out + term.scale(lam)
    return out


def _eval_marked(g: MarkedPoly, w: WitnessAssignment) -> Matrix:
    out = Matrix.zeros(w.size)
    marker = w.u(g.marker)
    for (sigma, j, parts), lam in g.coeffs.items():
        factors = []
        for pos, var in enumerate(sigma, start=1):
            if pos == j:
                factors.append(marker)
            factors.append(_eval_decorated(var, parts[var - 1], w))
        if j == g.n:
            factors.append(marker)
        out = out + _product(factors).scale(lam)
    return out


def evaluate(poly, w: WitnessAssignment) -> Matrix:
    """Exact value of the evaluation homomorphism at the assignment, for
    multilinear (the package's own evaluator), admissible and marked
    polynomials."""
    if isinstance(poly, AdmissiblePoly):
        return _eval_admissible(poly, w)
    if isinstance(poly, MarkedPoly):
        return _eval_marked(poly, w)
    return polynomials.evaluate(poly, w)


# ---------------------------------------------------------------- reduction


def swap_labels(f: AdmissiblePoly, v: int) -> AdmissiblePoly:
    """f with the variable labels v and n exchanged, in words and slots.

    The result evaluated at Y equals f evaluated at Y with Y_v and Y_n
    exchanged, so a witness for one becomes a witness for the other by
    swapping the matrices of those two variables.
    """
    n = f.n
    image = list(range(n + 1))
    image[v], image[n] = n, v
    coeffs = {}
    for (sigma, parts), lam in f.coeffs.items():
        slots = list(parts)
        slots[v - 1], slots[n - 1] = parts[n - 1], parts[v - 1]
        coeffs[(tuple(map(image.__getitem__, sigma)), tuple(slots))] = lam
    return AdmissiblePoly._trusted(n, f.omega, coeffs)


def merge_position_index(n: int, omega, idx) -> AdmissiblePoly:
    """Inverse of reindex_by_position."""
    coeffs = {}
    for (tau, j, parts), lam in idx.items():
        sigma = insert_symbol(tuple(tau), j, n)
        key = (sigma, tuple(tuple(p) for p in parts))
        coeffs[key] = coeffs.get(key, 0) + lam
    return AdmissiblePoly(n, omega, coeffs)


def reference_images(f: AdmissiblePoly, step: ReductionStep):
    """The marked form, its marker-to-1 image and, on the rewrite branch,
    its bracket rewrite (else None) for the level ``step`` took from f.

    They are rebuilt with the reference helpers, for display:
    ``reduce_step`` builds only ``step.reduced``, which is one of the two
    images.
    """
    g = f if step.v == f.n else swap_labels(f, step.v)
    marked = marked_form(reindex_by_position(g), step.k, step.omegabar, g.n, g.omega)
    pi_part = marker_at_one(marked)
    if step.branch == BRANCH_PI:
        return marked, pi_part, None
    return marked, pi_part, marker_into_brackets(marked)


def reference_reduction_to_json(f: AdmissiblePoly, step: ReductionStep) -> dict:
    """The ``polywit reduce`` document for the level ``step`` took from f,
    with the marked form and its images rebuilt by ``reference_images``."""
    marked, pi_part, rewritten = reference_images(f, step)
    return {
        "v": step.v,
        "k": step.k,
        "omegabar": list(step.omegabar),
        "branch": step.branch,
        "g": marked_to_json(marked),
        "pi_of_g": admissible_to_json(pi_part),
        "rewritten": None if rewritten is None else admissible_to_json(rewritten),
    }


# -------------------------------------------------------------- closed form


def shift_bracket_closed_form(k: int, j: int, block: int = 1):
    """Value of j nested shift brackets applied to the bottom-left unit.

    Equals sum over s of (-1)^s C(j,s) placed at block position
    (k+1-j+s, 1+s); at j = k this is block-diagonal with a leading
    identity block, which is what the lift construction relies on.
    """
    if k < 0 or not (0 <= j <= k):
        raise PreconditionError(f"need 0 <= j <= k, got j={j}, k={k}")
    eye = Matrix.identity(block)
    zero = Matrix.zeros(block)
    grid = [[zero for _ in range(k + 1)] for _ in range(k + 1)]
    for s in range(j + 1):
        grid[k - j + s][s] = eye.scale((-1) ** s * math.comb(j, s))
    return block_flatten(grid)


# --------------------------------------------------------------- generators


def random_matrix(size: int, seed: int = 0) -> Matrix:
    rng = random.Random(seed)
    return Matrix([[_scalar(rng) for _ in range(size)] for _ in range(size)])


def random_invertible(size: int, seed: int = 0) -> Matrix:
    """Unit lower triangular times upper triangular with nonzero diagonal."""
    rng = random.Random(seed)
    zero, one = Fraction(0), Fraction(1)
    lower = [
        [_scalar(rng) if c < r else (one if c == r else zero) for c in range(size)]
        for r in range(size)
    ]
    upper = [
        [
            _nonzero_scalar(rng)
            if c == r
            else (_scalar(rng) if c > r else zero)
            for c in range(size)
        ]
        for r in range(size)
    ]
    return Matrix(lower) * Matrix(upper)


def random_admissible(
    n: int, omega, density: float = 0.5, seed: int = 0
) -> AdmissiblePoly:
    """Random admissible polynomial, nonzero whenever density > 0."""
    rng = random.Random(seed)
    keys = [
        (sigma, parts)
        for sigma in all_permutations(n)
        for parts in enumerate_partitions(omega, n)
    ]
    coeffs = {}
    for key in keys:
        if rng.random() < density:
            coeffs[key] = _nonzero_scalar(rng)
    if density > 0 and not coeffs:
        coeffs[rng.choice(keys)] = _nonzero_scalar(rng)
    return AdmissiblePoly(n, omega, coeffs)


def _marked_keys(n: int, omega, omegabar):
    omega = tuple(sorted(omega))
    omegabar = tuple(omegabar)
    remaining = tuple(w for w in omega if w not in omegabar)
    if len(remaining) + len(omegabar) != len(omega):
        raise PreconditionError("omegabar must be a subset of omega")
    return [
        (sigma, j, head + (omegabar,))
        for sigma in all_permutations(n - 1)
        for j in range(1, n + 1)
        for head in enumerate_partitions(remaining, n - 1)
    ]


def random_marked(
    n: int, omega, omegabar, density: float = 0.5, seed: int = 0
) -> MarkedPoly:
    """Random marked polynomial whose selected slot is omegabar."""
    if n < 2:
        raise DimensionError("marked form needs at least two variables")
    rng = random.Random(seed)
    keys = _marked_keys(n, omega, omegabar)
    coeffs = {}
    for key in keys:
        if rng.random() < density:
            coeffs[key] = _nonzero_scalar(rng)
    if density > 0 and not coeffs:
        coeffs[rng.choice(keys)] = _nonzero_scalar(rng)
    return MarkedPoly(n, omega, omegabar, coeffs)


def random_marked_pi_zero(
    n: int, omega, omegabar, density: float = 0.7, seed: int = 0
) -> MarkedPoly:
    """Random marked polynomial whose marker-to-1 image vanishes.

    Within each (permutation, partition) group the marker-at-the-end
    coefficient is set to minus the sum of the others, which kills the
    image group by group while keeping the polynomial itself nonzero.
    """
    if n < 2:
        raise DimensionError("marked form needs at least two variables")
    rng = random.Random(seed)
    coeffs = {}
    groups = [
        (sigma, head + (tuple(omegabar),))
        for sigma in all_permutations(n - 1)
        for head in enumerate_partitions(
            tuple(w for w in sorted(omega) if w not in tuple(omegabar)), n - 1
        )
    ]
    chosen = [g for g in groups if rng.random() < density]
    if not chosen:
        chosen = [rng.choice(groups)]
    for sigma, parts in chosen:
        balance = Fraction(0)
        for j in range(1, n):
            if rng.random() < 0.8:
                lam = _nonzero_scalar(rng)
                coeffs[(sigma, j, parts)] = lam
                balance += lam
        if (sigma, 1, parts) not in coeffs and balance == 0:
            lam = _nonzero_scalar(rng)
            coeffs[(sigma, 1, parts)] = lam
            balance += lam
        coeffs[(sigma, n, parts)] = -balance
    return MarkedPoly(n, omega, omegabar, coeffs)


def random_commuting_assignment(
    x_indices, u_indices, size: int, seed: int = 0
) -> WitnessAssignment:
    """Random assignment whose commuting slots all hold polynomials in
    one shared matrix, so they commute pairwise by construction."""
    rng = random.Random(seed)
    x_assign = {
        i: Matrix([[_scalar(rng) for _ in range(size)] for _ in range(size)])
        for i in x_indices
    }
    base = Matrix([[_scalar(rng) for _ in range(size)] for _ in range(size)])
    powers = [Matrix.identity(size), base, base * base]
    u_assign = {}
    for w in u_indices:
        acc = Matrix.zeros(size)
        for p in powers:
            acc = acc + p.scale(_scalar(rng))
        u_assign[w] = acc
    return WitnessAssignment(size, x_assign, u_assign)
