"""Seeded generators for polynomials, targets, and test assignments.

Everything is driven by ``random.Random`` with an explicit seed, so a
(seed, parameters) pair always reproduces the same object.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DimensionError, PreconditionError
from .matrices import Matrix
from .polynomials import (
    AdmissiblePoly,
    MarkedPoly,
    MultilinearPoly,
    all_permutations,
    enumerate_partitions,
)
from .witness import WitnessAssignment

_NUMERATORS = [-4, -3, -2, -1, 1, 2, 3, 4]
_DENOMINATORS = [1, 1, 1, 2, 3]


def _nonzero_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))


def _scalar(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return Fraction(0)
    return _nonzero_scalar(rng)


def random_multilinear(n: int, density: float = 0.6, seed: int = 0) -> MultilinearPoly:
    """Random multilinear polynomial, nonzero whenever density > 0."""
    if n < 1:
        raise DimensionError("degree must be positive")
    rng = random.Random(seed)
    perms = all_permutations(n)
    coeffs = {}
    for sigma in perms:
        if rng.random() < density:
            coeffs[sigma] = _nonzero_scalar(rng)
    if density > 0 and not coeffs:
        coeffs[rng.choice(perms)] = _nonzero_scalar(rng)
    return MultilinearPoly(n, coeffs)


def random_bracket(n: int, density: float = 0.6, seed: int = 0) -> MultilinearPoly:
    """Random multilinear Lie polynomial in X_1..X_n.

    It combines left-normed brackets [..[X1, X_t(2)], ..., X_t(n)] with
    random coefficients; the word X1 X_t(2) ... X_t(n) occurs only in
    its own bracket, so the result is nonzero.  Sending any variable to
    1 kills every bracket, so whichever variable the reduction
    eliminates, it takes the rewrite branch at the top level and the
    base case gets a commuting index, which dense random polynomials
    almost never reach.
    """
    if n < 2:
        raise DimensionError("a bracket needs at least two variables")
    coeffs = {}
    for tail, lam in random_multilinear(n - 1, density, seed).coeffs.items():
        words = {(1,): lam}
        for v in tail:
            grown = {}
            for word, c in words.items():
                grown[word + (v + 1,)] = c
                grown[(v + 1,) + word] = -c
            words = grown
        for word, c in words.items():
            coeffs[word] = coeffs.get(word, 0) + c
    return MultilinearPoly(n, coeffs)


def random_trace_zero(d: int, seed: int = 0) -> Matrix:
    """Random d by d rational matrix with the last diagonal entry fixed
    so the trace vanishes."""
    if d < 1:
        raise DimensionError("matrix size must be positive")
    rng = random.Random(seed)
    rows = [[_scalar(rng) for _ in range(d)] for _ in range(d)]
    rows[d - 1][d - 1] = -sum(rows[i][i] for i in range(d - 1))
    return Matrix(rows)


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
