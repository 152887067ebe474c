"""Seeded generators for multilinear polynomials and trace-zero targets.

Everything is driven by ``random.Random`` with an explicit seed, so a
(seed, parameters) pair always reproduces the same object.  The
generators only the tests use (matrices, admissible and marked
polynomials, commuting assignments) are in ``tests/reference.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DimensionError
from .matrices import Matrix
from .polynomials import MultilinearPoly, all_permutations

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
