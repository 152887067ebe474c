"""Word expansion and coefficient extraction: the symbolic test oracle.

The constructor never expands an admissible polynomial into words; it
works on the admissible coefficient maps throughout.  The tests expand
both sides of each reduction identity into normal-form words of X's and
U's and compare them, and recover admissible coefficients from words to
confirm that the admissible basis is linearly independent: the
extraction checks that its linear system has full column rank.
"""

from __future__ import annotations

import functools
import operator

from polywit.errors import DimensionError, InternalInvariantError, PolywitError
from polywit.matrices import Matrix, as_rational, rref_with_transform
from polywit.polynomials import AdmissiblePoly, MarkedPoly, all_permutations
from polywit.witness import WitnessAssignment
from reference import enumerate_partitions


class NotAdmissibleError(PolywitError):
    """A partially commutative polynomial lies outside the admissible span."""


# A normal-form word is (xs, segs): the noncommuting letters in order,
# and the len(xs)+1 sorted commutative monomials sitting in the gaps.


def _norm_word(word):
    xs, segs = word
    xs = tuple(xs)
    segs = tuple(tuple(sorted(s)) for s in segs)
    if len(segs) != len(xs) + 1:
        raise DimensionError("word needs one commutative segment per gap")
    return xs, segs


def word_mul(w1, w2):
    xs1, segs1 = w1
    xs2, segs2 = w2
    joined = tuple(sorted(segs1[-1] + segs2[0]))
    return xs1 + xs2, segs1[:-1] + (joined,) + segs2[1:]


EMPTY_WORD = ((), ((),))


class PCPoly:
    """Partially commutative polynomial in normal form.

    Words are alternating sequences of commutative monomials and single
    noncommuting letters; adjacent commutative monomials are merged and
    kept sorted, so equality of polynomials is equality of term maps.
    """

    __slots__ = ("n", "omega", "terms")

    def __init__(self, n: int, omega, terms):
        if n < 0:
            raise DimensionError("variable count must be nonnegative")
        self.n = n
        self.omega = tuple(sorted(set(omega)))
        clean = {}
        for word, c in dict(terms).items():
            xs, segs = _norm_word(word)
            if any(not (1 <= i <= n) for i in xs):
                raise DimensionError(f"word letter outside X1..X{n}: {xs}")
            if any(w not in self.omega for seg in segs for w in seg):
                raise DimensionError("word uses a commuting index outside omega")
            c = as_rational(c)
            if c:
                clean[(xs, segs)] = clean.get((xs, segs), 0) + c
                if not clean[(xs, segs)]:
                    del clean[(xs, segs)]
        self.terms = clean

    # -------------------------------------------------- constructors

    @classmethod
    def zero(cls, n, omega):
        return cls(n, omega, {})

    @classmethod
    def one(cls, n, omega):
        return cls(n, omega, {EMPTY_WORD: 1})

    @classmethod
    def x_var(cls, i, n, omega):
        return cls(n, omega, {((i,), ((), ())): 1})

    @classmethod
    def u_var(cls, w, n, omega):
        return cls(n, omega, {((), ((w,),)): 1})

    # -------------------------------------------------- arithmetic

    def _combine(self, other, sign):
        if self.n != other.n or self.omega != other.omega:
            raise DimensionError("polynomials live over different variable sets")
        terms = dict(self.terms)
        for word, c in other.terms.items():
            terms[word] = terms.get(word, 0) + sign * c
        return PCPoly(self.n, self.omega, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = as_rational(c)
        return PCPoly(self.n, self.omega, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PCPoly):
            return NotImplemented
        if self.n != other.n or self.omega != other.omega:
            raise DimensionError("polynomials live over different variable sets")
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                terms[w] = terms.get(w, 0) + c1 * c2
        return PCPoly(self.n, self.omega, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, PCPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.omega == other.omega
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"PCPoly(n={self.n}, omega={self.omega}, terms={len(self.terms)})"


# -------------------------------------------------------------------- expansion


def _expand_factor(var: int, slot, n: int, omega) -> PCPoly:
    acc = PCPoly.x_var(var, n, omega)
    for w in reversed(slot):
        u = PCPoly.u_var(w, n, omega)
        acc = u * acc - acc * u
    return acc


def expand_admissible(f: AdmissiblePoly) -> PCPoly:
    """Multiply out every nested commutator into normal-form words."""
    out = PCPoly.zero(f.n, f.omega)
    for (sigma, parts), lam in f.coeffs.items():
        term = PCPoly.one(f.n, f.omega)
        for var in sigma:
            term = term * _expand_factor(var, parts[var - 1], f.n, f.omega)
        out = out + term.scale(lam)
    return out


def expand_marked(g: MarkedPoly) -> PCPoly:
    """Normal form of a marked polynomial, over n-1 variables plus marker."""
    n_red = g.n - 1
    omega = g.omega_with_marker
    out = PCPoly.zero(n_red, omega)
    marker = PCPoly.u_var(g.marker, n_red, omega)
    for (sigma, j, parts), lam in g.coeffs.items():
        term = PCPoly.one(n_red, omega)
        for pos, var in enumerate(sigma, start=1):
            if pos == j:
                term = term * marker
            term = term * _expand_factor(var, parts[var - 1], n_red, omega)
        if j == g.n:
            term = term * marker
        out = out + term.scale(lam)
    return out


def substitute_u_one(p: PCPoly, omega_index: int) -> PCPoly:
    """Send one commuting variable to 1, merging the words that collide."""
    omega = tuple(w for w in p.omega if w != omega_index)
    terms = {}
    for (xs, segs), c in p.terms.items():
        segs2 = tuple(tuple(w for w in seg if w != omega_index) for seg in segs)
        key = (xs, segs2)
        terms[key] = terms.get(key, 0) + c
    return PCPoly(p.n, omega, terms)


# -------------------------------------------------------------------- extraction

_EXTRACTION_CACHE = {}


def _extraction_system(n: int, omega):
    """Solver data for recovering admissible coefficients from words.

    Returns (basis, word_row, solve_rows, words) where ``solve_rows`` are
    the first len(basis) rows of the elimination transform; applying them
    to a word-coordinate vector yields the unique candidate coefficients.
    Full column rank of the expansion matrix is checked once here.
    """
    key = (n, tuple(omega))
    cached = _EXTRACTION_CACHE.get(key)
    if cached is not None:
        return cached
    basis = [
        (sigma, parts)
        for sigma in all_permutations(n)
        for parts in enumerate_partitions(omega, n)
    ]
    expansions = [
        expand_admissible(AdmissiblePoly(n, omega, {b: 1}))
        for b in basis
    ]
    words = sorted({w for e in expansions for w in e.terms})
    word_row = {w: r for r, w in enumerate(words)}
    matrix = [[0] * len(basis) for _ in words]
    for c, e in enumerate(expansions):
        for w, coeff in e.terms.items():
            matrix[word_row[w]][c] = coeff
    _, transform, pivots = rref_with_transform(matrix)
    if pivots != list(range(len(basis))):
        raise InternalInvariantError(
            "admissible basis expansions are linearly dependent at "
            f"n={n}, omega={tuple(omega)}; they are independent by "
            "construction, so this is a bug"
        )
    solve_rows = transform[: len(basis)]
    result = (basis, word_row, solve_rows, words)
    _EXTRACTION_CACHE[key] = result
    return result


def extraction_has_full_column_rank(n: int, omega) -> bool:
    """Computational check of the basis independence at one (n, omega)."""
    try:
        _extraction_system(n, tuple(sorted(omega)))
    except InternalInvariantError:
        return False
    return True


def extract_coefficients(p: PCPoly, n: int, omega) -> AdmissiblePoly:
    """Recover the admissible coefficients of ``p``, if any exist.

    The candidate solution comes from the cached elimination transform;
    it is then confirmed by re-expansion, so inputs outside the
    admissible span are rejected no matter how they fail.
    """
    omega = tuple(sorted(omega))
    basis, word_row, solve_rows, words = _extraction_system(n, omega)
    vec = [0] * len(words)
    for w, c in p.terms.items():
        row = word_row.get(w)
        if row is None:
            raise NotAdmissibleError(
                f"word {w} never occurs in an admissible expansion for "
                f"n={n}, omega={omega}"
            )
        vec[row] = c
    coeffs = {}
    for c, row in enumerate(solve_rows):
        lam = sum(rv * vv for rv, vv in zip(row, vec) if vv)
        if lam:
            coeffs[basis[c]] = lam
    result = AdmissiblePoly(n, omega, coeffs)
    if expand_admissible(result) != p:
        raise NotAdmissibleError(
            "polynomial is not in the span of the admissible basis for "
            f"n={n}, omega={omega}"
        )
    return result


# -------------------------------------------------------------------- evaluation


def evaluate_pc(p: PCPoly, w: WitnessAssignment) -> Matrix:
    """Exact value of ``p`` at the assignment; the empty word is the identity."""
    out = Matrix.zeros(w.size)
    for (xs, segs), c in p.terms.items():
        factors = []
        for seg, var in zip(segs, xs + (None,)):
            factors.extend(w.u(om) for om in seg)
            if var is not None:
                factors.append(w.x(var))
        if factors:
            term = functools.reduce(operator.mul, factors)
        else:
            term = Matrix.identity(w.size)
        out = out + term.scale(c)
    return out
