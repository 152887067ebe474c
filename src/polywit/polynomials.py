"""Multilinear and admissible partially commutative polynomial algebra.

Scalars are exact ``Fraction``s, so every zero test below is a real zero
test.  The reduction helpers only add and subtract coefficients, so they
also run on plain ``int`` coefficients and keep them ``int``; the
constructor scales its input to integers for that reason.  The zero
polynomial is an empty coefficient map in every representation, and no
stored coefficient is zero: the public constructors drop zeros and
validate their keys.  The reduction and the text parser build their
results through ``_trusted`` constructors that skip those checks,
because the reduction's keys are well formed and its coefficients
nonzero by construction, and the parser has already checked every
monomial.

An admissible basis element is indexed by a permutation together with a
partition of the commuting index set into per-variable slots; the term
wraps each variable in the right-nested commutator with the commuting
variables of its slot.  That family is linearly independent, which is
what makes "empty map" equivalent to "zero polynomial".  The tests'
word-expansion oracle (``tests/word_oracle.py``) confirms the
independence computationally: its coefficient extraction checks that
the expanded basis has full column rank.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .errors import (
    ArityError,
    DimensionError,
    EmptyPolynomialError,
    InternalInvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .matrices import Matrix, as_rational, iterated_commutator
from .witness import WitnessAssignment


# -------------------------------------------------------------------- helpers


def all_permutations(n: int):
    """All permutations of 1..n as image tuples, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def insert_symbol(tau, j: int, sym: int):
    """Insert ``sym`` at 1-based position ``j`` of the word ``tau``."""
    if not (1 <= j <= len(tau) + 1):
        raise DimensionError(f"position {j} outside 1..{len(tau) + 1}")
    return tau[: j - 1] + (sym,) + tau[j - 1 :]


def _check_perm(sigma, n: int):
    if sorted(sigma) != list(range(1, n + 1)):
        raise DimensionError(f"{sigma} is not a permutation word of 1..{n}")


def _check_partition(parts, n: int, omega) -> None:
    if len(parts) != n:
        raise DimensionError(f"partition needs {n} slots, got {len(parts)}")
    seen = []
    for part in parts:
        if list(part) != sorted(set(part)):
            raise DimensionError(f"slot {part} is not strictly increasing")
        seen.extend(part)
    if sorted(seen) != list(omega):
        raise DimensionError(
            f"slots {parts} do not partition the commuting set {tuple(omega)}"
        )


def _check_omega(omega, n: int):
    omega = tuple(omega)
    if list(omega) != sorted(set(omega)):
        raise DimensionError("commuting index set must be strictly increasing")
    if any(w <= n for w in omega):
        raise DimensionError(
            f"commuting indices {omega} must all exceed the variable count {n}"
        )
    return omega


MAX_PARTITIONS = 10**5


def enumerate_partitions(omega, n: int):
    """All splits of ``omega`` into ``n`` labeled increasing slots.

    Each index is assigned independently to one slot, so the result has
    exactly n**len(omega) entries; more than ``MAX_PARTITIONS`` raises
    ``ResourceLimitError`` before any is built.  Order of the result is
    the product order of those assignments, which keeps outputs
    reproducible.
    """
    if n < 1:
        raise DimensionError("need at least one slot")
    omega = tuple(sorted(omega))
    count = 1
    for _ in omega:
        count *= n
        if count > MAX_PARTITIONS:
            raise ResourceLimitError(
                f"{n}**{len(omega)} partitions exceed the limit of {MAX_PARTITIONS}"
            )
    out = []
    for assignment in itertools.product(range(n), repeat=len(omega)):
        slots = [[] for _ in range(n)]
        for w, slot in zip(omega, assignment):
            slots[slot].append(w)
        out.append(tuple(tuple(s) for s in slots))
    return out


# -------------------------------------------------------------------- types


class MultilinearPoly:
    """Sum of lambda_sigma * X_{sigma(1)}...X_{sigma(n)} over permutations."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise DimensionError("degree must be positive")
        self.n = n
        clean = {}
        for sigma, lam in dict(coeffs).items():
            sigma = tuple(sigma)
            _check_perm(sigma, n)
            lam = as_rational(lam)
            if lam:
                clean[sigma] = lam
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n: int, coeffs: dict) -> "MultilinearPoly":
        """Polynomial from permutation-word keys already checked; the
        coefficients are only made ``Fraction``s and zeros dropped."""
        f = object.__new__(cls)
        f.n = n
        f.coeffs = {sigma: Fraction(lam) for sigma, lam in coeffs.items() if lam}
        return f

    def is_zero(self) -> bool:
        return not self.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MultilinearPoly(n={self.n}, terms={len(self.coeffs)})"


class AdmissiblePoly:
    """Linear combination of commutator-decorated permutation words."""

    __slots__ = ("n", "omega", "coeffs")

    def __init__(self, n: int, omega, coeffs):
        if n < 1:
            raise DimensionError("variable count must be positive")
        self.n = n
        self.omega = _check_omega(omega, n)
        clean = {}
        for (sigma, parts), lam in dict(coeffs).items():
            sigma = tuple(sigma)
            parts = tuple(tuple(p) for p in parts)
            _check_perm(sigma, n)
            _check_partition(parts, n, self.omega)
            lam = as_rational(lam)
            if lam:
                clean[(sigma, parts)] = lam
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n: int, omega: tuple, coeffs: dict) -> "AdmissiblePoly":
        """Polynomial from keys already in normal form and nonzero
        coefficients; the map is taken as it is, not checked or copied."""
        f = object.__new__(cls)
        f.n = n
        f.omega = omega
        f.coeffs = coeffs
        return f

    def is_zero(self) -> bool:
        return not self.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, AdmissiblePoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.omega == other.omega
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"AdmissiblePoly(n={self.n}, omega={self.omega}, "
            f"terms={len(self.coeffs)})"
        )


class MarkedPoly:
    """One reduction level's restriction of an admissible polynomial.

    Coefficients are keyed by (sigma, j, parts): sigma is a word over the
    surviving n-1 variables, j in 1..n is the gap where the bare marker
    U_n sits, and parts is the full n-slot partition of the parent, whose
    last-variable slot equals ``omegabar`` for every stored key.  The
    marker replaces the decorated top-variable factor, so evaluation uses
    only the first n-1 slots plus the marker matrix.
    """

    __slots__ = ("n", "omega", "omegabar", "coeffs")

    def __init__(self, n: int, omega, omegabar, coeffs):
        if n < 2:
            raise DimensionError("marked form needs at least two variables")
        self.n = n
        self.omega = _check_omega(omega, n)
        self.omegabar = tuple(omegabar)
        if any(w not in self.omega for w in self.omegabar):
            raise DimensionError("omegabar must be drawn from omega")
        clean = {}
        for (sigma, j, parts), lam in dict(coeffs).items():
            sigma = tuple(sigma)
            parts = tuple(tuple(p) for p in parts)
            _check_perm(sigma, n - 1)
            if not (1 <= j <= n):
                raise DimensionError(f"marker position {j} outside 1..{n}")
            _check_partition(parts, n, self.omega)
            if parts[n - 1] != self.omegabar:
                raise DimensionError(
                    f"stored slot {parts[n - 1]} differs from omegabar"
                )
            lam = as_rational(lam)
            if lam:
                clean[(sigma, j, parts)] = lam
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n: int, omega: tuple, omegabar: tuple, coeffs: dict):
        """Marked form from keys already in normal form and nonzero
        coefficients; the map is taken as it is, not checked or copied."""
        g = object.__new__(cls)
        g.n = n
        g.omega = omega
        g.omegabar = omegabar
        g.coeffs = coeffs
        return g

    @property
    def marker(self) -> int:
        return self.n

    @property
    def omega_remaining(self):
        """Commuting indices untouched by the selection, sorted."""
        return tuple(w for w in self.omega if w not in self.omegabar)

    @property
    def omega_with_marker(self):
        return tuple(sorted(self.omega_remaining + (self.n,)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, MarkedPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.omega == other.omega
            and self.omegabar == other.omegabar
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"MarkedPoly(n={self.n}, omegabar={self.omegabar}, "
            f"terms={len(self.coeffs)})"
        )


# -------------------------------------------------------------------- bridges


def from_multilinear(f: MultilinearPoly) -> AdmissiblePoly:
    """View a multilinear polynomial as admissible with no commuting part."""
    empty = ((),) * f.n
    return AdmissiblePoly._trusted(
        f.n, (), {(sigma, empty): lam for sigma, lam in f.coeffs.items()}
    )


# -------------------------------------------------------------------- evaluation


def _eval_decorated(var: int, slot, w: WitnessAssignment) -> Matrix:
    return iterated_commutator([w.u(om) for om in slot], w.x(var))


def _product(factors) -> Matrix:
    """Ordered product of the factor matrices, starting at the first."""
    return functools.reduce(operator.mul, factors)


def _eval_multilinear(f: MultilinearPoly, w: WitnessAssignment) -> Matrix:
    out = Matrix.zeros(w.size)
    for sigma, lam in f.coeffs.items():
        term = _product(w.x(var) for var in sigma)
        out = out + term.scale(lam)
    return out


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
    """Exact value of the evaluation homomorphism at the assignment."""
    if isinstance(poly, MultilinearPoly):
        return _eval_multilinear(poly, w)
    if isinstance(poly, AdmissiblePoly):
        return _eval_admissible(poly, w)
    if isinstance(poly, MarkedPoly):
        return _eval_marked(poly, w)
    raise ArityError(f"cannot evaluate object of type {type(poly).__name__}")


# -------------------------------------------------------------------- reduction


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


def reindex_by_position(f: AdmissiblePoly):
    """Re-key coefficients by (residual word, top-variable position, parts).

    The permutations of 1..n correspond bijectively to pairs of a
    permutation of 1..n-1 and the position the symbol n occupies, so the
    coefficient map carries over without loss.
    """
    if f.n < 2:
        raise PreconditionError("position reindexing needs at least two variables")
    n = f.n
    idx = {}
    for (sigma, parts), lam in f.coeffs.items():
        j = sigma.index(n)
        idx[(sigma[:j] + sigma[j + 1 :], j + 1, parts)] = lam
    return idx


def merge_position_index(n: int, omega, idx) -> AdmissiblePoly:
    """Inverse of reindex_by_position."""
    coeffs = {}
    for (tau, j, parts), lam in idx.items():
        sigma = insert_symbol(tuple(tau), j, n)
        key = (sigma, tuple(tuple(p) for p in parts))
        coeffs[key] = coeffs.get(key, 0) + lam
    return AdmissiblePoly(n, omega, coeffs)


def min_k_and_omegabar(idx, n: int):
    """Smallest top-variable slot length, and the first slot attaining it.

    Ties are broken by lexicographic order on the slot so repeated runs
    pick the same slot.  The chosen pair guarantees that every stored
    coefficient whose top slot is shorter than k vanishes (there is none).
    """
    if not idx:
        raise EmptyPolynomialError("zero polynomial has no top-variable slot")
    slots = {parts[n - 1] for (_, _, parts) in idx}
    k = min(len(s) for s in slots)
    omegabar = min(s for s in slots if len(s) == k)
    return k, omegabar


def marked_form(idx, k: int, omegabar, n: int, omega) -> MarkedPoly:
    """Restrict to terms whose top slot is ``omegabar`` and bare the marker."""
    omegabar = tuple(omegabar)
    if len(omegabar) != k:
        raise PreconditionError(f"omegabar {omegabar} does not have length {k}")
    coeffs = {
        key: lam for key, lam in idx.items() if key[2][n - 1] == omegabar
    }
    if not coeffs:
        raise InternalInvariantError(
            "no coefficient carries the selected slot; the slot choice is broken"
        )
    return MarkedPoly._trusted(n, tuple(omega), omegabar, coeffs)


def group_marker_positions(f: AdmissiblePoly, v: int, omegabar) -> dict:
    """The marked form of f at X_v, grouped in one pass over f's terms.

    f is read with the labels v and n exchanged, as ``swap_labels`` does.
    The terms whose top slot (X_v's slot in f) is ``omegabar`` are kept
    and keyed by (residual word, first n-1 slots): exactly the groups of
    ``marked_form(reindex_by_position(swap_labels(f, v)), ...)`` by
    (sigma, parts[:n-1]).  Each group maps to a list of length n+1 whose
    entry j is the coefficient with the marker at position j (entry 0 is
    unused, and an absent position holds 0).  A key and a position fix
    the term, so no entry is written twice, and every entry written is
    nonzero.
    """
    n = f.n
    top = v - 1
    groups = {}
    for (sigma, parts), lam in f.coeffs.items():
        if parts[top] != omegabar:
            continue
        j = sigma.index(v)
        tau = sigma[:j] + sigma[j + 1 :]
        if v == n:
            head = parts[:top]
        else:
            m = tau.index(n)
            tau = tau[:m] + (v,) + tau[m + 1 :]
            head = parts[:top] + (parts[n - 1],) + parts[v : n - 1]
        row = groups.get((tau, head))
        if row is None:
            row = groups[(tau, head)] = [0] * (n + 1)
        row[j + 1] = lam
    return groups


def _group_marked(g: MarkedPoly) -> dict:
    """``group_marker_positions`` for a marked form already built."""
    groups = {}
    for (sigma, j, parts), lam in g.coeffs.items():
        key = (sigma, parts[: g.n - 1])
        row = groups.get(key)
        if row is None:
            row = groups[key] = [0] * (g.n + 1)
        row[j] = lam
    return groups


def pi_image_size(groups) -> int:
    """Number of terms ``pi_image`` builds from the groups."""
    return sum(1 for row in groups.values() if sum(row))


def bracket_rewrite_size(groups) -> int:
    """Number of terms ``bracket_rewrite`` builds from the groups: its
    keys are distinct across groups and positions, so it is the number of
    nonzero running sums."""
    count = 0
    for row in groups.values():
        running = 0
        for lam in row[1:-1]:
            running += lam
            if running:
                count += 1
    return count


def pi_image(groups, n: int, omega) -> AdmissiblePoly:
    """Image of the grouped marked form with the marker sent to 1: each
    group's coefficient is its sum over marker positions."""
    coeffs = {}
    for key, row in groups.items():
        total = sum(row)
        if total:
            coeffs[key] = total
    return AdmissiblePoly._trusted(n - 1, omega, coeffs)


def bracket_rewrite(groups, n: int, omega) -> AdmissiblePoly:
    """Admissible form of a grouped marked form whose marker-to-1 image
    vanishes (see ``marker_into_brackets``); ``omega`` is the next
    level's commuting set, which holds the marker index n."""
    coeffs = {}
    for (sigma, parts), row in groups.items():
        running = 0
        for i in range(1, n):
            running += row[i]
            if running:
                slot = sigma[i - 1] - 1
                slots = parts[:slot] + ((n,) + parts[slot],) + parts[slot + 1 :]
                coeffs[(sigma, slots)] = running
        if running + row[n]:
            raise PreconditionError(
                "marker elimination requires the marker-to-1 image to vanish"
            )
    return AdmissiblePoly._trusted(n - 1, omega, coeffs)


def marker_at_one(g: MarkedPoly) -> AdmissiblePoly:
    """Image of the marked polynomial under sending the marker to 1.

    The marker drops out, so for each residual word and partition the
    surviving coefficient is the sum over marker positions.  The result
    may be zero; that is the branch signal for the reduction.
    """
    return pi_image(_group_marked(g), g.n, g.omega_remaining)


def marker_into_brackets(g: MarkedPoly) -> AdmissiblePoly:
    """Rewrite a marker-annihilated polynomial in admissible form.

    Requires the marker-to-1 image to vanish.  Then, per residual word
    and partition, commuting the marker rightwards and absorbing it into
    one factor's bracket leaves the coefficient sum over all marker
    positions up to that factor.  The marker index is smaller than every
    index in omega, so prepending it keeps slots strictly increasing.

    The groups are exactly the terms of ``marker_at_one(g)``, and the
    running sum over all n positions is that term's coefficient, so the
    precondition is checked on each group's total instead of by building
    the image again.
    """
    return bracket_rewrite(_group_marked(g), g.n, g.omega_with_marker)
