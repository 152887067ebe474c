"""Exact square-matrix arithmetic over the rationals plus the block
constructions (matrix units, embeddings, cyclic shifts, iterated
commutators) the witness builder consumes.

Every entry is a ``fractions.Fraction``.  Everything is immutable and
every comparison is exact; there is no floating point anywhere in this
module.  Products clear denominators first: each row of the left factor
and each column of the right one is scaled to integers by the LCM of
its denominators, the nonzero entries are multiplied as ``int``s, and
each result entry is divided by its two scales once.  Entries are
checked where data enters: the public ``Matrix`` constructor coerces
and validates, while matrices the package derives from existing ones go
through ``Matrix._trusted``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import DimensionError, RationalLiteralError, SingularMatrixError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Stricter than Fraction(str), which also accepts "1.5" and "2e3".
_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+))?\s*$")


def parse_rational(text: str) -> Fraction:
    """Exact value of an integer or ``p/q`` literal; ``RationalLiteralError``
    (a ``ValueError``) otherwise."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise RationalLiteralError(f"not a rational literal: {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # past the interpreter's digit limit
        raise RationalLiteralError(f"rational literal too long: {exc}") from None
    if den == 0:
        raise RationalLiteralError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def as_rational(value) -> Fraction:
    """Convert an int, Fraction or rational literal; floats raise ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational exactly")


def height(x: Fraction) -> int:
    """Bit length of the larger of x's numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _int_pairs(entries):
    """``(m, pairs)``: m is the LCM of the denominators of ``entries``, and
    ``pairs`` holds ``(index, m * entry)`` for each nonzero entry."""
    nonzero = [(k, a) for k, a in enumerate(entries) if a]
    m = lcm(*(a.denominator for _, a in nonzero))
    return m, [(k, a.numerator * (m // a.denominator)) for k, a in nonzero]


class Matrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        grid = tuple(tuple(as_rational(x) for x in row) for row in rows)
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise DimensionError("matrix data must be square and nonempty")
        self.size = n
        self.rows = grid

    # ---------------------------------------------------------------- constructors

    @classmethod
    def _trusted(cls, rows) -> "Matrix":
        """Matrix from a nonempty square grid of Fractions; nothing is checked."""
        m = object.__new__(cls)
        m.rows = tuple(map(tuple, rows))
        m.size = len(m.rows)
        return m

    @classmethod
    def zeros(cls, n: int) -> "Matrix":
        return cls.diagonal([_ZERO] * n)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([_ONE] * n)

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit e_ij (1-based indices) in size n."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionError(f"unit position ({i},{j}) outside size {n}")
        return cls._trusted(
            [
                [_ONE if (r, c) == (i - 1, j - 1) else _ZERO for c in range(n)]
                for r in range(n)
            ]
        )

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = [as_rational(x) for x in entries]
        n = len(entries)
        if n == 0:
            raise DimensionError("matrix data must be square and nonempty")
        return cls._trusted(
            [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    # ---------------------------------------------------------------- arithmetic

    def _check_same_shape(self, other: "Matrix"):
        if self.size != other.size:
            raise DimensionError(f"size mismatch: {self.size} vs {other.size}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._trusted(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._trusted(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted([[-a for a in row] for row in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Exact product through a sparse integer kernel.

        Row i of ``self`` times r_i and column j of ``other`` times c_j
        are integer vectors, so entry (i, j) is their dot product over
        r_i * c_j.  Only nonzero entries take part on either side.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        col_lcms = []
        right = [[] for _ in range(other.size)]
        for j, col in enumerate(zip(*other.rows)):
            c, pairs = _int_pairs(col)
            col_lcms.append(c)
            for k, b in pairs:
                right[k].append((j, b))
        rows = []
        for row in self.rows:
            r, pairs = _int_pairs(row)
            acc = [0] * other.size
            for k, a in pairs:
                for j, b in right[k]:
                    acc[j] += a * b
            rows.append(
                [Fraction(v, r * c) if v else _ZERO for v, c in zip(acc, col_lcms)]
            )
        return Matrix._trusted(rows)

    def scale(self, c) -> "Matrix":
        c = as_rational(c)
        return Matrix._trusted([[c * a for a in row] for row in self.rows])

    def __rmul__(self, c) -> "Matrix":
        if isinstance(c, Matrix):
            return NotImplemented
        return self.scale(c)

    # ---------------------------------------------------------------- queries

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.size))

    def is_zero(self) -> bool:
        return not any(a for row in self.rows for a in row)

    def has_zero_diagonal(self) -> bool:
        return not any(self.rows[i][i] for i in range(self.size))

    def __getitem__(self, pos):
        """Entry at 1-based (row, column), matching the e_ij convention."""
        i, j = pos
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise DimensionError(f"position ({i},{j}) outside size {self.size}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
        return f"Matrix[{body}]"


# -------------------------------------------------------------------- commutators


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba; the result always has exact trace zero."""
    return a * b - b * a


def iterated_commutator(us, x: Matrix) -> Matrix:
    """Right-nested bracket [u_1, [u_2, [..., x]]]; empty ``us`` returns x."""
    acc = x
    for u in reversed(list(us)):
        acc = commutator(u, acc)
    return acc


# -------------------------------------------------------------------- block tools


def embed(a: Matrix, s: int) -> Matrix:
    """Place ``a`` in the top-left corner of an s-by-s zero matrix."""
    if s < a.size:
        raise DimensionError(f"cannot embed size {a.size} into smaller size {s}")
    rows = [
        [a.rows[i][j] if i < a.size and j < a.size else _ZERO for j in range(s)]
        for i in range(s)
    ]
    return Matrix._trusted(rows)


def block_flatten(blocks) -> Matrix:
    """Flatten a square grid of equal-size square blocks into one matrix.

    This realises the identification of b-by-b matrices over s-by-s
    matrices with bs-by-bs matrices; it is a ring isomorphism, which the
    test suite checks rather than assumes.
    """
    grid = [list(row) for row in blocks]
    b = len(grid)
    if b == 0 or any(len(row) != b for row in grid):
        raise DimensionError("block grid must be square and nonempty")
    s = grid[0][0].size
    for row in grid:
        for blk in row:
            if blk.size != s:
                raise DimensionError("ragged block grid: unequal block sizes")
    rows = []
    for bi in range(b):
        for i in range(s):
            rows.append([grid[bi][bj].rows[i][j] for bj in range(b) for j in range(s)])
    return Matrix._trusted(rows)


def block_unit(count: int, i: int, j: int, block: Matrix) -> Matrix:
    """count*size matrix with ``block`` at block position (i, j), 1-based."""
    z = Matrix.zeros(block.size)
    grid = [
        [block if (bi, bj) == (i - 1, j - 1) else z for bj in range(count)]
        for bi in range(count)
    ]
    return block_flatten(grid)


def block_diagonal(blocks) -> Matrix:
    """Block-diagonal matrix from a nonempty list of equal-size blocks."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("block_diagonal needs at least one block")
    z = Matrix.zeros(blocks[0].size)
    n = len(blocks)
    grid = [[blocks[i] if i == j else z for j in range(n)] for i in range(n)]
    return block_flatten(grid)


def cyclic_shift(k: int, block: int) -> Matrix:
    """Cyclic shift on k+1 blocks of the given size.

    Identity blocks sit at block positions (1,2), (2,3), ..., (k, k+1)
    and (k+1, 1); raising the result to the power k+1 gives the identity.
    For k = 0 this is just the identity of the block size.
    """
    if k < 0:
        raise DimensionError("k must be nonnegative")
    if block < 1:
        raise DimensionError("block size must be positive")
    eye = Matrix.identity(block)
    zero = Matrix.zeros(block)
    n = k + 1
    grid = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(k):
        grid[i][i + 1] = eye
    grid[k][0] = eye
    return block_flatten(grid)


# -------------------------------------------------------------------- elimination

# Gaussian elimination uses the first nonzero pivot in column order, so
# every result below is deterministic.


def rref_with_transform(rows):
    """Full reduced row echelon form with the row operations recorded.

    Returns ``(reduced, transform, pivots)`` where ``transform`` is a
    square matrix of row operations with transform @ input == reduced,
    and ``pivots`` lists the pivot column of each leading row.
    """
    work = [list(row) for row in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    transform = [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        transform[r], transform[pivot] = transform[pivot], transform[r]
        inv = _ONE / work[r][c]
        work[r] = [inv * x for x in work[r]]
        transform[r] = [inv * x for x in transform[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
                transform[i] = [
                    x - factor * y for x, y in zip(transform[i], transform[r])
                ]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, transform, pivots


def rank_of_rows(rows) -> int:
    if not rows:
        return 0
    _, _, pivots = rref_with_transform(rows)
    return len(pivots)


def inverse(p: Matrix) -> Matrix:
    """Exact inverse: the row operations that reduce ``p`` to the identity."""
    _, transform, pivots = rref_with_transform(p.rows)
    if len(pivots) != p.size:
        raise SingularMatrixError("matrix is singular, no exact inverse exists")
    return Matrix._trusted(transform)
