"""Text format for multilinear polynomials.

Grammar (whitespace is free between tokens):

    poly := [sign] term (sign term)*
    term := [rat '*'] var ('*' var)*
    var  := 'X' int
    rat  := int ['/' int]
    sign := '+' | '-'

Every monomial must use each of X1..Xn exactly once for one uniform n,
otherwise the text is rejected as non-multilinear.  Cancelling terms are
legal, so the zero polynomial can be written; callers that need a
nonzero polynomial check for themselves.

Of several faults in one text, the one reported is, in this order:

1. the first character outside the grammar, or the first number longer
   than ``sys.get_int_max_str_digits()``, whichever comes first;
2. otherwise the first grammar fault ("expected ..., found ...");
3. otherwise the first monomial that is not multilinear.

Syntax errors carry the 1-based ``position`` of the offending token.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import MultilinearityError, PolynomialSyntaxError
from .polynomials import MultilinearPoly

# Each term is read by three anchored steps: the sign, an optional
# coefficient ending in '*' and the run of variables.  Optional groups
# mark how far a step got, so a failed step names its own fault.
_SIGN_RE = re.compile(r"\s*([+-])?")
_COEFF_RE = re.compile(r"\s*(\d+)(?:\s*(/)\s*(\d+)?)?(\s*\*)?")
_VARS_RE = re.compile(r"\s*X\d+(?:\s*\*\s*X\d+)*(\s*\*)?")
_INT_RE = re.compile(r"\d+")
# The token at a fault: an X index or a number (found as its value), an
# operator, or the end of the text.
_FOUND_RE = re.compile(r"\s*(X?(\d+)|\S|\Z)")


def _fail(text: str, pos: int, expected: str):
    m = _FOUND_RE.match(text, pos)
    token, digits = m.groups()
    found = repr(int(digits)) if digits else repr(token) if token else "end of input"
    raise PolynomialSyntaxError(f"expected {expected}, found {found}", m.start(1) + 1)


def _terms(text: str):
    """(coefficient, variable indices) per term; raises at the first fault."""
    terms = []
    sign = _SIGN_RE.match(text)
    while True:
        pos = sign.end()
        coeff = -1 if sign.group(1) == "-" else 1
        m = _COEFF_RE.match(text, pos)
        if m:
            num, slash, den, star = m.groups()
            if slash and not den:
                _fail(text, m.end(2), "a denominator")
            if den and not int(den):
                raise PolynomialSyntaxError("zero denominator", m.start(3) + 1)
            if not star:
                _fail(text, m.end(), "'*' after the coefficient")
            coeff *= Fraction(int(num), int(den)) if den else int(num)
            pos = m.end()
        m = _VARS_RE.match(text, pos)
        if m is None:
            _fail(text, pos, "a variable like X1")
        if m.group(1):
            _fail(text, m.end(), "a variable after '*'")
        terms.append((coeff, tuple(map(int, _INT_RE.findall(text, pos, m.end())))))
        sign = _SIGN_RE.match(text, m.end())
        if sign.group(1) is None:
            if sign.end() == len(text):
                return terms
            _fail(text, sign.end(), "'+' or '-' between terms")


def _prescan(text: str) -> None:
    """Raise at the first bad character or over-long number, if any."""
    limit = sys.get_int_max_str_digits()
    digits = rf"\d{{{limit + 1},}}"
    long = rf"|X{digits}|(?<![\dX]){digits}" if limit else ""
    m = re.search(rf"[^\dX+\-*/\s]|X(?!\d){long}", text)
    if m is None:
        return
    if len(m.group()) == 1:
        raise PolynomialSyntaxError(f"unexpected character {m.group()!r}", m.start() + 1)
    try:
        int(m.group().lstrip("X"))
    except ValueError as exc:  # past the interpreter's digit limit
        raise PolynomialSyntaxError(str(exc), m.start() + 1) from None


def parse_poly(text: str) -> MultilinearPoly:
    """Parse and validate a multilinear polynomial from text."""
    if not text or not text.strip():
        raise PolynomialSyntaxError("empty input", 1)
    try:
        terms = _terms(text)
    except (PolynomialSyntaxError, ValueError):
        # A bad character or over-long number anywhere outranks the scan's
        # own fault.  Each one stops the scan at or before itself, so the
        # text needs this check only when the scan fails.
        _prescan(text)
        raise
    n = len(terms[0][1])
    expected = list(range(1, n + 1))
    coeffs = {}
    for coeff, variables in terms:
        if sorted(variables) != expected:
            monomial = "*".join(f"X{v}" for v in variables)
            raise MultilinearityError(
                f"monomial {monomial} must use X1..X{n} exactly once each"
            )
        total = coeffs.get(variables, 0) + coeff
        if total == 0:
            coeffs.pop(variables, None)
        else:
            coeffs[variables] = total
    return MultilinearPoly._trusted(n, coeffs)


def poly_to_str(f: MultilinearPoly) -> str:
    """Canonical text form: terms in word order, unit coefficients bare."""
    if f.is_zero():
        return "0"
    pieces = []
    for sigma, lam in f.items_sorted():
        word = "*".join(f"X{v}" for v in sigma)
        mag = -lam if lam < 0 else lam
        body = word if mag == 1 else f"{mag}*{word}"
        if not pieces:
            pieces.append(body if lam > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if lam > 0 else f"- {body}")
    return " ".join(pieces)


_INT_LIST_RE = re.compile(r"^\s*$|^\s*\d+\s*(,\s*\d+\s*)*$")


def parse_omega(text: str):
    """Comma-separated commuting indices; empty text is the empty set."""
    if not _INT_LIST_RE.match(text or ""):
        raise PolynomialSyntaxError(f"not a comma-separated index list: {text!r}")
    if not text or not text.strip():
        return ()
    try:
        return tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError as exc:  # past the interpreter's digit limit
        raise PolynomialSyntaxError(str(exc)) from None
