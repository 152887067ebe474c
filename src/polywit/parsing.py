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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MultilinearityError, PolynomialSyntaxError
from .polynomials import MultilinearPoly

_TOKEN_RE = re.compile(r"X(?P<var>\d+)|(?P<num>\d+)|(?P<op>[+\-*/])|(?P<bad>\S)")


def _tokenize(text: str):
    """(kind, value, 1-based position) triples; whitespace only separates."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "op":
            append((kind, m.group(kind), m.start() + 1))
        elif kind == "bad":
            raise PolynomialSyntaxError(
                f"unexpected character {m.group(kind)!r}", m.start() + 1
            )
        else:
            try:
                value = int(m.group(kind))
            except ValueError as exc:  # past the interpreter's digit limit
                raise PolynomialSyntaxError(str(exc), m.start() + 1) from None
            append((kind, value, m.start() + 1))
    append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, value, pos = self.peek()
        found = "end of input" if kind == "end" else repr(value)
        raise PolynomialSyntaxError(f"expected {expected}, found {found}", pos)

    def term(self):
        """One monomial: optional rational coefficient, then variables."""
        coeff = Fraction(1)
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            num = value
            den = 1
            if self.peek()[0] == "op" and self.peek()[1] == "/":
                self.take()
                if self.peek()[0] != "num":
                    self.fail("a denominator")
                _, den, dpos = self.take()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", dpos)
            coeff = Fraction(num, den)
            if not (self.peek()[0] == "op" and self.peek()[1] == "*"):
                self.fail("'*' after the coefficient")
            self.take()
        if self.peek()[0] != "var":
            self.fail("a variable like X1")
        variables = [self.take()[1]]
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.take()
            if self.peek()[0] != "var":
                self.fail("a variable after '*'")
            variables.append(self.take()[1])
        return coeff, variables

    def poly(self):
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        coeff, variables = self.term()
        terms.append((sign * coeff, variables))
        while self.peek()[0] != "end":
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                coeff, variables = self.term()
                terms.append(((-1 if value == "-" else 1) * coeff, variables))
            else:
                self.fail("'+' or '-' between terms")
        return terms


def parse_poly(text: str) -> MultilinearPoly:
    """Parse and validate a multilinear polynomial from text."""
    if not text or not text.strip():
        raise PolynomialSyntaxError("empty input", 1)
    terms = _Parser(text).poly()
    n = len(terms[0][1])
    expected = list(range(1, n + 1))
    coeffs = {}
    for coeff, variables in terms:
        if sorted(variables) != expected:
            monomial = "*".join(f"X{v}" for v in variables)
            raise MultilinearityError(
                f"monomial {monomial} must use X1..X{n} exactly once each"
            )
        key = tuple(variables)
        total = coeffs.get(key, 0) + coeff
        if total == 0:
            coeffs.pop(key, None)
        else:
            coeffs[key] = total
    return MultilinearPoly(n, coeffs)


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
    return tuple(sorted({int(part) for part in text.split(",")}))
