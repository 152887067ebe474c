"""Verification and self-checking on top of the construction engine.

``verify`` re-checks a witness exactly, in integer arithmetic, without
calling the constructor, ``evaluate`` or any ``Matrix`` arithmetic; the
dense ``Fraction`` evaluator ``polynomials.evaluate`` is the oracle it is
tested against.  ``selftest`` runs the randomized suites used to keep
the engine honest and returns a printable summary.
"""

from __future__ import annotations

import dataclasses
import math
import time

from .construct import (
    construct_witness,
    hollow_similarity,
    lift_witness,
    shift_bracket_closed_form,
    size_bound,
    witness_for_multilinear,
)
from .errors import PreconditionError
from .matrices import Matrix, embed, height, inverse, iterated_commutator
from .parsing import poly_to_str
from .polynomials import (
    MultilinearPoly,
    evaluate,
    from_multilinear,
    marker_at_one,
    marker_into_brackets,
    merge_position_index,
)
from .randgen import (
    random_bracket,
    random_commuting_assignment,
    random_marked,
    random_marked_pi_zero,
    random_multilinear,
    random_trace_zero,
)
from .witness import WitnessAssignment


def verify(f: MultilinearPoly, w: WitnessAssignment, a: Matrix) -> bool:
    """True iff f evaluated on the witness equals the target embedded top-left.

    f is multilinear, so f(c_1 X_1, ..., c_n X_n) = c_1...c_n f(X).  Each
    X_i is scaled by the LCM c_i of its entry denominators and the
    coefficients by the LCM L of theirs, which makes every number an
    ``int``; the scaled value is compared with c_1...c_n L times the
    embedded target.  The value is built one column e_j at a time, right
    to left, with sparse matrix-vector products over a trie of the
    reversed words, so words sharing a suffix share its products and a
    suffix that maps e_j to zero is dropped with every word ending in it.
    """
    if w.size < a.size:
        return False
    scale = math.lcm(*(lam.denominator for lam in f.coeffs.values()))
    trie = {}
    for sigma, lam in f.coeffs.items():
        node = trie
        for var in reversed(sigma[1:]):
            node = node.setdefault(var, {})
        node[sigma[0]] = lam.numerator * (scale // lam.denominator)
    cols = {}
    for var in sorted({v for sigma in f.coeffs for v in sigma}):
        rows = w.x(var).rows
        lcm = math.lcm(*(x.denominator for row in rows for x in row))
        cols[var] = [
            [(r, x.numerator * (lcm // x.denominator)) for r, x in enumerate(col) if x]
            for col in zip(*rows)
        ]
        scale *= lcm
    for j in range(w.size):
        got = {}
        _accumulate(trie, cols, {j: 1}, got)
        target = [row[j] for row in a.rows] if j < a.size else []
        want = {r: x * scale for r, x in enumerate(target) if x}
        if {r: y for r, y in got.items() if y} != want:
            return False
    return True


def _accumulate(node, cols, vec, out):
    """Add to ``out`` the sum, over the words below ``node``, of the word's
    coefficient times the word applied to ``vec``.

    Vectors are sparse {index: int} maps and ``cols[var]`` lists each
    column of X_var as (row, int) pairs.
    """
    for var, child in node.items():
        x_cols = cols[var]
        prod = {}
        for c, v in vec.items():
            for r, x in x_cols[c]:
                prod[r] = prod.get(r, 0) + x * v
        prod = {r: y for r, y in prod.items() if y}
        if not prod:
            continue
        if isinstance(child, dict):
            _accumulate(child, cols, prod, out)
        else:
            for r, y in prod.items():
                out[r] = out.get(r, 0) + child * y


@dataclasses.dataclass
class RunReport:
    """Summary of one construction run.

    ``wall_time`` covers construction and verification together;
    ``construct_s`` and ``verify_s`` split it (``verify_s`` is 0 when
    verification was skipped).  ``max_bits`` is the largest numerator or
    denominator bit length over every X and U entry, and ``density`` the
    share of those entries that are nonzero.
    """

    poly: str
    d: int
    s: int
    verified: bool
    wall_time: float
    construct_s: float
    verify_s: float
    trace: list
    max_bits: int
    density: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "field": "rationals"}


def run_witness(f: MultilinearPoly, a: Matrix, do_verify: bool = True):
    """Construct a witness and report on it.

    With do_verify off the report carries verified=False, because the
    claim was not checked, not because it failed.
    """
    start = time.perf_counter()
    s, w = witness_for_multilinear(f, a)
    built = time.perf_counter()
    verified = verify(f, w, a) if do_verify else False
    done = time.perf_counter()
    report = RunReport(
        poly=poly_to_str(f),
        d=a.size,
        s=s,
        verified=verified,
        wall_time=done - start,
        construct_s=built - start,
        verify_s=done - built,
        trace=list(w.trace),
        **_witness_stats(w),
    )
    return w, report


def _witness_stats(w: WitnessAssignment) -> dict:
    """``max_bits`` and ``density`` of a witness's X and U entries."""
    entries = [
        x
        for m in (*w.x_assign.values(), *w.u_assign.values())
        for row in m.rows
        for x in row
    ]
    return {
        "max_bits": max(map(height, entries)),
        "density": sum(1 for x in entries if x) / len(entries),
    }


# ------------------------------------------------------------------ selftest


def _check_witness(i: int, seed: int) -> bool:
    n = 1 + i % 3
    d = 1 + (i // 3) % 3
    f = random_multilinear(n, density=0.7, seed=seed)
    a = random_trace_zero(d, seed=seed + 1)
    s, w = witness_for_multilinear(f, a)
    return verify(f, w, a) and s <= size_bound(d, w.trace)


def _check_integer_verify(i: int, seed: int) -> bool:
    f = random_multilinear(1 + i % 4, density=0.7, seed=seed)
    a = random_trace_zero(1 + (i // 4) % 3, seed=seed + 1)
    _, w = witness_for_multilinear(f, a)
    rows = [list(row) for row in a.rows]
    rows[-1][0] += 1
    targets = (a, Matrix(rows))
    value = evaluate(f, w)
    oracle = [value == embed(t, w.size) for t in targets]
    return oracle == [True, False] and [verify(f, w, t) for t in targets] == oracle


def _check_integer_reduction(i: int, seed: int) -> bool:
    n = 1 + i % 4
    d = 1 + (i // 4) % 3
    if n > 1 and i % 2:
        f = random_bracket(n, density=0.7, seed=seed)
    else:
        f = random_multilinear(n, density=0.7, seed=seed)
    # No numerator the generator draws is a multiple of 7, so some
    # coefficient is fractional and the entry point really rescales.
    f = MultilinearPoly(n, {sigma: lam / 7 for sigma, lam in f.coeffs.items()})
    a = random_trace_zero(d, seed=seed + 1)
    _, w = witness_for_multilinear(f, a)
    ref = construct_witness(from_multilinear(f), a)
    return (
        w.size == ref.size
        and w.x_assign == ref.x_assign
        and w.u_assign == ref.u_assign
        and w.trace == ref.trace
    )


def _check_hollow(i: int, seed: int) -> bool:
    d = 1 + i % 6
    a = random_trace_zero(d, seed=seed)
    p, p_inv, h = hollow_similarity(a)
    return (
        h.has_zero_diagonal()
        and h == p * embed(a, d + 1) * p_inv
        and p_inv == inverse(p)
    )


def _check_shift_bracket(i: int, seed: int) -> bool:
    k = i % 7
    j = i % (k + 1)
    got = shift_bracket_closed_form(k, j)
    v = sum(
        (Matrix.unit(k + 1, r, r + 1) for r in range(1, k + 1)),
        Matrix.unit(k + 1, k + 1, 1),
    )
    want = iterated_commutator([v] * j, Matrix.unit(k + 1, k + 1, 1))
    return got == want


_MARKED_SHAPES = [
    (2, (3,), ()),
    (2, (3,), (3,)),
    (2, (3, 4), (4,)),
    (3, (4,), (4,)),
    (3, (4, 5), (4, 5)),
]


def _check_marker_image(i: int, seed: int) -> bool:
    n, omega, omegabar = _MARKED_SHAPES[i % len(_MARKED_SHAPES)]
    g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
    rest = tuple(w for w in omega if w not in omegabar)
    w = random_commuting_assignment(
        range(1, n), rest + (n,), size=2 + i % 2, seed=seed + 1
    )
    w_id = w.with_u(n, Matrix.identity(w.size))
    return evaluate(marker_at_one(g), w) == evaluate(g, w_id)


def _check_bracket_rewrite(i: int, seed: int) -> bool:
    n, omega, omegabar = _MARKED_SHAPES[i % len(_MARKED_SHAPES)]
    g = random_marked_pi_zero(n, omega, omegabar, density=0.8, seed=seed)
    rest = tuple(w for w in omega if w not in omegabar)
    w = random_commuting_assignment(
        range(1, n), rest + (n,), size=2 + i % 2, seed=seed + 1
    )
    return evaluate(marker_into_brackets(g), w) == evaluate(g, w)


def _check_lift(i: int, seed: int) -> bool:
    n, omega, omegabar = _MARKED_SHAPES[i % len(_MARKED_SHAPES)]
    g = random_marked(n, omega, omegabar, density=0.6, seed=seed)
    rest = tuple(w for w in omega if w not in omegabar)
    gw = random_commuting_assignment(
        range(1, n), rest + (n,), size=2 + i % 2, seed=seed + 1
    )
    k = len(omegabar)
    parent = merge_position_index(n, omega, dict(g.coeffs))
    lifted = lift_witness(gw, k, omegabar, omega, n)
    return evaluate(parent, lifted) == embed(evaluate(g, gw), (k + 1) * gw.size)


_SUITES = [
    ("witness construction", _check_witness),
    ("integer verify", _check_integer_verify),
    ("integer reduction", _check_integer_reduction),
    ("hollow similarity", _check_hollow),
    ("shift bracket form", _check_shift_bracket),
    ("marker image", _check_marker_image),
    ("bracket rewrite", _check_bracket_rewrite),
    ("block lift", _check_lift),
]


def selftest(cases: int = 25, seed: int = 0):
    """Run every suite ``cases`` times; returns (all passed, table rows).

    Rows are (suite name, runs, failures, first failure).  A failure is a
    returned False or an unexpected exception; either means the engine is
    wrong.  The first failure is None or (case index, case seed, detail),
    where detail is the exception's repr or "returned False".  Fewer
    than one case raises PreconditionError: it would pass having checked
    nothing.
    """
    if cases < 1:
        raise PreconditionError(f"selftest needs at least one case, got {cases}")
    rows = []
    all_ok = True
    for name, check in _SUITES:
        failures = 0
        first = None
        for i in range(cases):
            case_seed = seed * 100003 + i * 257
            try:
                detail = None if check(i, case_seed) else "returned False"
            except Exception as exc:
                detail = repr(exc)
            if detail is not None:
                failures += 1
                first = first or (i, case_seed, detail)
        rows.append((name, cases, failures, first))
        all_ok = all_ok and failures == 0
    return all_ok, rows


def format_selftest(rows) -> str:
    width = max(len(row[0]) for row in rows)
    lines = [f"{'suite'.ljust(width)}  runs  failures"]
    for name, runs, failures, _ in rows:
        lines.append(f"{name.ljust(width)}  {runs:4d}  {failures:8d}")
    for name, _, _, first in rows:
        if first is not None:
            i, case_seed, detail = first
            lines.append(
                f"{name}: first failure at case {i}, seed {case_seed}: {detail}"
            )
    return "\n".join(lines)
