"""Workload definitions and input generation for the polywit benchmark.

Polynomials are written as text and targets as matrix JSON, exactly what
`polywit witness` reads; the program sees only these generated inputs.
Each workload seed fixes every target through `random_trace_zero`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass


def _signed_terms(terms) -> str:
    """Text for a sum of (integer coefficient, variable word) pairs."""
    pieces = []
    for coeff, word in terms:
        body = "*".join(f"X{v}" for v in word)
        if abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces or sign == "-" else body)
    return " ".join(pieces)


def _sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def standard_text(n: int) -> str:
    """s_n: the alternating sum of X_sigma(1)...X_sigma(n) over all sigma."""
    perms = itertools.permutations(range(1, n + 1))
    return _signed_terms((_sign(p), p) for p in perms)


def lie_text(n: int) -> str:
    """The left-normed Lie monomial [[..[[X1,X2],X3]..],Xn], expanded."""
    terms = {(1,): 1}
    for k in range(2, n + 1):
        grown = {}
        for word, c in terms.items():
            grown[word + (k,)] = grown.get(word + (k,), 0) + c
            grown[(k,) + word] = grown.get((k,) + word, 0) - c
        terms = grown
    return _signed_terms((c, w) for w, c in sorted(terms.items()))


def poly_text(poly: str) -> str:
    """Text of a polynomial named like "s_5" or "lie_8"."""
    family, n = poly.split("_")
    return {"s": standard_text, "lie": lie_text}[family](int(n))


# Golden recursion traces, one (k, omegabar, branch) triple per level, top
# level first.  The trace depends only on the polynomial, so a change here
# means the reduction changed, which the benchmark treats as a failure.
_R = (0, (), "rewrite")
_P = (0, (), "pi")
_STANDARD_TRACES = {
    3: [_P, _R],
    4: [_R, _R, (1, (3,), "pi")],
    5: [_P, _R, _R, (1, (3,), "pi")],
    6: [_R, _R, _R, (1, (4,), "pi"), (1, (5,), "pi")],
    7: [_P, _R, _R, _R, (1, (4,), "pi"), (1, (5,), "pi")],
    8: [_R, _R, _R, _R, (1, (5,), "pi"), (1, (6,), "pi"), (1, (7,), "pi")],
}


def golden_trace(poly: str):
    family, n = poly.split("_")
    if family == "lie":
        # Every level of a left-normed Lie monomial rewrites at k=0.
        return [_R] * (int(n) - 1)
    return _STANDARD_TRACES[int(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    verified: bool
    # (polynomial, target sizes, targets per size)
    groups: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # Verify through evaluate and Matrix.__mul__ dominates; construct
        # still reaches the (pi, k=1) lift.
        Workload("sn-verify", True, (("s_4", (2, 3, 4), 2), ("s_5", (2, 3, 4), 2))),
        # hollow_similarity and inverse dominate construct and entries grow
        # to thousands of bits.  [[X1,X2],X3] at d=20 (about 27 s) is left
        # out: one case would be over half of every run.
        Workload(
            "wide-target", True, (("lie_2", (8, 12, 16, 20), 1), ("lie_3", (8, 12, 16), 1))
        ),
        # reduce_step and its polynomial helpers dominate; every level
        # takes the rewrite branch.
        Workload("lie-deep", True, tuple((f"lie_{n}", (2, 3), 1) for n in (8, 9, 10))),
        # `witness --no-verify`: the U-commutation check and the k=1 lift at
        # sizes no verified workload can afford.
        Workload("sn-construct", False, tuple((f"s_{n}", (2, 3), 1) for n in (6, 7, 8))),
        # Tiny list for the smoke test; not part of BENCHMARK.json.
        Workload("smoke", True, (("s_3", (3,), 1), ("lie_2", (4,), 1), ("lie_4", (3,), 1))),
    )
}


@dataclass(frozen=True)
class Case:
    label: str
    poly: str
    d: int
    poly_text: str
    target_text: str


def make_cases(program, workload: Workload, seed: int):
    """Generate the workload's inputs and parse each once to validate them.

    ``program`` is the imported polywit package together with its serialize
    module; targets come from its own seeded generator.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    texts = {}
    cases = []
    for poly, sizes, per_size in workload.groups:
        if poly not in texts:
            texts[poly] = poly_text(poly)
            program.parse_poly(texts[poly])
        for d in sizes:
            for _ in range(per_size):
                target_seed = rng.randrange(2**31)
                target = program.random_trace_zero(d, seed=target_seed)
                target_text = json.dumps(program.serialize.matrix_to_json(target))
                program.serialize.matrix_from_json(json.loads(target_text))
                label = f"{poly}/d={d}/t={target_seed}"
                cases.append(Case(label, poly, d, texts[poly], target_text))
    return cases
