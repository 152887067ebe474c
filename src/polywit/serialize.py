"""JSON encodings for matrices, witnesses, and the polynomial types.

All scalar entries travel as exact rational strings ("3/2" or "7"), so
round trips never lose precision.  The decoders are a trust boundary:
shape and type problems raise DimensionError, and bad scalar literals
raise RationalLiteralError (a ValueError) from ``parse_rational``, which
rejects "1.5", "2e3" and "3/0".
"""

from __future__ import annotations

import re

from .construct import BRANCH_PI, BRANCH_REWRITE, ReductionStep
from .errors import DimensionError
from .matrices import Matrix, parse_rational
from .polynomials import AdmissiblePoly, MarkedPoly, group_marker_positions, pi_image
from .witness import WitnessAssignment

_INDEX_RE = re.compile(r"[1-9][0-9]*")


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DimensionError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DimensionError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int_list(value, what: str) -> list:
    return [_int(v, what) for v in _list(value, what)]


# ------------------------------------------------------------------ matrices


def matrix_to_json(m: Matrix) -> dict:
    return {"size": m.size, "rows": [[str(entry) for entry in row] for row in m.rows]}


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict) or "size" not in obj or "rows" not in obj:
        raise DimensionError("matrix object needs 'size' and 'rows'")
    size = obj["size"]
    rows = _list(obj["rows"], "matrix rows")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise DimensionError(f"matrix size must be a positive integer, got {size!r}")
    if len(rows) != size:
        raise DimensionError(f"expected {size} rows, got {len(rows)}")
    values = {}  # each distinct literal is parsed, and so checked, once
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != size:
            raise DimensionError(f"expected {size} entries per row")
        parsed_row = []
        for entry in row:
            text = str(entry)
            value = values.get(text)
            if value is None:
                value = values[text] = parse_rational(text)
            parsed_row.append(value)
        parsed.append(parsed_row)
    return Matrix._trusted(parsed)


# ----------------------------------------------------------------- witnesses


def witness_to_json(
    w: WitnessAssignment, target: Matrix, verified: bool
) -> dict:
    return {
        "s": w.size,
        "x": {str(i): matrix_to_json(m) for i, m in sorted(w.x_assign.items())},
        "u": {str(o): matrix_to_json(m) for o, m in sorted(w.u_assign.items())},
        "target": matrix_to_json(target),
        "verified": bool(verified),
        "trace": [dict(step) for step in w.trace],
    }


def _indexed_matrices(obj, label: str):
    if not isinstance(obj, dict):
        raise DimensionError(f"witness {label!r} must be an object")
    out = {}
    for key, doc in obj.items():
        # int() alone also takes "01", " 1" and "1_0", so two keys could
        # fill one slot, the last silently winning, or "1_0" could fill X10.
        if not (isinstance(key, str) and _INDEX_RE.fullmatch(key)):
            raise DimensionError(
                f"{label} index {key!r} must be a positive integer in canonical form"
            )
        out[int(key)] = matrix_from_json(doc)
    return out


def _clean_trace(raw) -> list:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise DimensionError("witness trace must be a list")
    steps = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"k", "omegabar", "branch"}:
            raise DimensionError(
                "trace steps need exactly the keys k, omegabar, branch"
            )
        k = _int(entry["k"], "trace k")
        omegabar = _int_list(entry["omegabar"], "trace omegabar")
        branch = entry["branch"]
        if k < 0:
            raise DimensionError(f"trace k must be nonnegative, got {k}")
        if len(omegabar) != k or any(x >= y for x, y in zip(omegabar, omegabar[1:])):
            raise DimensionError(
                f"trace omegabar {omegabar} must be {k} strictly increasing indices"
            )
        # A step is taken at a level with n >= 2 variables, and commuting
        # indices exceed n there.
        if omegabar and omegabar[0] < 3:
            raise DimensionError(
                f"trace omegabar {omegabar} names U{omegabar[0]}; "
                "commuting indices are at least 3"
            )
        if not isinstance(branch, str) or branch not in (BRANCH_PI, BRANCH_REWRITE):
            raise DimensionError(
                f"trace branch must be {BRANCH_PI!r} or {BRANCH_REWRITE!r}, "
                f"got {branch!r}"
            )
        steps.append({"k": k, "omegabar": omegabar, "branch": branch})
    return steps


def witness_from_json(obj):
    """Decode a witness document to (assignment, target, verified flag)."""
    if not isinstance(obj, dict):
        raise DimensionError("witness document must be an object")
    missing = {"s", "x", "u", "target", "verified"} - set(obj)
    if missing:
        raise DimensionError(f"witness document missing {sorted(missing)}")
    size = obj["s"]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise DimensionError(f"witness size must be a positive integer, got {size!r}")
    w = WitnessAssignment(
        size,
        _indexed_matrices(obj["x"], "x"),
        _indexed_matrices(obj["u"], "u"),
        trace=_clean_trace(obj.get("trace")),
    )
    target = matrix_from_json(obj["target"])
    verified = obj["verified"]
    if not isinstance(verified, bool):
        raise DimensionError(
            f"witness verified flag must be a boolean, got {type(verified).__name__}"
        )
    return w, target, verified


# --------------------------------------------------------------- polynomials


def admissible_to_json(f: AdmissiblePoly) -> list:
    return [
        {
            "sigma": list(sigma),
            "parts": [list(p) for p in parts],
            "coeff": str(lam),
        }
        for (sigma, parts), lam in f.items_sorted()
    ]


def marked_to_json(g: MarkedPoly) -> dict:
    return {
        "n": g.n,
        "omega": list(g.omega),
        "omegabar": list(g.omegabar),
        "terms": [
            {
                "sigma": list(sigma),
                "j": j,
                "parts": [list(p) for p in parts],
                "coeff": str(lam),
            }
            for (sigma, j, parts), lam in g.items_sorted()
        ],
    }


def reduction_to_json(f: AdmissiblePoly, step: ReductionStep) -> dict:
    """The level ``step`` took from f.  The marked form and its
    marker-to-1 image are read off the grouping pass ``reduce_step``
    made; on the rewrite branch the rewrite is ``step.reduced``."""
    groups = group_marker_positions(f, step.v, step.omegabar)
    marked = MarkedPoly._trusted(
        f.n,
        f.omega,
        step.omegabar,
        {
            (tau, j, head + (step.omegabar,)): lam
            for (tau, head), row in groups.items()
            for j, lam in enumerate(row)
            if lam
        },
    )
    omega = tuple(w for w in f.omega if w not in step.omegabar)
    return {
        "v": step.v,
        "k": step.k,
        "omegabar": list(step.omegabar),
        "branch": step.branch,
        "g": marked_to_json(marked),
        "pi_of_g": admissible_to_json(pi_image(groups, f.n, omega)),
        "rewritten": (
            None if step.branch == BRANCH_PI else admissible_to_json(step.reduced)
        ),
    }
