"""In-memory span tracing for the benchmark's traced run.

The program is not instrumented.  Instead, while a traced pass runs, the
public functions of each layer are replaced by wrappers that record a span
per call: name, start, end, parent span, case id, and how many spans of the
same name were already open (0 means outermost, so recursive layers are
not counted twice in busy time).  Every name is patched in the namespace
where the program looks it up: construct.py and harness.py bind their
imports at import time, so wrapping ``polywit.polynomials.marked_form``
alone would never see the calls made from ``construct``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

clock = time.perf_counter

NAME, START, END, PARENT, CASE, DEPTH = range(6)


class Tracer:
    """Spans, computed counts and recursion-level records of one pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = {}
        self.case = None
        self.counts = {}
        self.levels = []

    def wrap(self, name, fn, count=None, record=None):
        """``fn`` recording a span per call.

        ``count(args, result)`` adds to ``counts[name]``; ``record(args,
        result, span)`` runs after the span closes.  Neither is timed.
        """
        spans, stack, open_ = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, depth]
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                open_[name] = depth
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(args, result)
            if record is not None:
                record(args, result, span)
            return result

        return traced

    def record_level(self, args, w, span):
        """One record per construct_witness level: the ROADMAP's telemetry."""
        f = args[0]
        top = w.trace[0] if f.n > 1 else {"k": None, "branch": "base"}
        self.levels.append(
            {
                "case": span[CASE],
                "depth": span[DEPTH],
                "n": f.n,
                "terms": len(f.coeffs),
                "k": top["k"],
                "branch": top["branch"],
                "size": w.size,
                "ms": (span[END] - span[START]) * 1000.0,
            }
        )

    # ------------------------------------------------------------- analysis

    def self_times(self):
        """Duration of each span minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def layer_totals(self):
        """name -> (calls, busy seconds, self seconds) within case spans.

        Only spans under a ``bench.case`` root count, so the correctness
        gate's calls into the program are left out.

        Spans are appended when they open, so a parent precedes its
        children and each span's root is known when it is reached.
        """
        totals = {}
        roots = []
        for span, own in zip(self.spans, self.self_times()):
            parent = span[PARENT]
            roots.append(span[NAME] if parent < 0 else roots[parent])
            if roots[-1] != "bench.case":
                continue
            calls, busy, self_s = totals.get(span[NAME], (0, 0.0, 0.0))
            if span[DEPTH] == 0:
                busy += span[END] - span[START]
            totals[span[NAME]] = (calls + 1, busy, self_s + own)
        return totals


def _mul_ops(args, result):
    return 0 if result is NotImplemented else args[0].size ** 3


def _targets(tracer):
    """(owner, attribute, span name, count, record) for every patched name."""
    construct = sys.modules["polywit.construct"]
    polynomials = sys.modules["polywit.polynomials"]
    harness = sys.modules["polywit.harness"]
    matrices = sys.modules["polywit.matrices"]
    witness = sys.modules["polywit.witness"]
    levels = tracer.record_level
    return [
        (construct, "construct_witness", "construct.construct_witness", None, levels),
        (construct, "reduce_step", "construct.reduce_step", None, None),
        (construct, "lift_witness", "construct.lift_witness", None, None),
        (construct, "base_case_witness", "construct.base_case_witness", None, None),
        (construct, "hollow_similarity", "construct.hollow_similarity", None, None),
        (construct, "inverse", "matrices.inverse", None, None),
        (construct, "rank_of_rows", "matrices.rank_of_rows", None, None),
        (construct, "embed", "matrices.embed", None, None),
        (construct, "block_flatten", "matrices.block_flatten", None, None),
        (construct, "block_unit", "matrices.block_unit", None, None),
        (construct, "block_diagonal", "matrices.block_diagonal", None, None),
        (construct, "cyclic_shift", "matrices.cyclic_shift", None, None),
        (construct, "from_multilinear", "polynomials.from_multilinear", None, None),
        (construct, "reindex_by_position", "polynomials.reindex_by_position", None, None),
        (construct, "min_k_and_omegabar", "polynomials.min_k_and_omegabar", None, None),
        (construct, "marked_form", "polynomials.marked_form", None, None),
        (construct, "marker_at_one", "polynomials.marker_at_one", None, None),
        (construct, "marker_into_brackets", "polynomials.marker_into_brackets", None, None),
        # marker_into_brackets calls marker_at_one through its own module.
        (polynomials, "marker_at_one", "polynomials.marker_at_one", None, None),
        (harness, "evaluate", "polynomials.evaluate", None, None),
        (matrices.Matrix, "__mul__", "matrices.mul", _mul_ops, None),
        (witness.WitnessAssignment, "__init__", "witness.assignment", None, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Patch every traced name for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count, record in _targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count, record))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
