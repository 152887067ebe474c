"""polywit benchmark: one workload per invocation, untraced or traced.

    python3 bench/run.py --workload sn-verify --seed 1 --seconds 20 --trace 0

Each case does what `polywit witness` does: parse_poly on the polynomial
text, matrix_from_json on the target, witness_for_multilinear, verify
(except on sn-construct, the `--no-verify` mode), witness_to_json and
json.dumps.  The loop is closed and single-threaded: a case starts when
the previous one has finished.  The fixed case list runs in whole passes
until --seconds have elapsed, and times are medians over passes.

Every case then passes a correctness gate: verify returned true, s is
within size_bound, the trace equals the golden trace, and the witness
document round-trips through witness_from_json, which re-checks that the
U's commute.  Each verified workload also runs one negative control.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, the per-layer metrics
come from the traced passes, and the spans and per-level recursion
records are written to bench/out/.  See bench/NOTES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Compile the program from source on every import, whatever bytecode
# caches the checkout holds, so set-up time does not depend on them; and
# write no caches under src/ or bench/.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(Path(__file__).resolve().parent / "out" / "no-pycache")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, golden_trace, make_cases  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up repeats at least SETUP_REPEATS times and for SETUP_SECONDS, so
# that the median of a cheap set-up spans more than a moment's load.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

clock = time.perf_counter

# Span names for the functions the benchmark calls itself.
CALL_SITE_SPANS = {
    "parse_poly": "parsing.parse_poly",
    "loads": "json.loads",
    "matrix_from_json": "serialize.matrix_from_json",
    "witness_for_multilinear": "construct.witness_for_multilinear",
    "verify": "harness.verify",
    "witness_to_json": "serialize.witness_to_json",
    "dumps": "json.dumps",
    "witness_from_json": "serialize.witness_from_json",
}

# (metric, span name, statistic, unit); "busy" is the time covered by the
# outermost spans of that name, so recursive layers count once.
LAYER_METRICS = [
    ("bench.case.s", "bench.case", "busy", "s"),
    ("harness.verify.s", "harness.verify", "busy", "s"),
    ("polynomials.evaluate.calls", "polynomials.evaluate", "calls", "count"),
    ("polynomials.evaluate.s", "polynomials.evaluate", "busy", "s"),
    ("matrices.mul.calls", "matrices.mul", "calls", "count"),
    ("matrices.mul.s", "matrices.mul", "busy", "s"),
    (
        "construct.witness_for_multilinear.s",
        "construct.witness_for_multilinear",
        "busy",
        "s",
    ),
    ("construct.hollow_similarity.s", "construct.hollow_similarity", "busy", "s"),
    ("construct.base_case_witness.s", "construct.base_case_witness", "busy", "s"),
    ("matrices.inverse.calls", "matrices.inverse", "calls", "count"),
    ("matrices.inverse.s", "matrices.inverse", "busy", "s"),
    ("construct.reduce_step.calls", "construct.reduce_step", "calls", "count"),
    ("construct.reduce_step.s", "construct.reduce_step", "busy", "s"),
    ("polynomials.reindex_by_position.s", "polynomials.reindex_by_position", "busy", "s"),
    ("polynomials.marked_form.s", "polynomials.marked_form", "busy", "s"),
    ("polynomials.marker_at_one.s", "polynomials.marker_at_one", "busy", "s"),
    ("polynomials.marker_into_brackets.s", "polynomials.marker_into_brackets", "busy", "s"),
    ("polynomials.from_multilinear.s", "polynomials.from_multilinear", "busy", "s"),
    ("witness.assignment.calls", "witness.assignment", "calls", "count"),
    ("witness.assignment.s", "witness.assignment", "busy", "s"),
    ("construct.lift_witness.calls", "construct.lift_witness", "calls", "count"),
    ("construct.lift_witness.s", "construct.lift_witness", "busy", "s"),
    ("serialize.witness_to_json.s", "serialize.witness_to_json", "busy", "s"),
    ("parsing.parse_poly.s", "parsing.parse_poly", "busy", "s"),
]


# ------------------------------------------------------------------ set-up


def load_program():
    """Import polywit afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "polywit" or m.startswith("polywit.")]:
        del sys.modules[name]
    program = importlib.import_module("polywit")
    importlib.import_module("polywit.serialize")
    return program


def set_up(workload, seed):
    """Import polywit and generate and parse the inputs, repeatedly.

    Returns the last program and case list and the median set-up time.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        program = cases = None
        gc.collect()
        start = clock()
        program = load_program()
        cases = make_cases(program, workload, seed)
        times.append(clock() - start)
    return program, cases, statistics.median(times)


def program_api(program):
    """The public functions a case calls, by the names run_case uses."""
    ser = program.serialize
    return SimpleNamespace(
        parse_poly=program.parse_poly,
        loads=json.loads,
        matrix_from_json=ser.matrix_from_json,
        witness_for_multilinear=program.witness_for_multilinear,
        verify=program.verify,
        witness_to_json=ser.witness_to_json,
        dumps=json.dumps,
        witness_from_json=ser.witness_from_json,
    )


# ------------------------------------------------------------------- cases


@dataclass
class Outcome:
    a: object
    s: int
    w: object
    ok: bool
    doc: str
    construct_s: float
    verify_s: float
    total_s: float


def run_case(api, case, verified):
    """The work of `polywit witness` on one case, timed by phase."""
    t0 = clock()
    f = api.parse_poly(case.poly_text)
    a = api.matrix_from_json(api.loads(case.target_text))
    t1 = clock()
    s, w = api.witness_for_multilinear(f, a)
    t2 = clock()
    ok = api.verify(f, w, a) if verified else False
    t3 = clock()
    doc = api.dumps(api.witness_to_json(w, a, ok), indent=2)
    t4 = clock()
    return Outcome(a, s, w, ok, doc, t2 - t1, t3 - t2, t4 - t0)


def check_case(api, program, case, out, verified):
    """Correctness gate; returns (problems, seconds in witness_from_json)."""
    problems = []
    if verified and not out.ok:
        problems.append("verify returned false")
    if out.s != out.w.size or out.s > program.size_bound(case.d, out.w.trace):
        problems.append(f"size {out.s} breaks size_bound for trace {out.w.trace}")
    trace = [(e["k"], tuple(e["omegabar"]), e["branch"]) for e in out.w.trace]
    if trace != golden_trace(case.poly):
        problems.append(f"trace {trace} differs from the golden trace")
    start = clock()
    w2, a2, flag = api.witness_from_json(api.loads(out.doc))
    seconds = clock() - start
    if (w2, w2.trace, a2, flag) != (out.w, out.w.trace, out.a, out.ok):
        problems.append("witness document does not round-trip")
    return problems, seconds


def exact_counts(out):
    """(s, largest numerator or denominator bit length, document bytes)."""
    w = out.w
    bits = max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for m in (*w.x_assign.values(), *w.u_assign.values())
        for row in m.rows
        for x in row
    )
    return out.s, bits, len(out.doc.encode())


def negative_control(program, case):
    """True iff the first case's witness is rejected for a perturbed target."""
    f = program.parse_poly(case.poly_text)
    a = program.serialize.matrix_from_json(json.loads(case.target_text))
    _, w = program.witness_for_multilinear(f, a)
    rows = [list(row) for row in a.rows]
    rows[0][1] += 1
    return not program.verify(f, w, program.Matrix(rows))


# ------------------------------------------------------------------ passes


@dataclass
class Pass:
    tracer: object = None
    wall_s: float = 0.0
    case_s: float = 0.0
    construct_s: float = 0.0
    check_s: float = 0.0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_pass(program, cases, verified, tracer=None):
    api = program_api(program)
    case_fn, gate_fn = run_case, check_case
    if tracer is not None:
        api = SimpleNamespace(
            **{k: tracer.wrap(CALL_SITE_SPANS[k], fn) for k, fn in vars(api).items()}
        )
        case_fn = tracer.wrap("bench.case", run_case)
        gate_fn = tracer.wrap("bench.gate", check_case)
    result = Pass(tracer)
    gc.collect()
    start = clock()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        out = None  # free the previous case's witness before this case runs
        try:
            out = case_fn(api, case, verified)
            problems, roundtrip_s = gate_fn(api, program, case, out, verified)
        except Exception:
            problems = [traceback.format_exc()]
        else:
            result.case_s += out.total_s
            result.construct_s += out.construct_s
            result.check_s += out.verify_s + roundtrip_s
            result.counts[case.label] = exact_counts(out)
        if problems:
            result.failures.append((case.label, problems))
    result.wall_s = clock() - start
    return result


def run_passes(program, cases, verified, seconds, traced):
    """Whole passes while the next is expected to end within ``seconds``.

    There is always one pass.  When traced, untraced and traced passes
    alternate and there are at least one of each; the untraced ones
    measure the tracing overhead.
    """
    passes = []
    deadline = clock() + seconds

    def next_pass_fits():
        same_kind = passes[-2] if traced else passes[-1]
        return clock() + same_kind.wall_s <= deadline

    while not passes or (traced and len(passes) < 2) or next_pass_fits():
        if traced and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                passes.append(run_pass(program, cases, verified, tracer))
        else:
            passes.append(run_pass(program, cases, verified))
    return passes


# ----------------------------------------------------------------- metrics


def end_to_end(passes, cases, setup_s, attempted, failed):
    counts = list(passes[0].counts.values())
    done = [p for p in passes if p.case_s > 0]
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (statistics.median(len(cases) / p.case_s for p in done), "1/s"),
        "construct_s": (statistics.median(p.construct_s for p in done), "s"),
        "check_s": (statistics.median(p.check_s for p in done), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "witness_bytes": (sum(c[2] for c in counts), "B"),
        "s_total": (sum(c[0] for c in counts), "count"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }


def pass_layers(p):
    tracer = p.tracer
    totals = tracer.layer_totals()
    out = {}
    for metric, span, stat, unit in LAYER_METRICS:
        calls, busy, _ = totals.get(span, (0, 0.0, 0.0))
        out[metric] = (calls if stat == "calls" else busy, unit)
    out["matrices.mul.scalar_ops"] = (tracer.counts.get("matrices.mul", 0), "count")
    out["polynomials.terms_per_level"] = (sum(r["terms"] for r in tracer.levels), "count")
    out["witness.max_bits"] = (max((c[1] for c in p.counts.values()), default=0), "bits")
    return out


def per_layer(passes):
    """Median times over traced passes; counts, which repeat, from the first."""
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    layers = [pass_layers(p) for p in traced]
    out = {
        name: (
            statistics.median(layer[name][0] for layer in layers) if unit == "s" else value,
            unit,
        )
        for name, (value, unit) in layers[0].items()
    }
    base = statistics.median(p.wall_s for p in untraced)
    with_tracing = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_frac"] = ((with_tracing - base) / base, "ratio")
    return out


# ----------------------------------------------------------------- reports


def write_trace(workload, seed, cases, passes, overhead):
    """Write every traced pass's spans (with self time) and level records."""
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "cases": [c.label for c in cases],
        "span_fields": ["name", "start", "end", "parent", "case", "depth", "self"],
        "overhead_frac": overhead,
        "passes": [
            {
                "wall_s": p.wall_s,
                "spans": [
                    span + [own] for span, own in zip(p.tracer.spans, p.tracer.self_times())
                ],
                "levels": p.tracer.levels,
            }
            for p in passes
            if p.tracer is not None
        ],
    }
    path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    path.write_text(json.dumps(doc))
    return path


def print_trace_summary(cases, passes, layers, path):
    """Busy shares, self times and recursion levels, on stderr."""
    err = sys.stderr
    tracer = next(p.tracer for p in passes if p.tracer is not None)
    case_busy = layers["bench.case.s"][0] or 1.0
    print("layer busy time (median over traced passes), share of case time:", file=err)
    busy = [m[0] for m in LAYER_METRICS if m[2] == "busy" and m[0] != "bench.case.s"]
    for metric in sorted(busy, key=lambda m: -layers[m][0]):
        value = layers[metric][0]
        print(f"  {metric:40s} {value:10.4f} s {100 * value / case_busy:6.1f} %", file=err)
    print("self time by span (first traced pass):", file=err)
    totals = tracer.layer_totals()
    for name, (calls, _, own) in sorted(totals.items(), key=lambda kv: -kv[1][2])[:12]:
        print(f"  {name:40s} {own:10.4f} s {calls:9d} calls", file=err)
    print("recursion levels (first traced pass):", file=err)
    print(
        f"  {'case':28s} {'depth':>5} {'n':>3} {'terms':>7} {'k':>2} {'branch':8s} "
        f"{'size':>4} {'ms':>10}",
        file=err,
    )
    for r in sorted(tracer.levels, key=lambda r: (r["case"], r["depth"])):
        k = "-" if r["k"] is None else r["k"]
        print(
            f"  {cases[r['case']].label:28s} {r['depth']:5d} {r['n']:3d} {r['terms']:7d} "
            f"{k:>2} {r['branch']:8s} {r['size']:4d} {r['ms']:10.2f}",
            file=err,
        )
    overhead = layers["trace.overhead_frac"][0]
    print(f"tracing overhead {overhead:+.3f}; spans in {path}", file=err)


# -------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polywit" / "__init__.py").is_file():
        print(f"error: no polywit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    program, cases, setup_s = set_up(workload, args.seed)
    control_ok = True
    if workload.verified:
        control_ok = negative_control(program, cases[0])
        verdict = "rejected" if control_ok else "ACCEPTED (verification is broken)"
        print(f"negative control {cases[0].label}, entry (1,2) + 1: {verdict}")

    passes = run_passes(program, cases, workload.verified, args.seconds, args.trace == 1)
    for label, problems in passes[0].failures:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    if not any(p.case_s for p in passes):
        print("error: no case completed, so nothing was measured", file=sys.stderr)
        return 1
    attempted = len(passes) * len(cases)
    failed = sum(len(p.failures) for p in passes)
    counts_repeat = all(p.counts == passes[0].counts for p in passes)
    if not counts_repeat:
        print("FAILED: exact counts differ between passes", file=sys.stderr)
    walls = sorted(p.wall_s for p in passes)
    print(
        f"{workload.name} seed {args.seed}: {len(cases)} cases x {len(passes)} passes, "
        f"pass wall min {walls[0]:.3f} median {statistics.median(walls):.3f} "
        f"max {walls[-1]:.3f} s",
        file=sys.stderr,
    )

    if args.trace:
        metrics = per_layer(passes)
        overhead = metrics["trace.overhead_frac"][0]
        path = write_trace(workload, args.seed, cases, passes, overhead)
        print_trace_summary(cases, passes, metrics, path)
    else:
        metrics = end_to_end(passes, cases, setup_s, attempted, failed)
    correct = failed == 0 and control_ok and counts_repeat
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
