"""Run every workload in BENCHMARK.json over several seeds and summarise.

    python3 bench/run_all.py --seeds 101,102,103 --seconds 25 [--trace 1]

Each run is its own `bench/run.py` process, started after the previous one
has ended.  For every workload and metric this prints the unit, the median
over seeds and the spread (Q3 - Q1) / median, which is what the bounds in
BENCHMARK.json are judged against.  The exit code is 1 if any run failed
or reported `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return result


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    specs = SPEC["per_layer" if args.trace else "end_to_end"]

    ok = True
    summary = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {m["name"]: [] for m in specs}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None:
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = values
        print(f"{workload} ({len(values[specs[0]['name']])} runs)")
        for m in specs:
            vals = values[m["name"]]
            if vals:
                print(
                    f"  {m['name']:38s} {m['unit']:6s} median {statistics.median(vals):14.6g}"
                    f"  spread {spread(vals):7.4f}  bound {m.get('bound', '-')}"
                )
    print(json.dumps({"seeds": seeds, "seconds": args.seconds, "values": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
