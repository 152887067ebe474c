"""Smoke test for the benchmark on a tiny case list; takes a few seconds.

    python3 -m pytest -q bench/test_smoke.py

The `smoke` workload is s_3 at d=3, [X1,X2] at d=4 and the Lie monomial
with n=4 at d=3.  It is not listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


@functools.lru_cache(maxsize=None)
def run(trace: int, attempt: int = 0):
    """stdout lines and the parsed result of one smoke run; ``attempt``
    only keeps repeated runs apart in the cache."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]


def test_every_end_to_end_metric_printed_with_its_unit():
    _, result = run(0)
    check_metrics(result, SPEC["end_to_end"])
    for name, value in result["metrics"].items():
        assert value["value"] > 0, name


def test_every_per_layer_metric_printed_with_its_unit():
    _, result = run(1)
    check_metrics(result, SPEC["per_layer"])


def test_negative_control_rejected():
    lines, _ = run(0)
    controls = [line for line in lines if line.startswith("negative control")]
    assert len(controls) == 1 and controls[0].endswith(": rejected")


def test_self_times_cover_each_root_span():
    run(1)
    doc = json.loads((BENCH / "out" / f"trace-smoke-{SEED}.json").read_text())
    fields = doc["span_fields"]
    name, start, end, parent, self_ = (
        fields.index(f) for f in ("name", "start", "end", "parent", "self")
    )
    assert doc["passes"]
    for traced_pass in doc["passes"]:
        spans = traced_pass["spans"]
        assert spans and traced_pass["levels"]
        subtree_self = [0.0] * len(spans)
        for i in reversed(range(len(spans))):
            span = spans[i]
            assert span[self_] >= 0, span
            subtree_self[i] += span[self_]
            if span[parent] >= 0:
                up = spans[span[parent]]
                assert up[start] <= span[start] <= span[end] <= up[end]
                subtree_self[span[parent]] += subtree_self[i]
        roots = [i for i, s in enumerate(spans) if s[parent] < 0]
        assert {spans[i][name] for i in roots} == {"bench.case", "bench.gate"}
        for i in roots:
            wall = spans[i][end] - spans[i][start]
            assert abs(subtree_self[i] - wall) <= 1e-9 * len(spans), spans[i]


def test_exact_counts_repeat_across_runs():
    for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        exact = [m["name"] for m in specs if m["unit"] in ("count", "bits", "B")]
        assert exact
        first, second = run(trace)[1], run(trace, attempt=1)[1]
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
