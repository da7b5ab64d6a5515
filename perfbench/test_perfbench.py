"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: the union counts once
        ["c", 8.0, 12.0, 0],  # runs past the parent: clipped at 10
        ["grandchild", 1.5, 2.5, 1],  # covered by a, not a direct child of parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 3.0, 4.0, 1.0])
    assert covered([(0.0, 1.0), (2.0, 3.0)], 0.5, 2.5) == pytest.approx(1.0)


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("outer")  # t=0
    inner = tr.open("inner")  # t=1
    tr.close(inner)  # t=2
    tr.close(outer)  # t=3
    assert tr.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert self_times(tr.spans) == [2.0, 1.0]


def test_benchmark_json_follows_the_format():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        k: v["why"] for k, v in run.WORKLOADS.items()}
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 2 <= len(spec["workloads"]) <= 8


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(name, trace):
    out = run.run_workload(name, seed=3, seconds=0, trace=trace, scale=0.05, min_reps=1)
    section = "per_layer" if trace else "end_to_end"
    assert set(out["result"]["metrics"]) == {m["name"] for m in run.SPEC[section]}
    for key, metric in out["result"]["metrics"].items():
        assert metric["unit"] == run.UNITS[key]
    structural = [desc for desc, ok in out["checks"]
                  if not ok and ("exits 0" in desc or "sha256" in desc or "cover" in desc)]
    assert not structural


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_classical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
