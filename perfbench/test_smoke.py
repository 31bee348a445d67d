"""Smoke tests of the benchmark harness at tiny sizes (under 10 s in all).

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import INPUT_SETS, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ncai_depeweg", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=60, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= INPUT_SETS
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] != 0 for m in out["metrics"].values())
    assert "fail_frac = 0 ratio" in proc.stdout


def _traced(name, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", "1", "--tiny"]) == 0
    out = _last_json(capsys.readouterr().out)
    assert out["correct"] and out["failed"] == 0
    return out["metrics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, capsys):
    metrics = _traced(name, capsys)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_counts_repeat_exactly_across_runs(capsys):
    first, second = _traced("ncai_depeweg", capsys), _traced("ncai_depeweg", capsys)
    counts = [n for n, m in first.items() if m["unit"] in ("count", "bytes", "bytes_computed")]
    assert "diffcore.tape_nodes" in counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ncai_depeweg", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calibrated_seeds_get_a_band_per_input_set(name):
    per_set, pooled = run.load_bands(name, 0), run.load_bands(name, 10**6)
    assert len(per_set) == len(pooled) == INPUT_SETS
    assert len(set(per_set)) == INPUT_SETS and len(set(pooled)) == 1
    widths = {round(high - low, 9) for low, high in per_set}
    assert len(widths) == 1 and widths.pop() > 0
