"""The benchmark's own tests: shrunken workloads end to end, and the map checker.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["baseline", "fine-grid", "deep-search"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][n]["value"] > 0 for n in names)
        assert "NOT repeated" not in proc.stdout


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "baseline", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _doc(edges, partitions=(2,), states=(1,)):
    return {"format": mapcheck.MAP_FORMAT, "spec": {"partitions": list(partitions),
                                                    "states": list(states)},
            "edges": edges}


def test_checker_accepts_stochastic_map():
    m = mapcheck.check_map_doc(_doc([[0, 1, 0.25], [0, -1, 0.75], [1, 1, 1.0]]))
    assert m.n_edges == 3 and m.exterior_mass() == (0.75, 0.75)


def test_checker_rejects_out_of_range_id():
    with pytest.raises(mapcheck.MapCheckError, match="source ids outside"):
        mapcheck.check_map_doc(_doc([[0, 1, 1.0], [1, 1, 1.0], [7, 0, 1.0]]))
    with pytest.raises(mapcheck.MapCheckError, match="target ids outside"):
        mapcheck.check_map_doc(_doc([[0, 2, 1.0], [1, 1, 1.0]]))


def test_checker_rejects_row_sum_above_one():
    with pytest.raises(mapcheck.MapCheckError, match="sums to 1.49"):
        mapcheck.check_map_doc(_doc([[0, 0, 0.49], [0, 1, 1.0], [1, 1, 1.0]]))


def test_checker_rejects_q_outside_unit_interval():
    with pytest.raises(mapcheck.MapCheckError, match=r"q values outside \(0, 1\]"):
        mapcheck.check_map_doc(_doc([[0, 0, 0.0], [0, 1, 1.0], [1, 1, 1.0]]))


def test_forward_push_matches_backward_probability():
    m = mapcheck.check_map_doc(_doc([[0, 0, 0.5], [0, 1, 0.3], [0, -1, 0.2], [1, 1, 1.0]]))
    back = mapcheck.event_probability_by_cell(m, np.array([1]), 2)
    fwd = mapcheck.forward_push(m, 0, 2)
    assert back[0] == pytest.approx(fwd[1]) == pytest.approx(0.3 + 0.5 * 0.3)
