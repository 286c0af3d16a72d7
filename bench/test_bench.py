"""Tests of the benchmark itself (run from the repository root):

    python3 -m pytest -q bench/test_bench.py

They prove that the traced run measures the same program as the untraced
one, that every count-type per-layer metric repeats exactly, and that the
benchmark refuses to run without the library's sources.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
SEED = 7


def _make(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliBatch:
        wl = cls(SEED, tmp_path)
        wl.write_specs()
        return wl
    return cls(SEED)


def _traced(name, tmp_path):
    wl = _make(name, tmp_path)
    tally = run.Tally()
    metrics, detail, _ = run.traced_run(wl, wl.build(), 0.0, tally, {})
    return metrics, detail, tally


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_repeats_counts(name, tmp_path):
    first, detail, tally = _traced(name, tmp_path / "a")
    # identical iterations, statuses and final iterates (or CSV bytes) in the
    # untraced and the traced pass, and every solve verified
    assert detail["identity_mismatches"] == []
    assert tally.failed == 0, tally.errors
    second, _, _ = _traced(name, tmp_path / "b")
    counts = [k for k in first if run.layer_unit(k) in run.COUNT_UNITS]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_per_layer_metrics_are_complete():
    wl = workloads.ProductBlocks(SEED)
    metrics, _, _ = run.traced_run(wl, wl.build(), 0.0, run.Tally(), {})
    for module in ("fdr", "fpi", "km", "productspace", "variational"):
        assert f"{module}.iters" in metrics and f"{module}.us_per_iter" in metrics
    assert metrics["productspace.iters"] > 0
    assert metrics["operators.resolve_calls_per_iter"] > 0
    assert metrics["trace_overhead_frac"] > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
