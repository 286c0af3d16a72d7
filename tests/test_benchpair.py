"""Self-tests of ``tools/benchpair.py``, the paired end-to-end benchmark runs
of two checkouts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "benchpair.py"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in CONFIG["end_to_end"]]
PER_LAYER = [m["name"] for m in CONFIG["per_layer"]]


def _tool():
    spec = importlib.util.spec_from_file_location("benchpair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself(tmp_path):
    out = tmp_path / "pairs.json"
    out.write_text('{"earlier": {}}')   # another workload's record is kept
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "product_blocks", "--seeds", "1",
                           "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    assert list(record) == ["earlier", "product_blocks"]
    doc = record["product_blocks"]
    assert doc["seeds"] == [1] and doc["seconds"] == 1.0
    [pair] = doc["pairs"]
    assert pair["seed"] == 1 and pair["first"] == "base"
    for side in ("base", "change"):
        assert pair[side]["correct"] is True and pair[side]["failed"] == 0
        assert sorted(pair[side]["metrics"]) == sorted(END_TO_END)
        prov = doc["provenance"][side]
        assert {"commit", "src_sha256", "numpy", "cpu_model"} <= set(prov)
    assert doc["provenance"]["base"]["src_sha256"] == \
        doc["provenance"]["change"]["src_sha256"]
    assert list(doc["metrics"]) == END_TO_END
    for name, m in doc["metrics"].items():
        assert m["pairs"] == 1 and m["change_wins"] in (0, 1)
        assert m["base"]["q1"] == m["base"]["median"] == m["base"]["q3"] \
            == pair["base"]["metrics"][name]
        assert m["within_bound"] == (m["relative_gain"] >= -m["bound"])
    for side in ("base", "change"):
        assert doc["cold_setup_s"][side]["median"] == pair[side]["setup_raw_s"][0]
    ok = doc["failures_within"] and all(m["within_bound"]
                                        for m in doc["metrics"].values())
    assert proc.returncode == (0 if ok else 1)


def test_bounds_wins_and_quartiles():
    tool = _tool()
    assert tool.parse_seeds("1-10") == list(range(1, 11))
    assert tool.parse_seeds("7") == [7]
    end_to_end = [{"name": "solves_per_s", "unit": "1/s", "better": "higher",
                   "bound": 0.25},
                  {"name": "solve_ms_p90", "unit": "ms", "better": "lower",
                   "bound": 0.25}]

    def pair(base, change, base_builds, change_builds):
        return {"base": {"metrics": dict(zip(("solves_per_s", "solve_ms_p90"), base)),
                         "setup_raw_s": base_builds},
                "change": {"metrics": dict(zip(("solves_per_s", "solve_ms_p90"), change)),
                           "setup_raw_s": change_builds}}

    # the change is faster in 2 of 3 pairs, and its p90 is 30 % worse; its
    # first build in each process is slow and the later ones fast
    pairs = [pair((100.0, 1.0), (110.0, 1.3), [0.4, 0.4, 0.4], [0.1, 0.04, 0.04]),
             pair((100.0, 1.0), (90.0, 1.3), [0.5, 0.4, 0.4], [0.2, 0.04, 0.04]),
             pair((120.0, 1.0), (130.0, 1.3), [0.6, 0.4, 0.4], [0.3, 0.04, 0.04])]
    m = tool.summarize(pairs, end_to_end)
    rate, p90 = m["solves_per_s"], m["solve_ms_p90"]
    assert rate["change_wins"] == 2 and rate["within_bound"]
    assert rate["base"] == {"median": 100.0, "q1": 100.0, "q3": 110.0}
    assert rate["relative_gain"] == 0.1
    assert p90["change_wins"] == 0 and not p90["within_bound"]
    assert abs(p90["relative_gain"] + 0.3) < 1e-12
    assert not rate["gain_resolved"] and not p90["gain_resolved"]
    # a gain is resolved from 10 pairs on, when at least 9 of every 10 are
    # won and the medians differ by more than the base's quartile distance
    base = [100.0 + i for i in range(10)]       # quartiles 102.25 and 106.75
    for lifts, resolved in (([5.0] * 10, True), ([4.5] * 10, False),
                            ([5.0] * 3, False), ([-1.0] * 2 + [5.0] * 8, False)):
        m = tool.summarize([pair((b, 1.0), (b + lift, 1.0), [0.4], [0.4])
                            for b, lift in zip(base, lifts)], end_to_end)
        assert m["solves_per_s"]["gain_resolved"] is resolved
    cold = tool.cold_setup(pairs)
    assert cold["base"] == {"median": 0.5, "q1": 0.45, "q3": 0.55}
    assert cold["change"]["median"] == 0.2


def test_traced_pairs_report_per_layer_metrics_without_bounds(tmp_path):
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "product_blocks", "--seeds", "1",
                           "--seconds", "0", "--trace", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())["product_blocks.traced"]
    assert doc["trace"] == 1 and doc["failures_within"]
    [pair] = doc["pairs"]
    assert list(doc["metrics"]) == PER_LAYER
    for side in ("base", "change"):
        assert pair[side]["correct"] is True
        assert sorted(pair[side]["metrics"]) == sorted(PER_LAYER)
    for name, m in doc["metrics"].items():
        assert "bound" not in m and "within_bound" not in m
        assert m["base"]["median"] == pair["base"]["metrics"][name]
    # iteration counts repeat exactly on the same source and seed
    assert doc["metrics"]["productspace.iters"]["relative_gain"] == 0.0
    assert json.loads(proc.stdout.splitlines()[-1])["productspace.iters"] == {
        "base": doc["metrics"]["productspace.iters"]["base"]["median"],
        "change": doc["metrics"]["productspace.iters"]["change"]["median"],
        "wins": 0, "gain_resolved": False}


def test_metrics_without_a_bound_are_not_checked():
    tool = _tool()
    per_layer = [{"name": "fdr.iters", "unit": "count", "better": "lower"}]
    pairs = [{"base": {"metrics": {"fdr.iters": 10.0}},
              "change": {"metrics": {"fdr.iters": 15.0}}}]
    m = tool.summarize(pairs, per_layer)["fdr.iters"]
    assert m["relative_gain"] == -0.5 and m["change_wins"] == 0
    assert "bound" not in m and "within_bound" not in m
