"""Self-tests of ``tools/benchpair.py``, the paired end-to-end benchmark runs
of two checkouts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "benchpair.py"
END_TO_END = [m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


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

    def pair(base, change):
        return {"base": {"metrics": dict(zip(("solves_per_s", "solve_ms_p90"), base))},
                "change": {"metrics": dict(zip(("solves_per_s", "solve_ms_p90"), change))}}

    # the change is faster in 2 of 3 pairs, and its p90 is 30 % worse
    pairs = [pair((100.0, 1.0), (110.0, 1.3)), pair((100.0, 1.0), (90.0, 1.3)),
             pair((120.0, 1.0), (130.0, 1.3))]
    m = tool.summarize(pairs, end_to_end)
    rate, p90 = m["solves_per_s"], m["solve_ms_p90"]
    assert rate["change_wins"] == 2 and rate["within_bound"]
    assert rate["base"] == {"median": 100.0, "q1": 100.0, "q3": 110.0}
    assert rate["relative_gain"] == 0.1
    assert p90["change_wins"] == 0 and not p90["within_bound"]
    assert abs(p90["relative_gain"] + 0.3) < 1e-12
