"""Self-tests of ``tools/bitreport.py``, the bit-for-bit comparison of two
checkouts on a benchmark workload."""

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monosplit import IterationRow

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bitreport.py"


@dataclasses.dataclass(frozen=True)
class DataclassRow:
    """A history row laid out as a dataclass, as IterationRow once was."""
    n: int
    lam: float
    residual: float
    dx: float
    dy: float = None
    objective: float = None


def _tool():
    spec = importlib.util.spec_from_file_location("bitreport", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["product_blocks", "cli_batch"])
def test_checkout_matches_itself(workload):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", workload, "--seed", "1", "--limit", "20"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{workload} seed 1: 20 jobs, 0 differ"


def test_records_compare_exact_bits_and_name_the_first_differing_row():
    tool = _tool()
    row = IterationRow(0, 1.0, 0.5, 0.0)
    # a row compares by its named fields, not by its class
    assert tool._canon(row) == tool._canon(DataclassRow(0, 1.0, 0.5, 0.0))
    assert tool._canon(row) != tool._canon(DataclassRow(0, 1.0, 0.5, -0.0))
    assert tool._canon(0.0) != tool._canon(-0.0)
    assert tool._canon(np.zeros(2)) != tool._canon(np.zeros((1, 2)))

    rows = [row, row._replace(n=1), row._replace(n=2)]
    base = [((0, "fdr"), {"x": tool._digest(np.ones(2)),
                          "history": tool._history(rows)})]
    change = [((0, "fdr"), {"x": tool._digest(np.ones(2)),
                            "history": tool._history(
                                rows[:1] + [rows[1]._replace(residual=0.25)] + rows[2:])})]
    assert tool.differences(base, base) == []
    assert tool.differences(base, change) == [
        ((0, "fdr"), ["history (rows 3 vs 3, first differing row 1)"])]
    assert tool.differences(base, []) == [((0, "fdr"), ["missing in change"])]
