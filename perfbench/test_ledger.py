"""The traced run's exact counts repeat across two runs with the same seed.

Runs ``run.py --trace 1`` twice per workload whose request stream does not
depend on timing, and compares every count-valued per-layer metric.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from ledger import is_exact  # noqa: E402


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mdtest", "ior_1m", "ior_8k_shared"])
def test_exact_counts_repeat(workload):
    first, second = _traced(workload, 11), _traced(workload, 11)
    assert first["correct"] and second["correct"]
    exact = {k: v["value"] for k, v in first["metrics"].items() if is_exact(k)}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert first["metrics"]["core.client.pwrite.rpcs" if workload != "mdtest"
                            else "core.client.create.rpcs"]["value"] > 0
