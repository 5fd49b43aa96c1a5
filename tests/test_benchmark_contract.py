"""The benchmark harness under perfbench/ drives the package through
public names (``topsis.IfDecisionMatrix``, ``lift_crisp_weights``,
``anfis.forward`` and the traced functions).  This smoke test builds the
harness's micro kernels, installs its tracer and runs every kernel once
in a fresh interpreter, so a change that breaks that contract fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import run, unit
from spans import Tracer

kernels = unit.micro_kernels({"workload": run.WORKLOADS["pipeline-groups"], "seed": 11})
Tracer("smoke").install()
for fn, _ in kernels.values():
    fn()
"""


def test_micro_kernels_and_tracer_install():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
