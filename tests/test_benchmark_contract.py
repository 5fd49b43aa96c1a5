"""The benchmark harness under perfbench/ drives the package through
public names (``topsis.IfDecisionMatrix``, ``lift_crisp_weights``,
``anfis.forward``, ``ecsa.optimize`` and the traced functions).  These
smoke tests build the harness's micro kernels, install its tracer and run
every kernel once, run one tiny ``ecsa-search`` unit and one traced
pipeline unit, each in a fresh interpreter, so a change that breaks that
contract fails here."""

import json
import math
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

ECSA_SCRIPT = """
import sys, unit

spec = {"workload": {"kind": "ecsa", "runs": 2, "dim": 3}, "seed": 11, "out": sys.argv[1]}
unit.run_ecsa_unit(spec)
"""

PIPELINE_SCRIPT = """
import json, sys, time, unit
from spans import Tracer, summarize

out, trace = sys.argv[1:]
workload = {"kind": "pipeline", "config": {"runs": 1, "max_iterations": 2}}
tracer = Tracer("smoke")
tracer.install()
start = time.perf_counter()
_, end = unit.run_pipeline_unit({"workload": workload, "seed": 11, "out": out})
tracer.root(start, end)
tracer.write(trace)
print(json.dumps(summarize(trace)))
"""


def _run_harness(script: str, *args: str) -> str:
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_micro_kernels_and_tracer_install():
    _run_harness(SCRIPT)


def test_ecsa_unit_results(tmp_path):
    out = tmp_path / "ecsa.json"
    _run_harness(ECSA_SCRIPT, str(out))
    results = json.loads(out.read_text())
    assert sorted(results) == ["rastrigin", "sphere"]
    for runs in results.values():
        assert len(runs) == 2
        for run in runs:
            assert math.isfinite(run["best_objective"])
            history = run["fitness_history"]
            assert all(b <= a for a, b in zip(history, history[1:]))


def test_traced_pipeline_unit(tmp_path):
    summary = json.loads(
        _run_harness(PIPELINE_SCRIPT, str(tmp_path / "report.json"), str(tmp_path / "trace.jsonl"))
    )
    assert summary["coverage"] >= 0.9
    for name in ("ecsa.optimize", "anfis.init_fis", "anfis.rmse", "anfis.mape",
                 "dematel.evaluate", "topsis.evaluate", "reporting.emit_report",
                 "pipeline.prepare_samples", "pipeline.split_train_test", "pipeline.cv_folds",
                 "pipeline.tune_anfis_with_ecsa"):
        assert summary["calls"].get(name, 0) >= 1, name
