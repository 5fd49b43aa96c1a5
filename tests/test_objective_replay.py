"""``scripts/objective_replay.py`` records the seed-11 search batches of
both pipeline workloads and replays them through fresh objectives."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_replay_scores_every_recorded_call(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the script imports bench_pairs
    spec = importlib.util.spec_from_file_location(
        "objective_replay", SCRIPTS / "objective_replay.py"
    )
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)

    replay.record(tmp_path)  # raises unless the searches match the pipeline's
    result = replay.replay(tmp_path, passes=1)
    # 3 folds of one search: 101 batches each plus the all-ones call;
    # codes searches run 6 iterations, so 7 batches plus that call.
    assert {name: run["calls"] for name, run in result.items()} == {
        "pipeline-groups": 306,
        "pipeline-codes": 24,
    }
    assert all(run["us_per_call"] > 0 for run in result.values())
    scores = b"".join(bytes.fromhex(result[name]["scores"]) for name in replay.WORKLOADS)
    # The digest the script prints: the scores kept their bits through the
    # fold constants and the rows-first membership gather.
    assert hashlib.sha256(scores).hexdigest() == (
        "ddfe6bdbef083c00717e0209faa1abcded9c8fae335fd979d8d52d6d08f96f9f"
    )
