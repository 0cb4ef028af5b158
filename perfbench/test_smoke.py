"""Smoke run of the whole benchmark on the tiny model.

Runs every workload end to end (``--trace 0``) and traced
(``--trace 1``) through ``run.py`` exactly as the benchmark command
does, and checks the metric contract: each run is correct and emits
every metric ``BENCHMARK.json`` names for its mode, with that metric's
unit, and nothing else.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(ledger.HELD_OUT_SEED), "--seconds", "1",
         "--trace", str(trace), "--model", "tiny",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_contract_matches_ledger():
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in CONTRACT["end_to_end"]} == ledger.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in CONTRACT["per_layer"]} == ledger.PER_LAYER


@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_every_metric(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = "end_to_end" if trace == 0 else "per_layer"
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == 1:
        assert (tmp_path / f"{workload}-seed{ledger.HELD_OUT_SEED}"
                ".trace.json.gz").is_file()
        # Each layer is exercised only where the workload design says.
        values = {n: m["value"] for n, m in result["metrics"].items()}
        perf = [values[n] for n in values
                if n.startswith("perf.") and n != "perf.lookup.self_s"]
        cluster = [values[n] for n in ("cluster.tick.calls",
                                       "cluster.route.calls",
                                       "cluster.fingerprint.calls")]
        assert any(perf) == (workload == "ecr-sweep")
        assert all(cluster) == (workload == "cluster-slo")
        assert any(cluster) == (workload == "cluster-slo")
