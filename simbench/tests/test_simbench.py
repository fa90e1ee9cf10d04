"""The benchmark's own tests: seeded inputs, determinism, the metric
list in ``BENCHMARK.json``, and a small-size smoke run of each
workload.  Run with ``python -m pytest simbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from simbench import run, workloads
from simbench.probe import Probe
from simbench.workloads import WORKLOADS, CheckFailed, make_inputs, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, seed=7):
    with Probe() as probe:
        return run_workload(workload, make_inputs(workload, seed, small=True), probe)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    assert make_inputs(workload, 1) == make_inputs(workload, 1)
    assert make_inputs(workload, 1) != make_inputs(workload, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_repeats(workload):
    first = _smoke(workload)
    assert first.reports, "every workload migrates at least once"
    assert _smoke(workload).digest == first.digest


def test_spec_lists_the_emitted_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1] == "simbench/run.py"


def test_end_to_end_metrics_match_spec():
    inputs = make_inputs("chaos_campaign", 3, small=True)
    metrics, _ref, reps, _notes = run.measure_end_to_end("chaos_campaign", inputs, 3, seconds=0)
    assert reps > run.MIN_REPS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == expected
    assert all(v > 0 for v, _unit in metrics.values())


def test_per_layer_metrics_match_spec():
    inputs = make_inputs("freeze_sweep", 3, small=True)
    metrics, _ref, _reps, _notes = run.measure_per_layer("freeze_sweep", inputs, seconds=0)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == expected
    assert metrics["tcpip.segments"][0] > 0
    assert metrics["core.migrations"][0] == 6


def test_without_simulator_source_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "freeze_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr


@pytest.mark.xfail(strict=True, reason="post-copy of a process that migrated before "
                   "leaves its clean pages neither shipped nor declared absent")
def test_postcopy_after_a_previous_migration():
    from repro.cluster import build_cluster
    from repro.core import LiveMigrationConfig, migrate_process

    cluster = build_cluster(n_nodes=2, with_db=False)
    a, b = cluster.nodes
    proc = a.kernel.spawn_process("p")
    proc.address_space.mmap(256, tag="heap")
    assert cluster.env.run(until=migrate_process(a, b, proc)).success
    report = cluster.env.run(
        until=migrate_process(b, a, proc, LiveMigrationConfig(mode="postcopy"))
    )
    assert report.success


@pytest.mark.xfail(strict=True, raises=CheckFailed,
                   reason="a migration aborted by an RPC timeout on a lossy link leaves "
                   "the process restored on the destination as well as on the source")
def test_process_on_one_node_after_a_timed_out_migration(tmp_path, monkeypatch):
    # The campaign with 5 % loss on node1's link instead of its partition:
    # seed 80 then ends with zone_serv1 live on node1 and node2.
    partition = "t=45 partition link node1 duration=10"
    text = workloads.CAMPAIGN_FILE.read_text()
    assert partition in text
    lossy = tmp_path / "lossy.campaign"
    lossy.write_text(text.replace(partition, "t=45 loss link node1 rate=0.05 duration=30"))
    monkeypatch.setattr(workloads, "CAMPAIGN_FILE", lossy)
    with Probe() as probe:
        run_workload("chaos_campaign", make_inputs("chaos_campaign", 80), probe)
