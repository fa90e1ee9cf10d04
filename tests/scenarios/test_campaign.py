"""Campaigns: the file format, the standing suite, end-to-end runs with
BENCH documents, the CLI exit-code contract, and seeded determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.bench import validate_bench
from repro.scenarios import (
    ScenarioParseError,
    campaign_names,
    get_campaign,
    parse_campaign,
    run_campaign,
)
from repro.scenarios.cli import main as campaign_main

MINIMAL = """\
[campaign]
name = tiny
seed = 7
strategy = cycle-aware
strategy_params = min_cycles=1.5
calm_down = 3

[scenario]
clients 40
duration 10
grid 2x4
nodes 4

[faults]
t=5 stall node node2 duration=1

[slo]
scenario.achieved_ratio >= 0.5
"""


class TestParse:
    def test_minimal_document(self):
        c = parse_campaign(MINIMAL)
        assert c.name == "tiny"
        assert c.seed == 7
        assert c.strategy == "cycle-aware"
        assert c.strategy_params == {"min_cycles": 1.5}
        assert c.calm_down == 3.0
        assert c.scenario.clients == 40
        assert len(c.faults) == 1
        assert c.slos == ["scenario.achieved_ratio >= 0.5"]

    def test_describe_round_trips(self):
        c = parse_campaign(MINIMAL)
        text = c.describe()
        again = parse_campaign(text)
        assert again.describe() == text
        assert again.scenario == c.scenario
        assert again.strategy_params == c.strategy_params

    @pytest.mark.parametrize(
        "doc,token,reason",
        [
            ("clients 10", "clients", "before any [section]"),
            ("[mystery]\nx = 1", "mystery", "unknown section"),
            ("[campaign]\nname tiny", "name tiny", "key = value"),
            ("[campaign]\nname = x\nspeed = 9", "speed", "unknown campaign key"),
            ("[campaign]\nname = x\nseed = soon", "soon", "bad value"),
            ("[campaign]\nname = x\nstrategy_params = fast", "fast", "key=value"),
            ("[campaign]\nseed = 1\n[scenario]\nclients 1", "name", "needs a 'name"),
            ("[campaign]\nname = x", "scenario", "needs a [scenario]"),
        ],
    )
    def test_malformed_campaigns(self, doc, token, reason):
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert str(err.value).startswith("c.campaign:")
        assert err.value.token == token
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "header, lineno, token, reason",
        [
            ("strategy = nope", 3, "nope", "unknown strategy 'nope'"),
            (
                "strategy = nope\nstrategy_params = band=3",
                3,
                "nope",
                "unknown strategy 'nope'",
            ),
            (
                "strategy = consolidate\nstrategy_params = inner=x",
                4,
                "inner=x",
                "'inner'",
            ),
            ("strategy_params = bandd=3", 3, "bandd=3", "'bandd'"),
            (
                "strategy = workload-balance-to-average\nstrategy_params = band=-1",
                4,
                "band=-1",
                "band must be positive",
            ),
            ("strategy_params = location=closest", 3, "location=closest", "known: paper"),
        ],
    )
    def test_bad_strategy_is_a_located_parse_error(self, header, lineno, token, reason):
        doc = f"[campaign]\nname = x\n{header}\n[scenario]\nclients 10\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert (err.value.lineno, err.value.token) == (lineno, token)
        assert reason in err.value.reason

    def test_errors_in_sections_keep_document_line_numbers(self):
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\nload warp\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 6
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\n\n[faults]\nt=x boom\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 8
        doc = "[campaign]\nname = x\n\n[scenario]\nclients 10\n\n[slo]\nfoo ~= 1\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_campaign(doc, path="c.campaign")
        assert err.value.lineno == 8


    def test_fault_targets_are_checked_against_the_campaign_cluster(self):
        doc = (
            "[campaign]\nname = x\n\n[scenario]\nclients 10\nnodes 2\n\n[faults]\n"
            "t=1 crash node node2\nt=1 stall node 192.168.0.2 duration=1\n"
            "t=1 loss link node1 rate=0.1 duration=2\nt=1 abort migd * phase=freeze\n"
        )
        assert len(parse_campaign(doc).faults) == 4
        # A third node exists only when the scenario asks for it; links
        # are named by host, and a campaign cluster has no DB host.
        for line, token in [
            ("t=1 crash node node3", "node3"),
            ("t=1 crash node 192.168.0.3", "192.168.0.3"),
            ("t=1 partition link 192.168.0.1 duration=2", "192.168.0.1"),
            ("t=1 stall node dbserver duration=1", "dbserver"),
        ]:
            with pytest.raises(ScenarioParseError) as err:
                parse_campaign(doc + line + "\n", path="c.campaign")
            assert (err.value.lineno, err.value.token) == (13, token)
            assert "unknown" in err.value.reason and "node2" in err.value.reason


class TestStandingSuite:
    def test_every_named_campaign_parses_and_round_trips(self):
        assert len(campaign_names()) >= 12
        for name in campaign_names():
            c = get_campaign(name)
            assert c.name == name
            assert c.slos, f"{name} must gate on at least one SLO"
            text = c.describe()
            assert parse_campaign(text).describe() == text

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="quiet-baseline"):
            get_campaign("nope")

    def test_suite_covers_fault_and_strategy_space(self):
        campaigns = [get_campaign(n) for n in campaign_names()]
        kinds = {f.kind for c in campaigns for f in c.faults}
        assert {"crash", "stall", "loss", "partition"} <= kinds
        strategies = {c.strategy for c in campaigns}
        assert {
            "paper-threshold", "cycle-aware", "workload-balance-to-average"
        } <= strategies
        assert any(c.mode == "postcopy" for c in campaigns)


class TestRun:
    def test_quiet_baseline_passes_and_benches(self, tmp_path):
        result = run_campaign(get_campaign("quiet-baseline"), quick=True)
        assert result.passed
        assert result.values["campaign.migrations"] == 0
        assert result.values["scenario.achieved_ratio"] >= 0.999
        doc = validate_bench(result.bench_doc())
        assert doc["name"] == "campaign_quiet-baseline"
        assert doc["quick"] is True
        assert doc["slos"]["passed"] is True
        assert doc["metrics"]["campaign.degradation_node_s"]["direction"] == "lower"
        assert "campaign quiet-baseline" in result.render()

    def test_crash_campaign_records_the_gap(self):
        result = run_campaign(get_campaign("flash-crowd-node-crash"), quick=True)
        assert result.passed
        assert 0.6 <= result.values["scenario.achieved_ratio"] < 0.999

    def test_consolidate_campaign_puts_a_node_to_sleep(self):
        doc = """\
[campaign]
name = night-consolidate
strategy = consolidate
calm_down = 2

[scenario]
clients 40
duration 60
grid 2x4
nodes 4
server cpu_per_client=0.002 cpu_base=0.02 pages=16

[slo]
scenario.achieved_ratio >= 0.999
campaign.migrations_failed == 0
"""
        result = run_campaign(parse_campaign(doc))
        assert result.passed
        assert result.values["scenario.achieved_ratio"] >= 0.999
        conductors = [n.daemons["conductor"] for n in result.driver.cluster.nodes]
        assert any(c.asleep for c in conductors)
        assert sum(len(c.managed) for c in conductors) == 8  # every zone served

    def test_seed_override_changes_nothing_structural(self):
        a = run_campaign(get_campaign("quiet-baseline"), quick=True, seed=1)
        b = run_campaign(get_campaign("quiet-baseline"), quick=True, seed=2)
        assert a.seed == 1 and b.seed == 2
        assert a.passed and b.passed


class TestCLI:
    def test_list(self, capsys):
        assert campaign_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in campaign_names():
            assert name in out

    def test_describe_name_and_file(self, tmp_path, capsys):
        assert campaign_main(["describe", "quiet-baseline"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "mine.campaign"
        path.write_text(text)
        assert campaign_main(["describe", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = campaign_main(
            ["run", "quiet-baseline", "--quick", "--trace", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "BENCH_campaign_quiet-baseline.json").exists()
        assert (tmp_path / "campaign_quiet-baseline.trace.jsonl").exists()
        assert (tmp_path / "campaign_quiet-baseline.series.csv").exists()
        out = capsys.readouterr().out
        assert "scenario.achieved_ratio" in out

    def test_failed_slo_exits_1(self, tmp_path):
        path = tmp_path / "strict.campaign"
        path.write_text(
            "[campaign]\nname = strict\nquick_duration = 10\n\n"
            "[scenario]\nclients 40\nduration 20\ngrid 2x4\nnodes 4\n\n"
            "[slo]\nscenario.joins_total >= 999999\n"
        )
        assert campaign_main(["run", str(path), "--quick"]) == 1

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.campaign"
        path.write_text("[campaign]\nname = broken\n\n[scenario]\nload warp\n")
        assert campaign_main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{path}:5:warp:" in err

    @pytest.mark.parametrize(
        "header, located",
        [("strategy = nope", ":3:nope:"), ("strategy_params = bandd=3", ":3:bandd=3:")],
    )
    def test_bad_strategy_exits_3(self, tmp_path, capsys, header, located):
        path = tmp_path / "bad-strategy.campaign"
        path.write_text(f"[campaign]\nname = bad\n{header}\n\n[scenario]\nclients 4\n")
        assert campaign_main(["run", str(path), "--quick"]) == 3
        err = capsys.readouterr().err
        assert f"{path}{located}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fault, token",
        [
            ("t=1 crash node node9", "node9"),
            ("t=1 partition link node7 duration=3", "node7"),
        ],
    )
    def test_unknown_fault_target_exits_3(self, tmp_path, capsys, fault, token):
        path = tmp_path / "bad-target.campaign"
        path.write_text(
            "[campaign]\nname = bad\nquick_duration = 5\n\n"
            f"[scenario]\nclients 4\n\n[faults]\n{fault}\n"
        )
        assert campaign_main(["run", str(path), "--quick"]) == 3
        err = capsys.readouterr().err
        assert f"{path}:9:{token}:" in err
        assert "Traceback" not in err

    def test_unknown_ref_exits_3(self, capsys):
        assert campaign_main(["run", "no-such-campaign"]) == 3
        assert "neither a named campaign" in capsys.readouterr().err


class TestDeterminism:
    """Same seed => byte-identical traces, in fresh interpreters (pids
    and other process-global state must not leak into the trace)."""

    SCRIPT = """\
import sys
from repro.scenarios import get_campaign, run_campaign
result = run_campaign(
    get_campaign("flash-crowd-node-crash"), quick=True, trace_path=sys.argv[1]
)
print(round(result.values["scenario.achieved_ratio"], 9))
"""

    def _run(self, tmp_path, tag):
        trace = tmp_path / f"{tag}.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(trace)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return trace.read_bytes(), proc.stdout

    def test_same_seed_byte_identical_trace(self, tmp_path):
        trace_a, out_a = self._run(tmp_path, "a")
        trace_b, out_b = self._run(tmp_path, "b")
        assert trace_a == trace_b
        assert out_a == out_b
        assert trace_a.count(b"\n") > 100
