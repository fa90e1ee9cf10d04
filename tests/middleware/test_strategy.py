"""Unit tests for the decision strategies (pure: model in, plan out)."""

import math

import pytest

from repro.des import Environment
from repro.middleware import (
    STRATEGIES,
    BalanceToAverageStrategy,
    ClusterModel,
    ConductorConfig,
    ConsolidateStrategy,
    CycleAwareStrategy,
    LargestProcessSelectionPolicy,
    LeastLoadedLocationPolicy,
    LoadInfo,
    LocationPolicy,
    MigrationAction,
    NodeView,
    PaperThresholdStrategy,
    PolicyConfig,
    RandomLocationPolicy,
    SelectionPolicy,
    make_strategy,
    register_strategy,
)
from repro.net import IPAddr


class FakeProc:
    """Strategies only carry processes through; pid/name suffice."""

    def __init__(self, pid, name=None):
        self.pid = pid
        self.name = name or f"proc{pid}"


def peer(name, octet, cpu, nprocs=1, ts=0.0):
    return LoadInfo(
        node_name=name,
        local_ip=IPAddr(f"192.168.0.{octet}"),
        cpu_percent=cpu,
        nprocs=nprocs,
        timestamp=ts,
    )


def model_of(
    local_cpu,
    peers,
    shares,
    *,
    config=None,
    now=100.0,
    history=None,
):
    config = config or PolicyConfig()
    infos = list(peers)
    average = (sum(p.cpu_percent for p in infos) + local_cpu) / (len(infos) + 1)
    views = [
        NodeView(
            name=p.node_name,
            ip=p.local_ip,
            cpu_percent=p.cpu_percent,
            nprocs=p.nprocs,
            heartbeat_age=now - p.timestamp,
        )
        for p in infos
    ]
    return ClusterModel(
        now=now,
        local=NodeView(
            name="node1",
            ip=IPAddr("192.168.0.1"),
            cpu_percent=local_cpu,
            nprocs=len(shares),
            heartbeat_age=0.0,
            is_self=True,
        ),
        peers=views,
        stale_peers=[],
        peer_infos=infos,
        average=average,
        shares=list(shares),
        config=config,
        history=history or {},
    )


class TestPaperThresholdStrategy:
    def test_below_threshold_plans_nothing(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        model = model_of(30.0, [peer("node2", 2, 28.0, ts=99.0)], [(FakeProc(1), 15.0)])
        assert not strat.plan(model)

    def test_overload_plans_matched_process_and_receiver(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        procs = [(FakeProc(1, "small"), 10.0), (FakeProc(2, "match"), 40.0)]
        model = model_of(
            80.0,
            [peer("node2", 2, 10.0, ts=99.0), peer("node3", 3, 40.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        assert len(plan) == 1
        action = plan.actions[0]
        # Excess over the average (~36.7) is matched by the 40% process,
        # and the receiver farthest below the average ranks first.
        assert action.proc.name == "match"
        assert action.destination.node_name == "node2"
        assert action.score == pytest.approx(model.overload)

    def test_empty_cluster_plans_nothing(self):
        strat = PaperThresholdStrategy(PolicyConfig())
        model = model_of(95.0, [], [(FakeProc(1), 50.0)])
        # Alone, local == average: the critical threshold trips, but the
        # target difference is zero, so no process matches it (and there
        # would be no receiver anyway) — the plan must come back empty
        # rather than crash.
        assert not strat.plan(model)


class TestBalanceToAverageStrategy:
    def test_moves_minimum_set_into_band(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=5.0)
        procs = [(FakeProc(1), 25.0), (FakeProc(2), 25.0), (FakeProc(3), 25.0)]
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0), peer("node3", 3, 15.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        # average = 40; excess = 50; two 25% moves land inside the band.
        assert len(plan) == 2
        moved = sum(a.score for a in plan.actions)
        assert model.overload - moved <= strat.band

    def test_actions_spread_over_distinct_receivers(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=5.0)
        procs = [(FakeProc(1), 25.0), (FakeProc(2), 25.0)]
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0), peer("node3", 3, 15.0, ts=99.0)],
            procs,
        )
        plan = strat.plan(model)
        dests = [a.destination.node_name for a in plan.actions]
        assert sorted(dests) == ["node2", "node3"]

    def test_inside_band_plans_nothing(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=10.0)
        model = model_of(
            45.0, [peer("node2", 2, 40.0, ts=99.0)], [(FakeProc(1), 20.0)]
        )
        assert not strat.plan(model)

    def test_no_receiver_with_headroom_plans_nothing(self):
        strat = BalanceToAverageStrategy(PolicyConfig(), band=4.0)
        # Peer sits essentially at the average: no receiver margin.
        model = model_of(
            60.0, [peer("node2", 2, 55.0, ts=99.0)], [(FakeProc(1), 20.0)]
        )
        assert not strat.plan(model)

    def test_rejects_nonpositive_band(self):
        with pytest.raises(ValueError):
            BalanceToAverageStrategy(PolicyConfig(), band=0.0)


class TestCycleAwareStrategy:
    def sine_history(self, period=40.0, dt=1.0, n=120, base=50.0, amp=20.0):
        return tuple(
            (i * dt, base + amp * math.sin(2 * math.pi * i * dt / period))
            for i in range(n)
        )

    def test_detects_synthetic_period(self):
        strat = CycleAwareStrategy(PolicyConfig())
        found = strat.detect_cycle(self.sine_history(period=40.0))
        assert found is not None
        period, ac = found
        assert period == pytest.approx(40.0, rel=0.15)
        assert ac >= strat.min_autocorr

    def test_no_cycle_in_flat_series(self):
        strat = CycleAwareStrategy(PolicyConfig())
        flat = tuple((float(i), 50.0) for i in range(100))
        assert strat.detect_cycle(flat) is None

    def test_defers_non_urgent_action_into_trough(self):
        strat = CycleAwareStrategy(PolicyConfig())
        hist = self.sine_history(period=40.0, n=120)
        now = hist[-1][0]
        model = model_of(
            55.0,  # moderate overload: above threshold, not urgent
            [peer("node2", 2, 20.0, ts=now), peer("node3", 3, 20.0, ts=now)],
            [(FakeProc(1), 25.0)],
            now=now,
            history={"node1": hist},
        )
        assert model.overload >= model.config.imbalance_threshold
        plan = strat.plan(model)
        assert len(plan) == 1
        assert plan.actions[0].not_before > now

    def test_urgent_overload_executes_immediately(self):
        strat = CycleAwareStrategy(PolicyConfig())
        hist = self.sine_history(period=40.0, n=120)
        now = hist[-1][0]
        model = model_of(
            95.0,  # critical: bypasses deferral
            [peer("node2", 2, 10.0, ts=now)],
            [(FakeProc(1), 60.0)],
            now=now,
            history={"node1": hist},
        )
        plan = strat.plan(model)
        assert plan.actions
        assert all(a.not_before == 0.0 for a in plan.actions)

    def test_revalidation_drops_evaporated_trigger(self):
        strat = CycleAwareStrategy(PolicyConfig())
        action = MigrationAction(FakeProc(1), "node1")
        calm = model_of(30.0, [peer("node2", 2, 28.0, ts=99.0)], [])
        hot = model_of(80.0, [peer("node2", 2, 10.0, ts=99.0)], [])
        assert not strat.revalidate(action, calm)
        assert strat.revalidate(action, hot)


def names(action):
    return [c.node_name for c in action.candidates]


class TestConsolidateStrategy:
    """Rules: asleep = manages no process; wake = an awake node above
    ``wake``; power mode = no wake, >= 2 awake, awake mean below ``low``."""

    def test_power_mode_drains_least_loaded_node_largest_share_first(self):
        strat = ConsolidateStrategy(PolicyConfig())
        model = model_of(
            10.0,
            [peer("node2", 2, 20.0, ts=99.0), peer("node3", 3, 30.0, ts=99.0)],
            [(FakeProc(1), 4.0), (FakeProc(2), 6.0)],
        )
        plan = strat.plan(model)
        assert plan.strategy == "consolidate"
        assert [a.proc.pid for a in plan.actions] == [2, 1]
        assert [a.score for a in plan.actions] == [6.0, 4.0]
        # Most-loaded awake peer first: fill it, keep the other awake.
        for action in plan.actions:
            assert names(action) == ["node3", "node2"]

    def test_candidates_stay_within_cap_on_projected_load(self):
        strat = ConsolidateStrategy(PolicyConfig(), cap=40.0)
        model = model_of(
            10.0,
            [peer("node2", 2, 20.0, ts=99.0), peer("node3", 3, 30.0, ts=99.0)],
            [(FakeProc(1), 8.0), (FakeProc(2), 6.0)],
        )
        first, second = strat.plan(model).actions
        assert names(first) == ["node3", "node2"]  # 30 + 8 <= 40
        # node3 is now projected at 38: another 6 would pass the cap.
        assert names(second) == ["node2"]

    def test_drain_never_pushes_a_receiver_past_wake(self):
        strat = ConsolidateStrategy(PolicyConfig(), cap=75.0, wake=65.0)
        model = model_of(
            5.0,
            [peer("node2", 2, 60.0, ts=99.0), peer("node3", 3, 20.0, ts=99.0)],
            [(FakeProc(1), 5.0), (FakeProc(2), 3.0)],
        )
        plan = strat.plan(model)
        assert [names(a) for a in plan.actions] == [
            ["node2", "node3"],  # 60 + 5 = 65: at wake, not above
            ["node3"],
        ]

    def test_drain_that_cannot_empty_the_node_is_not_started(self):
        strat = ConsolidateStrategy(PolicyConfig(), cap=45.0)
        model = model_of(
            30.0,
            [peer("node2", 2, 31.0, ts=99.0), peer("node3", 3, 32.0, ts=99.0)],
            [(FakeProc(1), 28.0), (FakeProc(2), 2.0)],
        )
        assert not strat.plan(model)

    def test_only_the_least_loaded_awake_node_plans(self):
        strat = ConsolidateStrategy(PolicyConfig())
        # node3 is lighter: node1 waits (balancing pauses too).  The
        # asleep node4 is lightest of all but manages nothing.
        model = model_of(
            20.0,
            [
                peer("node2", 2, 30.0, ts=99.0),
                peer("node3", 3, 10.0, ts=99.0),
                peer("node4", 4, 0.0, nprocs=0, ts=99.0),
            ],
            [(FakeProc(1), 20.0)],
        )
        assert not strat.plan(model)

    def test_load_ties_go_by_node_name(self):
        strat = ConsolidateStrategy(PolicyConfig())
        shares = [(FakeProc(1), 10.0)]
        first = model_of(10.0, [peer("node2", 2, 10.0, ts=99.0)], shares)
        assert len(strat.plan(first)) == 1  # node1 < node2
        second = model_of(10.0, [peer("node0", 9, 10.0, ts=99.0)], shares)
        assert not strat.plan(second)  # node0 < node1

    def test_one_awake_node_is_not_power_mode(self):
        strat = ConsolidateStrategy(PolicyConfig())
        model = model_of(
            10.0,
            [peer("node2", 2, 0.0, nprocs=0, ts=99.0)],
            [(FakeProc(1), 10.0)],
        )
        assert not strat.plan(model)

    def test_wake_condition_offers_asleep_peers_as_receivers(self):
        strat = ConsolidateStrategy(PolicyConfig())
        model = model_of(
            95.0,
            [
                peer("node2", 2, 0.0, nprocs=0, ts=99.0),
                peer("node3", 3, 40.0, ts=99.0),
            ],
            [(FakeProc(1), 45.0), (FakeProc(2), 50.0)],
        )
        plan = strat.plan(model)
        inner = PaperThresholdStrategy(PolicyConfig()).plan(model)
        assert [a.proc.pid for a in plan.actions] == [
            a.proc.pid for a in inner.actions
        ]
        assert names(plan.actions[0]) == names(inner.actions[0])
        assert "node2" in names(plan.actions[0])  # moving there wakes it

    def test_outside_power_mode_asleep_peers_are_not_receivers(self):
        strat = ConsolidateStrategy(PolicyConfig())
        # Awake mean (60 + 30) / 2 = 45: not power mode, nobody above
        # wake.  The inner rule balances the awake pair only.
        model = model_of(
            60.0,
            [
                peer("node2", 2, 0.0, nprocs=0, ts=99.0),
                peer("node3", 3, 30.0, ts=99.0),
            ],
            [(FakeProc(1), 15.0), (FakeProc(2), 45.0)],
        )
        plan = strat.plan(model)
        assert len(plan) == 1
        assert plan.actions[0].proc.pid == 1  # matched to the awake excess
        assert names(plan.actions[0]) == ["node3"]
        inner = PaperThresholdStrategy(PolicyConfig()).plan(model)
        assert "node2" in names(inner.actions[0])  # what the filter prevents

    def test_all_awake_and_busy_is_the_inner_strategy(self):
        strat = ConsolidateStrategy(PolicyConfig())
        model = model_of(
            80.0,
            [peer("node2", 2, 10.0, ts=99.0), peer("node3", 3, 40.0, ts=99.0)],
            [(FakeProc(1, "small"), 10.0), (FakeProc(2, "match"), 40.0)],
        )
        plan = strat.plan(model)
        inner = PaperThresholdStrategy(PolicyConfig()).plan(model)
        assert [(a.proc.pid, names(a), a.score) for a in plan.actions] == [
            (a.proc.pid, names(a), a.score) for a in inner.actions
        ]


class TestPaperThresholdParams:
    def model(self):
        return model_of(
            80.0,
            [
                peer("node2", 2, 30.0, ts=99.0),
                peer("node3", 3, 10.0, ts=99.0),
                peer("node4", 4, 20.0, ts=99.0),
            ],
            [(FakeProc(1), 8.0), (FakeProc(2), 25.0), (FakeProc(3), 45.0)],
        )

    def make(self, rng=None, **params):
        cfg = ConductorConfig(strategy_params=params)
        return make_strategy("paper-threshold", cfg, rng)

    def test_defaults_are_the_paper_policies(self):
        strat = self.make()
        assert type(strat.location) is LocationPolicy
        assert type(strat.selection) is SelectionPolicy

    def test_least_loaded_and_largest_rank_like_the_baselines(self):
        model = self.model()
        plan = self.make(location="least-loaded", selection="largest").plan(model)
        policies = PolicyConfig()
        expected_proc = LargestProcessSelectionPolicy(policies).choose(
            max(model.overload, policies.min_share), model.shares
        )
        expected = LeastLoadedLocationPolicy(policies).choose(
            model.local.cpu_percent, model.average, model.peer_infos
        )
        (action,) = plan.actions
        assert action.proc is expected_proc
        assert action.proc.pid == 3
        assert list(action.candidates) == expected
        assert names(action) == ["node3", "node4", "node2"]

    def test_random_location_draws_from_the_strategy_rng(self):
        import numpy as np

        model = self.model()
        plan = self.make(np.random.default_rng(5), location="random").plan(model)
        expected = RandomLocationPolicy(
            PolicyConfig(), np.random.default_rng(5)
        ).choose(model.local.cpu_percent, model.average, model.peer_infos)
        assert list(plan.actions[0].candidates) == expected

    @pytest.mark.parametrize(
        "params, known",
        [
            ({"location": "closest"}, "paper, least-loaded, random"),
            ({"selection": "smallest"}, "matched, largest"),
        ],
    )
    def test_unknown_values_name_the_known_ones(self, params, known):
        with pytest.raises(ValueError, match=f"known: {known}"):
            self.make(**params)


class TestRegistry:
    def test_known_strategies_registered(self):
        for name in (
            "paper-threshold",
            "workload-balance-to-average",
            "cycle-aware",
            "consolidate",
        ):
            assert name in STRATEGIES

    def test_make_strategy_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("no-such-strategy", ConductorConfig())

    def test_strategy_params_forwarded(self):
        cfg = ConductorConfig(
            strategy="workload-balance-to-average",
            strategy_params={"band": 7.5},
        )
        strat = make_strategy(cfg.strategy, cfg)
        assert isinstance(strat, BalanceToAverageStrategy)
        assert strat.band == 7.5

    def test_duplicate_registration_rejected(self):
        @register_strategy("test-dupe-probe")
        def _probe(config, rng, **params):
            return PaperThresholdStrategy(config.policies)

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("test-dupe-probe")(_probe)
        finally:
            del STRATEGIES["test-dupe-probe"]

    def test_conductor_rng_seed_threading(self):
        """Same seed => same per-node stream; different seed => different."""
        import numpy as np
        import zlib

        def stream(seed, ip="192.168.0.1"):
            return np.random.default_rng([seed, zlib.crc32(ip.encode())])

        a = stream(0).random(4)
        b = stream(0).random(4)
        c = stream(1).random(4)
        assert (a == b).all()
        assert (a != c).any()


class TestEnvironmentIndependence:
    def test_strategy_consumes_no_env(self):
        """Strategies are pure: planning does not advance or touch the
        simulation clock."""
        env = Environment()
        strat = BalanceToAverageStrategy(PolicyConfig(), band=4.0)
        model = model_of(
            90.0,
            [peer("node2", 2, 15.0, ts=99.0)],
            [(FakeProc(1), 30.0)],
        )
        before = env.now
        strat.plan(model)
        assert env.now == before

    @pytest.mark.parametrize("local", [90.0, 60.0, 5.0], ids=["wake", "balance", "drain"])
    def test_consolidate_consumes_no_env(self, local):
        """Every consolidate branch leaves the clock and the model it
        was handed untouched (asleep peers are filtered on a copy)."""
        env = Environment()
        model = model_of(
            local,
            [peer("node2", 2, 15.0, ts=99.0), peer("node3", 3, 0.0, nprocs=0)],
            [(FakeProc(1), 5.0)],
        )
        snapshot = (list(model.peers), list(model.peer_infos), model.average)
        assert ConsolidateStrategy(PolicyConfig()).plan(model) is not None
        assert env.now == 0.0
        assert (list(model.peers), list(model.peer_infos), model.average) == snapshot
