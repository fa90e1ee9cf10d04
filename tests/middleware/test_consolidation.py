"""Power management by consolidation: the ``consolidate`` strategy
running on real conductors (drain, sleep, wake, and the planner's
admission / veto / retry machinery)."""

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.faults import FaultPlan, NodeCrash, install_faults
from repro.middleware import ConductorConfig
from repro.testing import run_for


def build(n_nodes=3, **params):
    cluster = build_cluster(n_nodes=n_nodes, with_db=False)
    conductors = cluster.install_balancers(
        ConductorConfig(
            migration=LiveMigrationConfig(initial_round_timeout=0.08),
            strategy="consolidate",
            strategy_params=params,
        )
    )

    def spawn(node, demand, name):
        proc = node.kernel.spawn_process(name)
        proc.address_space.mmap(16)
        node.kernel.cpu.set_demand(proc, demand)
        node.daemons["conductor"].manage(proc)
        return proc

    return cluster, conductors, spawn


def asleep(conductors):
    return [c.host.name for c in conductors if c.asleep]


def workers(node):
    return [p for p in node.kernel.processes.values() if p.name.startswith("w")]


class TestConsolidator:
    def test_idle_node_drained_and_slept(self):
        cluster, conductors, spawn = build()
        spawn(cluster.nodes[0], 0.4, "w0")  # 20%
        spawn(cluster.nodes[1], 0.4, "w1")  # 20%
        spawn(cluster.nodes[2], 0.2, "w2")  # 10%: drained first
        run_for(cluster, 30.0)
        assert "node3" in asleep(conductors)
        # Every process still runs, on an awake node that manages it.
        for cond in conductors:
            assert len(workers(cond.host)) == len(cond.managed)
        assert sum(len(c.managed) for c in conductors) == 3

    def test_no_consolidation_when_busy(self):
        cluster, conductors, spawn = build(low=30.0)
        for i, node in enumerate(cluster.nodes):
            spawn(node, 1.6, f"w{i}")  # 80% each
        run_for(cluster, 20.0)
        assert asleep(conductors) == []
        assert not [e for c in conductors for e in c.events]

    def test_target_cap_respected(self):
        cluster, conductors, spawn = build(cap=70.0)
        spawn(cluster.nodes[0], 1.2, "w0")  # 60%
        spawn(cluster.nodes[1], 1.2, "w1")  # 60%
        spawn(cluster.nodes[2], 0.6, "w2")  # 30% -> drain candidate
        run_for(cluster, 30.0)
        # Moving w2 (30%) onto a 60% node would exceed the 70% cap, so
        # nothing may be drained.
        assert asleep(conductors) == []
        for node in cluster.nodes:
            assert node.kernel.cpu.utilization() <= 70.0 + 1e-6

    def test_wake_on_load_rise(self):
        cluster, conductors, spawn = build(wake=60.0)
        spawn(cluster.nodes[0], 0.3, "w0")
        spawn(cluster.nodes[1], 0.3, "w1")
        spawn(cluster.nodes[2], 0.1, "w2")
        run_for(cluster, 40.0)
        assert len(asleep(conductors)) == 2
        # Load spikes on the one awake node: it sheds onto sleepers.
        for node in cluster.nodes:
            for p in workers(node):
                node.kernel.cpu.set_demand(p, 1.8)
        run_for(cluster, 30.0)
        assert asleep(conductors) == []

    def test_migrations_are_live(self):
        cluster, conductors, spawn = build()
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.2, "w2")
        run_for(cluster, 30.0)
        events = [e for c in conductors for e in c.events]
        assert events
        assert all(e.success and e.freeze_time is not None for e in events)

    def test_disabled_consolidator_is_inert(self):
        cluster, conductors, spawn = build()
        for cond in conductors:
            cond.enabled = False
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[2], 0.1, "w2")
        run_for(cluster, 20.0)
        assert not [e for c in conductors for e in c.events]

    def test_conductor_slot_shared_with_balancer(self):
        """While another actor holds the drain candidate's admission,
        the drain backs off; it proceeds once the admission frees."""
        cluster, conductors, spawn = build()
        spawn(cluster.nodes[0], 0.4, "w0")
        spawn(cluster.nodes[1], 0.4, "w1")
        spawn(cluster.nodes[2], 0.1, "w2")
        conductors[2].admission.try_reserve("balancer")
        run_for(cluster, 15.0)
        assert asleep(conductors) == []
        conductors[2].admission.release("balancer", False)
        run_for(cluster, 15.0)
        assert "node3" in asleep(conductors)

    def test_crashed_candidate_vetoed_or_retried(self):
        """The most-loaded receiver crashes just as the drain starts:
        the conductor's retry/veto path lands the drain on the next
        candidate instead of retrying the dead node forever."""
        cluster, conductors, spawn = build()
        spawn(cluster.nodes[0], 1.0, "w0")  # 50%: first-ranked receiver
        spawn(cluster.nodes[1], 0.6, "w1")  # 30%
        spawn(cluster.nodes[2], 0.2, "w2")  # 10%: drains
        tracer = cluster.env.enable_tracing()
        conductors[2].enabled = False  # loads settle first
        run_for(cluster, 5.0)
        install_faults(cluster, FaultPlan([NodeCrash(cluster.env.now, "node1")]))
        conductors[2].enabled = True
        run_for(cluster, 20.0)
        assert "node3" in asleep(conductors)
        assert [p.name for p in workers(cluster.nodes[1])] == ["w1", "w2"]
        assert len(workers(cluster.nodes[0])) == 1
        names = {e.name for e in tracer.events}
        assert names & {"recover.skip", "recover.retry"}
        outcomes = [
            e.fields["outcome"]
            for e in tracer.events
            if e.name == "plan.outcome" and e.fields["node"] == "node3"
        ]
        assert outcomes[-1] in ("executed", "retried")
