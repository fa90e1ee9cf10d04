#!/usr/bin/env python
"""Power management by live migration (a Section-VIII future-work case).

At night the DVE empties out: the conductors' ``consolidate`` strategy
drains lightly loaded nodes by live-migrating their zone servers —
connections intact — and a node left managing no process sleeps.  When
the morning crowd returns, overloaded nodes shed zone servers onto the
sleeping ones, which wakes them, and ordinary load balancing resumes.

Run:  python examples/power_management.py
"""

from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import ConductorConfig
from repro.testing import run_for


def main() -> None:
    cluster = build_cluster(n_nodes=4, with_db=False)
    conductors = cluster.install_balancers(
        ConductorConfig(
            migration=LiveMigrationConfig(initial_round_timeout=0.08),
            strategy="consolidate",
            strategy_params={"low": 35.0, "cap": 80.0, "wake": 85.0},
        )
    )

    # Three zone servers per node, daytime load.
    procs = []
    for node, cond in zip(cluster.nodes, conductors):
        for k in range(3):
            proc = node.kernel.spawn_process(f"zone_{node.name}_{k}")
            proc.address_space.mmap(64)
            node.kernel.cpu.set_demand(proc, 0.5)  # 75% per node total
            cond.manage(proc)
            procs.append(proc)

    def asleep() -> list[str]:
        return [c.host.name for c in conductors if c.asleep]

    # Power transitions, sampled once a simulated second.
    power_log = []

    def watch_power():
        was: set[str] = set()
        while True:
            yield cluster.env.timeout(1.0)
            now = set(asleep())
            for name in sorted(now - was):
                power_log.append((cluster.env.now, "sleep", name, ""))
            for name in sorted(was - now):
                power_log.append((cluster.env.now, "wake", name, ""))
            was = now

    cluster.env.process(watch_power(), name="power-log")

    def loads():
        return {n.name: f"{n.kernel.cpu.utilization():.0f}%" for n in cluster.nodes}

    run_for(cluster, 5.0)
    print(f"daytime  loads: {loads()}  asleep: {asleep()}")

    # Night falls: players log off, demand collapses.
    for proc in procs:
        proc.kernel.cpu.set_demand(proc, 0.08)
    run_for(cluster, 60.0)
    print(f"night    loads: {loads()}  asleep: {asleep()}")

    # Morning: the crowd returns.
    for proc in procs:
        proc.kernel.cpu.set_demand(proc, 0.5)
    run_for(cluster, 60.0)
    print(f"morning  loads: {loads()}  asleep: {asleep()}")

    migrations = [e for c in conductors for e in c.events]
    for e in migrations:
        freeze = f"{e.freeze_time * 1e3:.1f} ms freeze" if e.success else "failed"
        detail = f"{e.process_name} -> {e.destination} ({freeze})"
        power_log.append((e.time, "migrate", e.source, detail))
    failed = sum(not e.success for e in migrations)
    print(f"\n{len(migrations)} migrations, {failed} failed; power/migration log:")
    for time, action, node, detail in sorted(power_log, key=lambda r: r[0]):
        print(f"  t={time:6.1f}s {action:8s} {node:6s} {detail}")


if __name__ == "__main__":
    main()
