"""The benchmark's four workloads: seeded input generation, the
simulation each one runs, and the checks on its outputs.

A workload is two pure steps.  :func:`make_inputs` turns ``(name, seed)``
into a JSON-able parameter dict -- every random choice is drawn here, from
the benchmark's own ``random.Random(seed)``, so the simulator receives only
generated inputs.  :func:`run_workload` runs the simulation those inputs
describe and returns an :class:`Outcome`: the simulated statistics, the
migration reports, and a digest of everything simulated.  Within one
workload every migration starts only after the previous one has finished
(the benchmark drives closed loops; the conductors in ``dve_balance`` and
``chaos_campaign`` decide their own migrations).

Sizes and rates are fixed per workload and only the random details move
with the seed, so host cost is comparable across seeds.  ``small=True``
shrinks the sizes for smoke tests where a workload allows it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from simbench.probe import Probe

WORKLOADS = ("freeze_sweep", "dve_balance", "bulk_migration", "chaos_campaign")

CAMPAIGN_FILE = Path(__file__).resolve().parent / "chaos.campaign"

STRATEGIES = ("iterative", "collective", "incremental-collective")


class CheckFailed(Exception):
    """An output check failed; the message names the cause."""


@dataclass
class Outcome:
    """What one run of a workload simulated."""

    #: Every migration report, in session-creation order.
    reports: list
    #: Simulated statistics, printed but not gated (name -> (value, unit)).
    #: Each exists only on some workloads, and several swing between
    #: seeds by more than any bound: a handful of migrations whose freeze
    #: times are bimodal.
    stats: dict = field(default_factory=dict)
    #: Lines hashed into :attr:`digest`, exact float reprs included.
    digest_lines: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_lines).encode()).hexdigest()[:16]


# -- input generation -----------------------------------------------------------
def _world_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _gen_freeze_sweep(rng: random.Random, small: bool) -> dict:
    conn_counts = (8, 24) if small else (8, 24, 40, 64)
    return {
        # One world seed and warm-up per N, shared by the three
        # strategies, so each N compares the strategies on one world.
        "points": [
            {
                "n": n,
                "world_seed": _world_seed(rng),
                # Warm-up phase within one 50 ms update period.
                "warmup_s": round(rng.uniform(0.3, 0.35), 4),
            }
            for n in conn_counts
        ],
    }


def _gen_dve_balance(rng: random.Random, small: bool) -> dict:
    # Already smoke-sized: fewer clients or a shorter horizon leaves the
    # cluster too even for the balancer to act.
    return {
        "world_seed": _world_seed(rng),
        "n_clients": 3000,
        "duration_s": 60.0,
        "travel_s": 30.0,
        "mover_fraction": 0.7,
        "n_client_conns": 1,
    }


def _gen_bulk_migration(rng: random.Random, small: bool) -> dict:
    pages = 2048 if small else 49152
    return {
        "world_seed": _world_seed(rng),
        "pages": pages,
        "tcp_clients": 2,
        "hot_pages": rng.randrange(24, 41),
        "hot_interval_s": 0.002,
        "hot_offset": rng.randrange(0, pages // 2),
        "churn_pages": pages // 64,
        "churn_interval_s": 0.005,
        "warmup_s": round(rng.uniform(0.15, 0.25), 4),
        "gap_s": round(rng.uniform(0.2, 0.3), 4),
        # Post-copy goes first: post-copy of a process that has migrated
        # before fails in the simulator (see README, Known defects).
        "migrations": [
            {"mode": "postcopy", "compression": "none"},
            {"mode": "precopy", "compression": "none"},
            {"mode": "precopy", "compression": "xbzrle"},
        ],
    }


def _gen_chaos_campaign(rng: random.Random, small: bool) -> dict:
    """Per instance: the campaign seed, and a shift of every fault time
    and of the flash crowd, so no two instances fail at the same point."""
    instances = 1 if small else 6
    return {
        "duration_s": 60.0 if small else None,
        "instances": [
            {
                "seed": _world_seed(rng),
                "fault_shift_s": round(rng.uniform(-4.0, 4.0), 3),
                "flash_shift_s": round(rng.uniform(-5.0, 5.0), 3),
                "flash_zone": rng.randrange(0, 4),
            }
            for _ in range(instances)
        ],
    }


_GENERATORS: dict[str, Callable[[random.Random, bool], dict]] = {
    "freeze_sweep": _gen_freeze_sweep,
    "dve_balance": _gen_dve_balance,
    "bulk_migration": _gen_bulk_migration,
    "chaos_campaign": _gen_chaos_campaign,
}


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """The generated inputs of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), small)


# -- the simulations --------------------------------------------------------------
def _run_freeze_sweep(inputs: dict, out: Outcome) -> None:
    from repro.analysis import SweepConfig, run_freeze_sweep

    for point in inputs["points"]:
        result = run_freeze_sweep(
            SweepConfig(
                conn_counts=(point["n"],),
                repetitions=1,
                seed=point["world_seed"],
                warmup=point["warmup_s"],
            )
        )
        freeze = {p.strategy: p.freeze_time for p in result.points}
        # Fig. 5b: incremental-collective < collective < iterative.
        if not freeze["incremental-collective"] < freeze["collective"] < freeze["iterative"]:
            raise CheckFailed(
                f"freeze_sweep: Fig. 5b order broken at N={point['n']}: "
                + ", ".join(f"{s}={freeze[s] * 1e3:.3f} ms" for s in STRATEGIES)
            )


def _run_dve_balance(inputs: dict, out: Outcome) -> None:
    from repro.analysis import run_fig5def
    from repro.dve import DVEScenarioConfig, MovementConfig, ZoneServerConfig

    cmp = run_fig5def(
        DVEScenarioConfig(
            n_clients=inputs["n_clients"],
            duration=inputs["duration_s"],
            seed=inputs["world_seed"],
            movement=MovementConfig(
                travel_time=inputs["travel_s"], mover_fraction=inputs["mover_fraction"]
            ),
            zone_server=ZoneServerConfig(n_client_conns=inputs["n_client_conns"]),
            sample_interval=5.0,
        )
    )
    _start, end = cmp.without_lb.cpu.common_window()
    off = cmp.without_lb.max_spread(end / 2)
    on = cmp.with_lb.max_spread(end / 2)
    if not on < off:
        raise CheckFailed(
            f"dve_balance: LB-on CPU spread {on:.3f}% is not below LB-off {off:.3f}%"
        )
    out.stats["cpu_spread_pct"] = (on, "%")
    out.stats["cpu_spread_no_lb_pct"] = (off, "%")
    out.digest_lines.append(f"spread off={off!r} on={on!r}")


def _run_bulk_migration(inputs: dict, out: Outcome) -> None:
    from repro.cluster import build_cluster
    from repro.core import LiveMigrationConfig, migrate_process
    from repro.oskern import RpcError
    from repro.testing import establish_clients, run_for

    cluster = build_cluster(n_nodes=2, with_db=False, master_seed=inputs["world_seed"])
    env = cluster.env
    node_a, node_b = cluster.nodes
    proc = node_a.kernel.spawn_process("bulk")
    area = proc.address_space.mmap(inputs["pages"], tag="heap")
    establish_clients(cluster, node_a, proc, 27960, inputs["tcp_clients"], settle=1.0)
    errors = []

    def rotating_writer(count: int, interval: float, offset: int):
        # Fault-aware writes: pause while frozen, demand-fetch after a
        # post-copy thaw, stretch the tick under auto-convergence.
        while True:
            yield env.timeout(interval / max(proc.cpu_throttle, 1e-6))
            try:
                yield from proc.touch_range(area, count, offset)
            except RpcError as exc:  # an aborted post-copy fetch
                errors.append(repr(exc))
                return
            offset += count
            if offset + count > area.npages:
                offset = 0

    env.process(rotating_writer(inputs["hot_pages"], inputs["hot_interval_s"],
                                inputs["hot_offset"]))
    env.process(rotating_writer(inputs["churn_pages"], inputs["churn_interval_s"], 0))
    run_for(cluster, inputs["warmup_s"])
    source, dest = node_a, node_b
    for mig in inputs["migrations"]:
        cfg = LiveMigrationConfig(mode=mig["mode"], compression=mig["compression"])
        report = env.run(until=migrate_process(source, dest, proc, cfg))
        if not report.success:
            raise CheckFailed(
                f"bulk_migration: {mig['mode']}/{mig['compression']} migration failed: "
                f"{report.error}"
            )
        run_for(cluster, inputs["gap_s"])
        source, dest = dest, source
    if proc.address_space.has_absent:
        raise CheckFailed("bulk_migration: pages still absent after the post-copy tail")
    if errors:
        raise CheckFailed(f"bulk_migration: writer failed: {errors[0]}")


def _run_chaos_campaign(inputs: dict, out: Outcome) -> None:
    from repro.faults import FaultPlan
    from repro.scenarios.campaign import parse_campaign, run_campaign
    from repro.scenarios.primitives import FlashCrowd

    base = parse_campaign(CAMPAIGN_FILE.read_text(), path=str(CAMPAIGN_FILE))
    achieved, spread = [], []
    for inst in inputs["instances"]:
        shift = inst["fault_shift_s"]
        faults = FaultPlan()
        for fault in base.faults:
            faults.add(replace(fault, at=max(0.0, fault.at + shift)))
        shapes = [
            replace(s, at=s.at + inst["flash_shift_s"], zone=inst["flash_zone"])
            if isinstance(s, FlashCrowd) else s
            for s in base.scenario.shapes
        ]
        scenario = replace(base.scenario, shapes=shapes)
        if inputs["duration_s"] is not None:
            scenario = replace(scenario, duration=inputs["duration_s"])
        campaign = base.with_overrides(faults=faults, scenario=scenario)
        result = run_campaign(campaign, seed=inst["seed"])
        if not result.passed:
            raise CheckFailed(
                f"chaos_campaign: SLO verdict failed (seed {inst['seed']}):\n"
                + result.slo_report.render()
            )
        achieved.append(result.values["scenario.achieved_ratio"])
        spread.append(result.values["campaign.spread_pct"])
        out.digest_lines.extend(
            f"{k}={v!r}" for k, v in sorted(result.values.items())
        )
    out.stats["achieved_ratio"] = (statistics.fmean(achieved), "ratio")
    out.stats["cpu_spread_pct"] = (statistics.fmean(spread), "%")


_RUNNERS = {
    "freeze_sweep": _run_freeze_sweep,
    "dve_balance": _run_dve_balance,
    "bulk_migration": _run_bulk_migration,
    "chaos_campaign": _run_chaos_campaign,
}


def _is_up(host) -> bool:
    return any(i is not None and i.up for i in (host.public_iface, host.local_iface))


def _check_one_node(probe: Probe) -> None:
    """After the run, each migrated process lives on exactly one node.

    Copies on a crashed node (every interface down) do not count beside a
    live one: the fault model keeps a dead node's kernel tables, so a
    restore it was running when it died leaves a copy there.  A process
    whose only copy is on a crashed node died with it.
    """
    for session in probe.sessions:
        proc = session.proc
        cluster = probe.cluster_of(session.source)
        holders = [h for h in cluster.all_hosts() if h.kernel.processes.get(proc.pid) is proc]
        live = [h for h in holders if _is_up(h)]
        if len(live) > 1 or not holders:
            raise CheckFailed(
                f"{session.label}: process {proc.name} lives on {len(live)} live nodes "
                f"({', '.join(h.name for h in holders) or 'none'})"
            )


def run_workload(workload: str, inputs: dict, probe: Probe) -> Outcome:
    """Run ``workload`` on ``inputs`` under ``probe`` (which collects the
    sessions and worlds it builds).  Raises :class:`CheckFailed`."""
    out = Outcome(reports=[])
    _RUNNERS[workload](inputs, out)
    _check_one_node(probe)
    out.reports = rs = [s.report for s in probe.sessions]
    if not rs:
        raise CheckFailed(f"{workload}: no migration was attempted")
    freezes = [r.freeze_time for r in rs if r.freeze_time is not None]
    out.stats["failed_share"] = (sum(not r.success for r in rs) / len(rs), "ratio")
    if workload != "dve_balance":
        out.stats["freeze_ms_p50"] = (1e3 * statistics.median(freezes), "ms")
        out.stats["freeze_ms_max"] = (1e3 * max(freezes), "ms")
    if workload == "freeze_sweep":
        out.stats["freeze_socket_kb_max"] = (
            max(r.bytes.freeze_sockets for r in rs) / 1e3, "kB"
        )
    if workload in ("freeze_sweep", "bulk_migration"):
        out.stats["wire_mb"] = (sum(r.bytes.total for r in rs) / 1e6, "MB")
    if workload == "bulk_migration":
        out.stats["degradation_ms_max"] = (
            1e3 * max(r.degradation_seconds for r in rs), "ms"
        )
    for r in out.reports:
        # Not the session id: pids come from a process-wide counter.
        out.digest_lines.append(
            f"{r.source}>{r.destination} {r.process_name} {r.strategy} {r.mode} "
            f"{r.compression} ok={r.success} frozen={r.frozen_at!r} thawed={r.thawed_at!r} "
            f"rounds={r.precopy_rounds} bytes={r.bytes.total} sock={r.bytes.freeze_sockets} "
            f"wait={r.postcopy_fault_wait!r} throttled={r.throttled_seconds!r}"
        )
    return out
