"""The Figure-5 experiment: a 15-minute DVE simulation on five nodes,
with and without the load-balancing middleware.

10,000 clients, 100 zones (10x10 grid, Fig. 5a), 20 zone-server
processes per node, one MySQL session per zone server.  Clients drift
from the middle regions to the up-left and down-right corners, loading
node1 and node5.  The scenario records per-node CPU utilisation
(Fig. 5e/5f) and per-node zone-server counts (Fig. 5d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import Cluster, ClusterConfig
from ..core import LiveMigrationConfig
from ..des import SeriesBundle
from ..middleware import (
    Conductor,
    ConductorConfig,
    MigrationEvent,
    PolicyConfig,
)
from .client import ClientPopulation, MovementConfig
from .mysql import MySQLServer
from .space import ZoneGrid
from .zoneserver import ZoneServer, ZoneServerConfig

__all__ = ["DVEScenarioConfig", "DVEResult", "DVEScenario"]


@dataclass
class DVEScenarioConfig:
    """Everything Figure 5 depends on, with the paper's defaults."""

    n_nodes: int = 5
    grid_cols: int = 10
    grid_rows: int = 10
    n_clients: int = 10_000
    #: "The overall experiment takes approximately 15 minutes."
    duration: float = 900.0
    load_balancing: bool = True
    seed: int = 42
    movement: MovementConfig = field(default_factory=MovementConfig)
    zone_server: ZoneServerConfig = field(default_factory=ZoneServerConfig)
    #: Population/demand refresh and series sampling periods.
    population_interval: float = 1.0
    sample_interval: float = 2.0
    #: Whether zone servers hold real client TCP connections (the
    #: count is zone_server.n_client_conns) and MySQL sessions.
    with_connections: bool = True
    with_db: bool = True
    #: Direct zone-server <-> zone-server boundary links (east
    #: neighbours), migratable on both ends (Section VI-C future work).
    with_neighbor_links: bool = False
    conductor: Optional[ConductorConfig] = None

    def make_conductor_config(self) -> ConductorConfig:
        if self.conductor is not None:
            return self.conductor
        return ConductorConfig(
            policies=PolicyConfig(
                critical_threshold=90.0,
                imbalance_threshold=6.0,
                receiver_margin=2.0,
            ),
            check_interval=1.5,
            calm_down=8.0,
            migration=LiveMigrationConfig(initial_round_timeout=0.16),
        )


@dataclass
class DVEResult:
    """Everything the Figure-5 panels plot."""

    #: Per-node CPU utilisation over time (Fig. 5e / 5f).
    cpu: SeriesBundle
    #: Per-node zone-server process counts over time (Fig. 5d).
    procs: SeriesBundle
    #: All completed migrations, cluster-wide.
    migrations: list[MigrationEvent]
    initial_zone_counts: list[list[int]]
    final_zone_counts: list[list[int]]
    load_balancing: bool

    def final_loads(self) -> dict[str, float]:
        _start, end = self.cpu.common_window()
        return {name: self.cpu[name].value_at(end) for name in self.cpu.names()}

    def final_proc_counts(self) -> dict[str, int]:
        _start, end = self.procs.common_window()
        return {
            name: int(self.procs[name].value_at(end)) for name in self.procs.names()
        }

    def max_spread(self, after: float = 0.0) -> float:
        """Worst max-min CPU spread across nodes after time ``after``."""
        start, end = self.cpu.common_window()
        times = [t for t in self.cpu[self.cpu.names()[0]].times if after <= t <= end]
        return max(self.cpu.spread_at(t) for t in times)


class DVEScenario:
    """Builds and runs the Figure-5 simulation."""

    def __init__(self, config: Optional[DVEScenarioConfig] = None) -> None:
        self.config = config or DVEScenarioConfig()
        cfg = self.config
        self.grid = ZoneGrid(cfg.grid_cols, cfg.grid_rows, cfg.n_nodes)
        self.cluster = Cluster(
            ClusterConfig(n_nodes=cfg.n_nodes, with_db=cfg.with_db, master_seed=cfg.seed)
        )
        self.env = self.cluster.env
        self.population = ClientPopulation(
            self.grid,
            cfg.n_clients,
            self.cluster.rng.stream("dve-clients"),
            cfg.movement,
        )
        self.db: Optional[MySQLServer] = (
            MySQLServer(self.cluster.db) if cfg.with_db else None
        )
        self.zone_servers: list[ZoneServer] = []
        self.conductors: list[Conductor] = []
        self._built = False

    # -- construction -----------------------------------------------------------
    def build(self) -> None:
        """Create zone servers (with their connections) and conductors."""
        if self._built:
            raise RuntimeError("scenario already built")
        self._built = True
        cfg = self.config

        counts = self.population.zone_counts()
        for zone in self.grid.zones:
            node = self.cluster.nodes[self.grid.initial_node_of(zone)]
            zs = ZoneServer(self.cluster, node, zone, db=self.db, config=cfg.zone_server)
            zs.population = int(counts[zone.row, zone.col])
            if cfg.with_connections:
                zs.connect_clients()
            if self.db is not None:
                zs.connect_db()
            if cfg.with_neighbor_links:
                zs.listen_neighbors()
            zs.start()
            self.zone_servers.append(zs)

        if cfg.with_neighbor_links:
            by_zone = {zs.zone.zone_id: zs for zs in self.zone_servers}
            for zs in self.zone_servers:
                if zs.zone.col + 1 < self.grid.cols:
                    east = by_zone[zs.zone.zone_id + 1]
                    zs.connect_neighbor(east)

        if cfg.load_balancing:
            self.conductors = self.cluster.install_balancers(
                cfg.make_conductor_config()
            )
            for zs in self.zone_servers:
                node = zs.current_node()
                node.daemons["conductor"].manage(zs.proc)

    # -- the run -----------------------------------------------------------------
    def run(self) -> DVEResult:
        if not self._built:
            self.build()
        cfg = self.config
        cpu = SeriesBundle()
        procs = SeriesBundle()
        initial_counts = self.population.zone_counts().tolist()
        t_start = self.env.now  # series are recorded relative to this
        t_end = t_start + cfg.duration

        def population_loop():
            while self.env.now < t_end:
                yield self.env.timeout(cfg.population_interval)
                self.population.step(cfg.population_interval)
                counts = self.population.zone_counts()
                for zs in self.zone_servers:
                    zs.set_population(int(counts[zs.zone.row, zs.zone.col]))

        def sampler_loop():
            while self.env.now < t_end:
                now = self.env.now - t_start
                per_node = {n.name: 0 for n in self.cluster.nodes}
                for zs in self.zone_servers:
                    per_node[zs.current_node().name] += 1
                for node in self.cluster.nodes:
                    cpu.record(node.name, now, node.kernel.cpu.utilization())
                    procs.record(node.name, now, per_node[node.name])
                yield self.env.timeout(cfg.sample_interval)

        self.env.process(population_loop(), name="dve-population")
        self.env.process(sampler_loop(), name="dve-sampler")
        self.env.run(until=t_end)

        from dataclasses import replace as dc_replace

        migrations: list[MigrationEvent] = []
        for cond in self.conductors:
            migrations.extend(
                dc_replace(e, time=e.time - t_start) for e in cond.events
            )
        migrations.sort(key=lambda e: e.time)

        return DVEResult(
            cpu=cpu,
            procs=procs,
            migrations=migrations,
            initial_zone_counts=initial_counts,
            final_zone_counts=self.population.zone_counts().tolist(),
            load_balancing=cfg.load_balancing,
        )
