"""Measurement from outside the simulator.

:class:`Probe` wraps three constructors -- ``Environment``, ``Cluster``
and ``MigrationSession`` -- and the engine's BLCR page dump for the length
of one workload run.  It collects the worlds and migration sessions the
run builds, times world construction, counts dumped pages, and (for the
tracing-overhead ratios) switches on repro's own tracer in every new
environment.  Each wrapper runs once per world, migration or precopy
round, never per event, so an untraced run pays nothing measurable for
it.

:func:`layer_profile` turns a ``cProfile`` pass into per-layer self time
and call counts, one layer per ``repro.<package>``.
"""

from __future__ import annotations

import os
import pstats
import time
from pathlib import Path

#: The layers reported, one per ``repro.<package>``.
LAYERS = (
    "des", "net", "tcpip", "oskern", "core", "blcr",
    "middleware", "dve", "scenarios", "faults", "obs",
)

#: Named counts: a per-layer metric -> the functions whose call counts
#: sum to it, as (path suffix under ``repro/``, function name).
NAMED_CALLS = {
    "net.packet_copies": [("net/packet.py", "copy")],
    "net.checksums": [("net/packet.py", "transport_checksum")],
    "tcpip.segments": [("tcpip/tcp.py", "segment_arrives")],
    # Every FlowKey the stacks construct goes through one of these.
    "tcpip.flow_keys": [
        ("net/packet.py", "flow_key_at_receiver"),
        ("net/addr.py", "reversed"),
        ("tcpip/tcp.py", "flow_key"),
    ],
    "oskern.page_writes": [("oskern/memory.py", "write_range")],
    # The address-space snapshots a page dump is built from.
    "oskern.dirty_dumps": [
        ("oskern/memory.py", "dirty_version_map"),
        ("oskern/memory.py", "dirty_version_runs"),
        ("oskern/memory.py", "content_snapshot"),
    ],
    "middleware.plan_rounds": [("middleware/strategy.py", "round")],
    "scenarios.ticks": [("scenarios/driver.py", "_apply_tick")],
    "faults.injected": [("faults/injector.py", "_record_injection")],
}


class Probe:
    """Context manager collecting what one workload run builds.

    ``trace`` is ``"off"``, ``"plain"`` or ``"causal"``: with tracing on,
    every new environment records through repro's own tracer.
    """

    def __init__(self, trace: str = "off") -> None:
        if trace not in ("off", "plain", "causal"):
            raise ValueError(f"unknown trace mode {trace!r}")
        self.trace = trace
        self.envs: list = []
        self.clusters: list = []
        self.sessions: list = []
        #: Host seconds spent inside ``Cluster.__init__``.
        self.build_s = 0.0
        #: Pages that went through BLCR's page dump (precopy and freeze).
        self.pages_dumped = 0
        self._saved: list = []

    def __enter__(self) -> "Probe":
        import repro.core.precopy as precopy
        from repro.cluster import Cluster
        from repro.core.session import MigrationSession
        from repro.des.engine import Environment

        probe = self
        env_init = Environment.__init__
        cluster_init = Cluster.__init__
        session_init = MigrationSession.__init__
        dump_pages = precopy.dump_pages

        def env_wrapper(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            probe.envs.append(env)
            if probe.trace != "off":
                env.enable_tracing(causal=probe.trace == "causal")

        def cluster_wrapper(cluster, *args, **kwargs):
            t0 = time.perf_counter()
            cluster_init(cluster, *args, **kwargs)
            probe.build_s += time.perf_counter() - t0
            probe.clusters.append(cluster)

        def session_wrapper(session, *args, **kwargs):
            session_init(session, *args, **kwargs)
            probe.sessions.append(session)

        def dump_pages_wrapper(*args, **kwargs):
            pages, size = dump_pages(*args, **kwargs)
            probe.pages_dumped += len(pages)
            return pages, size

        for owner, attr, wrapper in (
            (Environment, "__init__", env_wrapper),
            (Cluster, "__init__", cluster_wrapper),
            (MigrationSession, "__init__", session_wrapper),
            # The engine calls BLCR's page dump through its own import.
            (precopy, "dump_pages", dump_pages_wrapper),
        ):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def cluster_of(self, host):
        for cluster in self.clusters:
            if host in cluster.nodes:
                return cluster
        raise LookupError(f"host {host.name} belongs to no collected cluster")

    def counters(self) -> dict:
        """Counts read from the worlds and reports after the run."""
        links, nics, fabric = [], [], []
        for c in self.clusters:
            links += c.public_links + list(c.local_links.values())
            links += list(c.client_links.values())
            for host in c.all_hosts():
                nics += [i for i in (host.public_iface, host.local_iface) if i is not None]
            fabric += [c.router, c.switch]
        drops = sum(sum(link.packets_dropped) + sum(link.packets_corrupted) for link in links)
        drops += sum(n.tx_dropped + n.rx_dropped for n in nics)
        drops += sum(
            getattr(f, name, 0)
            for f in fabric
            for name in ("dropped_to_unknown_client", "dropped_unmapped", "dropped_unknown_dst")
        )
        reports = [s.report for s in self.sessions]
        planners = [
            host.daemons["conductor"].planner
            for c in self.clusters
            for host in c.nodes
            if "conductor" in host.daemons
        ]
        return {
            "des.events": sum(env._eid for env in self.envs),
            "des.sim_s": sum(env.now for env in self.envs),
            "net.packets": sum(sum(link.packets_sent) for link in links),
            "net.drops": drops,
            "core.migrations": len(reports),
            "core.migrations_failed": sum(not r.success for r in reports),
            "core.precopy_rounds": sum(r.precopy_rounds for r in reports),
            "core.freeze_socket_bytes": sum(r.bytes.freeze_sockets for r in reports),
            "core.wire_bytes": sum(r.bytes.total for r in reports),
            "blcr.pages_dumped": self.pages_dumped,
            "middleware.actions": sum(p.actions_total for p in planners),
            "cluster.build_s": self.build_s,
            "obs.trace_events": sum(len(env.tracer.events) for env in self.envs
                                    if env.tracer.enabled),
        }


def _layer_resolver():
    """``filename -> layer``: the ``repro.<package>`` of a source file
    (``cluster``/``testing`` for repro's top-level modules), ``bench`` for
    the benchmark's own files, ``external`` for everything else."""
    import repro

    repro_dir = str(Path(repro.__file__).resolve().parent) + os.sep
    bench_dir = str(Path(__file__).resolve().parent) + os.sep
    cache: dict[str, str] = {}

    def layer_of(filename: str) -> str:
        layer = cache.get(filename)
        if layer is None:
            path = str(Path(filename).resolve()) if filename[:1] not in ("~", "<") else ""
            if path.startswith(repro_dir):
                layer = Path(path[len(repro_dir):]).parts[0].removesuffix(".py")
            elif path.startswith(bench_dir):
                layer = "bench"
            else:
                layer = "external"
            cache[filename] = layer
        return layer

    return layer_of


def layer_profile(stats: pstats.Stats) -> dict:
    """Per-layer self seconds and call counts, plus the named call
    counts and the profile's total self seconds.

    A repro function's self time counts for its package.  Time in a
    function outside repro (a builtin such as ``heappush``, a stdlib
    helper) counts for the layer of the caller that spent it, as
    cProfile splits it per caller; only time called from outside repro
    stays ``external``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    named = dict.fromkeys(NAMED_CALLS, 0)
    wanted = {
        (suffix, func): name
        for name, funcs in NAMED_CALLS.items()
        for suffix, func in funcs
    }
    layer_of = _layer_resolver()
    total = 0.0
    for (filename, _line, func), (_cc, nc, tt, _ct, callers) in stats.stats.items():
        total += tt
        layer = layer_of(filename)
        if layer == "external" and callers:
            for (cfile, _cl, _cf), (_c, _n, ctt, _cct) in callers.items():
                owner = layer_of(cfile)
                self_s[owner] = self_s.get(owner, 0.0) + ctt
        else:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
        for (suffix, fname), name in wanted.items():
            if fname == func and filename.replace("\\", "/").endswith("repro/" + suffix):
                named[name] += nc
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out.update(named)
    out["profile.total_self_s"] = total
    return out
