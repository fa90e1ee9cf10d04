"""Simulator benchmark: host cost and simulated outcomes of four
paper-shaped workloads, plus a traced pass that attributes host time to
layers.

Run from the repository root::

    python3 simbench/run.py --workload freeze_sweep --seed 1 --seconds 20 --trace 0
    python3 simbench/run.py --workload all --seed 1

``--trace 0`` measures with every observer off and prints the end-to-end
metrics; ``--trace 1`` runs the same workload again with repro's tracer
on (plain, then causal) and once under cProfile, and prints the per-layer
metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the provenance of the run.  An output check that fails prints its cause
on stderr and exits 1.  See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Timed repetitions per run at the least, however long ``--seconds``.
MIN_REPS = 3
#: Host seconds of :func:`reference_loop` at the speed that ``run_s`` and
#: ``setup_s`` are scaled to (its fast-phase time on a 2-core shared VM).
REFERENCE_S = 0.05


#: Gated end-to-end metrics and their units.  Every one is defined,
#: non-zero and steady across seeds on every workload.
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


# -- provenance -------------------------------------------------------------------
def _git(*args: str) -> str | None:
    """Output of a git command on this checkout; None outside a git
    repository (the benchmark also runs from plain source trees)."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    """Everything needed to re-run this result."""
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    tree = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode())
        tree.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "git_revision": revision or "unknown",
        "git_dirty": None if status is None else bool(status),
        "src_sha256": tree.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- measuring ----------------------------------------------------------------------
class _RefEvent:
    __slots__ = ("t", "n")

    def __init__(self, t: int, n: int):
        self.t = t
        self.n = n


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop with the simulator's kind
    of work: object allocation, heap pushes and pops, dict updates."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(40000):
        ev = _RefEvent((i * 7919) % 1000, i)
        heapq.heappush(heap, (ev.t, i, ev))
        table[i & 1023] = table.get(i & 1023, 0) + ev.n
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class HostClock:
    """Scales host seconds to reference speed.

    A shared host's speed swings by a third within seconds.  Each timed
    span is divided by the mean of the reference loops timed just before
    and just after it, and multiplied by :data:`REFERENCE_S`, so a span
    reads the same whatever the host's speed while it ran.
    """

    def __init__(self) -> None:
        self._last = reference_loop()

    def scale(self, elapsed: float) -> float:
        now = reference_loop()
        ref, self._last = (self._last + now) / 2, now
        return elapsed * REFERENCE_S / ref

def one_rep(workload: str, inputs: dict, trace: str = "off", profiler=None):
    """One run of the workload: (outcome, host seconds, probe counters).

    The worlds the run built die with the probe here, before the next
    repetition, so no run pays for collecting its predecessor's garbage.
    """
    from simbench.probe import Probe
    from simbench.workloads import run_workload

    gc.collect()
    with Probe(trace) as probe:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcome = run_workload(workload, inputs, probe)
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.perf_counter() - t0
    return outcome, elapsed, probe.counters()


def _same_digest(ref, outcome, label: str) -> None:
    from simbench.workloads import CheckFailed

    if outcome.digest != ref.digest:
        raise CheckFailed(
            f"{label}: simulated outputs differ between runs of one seed "
            f"(digest {outcome.digest} != {ref.digest})"
        )


def setup_once(workload: str, seed: int) -> float:
    """Host seconds from process start to the first ``Environment.run``
    (imports, input generation, first world build), in a fresh process."""
    from simbench.workloads import CheckFailed

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CheckFailed(
            f"{workload}: set-up probe exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    """Child side of :func:`setup_once`: exit 0 at the first
    ``Environment.run``, before any simulated time passes."""
    from repro.des.engine import Environment
    from simbench.probe import Probe
    from simbench.workloads import make_inputs, run_workload

    def first_run(self, until=None):
        os._exit(0)

    Environment.run = first_run
    with Probe() as probe:
        run_workload(workload, make_inputs(workload, seed), probe)
    print(f"{workload}: never reached Environment.run", file=sys.stderr)
    return 3


def measure_end_to_end(workload: str, inputs: dict, seed: int, seconds: float):
    """Untraced run: returns (metrics, reference outcome, reps, notes).

    The set-up probes are interleaved with the timed repetitions, so both
    medians sample the same stretch of host time.
    """
    ref, _, _ = one_rep(workload, inputs)  # warm-up; also the reference outputs
    raw_times, raw_setups, times, setups = [], [], [], []
    clock = HostClock()
    start = time.perf_counter()
    while (len(times) < MIN_REPS or len(setups) < SETUP_PROBES
           or time.perf_counter() - start < seconds):
        outcome, elapsed, _ = one_rep(workload, inputs)
        _same_digest(ref, outcome, workload)
        raw_times.append(elapsed)
        times.append(clock.scale(elapsed))
        if len(setups) < SETUP_PROBES:
            raw_setups.append(setup_once(workload, seed))
            setups.append(clock.scale(raw_setups[-1]))
    reports = ref.reports
    values = {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_share": sum(r.success for r in reports) / len(reports),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    notes = [_samples("run_s", times), _samples("setup_s", setups),
             _samples("run_s unscaled", raw_times), _samples("setup_s unscaled", raw_setups)]
    return metrics, ref, len(times) + 1, notes


def measure_per_layer(workload: str, inputs: dict, seconds: float):
    """Traced run: returns (metrics, reference outcome, reps, notes)."""
    from simbench.probe import LAYERS, layer_profile

    ref, _, _ = one_rep(workload, inputs)
    runs: dict[str, list] = {"off": [], "plain": [], "causal": []}
    build_s = []
    clock = HostClock()
    start = time.perf_counter()
    # Half the budget for the tracer ratios; the profiled run takes
    # about as long again.
    while not runs["off"] or time.perf_counter() - start < seconds / 2:
        for mode, times in runs.items():
            outcome, elapsed, counters = one_rep(workload, inputs, trace=mode)
            _same_digest(ref, outcome, f"{workload} (tracing {mode})")
            times.append(clock.scale(elapsed))
            if mode == "off":
                build_s.append(counters["cluster.build_s"])
            elif mode == "plain":
                trace_events = counters["obs.trace_events"]
    off_s = statistics.median(runs["off"])
    profiler = cProfile.Profile()
    outcome, profiled_s, counters = one_rep(workload, inputs, profiler=profiler)
    profiled_s = clock.scale(profiled_s)
    _same_digest(ref, outcome, f"{workload} (profiled)")
    metrics = layer_profile(pstats.Stats(profiler))
    metrics.update(counters)
    metrics["cluster.build_s"] = statistics.median(build_s)
    metrics["obs.trace_events"] = trace_events
    metrics["obs.trace_ratio"] = statistics.median(runs["plain"]) / off_s
    metrics["obs.causal_ratio"] = statistics.median(runs["causal"]) / off_s
    metrics["profile_overhead_ratio"] = profiled_s / off_s
    named = {k: (float(v), _per_layer_unit(k)) for k, v in metrics.items()}
    total = metrics["profile.total_self_s"]
    shares = sorted(((metrics[f"{layer}.self_s"] / total, layer) for layer in LAYERS),
                    reverse=True)
    notes = ["self-time shares " + " ".join(f"{layer}={100 * share:.1f}%"
                                            for share, layer in shares if share >= 0.001)]
    notes += [_samples(f"run_s tracing {mode}", times) for mode, times in runs.items()]
    notes.append(f"run_s profiled {profiled_s:.6g}")
    return named, ref, 3 * len(runs["off"]) + 2, notes


# -- reporting --------------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _samples(name: str, values: list) -> str:
    """A sample summary line: count, quartiles and range."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return (f"{name} samples n={len(values)} min={_fmt(min(values))} q1={_fmt(q[0])} "
            f"median={_fmt(q[1])} q3={_fmt(q[2])} max={_fmt(max(values))}")


def report_block(workload: str, metrics: dict, outcome, notes: list) -> list[str]:
    n_failed = sum(not r.success for r in outcome.reports)
    lines = [
        f"== {workload}  digest {outcome.digest}  "
        f"migrations {len(outcome.reports)} (failed {n_failed})"
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<28} {_fmt(value):>14} {unit}")
    for name, (value, unit) in outcome.stats.items():
        lines.append(f"  {name:<28} {_fmt(value):>14} {unit}  (simulated, not gated)")
    lines.extend(f"  {note}" for note in notes)
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Measure one workload and print its block; returns (metrics, reps)."""
    from simbench.workloads import make_inputs

    inputs = make_inputs(workload, seed)
    if trace:
        metrics, ref, reps, notes = measure_per_layer(workload, inputs, seconds)
    else:
        metrics, ref, reps, notes = measure_end_to_end(workload, inputs, seed, seconds)
    print("\n".join(report_block(workload, metrics, ref, notes)))
    print("provenance " + json.dumps(provenance(workload, seed, inputs), sort_keys=True))
    return metrics, reps


def parse_args(argv=None) -> argparse.Namespace:
    from simbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="simbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed repetitions per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a process of its own, as a single-workload run
    measures it (peak memory is per process); metrics are prefixed with
    the workload name."""
    from simbench.workloads import WORKLOADS

    metrics: dict = {}
    attempted = failed = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(_result(failed == 0, attempted, failed, metrics if failed == 0 else {}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = parse_args(argv)
    from simbench.workloads import CheckFailed

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    try:
        metrics, reps = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"simbench: check failed: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - a crashed workload is a failed run
        print(f"simbench: {args.workload} crashed:\n{traceback.format_exc()}",
              file=sys.stderr)
    else:
        print(_result(True, reps, 0, {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}))
        return 0
    print(_result(False, 1, 1, {}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
