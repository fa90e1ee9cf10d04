"""Sweep specs: a campaign document plus a ``[matrix]`` section.

A sweep is a declarative parameter matrix over campaign runs — the
vm5k/execo shape: describe *what* to explore in one file, let the
runner own *how* it executes.  The file reuses the campaign 4-section
format and adds two sections::

    [sweep]
    name = diurnal-trio

    [matrix]
    campaign = diurnal-paper | diurnal-cycle-aware | diurnal-workload-balance
    seed = 42 | 43

Axes (``campaign`` × ``strategy`` × ``seed`` × ``faults``) multiply
out to one run per combination.  The base campaign for every run is
either a *named* campaign (the ``campaign`` axis) or an inline one:
any ``[campaign]/[scenario]/[faults]/[slo]`` sections in the same file
form the base document, exactly as ``repro-campaign`` would parse it.
Axis values are ``|``-separated (``,`` accepted when no ``|`` is
present).

Per-axis value syntax:

- ``campaign`` — a :data:`~repro.scenarios.campaign.NAMED_CAMPAIGNS`
  name (mutually exclusive with an inline base);
- ``strategy`` — a strategy name, optionally ``name:k=v,k=v`` to pin
  params (overriding a campaign's strategy clears its old params);
- ``seed`` — an integer;
- ``faults`` — ``none`` or ``;``-separated fault-DSL lines replacing
  the base campaign's plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from ..scenarios.campaign import (
    campaign_names,
    check_fault_target,
    check_strategy,
    get_campaign,
    parse_campaign,
    parse_strategy_value,
)
from ..scenarios.dsl import ScenarioParseError

__all__ = [
    "AXES",
    "NAMED_SWEEPS",
    "SweepRun",
    "SweepSpec",
    "get_sweep",
    "parse_strategy_value",
    "parse_sweep",
    "sweep_names",
]

#: Matrix axes, in run-id / expansion order.
AXES = ("campaign", "strategy", "seed", "faults")

_CAMPAIGN_SECTIONS = ("campaign", "scenario", "faults", "slo")


@dataclass(frozen=True)
class SweepRun:
    """One expanded matrix point (everything the worker needs)."""

    run_id: str
    #: Named campaign to start from; ``None`` uses the spec's inline base.
    campaign: Optional[str]
    #: ``name`` or ``name:k=v,...`` strategy override, or ``None``.
    strategy: Optional[str]
    #: Seed override, or ``None`` for the campaign's own seed.
    seed: Optional[int]
    #: ``;``-separated fault-DSL lines replacing the plan, ``""`` for an
    #: empty plan, or ``None`` to keep the campaign's faults.
    faults: Optional[str]
    #: Axis name -> raw value, as written in the matrix.
    params: dict = field(default_factory=dict)


@dataclass
class SweepSpec:
    """A parsed sweep: name + axes + (optional) inline base campaign."""

    name: str
    #: Axis name -> list of raw string values, in file order.
    axes: dict[str, list[str]]
    #: Inline base campaign document, or ``None`` when the ``campaign``
    #: axis names the bases.
    base_text: Optional[str] = None

    def runs(self) -> list[SweepRun]:
        """Expand the matrix into one :class:`SweepRun` per point."""
        order = [a for a in AXES if a in self.axes]
        out: list[SweepRun] = []
        for combo in product(*(self.axes[a] for a in order)):
            point = dict(zip(order, combo))
            parts: list[str] = []
            if "campaign" in point:
                parts.append(point["campaign"])
            if "strategy" in point:
                parts.append(point["strategy"].split(":", 1)[0])
            if "seed" in point:
                parts.append(f"s{point['seed']}")
            if "faults" in point:
                parts.append(f"f{self.axes['faults'].index(point['faults'])}")
            out.append(
                SweepRun(
                    run_id="+".join(parts) or self.name,
                    campaign=point.get("campaign"),
                    strategy=point.get("strategy"),
                    seed=int(point["seed"]) if "seed" in point else None,
                    faults=(
                        "" if point.get("faults") == "none" else point.get("faults")
                    ),
                    params=point,
                )
            )
        return out

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


def _split_values(raw: str) -> list[str]:
    sep = "|" if "|" in raw else ","
    return [v.strip() for v in raw.split(sep) if v.strip()]


def parse_sweep(text: str, path: str = "<sweep>") -> SweepSpec:
    """Parse a sweep document.

    ``[sweep]`` and ``[matrix]`` are consumed here; any campaign
    sections are re-assembled (original line numbers preserved) and
    validated through :func:`~repro.scenarios.campaign.parse_campaign`
    so errors in the base point at the right line of the sweep file.
    """
    from ..faults.dsl import parse_fault

    sweep_lines: list[tuple[int, str]] = []
    matrix_lines: list[tuple[int, str]] = []
    base_lines: dict[int, str] = {}
    has_base = False
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(path, lineno, line, "unterminated section header")
            name = line[1:-1].strip()
            if name in ("sweep", "matrix"):
                current = name
                continue
            if name not in _CAMPAIGN_SECTIONS:
                known = ", ".join(("sweep", "matrix") + _CAMPAIGN_SECTIONS)
                raise ScenarioParseError(
                    path, lineno, name, f"unknown section (known: {known})"
                )
            current = f"base:{name}"
            has_base = True
            base_lines[lineno] = line
            continue
        if current is None:
            raise ScenarioParseError(
                path, lineno, line.split()[0], "content before any [section] header"
            )
        if current == "sweep":
            sweep_lines.append((lineno, line))
        elif current == "matrix":
            matrix_lines.append((lineno, line))
        else:
            base_lines[lineno] = line

    name = ""
    for lineno, line in sweep_lines:
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ScenarioParseError(path, lineno, line, "sweep entries must be 'key = value'")
        if key != "name":
            raise ScenarioParseError(path, lineno, key, "unknown sweep key (known: name)")
        name = value
    if not name:
        raise ScenarioParseError(path, 0, "name", "sweep needs a [sweep] 'name = ...' entry")

    axes: dict[str, list[str]] = {}
    faults: list = []  # (lineno, fault) of every faults-axis line
    for lineno, line in matrix_lines:
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ScenarioParseError(path, lineno, line, "matrix entries must be 'axis = v1 | v2'")
        if key not in AXES:
            raise ScenarioParseError(
                path, lineno, key, f"unknown matrix axis (known: {', '.join(AXES)})"
            )
        values = _split_values(value)
        if not values:
            raise ScenarioParseError(path, lineno, line, "matrix axis has no values")
        if key == "seed":
            for v in values:
                try:
                    int(v)
                except ValueError:
                    raise ScenarioParseError(path, lineno, v, "seed values must be integers") from None
        elif key == "campaign":
            known = campaign_names()
            for v in values:
                if v not in known:
                    raise ScenarioParseError(
                        path, lineno, v, f"unknown campaign (known: {', '.join(known)})"
                    )
        elif key == "strategy":
            for v in values:
                check_strategy(*parse_strategy_value(v, path, lineno), path, lineno, v)
        elif key == "faults":
            for v in values:
                if v == "none":
                    continue
                for fault_line in v.split(";"):
                    try:
                        faults.append((lineno, parse_fault(fault_line.strip())))
                    except ValueError as exc:
                        raise ScenarioParseError(path, lineno, fault_line, str(exc)) from None
    if not axes and not matrix_lines:
        raise ScenarioParseError(path, 0, "matrix", "sweep needs a [matrix] section")
    for lineno, line in matrix_lines:
        key = line.partition("=")[0].strip()
        value = line.partition("=")[2].strip()
        axes[key] = _split_values(value)

    base_text: Optional[str] = None
    if has_base:
        if "campaign" in axes:
            raise ScenarioParseError(
                path,
                0,
                "campaign",
                "a sweep uses either a campaign axis or an inline base, not both",
            )
        # Reconstruct with original line numbers so campaign parse
        # errors point into the sweep file.
        max_line = max(base_lines)
        base_text = "\n".join(base_lines.get(i, "") for i in range(1, max_line + 1))
        bases = [parse_campaign(base_text, path=path)]
    elif "campaign" not in axes:
        raise ScenarioParseError(
            path, 0, "campaign", "sweep needs a campaign axis or inline campaign sections"
        )
    else:
        bases = [get_campaign(name) for name in axes["campaign"]]
    # Every faults value replaces every base's plan, so each must fit
    # every base's cluster.
    for lineno, fault in faults:
        for base in bases:
            check_fault_target(fault, base.scenario.nodes, path, lineno)

    return SweepSpec(name=name, axes=axes, base_text=base_text)


#: Ready-made sweeps (``repro-sweep list`` / ``run --name``).
NAMED_SWEEPS: dict[str, str] = {
    # The diurnal strategy head-to-head as one command: the same
    # workload under all three decision strategies.
    "diurnal-trio": """\
[sweep]
name = diurnal-trio

[matrix]
campaign = diurnal-paper | diurnal-cycle-aware | diurnal-workload-balance
seed = 42
""",
    # Crash-recovery campaigns across seeds: does the verdict hold when
    # the churn and fault dice change?
    "crash-seeds": """\
[sweep]
name = crash-seeds

[matrix]
campaign = flash-crowd-node-crash | correlated-crashes
seed = 42 | 43
""",
    # Strategy × fault grid over one inline base: the zipf skew decided
    # by both the paper rule and band balancing, clean and under loss.
    "zipf-strategy-grid": """\
[sweep]
name = zipf-strategy-grid

[matrix]
strategy = paper-threshold | workload-balance-to-average:band=22
faults = none | t=45 loss link node1 rate=0.05 duration=40
seed = 42

[campaign]
name = zipf-grid-base
quick_duration = 120

[scenario]
clients 400
duration 240
tick 1
grid 4x4
nodes 4
server cpu_per_client=0.006 cpu_base=0.02 pages=48
zones zipf s=1.1

[slo]
scenario.achieved_ratio >= 0.95
""",
}


def sweep_names() -> list[str]:
    return sorted(NAMED_SWEEPS)


def get_sweep(name: str) -> SweepSpec:
    """Parse one named sweep.  Raises :class:`KeyError` for typos."""
    text = NAMED_SWEEPS.get(name)
    if text is None:
        raise KeyError(f"unknown sweep {name!r} (known: {', '.join(sweep_names())})")
    return parse_sweep(text, path=f"<sweep:{name}>")
