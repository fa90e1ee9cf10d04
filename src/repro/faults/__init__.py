"""Deterministic fault injection and the plans that drive it.

See docs/faults.md for the taxonomy, the DSL grammar, and how the
recovery machinery (failure detector, retry policy) responds to what
this package breaks.
"""

from .dsl import parse_fault, parse_plan
from .injector import FaultInjector, check_target, install_faults
from .plan import (
    MIGD_PHASES,
    Fault,
    FaultPlan,
    LinkLoss,
    LinkPartition,
    MigdAbort,
    MigdAbortInjected,
    NodeCrash,
    NodeStall,
    PacketCorrupt,
)

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "NodeCrash",
    "NodeStall",
    "LinkLoss",
    "LinkPartition",
    "PacketCorrupt",
    "MigdAbort",
    "MigdAbortInjected",
    "MIGD_PHASES",
    "check_target",
    "install_faults",
    "parse_fault",
    "parse_plan",
]
