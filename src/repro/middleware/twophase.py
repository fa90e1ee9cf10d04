"""Receiver-side migration admission: two-phase commit + calm-down.

The receiver enters the migrating state through a two-phase commit with
the sender (Section IV-A), one migration at a time.
:class:`MigrationAdmission` is that single slot: a session holds it
while it runs, and a committed release turns it into a *calm-down* that
keeps it occupied until resource indicators have stabilised.
"""

from __future__ import annotations

from typing import Optional

from ..des import Environment

__all__ = ["MigrationAdmission"]


class MigrationAdmission:
    """One node's busy-or-calming migration slot (inbound and outbound
    share it)."""

    def __init__(self, env: Environment, calm_down: float = 10.0) -> None:
        if calm_down < 0:
            raise ValueError("calm-down must be non-negative")
        self.env = env
        self.calm_down = calm_down
        #: The sender holding the slot, or ``None``.
        self.holder: Optional[str] = None
        #: When the current calm-down ends (simulated time).
        self._calm_until = 0.0

    # -- state ------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.holder is not None

    @property
    def calming(self) -> bool:
        return self._calm_until > self.env.now

    @property
    def available(self) -> bool:
        """Neither held by a session nor cooling down."""
        return not (self.busy or self.calming)

    # -- 2PC verbs -----------------------------------------------------------
    def try_reserve(self, who: str) -> bool:
        """Phase 1: take the slot.  Fails while it is held or calming."""
        if not self.available:
            return False
        self.holder = who
        tr = self.env.tracer
        if tr.enabled:
            tr.event("cond.slot.reserve", who=who, in_flight=1, capacity=1)
        return True

    def release(self, who: str, start_calm_down: bool = True) -> None:
        """Phase 2 (commit or abort): free ``who``'s reservation.

        ``start_calm_down`` is set on successful migrations so the load
        indicators can settle; aborts release immediately.
        """
        if who != self.holder:
            raise RuntimeError(
                f"no reservation held by {who!r} (holder: {self.holder!r})"
            )
        self.holder = None
        tr = self.env.tracer
        if tr.enabled:
            tr.event(
                "cond.slot.release", who=who, calm_down=start_calm_down, in_flight=0
            )
        if start_calm_down:
            self._calm_until = self.env.now + self.calm_down
