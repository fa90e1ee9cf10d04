"""Addressing primitives: IP addresses, endpoints and flow keys."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IPAddr", "Endpoint", "FlowKey", "PROTO_TCP", "PROTO_UDP", "PROTO_CTL"]

PROTO_TCP = "tcp"
PROTO_UDP = "udp"
#: Control-plane protocol used by daemons (conductor, migd, transd).
PROTO_CTL = "ctl"


@dataclass(frozen=True, slots=True, order=True)
class IPAddr:
    """An IPv4-style address.

    Only used as an opaque, comparable identity; no subnetting logic is
    required by the model.
    """

    value: str
    #: The address packed into 32 bits, computed once at construction:
    #: the checksum reads it for every sealed or re-verified packet.
    _int: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = self.value.split(".")
        if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ValueError(f"malformed IPv4 address: {self.value!r}")
        a, b, c, d = (int(p) for p in parts)
        object.__setattr__(self, "_int", (a << 24) | (b << 16) | (c << 8) | d)

    def __str__(self) -> str:
        return self.value

    def as_int(self) -> int:
        """Address as a 32-bit integer (used in checksum computation)."""
        return self._int


@dataclass(frozen=True, slots=True, order=True)
class Endpoint:
    """(IP, port) pair."""

    ip: IPAddr
    port: int

    def __post_init__(self) -> None:
        if not (0 < self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True, slots=True, order=True)
class FlowKey:
    """Connection 4-tuple + protocol, from the *local* point of view.

    This is the key of the established-sockets hashtable (``ehash``); the
    packet-capture filter of Section III-B matches on exactly
    (remote ip, remote port, local port), which :meth:`capture_key`
    exposes.
    """

    proto: str
    local: Endpoint
    remote: Endpoint

    def capture_key(self) -> tuple[IPAddr, int, int]:
        """(remote ip, remote port, local port) — the capture filter match."""
        return (self.remote.ip, self.remote.port, self.local.port)

    def reversed(self) -> "FlowKey":
        """The same flow seen from the peer side."""
        return FlowKey(self.proto, self.remote, self.local)

    def __str__(self) -> str:
        return f"{self.proto}:{self.local}<->{self.remote}"
