"""Socket lookup tables: ``ehash``, ``bhash`` and the UDP port table.

Migrating a TCP socket starts by *unhashing* it from both the
established-connections table (``ehash``) and the bound-ports table
(``bhash``); restoring it on the destination ends with *rehashing* into
both (Section V-C.1).  UDP server sockets likewise must be unhashed and
rehashed (Section V-C.2).

Every table is keyed by a flat tuple of builtins -- address strings and
port ints -- so the per-packet lookups hash and compare their keys in C.
Callers still pass :class:`FlowKey` / :class:`IPAddr` objects, or for
the receive path the packet itself (:meth:`SocketTables.ehash_lookup_rx`).
"""

from __future__ import annotations

from typing import Any, Optional

from ..net import FlowKey, IPAddr, Packet

__all__ = ["SocketTables"]


def _ehash_key(key: FlowKey) -> tuple:
    """The flat ``ehash`` key of a flow: (proto, local ip, local port,
    remote ip, remote port)."""
    local, remote = key.local, key.remote
    return (key.proto, local.ip.value, local.port, remote.ip.value, remote.port)


def _bind_key(ip: Optional[IPAddr], port: int) -> tuple:
    """The flat ``bhash``/UDP key of a bind: (ip, port), ip ``None`` for
    a wildcard bind."""
    return (None if ip is None else ip.value, port)


class SocketTables:
    """Per-node socket lookup state."""

    def __init__(self) -> None:
        #: Established TCP connections: _ehash_key(FlowKey) -> TCPSocket.
        self.ehash: dict[tuple, Any] = {}
        #: Bound/listening TCP sockets: _bind_key(ip, port) -> TCPSocket.
        self.bhash: dict[tuple, Any] = {}
        #: Bound UDP sockets: _bind_key(ip, port) -> UDPSocket.
        self.udp_hash: dict[tuple, Any] = {}

    # -- TCP established ------------------------------------------------------
    def ehash_insert(self, key: FlowKey, sock: Any) -> None:
        flat = _ehash_key(key)
        if flat in self.ehash:
            raise ValueError(f"ehash collision for {key}")
        self.ehash[flat] = sock

    def ehash_remove(self, key: FlowKey) -> Any:
        try:
            return self.ehash.pop(_ehash_key(key))
        except KeyError:
            raise ValueError(f"{key} not in ehash") from None

    def ehash_lookup(self, key: FlowKey) -> Optional[Any]:
        return self.ehash.get(_ehash_key(key))

    def ehash_lookup_rx(self, pkt: Packet) -> Optional[Any]:
        """The established socket a received packet belongs to: its
        destination is the socket's local end, its source the remote."""
        return self.ehash.get(
            (pkt.proto, pkt.dst_ip.value, pkt.dport, pkt.src_ip.value, pkt.sport)
        )

    # -- TCP bound/listening -----------------------------------------------------
    def bhash_insert(self, ip: Optional[IPAddr], port: int, sock: Any) -> None:
        key = _bind_key(ip, port)
        if key in self.bhash:
            raise ValueError(f"port {port} already bound")
        self.bhash[key] = sock

    def bhash_remove(self, ip: Optional[IPAddr], port: int) -> Any:
        try:
            return self.bhash.pop(_bind_key(ip, port))
        except KeyError:
            raise ValueError(f"({ip}, {port}) not in bhash") from None

    def bhash_lookup(self, ip: Optional[IPAddr], port: int) -> Optional[Any]:
        """Exact (ip, port) first, then wildcard-IP bind."""
        sock = self.bhash.get(_bind_key(ip, port))
        if sock is None:
            sock = self.bhash.get((None, port))
        return sock

    # -- UDP -------------------------------------------------------------------
    def udp_insert(self, ip: Optional[IPAddr], port: int, sock: Any) -> None:
        key = _bind_key(ip, port)
        if key in self.udp_hash:
            raise ValueError(f"udp port {port} already bound")
        self.udp_hash[key] = sock

    def udp_remove(self, ip: Optional[IPAddr], port: int) -> Any:
        try:
            return self.udp_hash.pop(_bind_key(ip, port))
        except KeyError:
            raise ValueError(f"({ip}, {port}) not in udp hash") from None

    def udp_lookup(self, ip: Optional[IPAddr], port: int) -> Optional[Any]:
        sock = self.udp_hash.get(_bind_key(ip, port))
        if sock is None:
            sock = self.udp_hash.get((None, port))
        return sock

    def counts(self) -> dict[str, int]:
        return {
            "ehash": len(self.ehash),
            "bhash": len(self.bhash),
            "udp": len(self.udp_hash),
        }
