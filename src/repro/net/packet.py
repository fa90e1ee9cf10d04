"""Packet model: IP + TCP/UDP headers with a computable checksum.

Packets carry a byte *size* (for link serialization-time accounting) and
an opaque *payload* object (application message, checkpoint chunk, ...)
instead of real bytes.  The transport checksum is computed over the
header fields that the paper's address-translation filter rewrites, so a
filter that forgets to fix the checksum produces packets the receiving
stack verifiably drops (Section V-D).
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from .addr import Endpoint, IPAddr, PROTO_CTL, PROTO_TCP, PROTO_UDP

__all__ = [
    "TCPFlags",
    "TCPHeader",
    "Packet",
    "transport_checksum",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
]

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 32  # incl. timestamp option, as on Linux
UDP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class TCPFlags:
    """The TCP flag bits the model uses."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False

    def __str__(self) -> str:
        bits = [n.upper() for n in ("syn", "ack", "fin", "rst") if getattr(self, n)]
        return "|".join(bits) or "-"


@dataclass(slots=True)
class TCPHeader:
    """TCP header: sequence/ack numbers, flags and the timestamp option.

    ``ts_val`` carries the sender's jiffies clock — the field the paper
    must adjust on migration because source and destination nodes have
    different jiffies (Section V-C.1).
    """

    seq: int = 0
    ack: int = 0
    flags: TCPFlags = field(default_factory=TCPFlags)
    window: int = 65535
    ts_val: int = 0
    ts_ecr: int = 0


@dataclass(slots=True)
class Packet:
    """A simulated IP datagram.

    Mutable on purpose: netfilter hooks (capture, address translation)
    rewrite header fields in place, exactly like ``skb`` mangling.
    """

    src_ip: IPAddr
    dst_ip: IPAddr
    proto: str
    sport: int
    dport: int
    payload_size: int
    payload: Any = None
    tcp: Optional[TCPHeader] = None
    checksum: int = 0
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Packet generation time (set by the sender; diagnostics only).
    sent_at: float = 0.0
    #: IP destination-cache entry inherited from the originating socket
    #: (Section V-D).  When set, it — not ``dst_ip`` — decides where the
    #: packet is physically delivered, which is exactly the trap the
    #: paper's translation filter must handle by *replacing* the entry.
    dst_cache_ip: Optional[IPAddr] = None
    #: Total on-wire size in bytes (headers + payload).  Computed once at
    #: construction: header mangling rewrites addresses and ports, never
    #: the protocol or payload size, and the link layer reads this on
    #: every transmit.
    size: int = field(init=False, repr=False, compare=False, default=0)
    #: The checksum-covered fields and the stored checksum as the last
    #: :meth:`seal` left them (``None`` until sealed); see :meth:`checksum_ok`.
    _sealed: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.proto == PROTO_TCP:
            if self.tcp is None:
                raise ValueError("TCP packet without TCP header")
            hdr = IP_HEADER_BYTES + TCP_HEADER_BYTES
        elif self.proto in (PROTO_UDP, PROTO_CTL):
            hdr = IP_HEADER_BYTES + UDP_HEADER_BYTES  # ctl rides on UDP-like framing
        else:
            raise ValueError(f"unknown protocol {self.proto!r}")
        if self.payload_size < 0:
            raise ValueError("negative payload size")
        self.size = hdr + self.payload_size

    @property
    def wire_dst(self) -> IPAddr:
        """Where the packet is physically delivered: the destination-cache
        entry when present, else the header destination."""
        return self.dst_cache_ip if self.dst_cache_ip is not None else self.dst_ip

    @property
    def src(self) -> Endpoint:
        return Endpoint(self.src_ip, self.sport)

    @property
    def dst(self) -> Endpoint:
        return Endpoint(self.dst_ip, self.dport)

    def _covered(self) -> tuple:
        """Every field :func:`transport_checksum` reads, plus the stored
        checksum."""
        tcp = self.tcp
        if tcp is None:
            return (self.src_ip, self.dst_ip, self.proto, self.sport, self.dport,
                    self.payload_size, self.checksum)
        return (self.src_ip, self.dst_ip, self.proto, self.sport, self.dport,
                self.payload_size, tcp.seq, tcp.ack, tcp.flags, self.checksum)

    def seal(self) -> "Packet":
        """Compute and store the transport checksum.  Returns self."""
        self.checksum = transport_checksum(self)
        self._sealed = self._covered()
        return self

    def checksum_ok(self) -> bool:
        """Verify the stored checksum against the current header fields.

        The checksum is a pure function of the covered fields, so while
        they (and the stored checksum) still equal the seal-time snapshot
        the seal's result stands; any rewrite since then recomputes.
        """
        sealed = self._sealed
        if sealed is not None and sealed == self._covered():
            return True
        return self.checksum == transport_checksum(self)

    def copy(self) -> "Packet":
        """Shallow copy with a fresh packet id (used by the broadcast
        router, which delivers one instance per node so that per-node
        header mangling never aliases).

        Fills the slots directly: the original already passed validation,
        and the seal snapshot travels with the copy.
        """
        new = object.__new__(Packet)
        tcp = self.tcp
        if tcp is not None:
            tcp = TCPHeader(tcp.seq, tcp.ack, tcp.flags, tcp.window, tcp.ts_val, tcp.ts_ecr)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.proto = self.proto
        new.sport = self.sport
        new.dport = self.dport
        new.payload_size = self.payload_size
        new.payload = self.payload
        new.tcp = tcp
        new.checksum = self.checksum
        new.pkt_id = next(_packet_ids)
        new.sent_at = self.sent_at
        new.dst_cache_ip = self.dst_cache_ip
        new.size = self.size
        new._sealed = self._sealed
        return new

    def __str__(self) -> str:
        base = f"{self.proto} {self.src}>{self.dst} len={self.size}"
        if self.tcp is not None:
            base += f" seq={self.tcp.seq} ack={self.tcp.ack} [{self.tcp.flags}]"
        return base


_PROTO_IDS = {PROTO_TCP: 6, PROTO_UDP: 17, PROTO_CTL: 253}
_PSEUDO = struct.Struct("!IIBHHI")
_TCP_PART = struct.Struct("!IIB")


def transport_checksum(pkt: Packet) -> int:
    """Checksum over the pseudo-header + transport header fields.

    Covers source/destination IP (the pseudo-header — this is why NAT-style
    rewriting must recompute it), ports, length, and for TCP the sequence
    numbers and flags.  CRC32 stands in for the Internet checksum; only
    the *dependency set* matters for the model.  (struct-packed: this runs
    at every seal, and on receive only when a covered field changed since
    the seal — see :meth:`Packet.checksum_ok`.)
    """
    buf = _PSEUDO.pack(
        pkt.src_ip.as_int(),
        pkt.dst_ip.as_int(),
        _PROTO_IDS[pkt.proto],
        pkt.sport,
        pkt.dport,
        pkt.payload_size,
    )
    tcp = pkt.tcp
    if tcp is not None:
        flags = tcp.flags
        bits = flags.syn | (flags.ack << 1) | (flags.fin << 2) | (flags.rst << 3)
        buf += _TCP_PART.pack(tcp.seq & 0xFFFFFFFF, tcp.ack & 0xFFFFFFFF, bits)
    return zlib.crc32(buf)
