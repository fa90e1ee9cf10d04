"""Property test: the seal-snapshot ``checksum_ok`` == the recomputed oracle.

``Packet.checksum_ok`` skips the checksum computation while the covered
header fields still equal what the last ``seal`` saw.  That shortcut must
be *observationally indistinguishable* from recomputing every time, so
we drive pools of TCP, UDP and CTL packets through seeded random
sequences of every way the stack (or a fault, or a test) can touch them
-- field rewrites, in-place ``seq`` bumps, header replacement, checksum
writes, broadcast copies and re-seals -- and compare against
``pkt.checksum == transport_checksum(pkt)`` after each step.
"""

from hypothesis import given, settings, strategies as st

from repro.net import (
    IPAddr,
    Packet,
    PROTO_CTL,
    PROTO_TCP,
    PROTO_UDP,
    TCPFlags,
    TCPHeader,
    transport_checksum,
)

IPS = ["203.0.113.10", "192.168.0.1", "192.168.0.2"]
PORTS = [80, 1234, 27960]
SIZES = [0, 1, 256]
SEQS = [0, 1, 1000, 2**32 - 1, 2**32]
FLAG_SETS = [dict(ack=True), dict(syn=True), dict(syn=True, ack=True), dict(fin=True, ack=True)]
PROTOS = [PROTO_TCP, PROTO_UDP, PROTO_CTL]

#: Field values, drawn from small pools so that a sequence often writes a
#: field back to its sealed value (the snapshot must then match again).
#: IP addresses and flags are fresh objects on every draw: equal to, but
#: never identical with, the sealed ones.
VALUES = {
    "src_ip": st.sampled_from(IPS).map(IPAddr),
    "dst_ip": st.sampled_from(IPS).map(IPAddr),
    "proto": st.sampled_from(PROTOS),
    "sport": st.sampled_from(PORTS),
    "dport": st.sampled_from(PORTS),
    "payload_size": st.sampled_from(SIZES),
    "tcp.seq": st.sampled_from(SEQS),
    "tcp.ack": st.sampled_from(SEQS),
    "tcp.flags": st.sampled_from(FLAG_SETS).map(lambda kw: TCPFlags(**kw)),
}

headers = st.builds(
    TCPHeader,
    seq=st.sampled_from(SEQS),
    ack=st.sampled_from(SEQS),
    flags=VALUES["tcp.flags"],
    ts_val=st.integers(0, 3),
)

#: One step: (action, index into the packet pool, argument).
steps = st.one_of(
    st.tuples(st.just("assign"), st.integers(0, 7),
              st.sampled_from(sorted(VALUES)).flatmap(
                  lambda name: st.tuples(st.just(name), VALUES[name]))),
    st.tuples(st.just("bump_seq"), st.integers(0, 7), st.none()),
    st.tuples(st.just("replace_tcp"), st.integers(0, 7), st.one_of(headers, st.none())),
    st.tuples(st.just("write_checksum"), st.integers(0, 7),
              st.sampled_from(["zero", "plus_one", "sealed", "correct"])),
    st.tuples(st.just("copy"), st.integers(0, 7), st.none()),
    st.tuples(st.just("seal"), st.integers(0, 7), st.none()),
)


def make_packet(proto, seal):
    pkt = Packet(
        src_ip=IPAddr(IPS[0]),
        dst_ip=IPAddr(IPS[1]),
        proto=proto,
        sport=PORTS[1],
        dport=PORTS[2],
        payload_size=SIZES[2],
        tcp=TCPHeader(seq=1000, ack=1, flags=TCPFlags(ack=True)) if proto == PROTO_TCP else None,
    )
    return pkt.seal() if seal else pkt


def apply(pool, sealed_sums, action, index, arg):
    pkt = pool[index % len(pool)]
    if action == "assign":
        name, value = arg
        if name.startswith("tcp."):
            if pkt.tcp is None:
                return
            setattr(pkt.tcp, name[4:], value)
        else:
            setattr(pkt, name, value)
    elif action == "bump_seq":
        if pkt.tcp is not None:
            pkt.tcp.seq += 1
    elif action == "replace_tcp":
        pkt.tcp = arg
    elif action == "write_checksum":
        pkt.checksum = {
            "zero": 0,
            "plus_one": pkt.checksum + 1,
            "sealed": sealed_sums.get(id(pkt), 0),
            "correct": transport_checksum(pkt),
        }[arg]
    elif action == "copy":
        pool.append(pkt.copy())
        sealed_sums[id(pool[-1])] = sealed_sums.get(id(pkt), 0)
    elif action == "seal":
        pkt.seal()
        sealed_sums[id(pkt)] = pkt.checksum


def assert_matches_oracle(pool):
    for pkt in pool:
        assert pkt.checksum_ok() == (pkt.checksum == transport_checksum(pkt)), pkt


@given(
    proto=st.sampled_from(PROTOS),
    seal=st.booleans(),
    ops=st.lists(steps, max_size=40),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_checksum_ok_matches_recomputation(proto, seal, ops):
    pool = [make_packet(proto, seal)]
    sealed_sums = {id(pool[0]): pool[0].checksum} if seal else {}
    assert_matches_oracle(pool)
    for action, index, arg in ops:
        apply(pool, sealed_sums, action, index, arg)
        assert_matches_oracle(pool)


def test_rewrite_without_reseal_drops_even_after_copy():
    """The broadcast copy of a rewritten, unsealed packet still fails."""
    pkt = make_packet(PROTO_TCP, seal=True)
    pkt.dst_ip = IPAddr(IPS[2])
    assert not pkt.copy().checksum_ok()
    pkt.dst_ip = IPAddr(IPS[1])
    assert pkt.copy().checksum_ok()


def test_copy_of_sealed_packet_detects_its_own_rewrite():
    """Mangling one copy leaves the original and its siblings valid."""
    pkt = make_packet(PROTO_UDP, seal=True)
    a, b = pkt.copy(), pkt.copy()
    a.src_ip = IPAddr(IPS[2])
    assert not a.checksum_ok()
    assert b.checksum_ok() and pkt.checksum_ok()
    a.seal()
    assert a.checksum_ok()
