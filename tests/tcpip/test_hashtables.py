"""Unit tests for socket lookup tables and the demultiplexing over them."""

import re

import pytest

from repro.cluster import build_cluster
from repro.core import migrate_process
from repro.net import Endpoint, FlowKey, IPAddr, Packet, PROTO_TCP, PROTO_UDP, TCPFlags, TCPHeader
from repro.tcpip import SocketTables
from repro.testing import establish_clients, run_for


def fk(port=1000):
    return FlowKey(
        PROTO_TCP,
        Endpoint(IPAddr("203.0.113.10"), 27960),
        Endpoint(IPAddr("198.51.100.1"), port),
    )


class TestEhash:
    def test_insert_lookup_remove(self):
        t = SocketTables()
        t.ehash_insert(fk(), "sock")
        assert t.ehash_lookup(fk()) == "sock"
        assert t.ehash_remove(fk()) == "sock"
        assert t.ehash_lookup(fk()) is None

    def test_collision_rejected(self):
        t = SocketTables()
        t.ehash_insert(fk(), "a")
        with pytest.raises(ValueError):
            t.ehash_insert(fk(), "b")

    def test_remove_missing_rejected(self):
        with pytest.raises(ValueError):
            SocketTables().ehash_remove(fk())


class TestBhash:
    def test_exact_and_wildcard_lookup(self):
        t = SocketTables()
        ip = IPAddr("203.0.113.10")
        t.bhash_insert(ip, 80, "exact")
        t.bhash_insert(None, 81, "wild")
        assert t.bhash_lookup(ip, 80) == "exact"
        assert t.bhash_lookup(ip, 81) == "wild"
        assert t.bhash_lookup(ip, 82) is None

    def test_port_collision(self):
        t = SocketTables()
        t.bhash_insert(None, 80, "a")
        with pytest.raises(ValueError):
            t.bhash_insert(None, 80, "b")

    def test_same_port_different_ip_ok(self):
        t = SocketTables()
        t.bhash_insert(IPAddr("10.0.0.1"), 80, "a")
        t.bhash_insert(IPAddr("10.0.0.2"), 80, "b")
        assert t.bhash_lookup(IPAddr("10.0.0.2"), 80) == "b"

    def test_remove(self):
        t = SocketTables()
        ip = IPAddr("10.0.0.1")
        t.bhash_insert(ip, 80, "a")
        assert t.bhash_remove(ip, 80) == "a"
        with pytest.raises(ValueError):
            t.bhash_remove(ip, 80)


class TestUdpHash:
    def test_insert_lookup_remove(self):
        t = SocketTables()
        ip = IPAddr("10.0.0.1")
        t.udp_insert(ip, 27960, "u")
        assert t.udp_lookup(ip, 27960) == "u"
        assert t.udp_remove(ip, 27960) == "u"
        assert t.udp_lookup(ip, 27960) is None

    def test_wildcard(self):
        t = SocketTables()
        t.udp_insert(None, 53, "dns")
        assert t.udp_lookup(IPAddr("1.2.3.4"), 53) == "dns"

    def test_collision(self):
        t = SocketTables()
        t.udp_insert(None, 53, "a")
        with pytest.raises(ValueError):
            t.udp_insert(None, 53, "b")

    def test_remove_missing(self):
        with pytest.raises(ValueError):
            SocketTables().udp_remove(None, 53)


def test_counts():
    t = SocketTables()
    t.ehash_insert(fk(), "s")
    t.bhash_insert(None, 80, "l")
    t.udp_insert(None, 53, "u")
    assert t.counts() == {"ehash": 1, "bhash": 1, "udp": 1}


class TestFlowKeyApi:
    """The tables key flows internally by flat tuples; callers still speak
    :class:`FlowKey`, matched by value rather than identity."""

    def test_equal_but_distinct_key_round_trip(self):
        t = SocketTables()
        inserted, probe = fk(), fk()
        assert inserted == probe and inserted is not probe
        t.ehash_insert(inserted, "sock")
        assert t.ehash_lookup(probe) == "sock"
        assert t.ehash_remove(probe) == "sock"
        assert t.ehash_lookup(inserted) is None

    def test_other_flows_do_not_match(self):
        t = SocketTables()
        t.ehash_insert(fk(1000), "sock")
        assert t.ehash_lookup(fk(1001)) is None
        assert t.ehash_lookup(fk(1000).reversed()) is None

    def test_collision_through_equal_key_raises(self):
        t = SocketTables()
        t.ehash_insert(fk(), "a")
        with pytest.raises(ValueError, match=re.escape(f"ehash collision for {fk()}")):
            t.ehash_insert(fk(), "b")
        assert t.ehash_lookup(fk()) == "a"

    def test_missing_removal_names_the_flow_key(self):
        with pytest.raises(ValueError, match=re.escape(f"{fk()} not in ehash")):
            SocketTables().ehash_remove(fk())


class Recorder:
    """Stands in for a socket: records what the IP layer hands it."""

    def __init__(self):
        self.got = []

    def segment_arrives(self, pkt):
        self.got.append(pkt)


@pytest.fixture
def node():
    return build_cluster(n_nodes=1, with_db=False).nodes[0]


PEER = IPAddr("198.51.100.7")


def tcp_pkt(node, dport=27960, sport=40000, syn=False):
    flags = TCPFlags(syn=True) if syn else TCPFlags(ack=True)
    return Packet(
        src_ip=PEER, dst_ip=node.public_ip, proto=PROTO_TCP, sport=sport,
        dport=dport, payload_size=8, tcp=TCPHeader(seq=1, ack=1, flags=flags),
    ).seal()


def udp_pkt(node, dport=4000):
    return Packet(
        src_ip=PEER, dst_ip=node.public_ip, proto=PROTO_UDP, sport=40000,
        dport=dport, payload_size=8,
    ).seal()


class TestDemux:
    def test_packet_reaches_the_flow_seen_from_the_receiver(self, node):
        """A packet's destination is the socket's local end, its source
        the remote end."""
        sock = Recorder()
        key = FlowKey(PROTO_TCP, Endpoint(node.public_ip, 27960), Endpoint(PEER, 40000))
        node.stack.tables.ehash_insert(key, sock)
        pkt = tcp_pkt(node)
        node.stack.ip_rcv(pkt, node.public_iface)
        assert sock.got == [pkt]
        stray = tcp_pkt(node, sport=40001)
        node.stack.ip_rcv(stray, node.public_iface)
        assert sock.got == [pkt]
        assert node.stack.ip.no_socket_drops == 1

    def test_wildcard_ip_listener_gets_syn(self, node):
        listener = Recorder()
        node.stack.tables.bhash_insert(None, 27960, listener)
        syn = tcp_pkt(node, syn=True)
        node.stack.ip_rcv(syn, node.public_iface)
        assert listener.got == [syn]
        # A non-SYN segment without an established socket dies silently.
        node.stack.ip_rcv(tcp_pkt(node), node.public_iface)
        assert listener.got == [syn]
        assert node.stack.ip.no_socket_drops == 1

    def test_exact_bind_wins_over_wildcard(self, node):
        exact, wild = Recorder(), Recorder()
        node.stack.tables.bhash_insert(None, 27960, wild)
        node.stack.tables.bhash_insert(node.public_ip, 27960, exact)
        node.stack.ip_rcv(tcp_pkt(node, syn=True), node.public_iface)
        assert len(exact.got) == 1 and wild.got == []

    def test_wildcard_udp_bind_gets_datagram(self, node):
        sock = node.stack.udp_socket()
        node.stack.tables.udp_insert(None, 4000, sock)
        node.stack.ip_rcv(udp_pkt(node), node.public_iface)
        assert sock.datagrams_received == 1
        node.stack.ip_rcv(udp_pkt(node, dport=4001), node.public_iface)
        assert node.stack.ip.no_socket_drops == 1


def test_broadcast_copy_follows_the_migrated_socket():
    """After a migration the router's copy of a client segment is
    delivered to the restored socket on the destination and dropped as
    socket-less on the source."""
    cluster = build_cluster(n_nodes=2, with_db=False)
    source, dest = cluster.nodes
    proc = source.kernel.spawn_process("zone_serv0")
    proc.address_space.mmap(16, tag="heap")
    _, children, clients = establish_clients(cluster, source, proc, 27960, 1)
    report = cluster.env.run(until=migrate_process(source, dest, proc))
    assert report.success
    child = children[0]
    assert dest.stack.tables.ehash_lookup(child.flow_key) is child
    assert source.stack.tables.ehash_lookup(child.flow_key) is None
    run_for(cluster, 0.5)

    src_drops = source.stack.ip.no_socket_drops
    dest_delivered = dest.stack.ip.delivered
    received = child.bytes_received
    clients[0].send("update", 256)
    run_for(cluster, 0.5)
    assert child.bytes_received == received + 256
    assert dest.stack.ip.delivered == dest_delivered + 1
    assert source.stack.ip.no_socket_drops == src_drops + 1
