"""Unit tests for repro.noc: flits, routing, mesh timing/energy, MITTS."""

from __future__ import annotations

import pytest

from repro.arch.params import PitonConfig
from repro.noc.flit import (
    Flit,
    Packet,
    coupling_factor,
    make_invalidation_packet,
    switching_bits,
)
from repro.noc.mesh import MeshNetwork
from repro.noc.mitts import MittsBin, MittsShaper
from repro.noc.router import Port, Router, is_turn
from repro.util.events import EventLedger

ONES = (1 << 64) - 1
AAAA = 0xAAAAAAAAAAAAAAAA
FIVES = 0x5555555555555555


class TestFlit:
    def test_head_needs_dest(self):
        with pytest.raises(ValueError):
            Flit(payload=0, is_head=True)

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            Flit(payload=1 << 64)

    def test_packet_build(self):
        p = Packet.build(dest=7, payloads=[1, 2, 3])
        assert len(p) == 4
        assert p.flits[0].is_head and p.flits[0].dest == 7
        assert p.flits[-1].is_tail

    def test_header_only_packet(self):
        p = Packet.build(dest=3, payloads=[])
        assert len(p) == 1
        assert p.flits[0].is_head and p.flits[0].is_tail

    def test_invalidation_packet_shape(self):
        p = make_invalidation_packet(9, [0] * 6)
        assert len(p) == 7  # 1 header + 6 payload, as in the paper
        with pytest.raises(ValueError):
            make_invalidation_packet(9, [0] * 5)

    def test_switching_bits(self):
        assert switching_bits(0, ONES) == 64
        assert switching_bits(5, 5) == 0

    def test_coupling_fswa_is_max(self):
        assert coupling_factor(AAAA, FIVES) == pytest.approx(1.0)

    def test_coupling_fsw_is_zero(self):
        assert coupling_factor(ONES, 0) == 0.0
        assert coupling_factor(0, ONES) == 0.0

    def test_coupling_no_switching(self):
        assert coupling_factor(123, 123) == 0.0


class TestRouterRouting:
    def test_route_port_xy(self):
        r = Router(tile_id=12, x=2, y=2)
        assert r.route_port(4, 2) is Port.EAST
        assert r.route_port(0, 0) is Port.WEST  # X before Y
        assert r.route_port(2, 4) is Port.SOUTH
        assert r.route_port(2, 0) is Port.NORTH
        assert r.route_port(2, 2) is Port.LOCAL

    def test_is_turn(self):
        assert is_turn(Port.EAST, Port.SOUTH)
        assert not is_turn(Port.EAST, Port.WEST)
        assert not is_turn(Port.LOCAL, Port.EAST)

    def test_queue_capacity(self):
        r = Router(0, 0, 0)
        flit = Flit(payload=0, is_head=True, is_tail=True, dest=1)
        for _ in range(Router.INPUT_QUEUE_DEPTH):
            r.enqueue(Port.LOCAL, flit)
        assert not r.can_accept(Port.LOCAL)
        with pytest.raises(OverflowError):
            r.enqueue(Port.LOCAL, flit)


class TestMeshNetwork:
    def make(self):
        return MeshNetwork(PitonConfig(), EventLedger(), network_id=1)

    def deliver(self, mesh, dest, payloads=(1, 2)):
        packet = Packet.build(dest, list(payloads))
        mesh.inject(packet, 0)
        mesh.drain()
        return packet

    def test_delivery(self):
        mesh = self.make()
        packet = self.deliver(mesh, dest=24)
        assert packet.delivered_at is not None
        assert mesh.in_flight == 0

    def test_zero_hop_delivery(self):
        mesh = self.make()
        packet = self.deliver(mesh, dest=0)
        assert packet.latency is not None
        assert mesh.total_flit_hops == 0

    def test_hop_latency_linear(self):
        """One cycle per hop: latency grows ~1 cycle per extra hop."""
        latencies = {}
        for dest, hops in [(1, 1), (2, 2), (3, 3), (4, 4)]:
            mesh = self.make()
            packet = self.deliver(mesh, dest)
            latencies[hops] = packet.latency
        deltas = [
            latencies[h + 1] - latencies[h] for h in (1, 2, 3)
        ]
        assert all(d == 1 for d in deltas)

    def test_turn_costs_extra_cycle(self):
        straight = self.make()
        p_straight = self.deliver(straight, dest=2)  # 2 hops, no turn
        turned = self.make()
        p_turned = self.deliver(turned, dest=6)  # 2 hops with a turn
        assert p_turned.latency == p_straight.latency + 1

    def test_flit_hop_count(self):
        mesh = self.make()
        self.deliver(mesh, dest=4, payloads=[1, 2, 3])  # 4 flits x 4 hops
        assert mesh.total_flit_hops == 16
        assert mesh.ledger.count("noc1.flit_hop") == 16

    def test_switching_activity_recorded(self):
        mesh = self.make()
        packet = Packet.build(1, [ONES, 0, ONES, 0])
        mesh.inject(packet, 0)
        mesh.drain()
        # Full switching between consecutive payload flits.
        assert mesh.ledger.mean_activity("noc1.flit_hop") > 0.5

    def test_nsw_zero_wire_activity(self):
        mesh = self.make()
        # All-zero payloads to tile 1: only the header differs from 0.
        packet = Packet.build(1, [0, 0, 0, 0, 0, 0])
        mesh.inject(packet, 0)
        mesh.drain()
        assert mesh.ledger.mean_activity("noc1.flit_hop") < 0.05

    def test_multiple_packets_fifo_to_same_dest(self):
        mesh = self.make()
        p1 = Packet.build(5, [1])
        p2 = Packet.build(5, [2])
        mesh.inject(p1, 0)
        mesh.inject(p2, 0)
        mesh.drain()
        assert p1.delivered_at <= p2.delivered_at

    def test_wormhole_no_interleave(self):
        """Two packets from different sources to one destination must
        not interleave flits (wormhole locking)."""
        mesh = self.make()
        a = Packet.build(12, [1, 1, 1, 1])
        b = Packet.build(12, [2, 2, 2, 2])
        mesh.inject(a, 2)
        mesh.inject(b, 10)
        mesh.drain()
        assert len(mesh.delivered) == 2

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a landing tail delivers the oldest packet "
        "injected for its destination, not the packet it belongs to",
    )
    def test_contending_packets_keep_their_own_latency(self):
        """Two sources, one destination: the near packet lands first,
        so neither packet may report less than its solo latency."""
        solo = {}
        for src in (0, 11):
            mesh = self.make()
            packet = Packet.build(12, [1, 2, 3])
            mesh.inject(packet, src)
            mesh.drain()
            solo[src] = packet.latency
        mesh = self.make()
        far = Packet.build(12, [1, 2, 3])
        near = Packet.build(12, [4, 5, 6])
        mesh.inject(far, 0)
        mesh.inject(near, 11)
        mesh.drain()
        assert far.latency >= solo[0]
        assert near.latency >= solo[11]

    def test_drain_detects_stuck(self):
        mesh = self.make()
        with pytest.raises(RuntimeError):
            # Nothing injected, but force a bogus in-flight count by
            # injecting into a full queue scenario is hard; instead
            # check drain succeeds trivially.
            mesh.inject(Packet.build(1, [0]), 0)
            mesh.drain(max_cycles=1)


class TestMitts:
    def test_unlimited_passthrough(self):
        shaper = MittsShaper.unlimited()
        assert shaper.release_time(5) == 5
        assert shaper.release_time(6) == 6

    def test_credit_consumption(self):
        shaper = MittsShaper(
            [MittsBin(0, 2)], epoch_cycles=100
        )
        assert shaper.release_time(0) == 0
        assert shaper.release_time(1) == 1
        # Credits exhausted: next request waits for the epoch refill.
        assert shaper.release_time(2) == 100

    def test_longer_gap_uses_longer_bin(self):
        shaper = MittsShaper(
            [MittsBin(0, 0), MittsBin(50, 5)], epoch_cycles=1000
        )
        # Short-gap request must age into the 50-cycle bin.
        t0 = shaper.release_time(0)
        assert t0 == 0  # first request has no prior gap: longest bin
        t1 = shaper.release_time(10)
        assert t1 >= 50

    def test_increasing_bins_required(self):
        with pytest.raises(ValueError):
            MittsShaper([MittsBin(10, 1), MittsBin(5, 1)])

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            MittsShaper([])

    def test_stall_accounting(self):
        shaper = MittsShaper([MittsBin(0, 1)], epoch_cycles=50)
        shaper.release_time(0)
        shaper.release_time(1)  # stalls to 50
        assert shaper.stalled_cycles_total >= 49
        assert shaper.requests == 2
