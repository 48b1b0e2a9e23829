"""The naive mesh arbiter: the test oracle for ``MeshNetwork``.

:class:`NaiveMeshNetwork` overrides only the arbitration and apply
phases with the original per-port implementation: every cycle it asks
all routers for a grant on every output port, runs a full five-input
round-robin per grant (resolving each head flit's route through the
floorplan), and records ledger events under freshly formatted names.
Injection, ejection, draining and checking are inherited, so a
differential test isolates exactly the arbitration and apply logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.floorplan import TileCoord
from repro.noc.flit import Flit, coupling_factor, switching_bits
from repro.noc.mesh import MeshNetwork
from repro.noc.router import Port, Router, is_turn


@dataclass(frozen=True)
class _Move:
    router: int
    in_port: Port
    out_port: Port


class NaiveMeshNetwork(MeshNetwork):
    """``MeshNetwork`` with the original grant-per-output arbiter."""

    def _arbitrate(self) -> list[_Move]:
        moves: list[_Move] = []
        for router in self.routers:
            for out_port in Port:
                in_port = self._grant(router, out_port)
                if in_port is not None:
                    moves.append(_Move(router.tile_id, in_port, out_port))
        return moves

    def _grant(self, router: Router, out_port: Port) -> Port | None:
        locked_in = router.output_locked_by[out_port]
        if locked_in is not None:
            candidate = router.inputs[locked_in]
            if candidate.head() is None:
                return None
            if candidate.stall_until > self.now:
                return None
            if self._downstream_full(router, out_port):
                return None
            return locked_in
        # Round-robin among inputs whose head flit routes to out_port.
        ports = list(Port)
        start = router.rr_pointer[out_port]
        for i in range(len(ports)):
            in_port = ports[(start + i) % len(ports)]
            ip = router.inputs[in_port]
            if ip.locked_output is not None:
                continue
            head = ip.head()
            if head is None or not head.is_head:
                continue
            coord = self.floorplan.coord_of(head.dest)
            if router.route_port(coord.x, coord.y) != out_port:
                continue
            if ip.stall_until > self.now:
                continue
            if is_turn(in_port, out_port) and ip.stall_until < self.now:
                # First grant of a turning packet burns the turn cycle.
                ip.stall_until = self.now + 1
                router.rr_pointer[out_port] = (ports.index(in_port)) % len(
                    ports
                )
                return None
            if self._downstream_full(router, out_port):
                return None
            # Lock the wormhole path.
            ip.locked_output = out_port
            router.output_locked_by[out_port] = in_port
            router.rr_pointer[out_port] = (ports.index(in_port) + 1) % len(
                ports
            )
            return in_port
        return None

    def _downstream_full(self, router: Router, out_port: Port) -> bool:
        if out_port == Port.LOCAL:
            return False
        neighbor, in_port = self._neighbor(router, out_port)
        return not self.routers[neighbor].can_accept(in_port)

    def _neighbor(self, router: Router, out_port: Port) -> tuple[int, Port]:
        dx, dy, reverse = {
            Port.EAST: (1, 0, Port.WEST),
            Port.WEST: (-1, 0, Port.EAST),
            Port.SOUTH: (0, 1, Port.NORTH),
            Port.NORTH: (0, -1, Port.SOUTH),
        }[out_port]
        coord = TileCoord(router.x + dx, router.y + dy)
        return self.floorplan.tile_id_of(coord), reverse

    def _apply(self, moves: list[_Move]) -> None:
        if moves:
            self.last_progress = self.now
        for move in moves:
            router = self.routers[move.router]
            ip = router.inputs[move.in_port]
            flit = ip.queue.popleft()
            router.flits_routed += 1
            self.ledger.record(
                f"noc{self.network_id}.router_pass",
                activity=flit.payload.bit_count() / 64.0,
            )
            if flit.is_tail:
                ip.locked_output = None
                router.output_locked_by[move.out_port] = None
            if move.out_port == Port.LOCAL:
                self._eject(router.tile_id, flit)
            else:
                neighbor, in_port = self._neighbor(router, move.out_port)
                self._traverse_link(router.tile_id, neighbor, flit)
                self.routers[neighbor].enqueue(in_port, flit)

    def _traverse_link(self, src: int, dst: int, flit: Flit) -> None:
        key = (src, dst)
        prev = self._link_last.get(key, 0)
        toggled = switching_bits(prev, flit.payload)
        self.ledger.record(
            f"noc{self.network_id}.flit_hop", activity=toggled / 64.0
        )
        self.ledger.record(
            f"noc{self.network_id}.coupling",
            activity=coupling_factor(prev, flit.payload),
        )
        self._link_last[key] = flit.payload
        self.link_counts[key] = self.link_counts.get(key, 0) + 1
        self.total_flit_hops += 1
