"""Cycle-level mesh network simulation with per-link activity tracking.

Every inter-tile link remembers the last payload it carried; each
traversal records a ``noc{k}.flit_hop`` event weighted by the Hamming
switching fraction and a ``noc{k}.coupling`` event weighted by the
opposite-direction adjacent-bit fraction. Router traversals record
``noc{k}.router_pass``. These are exactly the quantities the Figure 12
energy model prices.

Routing and wiring are looked up in per-configuration tables
(:func:`mesh_tables`), and arbitration visits only routers that hold
flits. ``tests/reference/naive_mesh.py`` keeps the straightforward
arbiter, which asks every router for a grant on every output each
cycle; the property suite checks the two stay identical step by step.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache

from repro.arch.floorplan import Floorplan, TileCoord, floorplan_tables
from repro.arch.params import PitonConfig
from repro.noc.flit import Flit, Packet, coupling_factor, switching_bits
from repro.noc.router import Port, Router, is_turn
from repro.util.events import EventLedger


PORTS = tuple(Port)

#: ``TURN[in_port][out_port]``: the move changes dimension.
TURN = tuple(tuple(is_turn(i, o) for o in PORTS) for i in PORTS)

#: Output port -> (dx, dy, the input port it enters the neighbour by).
_STEPS = {
    Port.NORTH: (0, -1, Port.SOUTH),
    Port.EAST: (1, 0, Port.WEST),
    Port.SOUTH: (0, 1, Port.NORTH),
    Port.WEST: (-1, 0, Port.EAST),
}


@lru_cache(maxsize=16)
def mesh_tables(config: PitonConfig) -> tuple[tuple, tuple]:
    """Routing and wiring tables of one mesh, built on first use.

    Returns ``(route, neighbour)``. ``route[tile][dest]`` is the
    dimension-ordered output a head flit at ``tile`` takes towards
    ``dest`` (:meth:`Router.route_port`). ``neighbour[tile][out]`` is
    the ``(tile, input port)`` that output feeds, or ``None`` for the
    local port and the mesh edge.
    """
    floorplan = Floorplan(config)
    coords = floorplan_tables(config)[0]
    route = tuple(
        tuple(Router(t, c.x, c.y).route_port(d.x, d.y) for d in coords)
        for t, c in enumerate(coords)
    )
    neighbour = []
    for c in coords:
        row: list[tuple[int, Port] | None] = [None] * len(PORTS)
        for out, (dx, dy, entry) in _STEPS.items():
            x, y = c.x + dx, c.y + dy
            if 0 <= x < config.mesh_width and 0 <= y < config.mesh_height:
                row[out] = (floorplan.tile_id_of(TileCoord(x, y)), entry)
        neighbour.append(tuple(row))
    return route, tuple(neighbour)


class MeshNetwork:
    """One physical NoC of the three."""

    #: Step interval between invariant sweeps when a checker is
    #: installed (``drain`` also sweeps once after finishing).
    CHECK_INTERVAL = 64

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        network_id: int = 1,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.network_id = network_id
        self.floorplan = Floorplan(self.config)
        self.routers: list[Router] = []
        for tile in range(self.config.tile_count):
            coord = self.floorplan.coord_of(tile)
            self.routers.append(Router(tile, coord.x, coord.y))
        self._route, self._neighbour = mesh_tables(self.config)
        # Each router's input ports in Port order, and their queues (the
        # deques themselves, so the per-cycle scan sees every change).
        self._ports = tuple(
            tuple(router.inputs[p] for p in PORTS) for router in self.routers
        )
        self._queues = tuple(
            tuple(ip.queue for ip in ports) for ports in self._ports
        )
        self._router_pass = f"noc{network_id}.router_pass"
        self._flit_hop = f"noc{network_id}.flit_hop"
        self._coupling = f"noc{network_id}.coupling"
        # Link switching state: last payload per directed link, plus
        # exact per-link flit counts for traffic analysis.
        self._link_last: dict[tuple[int, int], int] = {}
        self.link_counts: dict[tuple[int, int], int] = {}
        # Packets waiting at each tile's injection port.
        self._inject_queues: dict[int, deque[Flit]] = {
            t: deque() for t in range(self.config.tile_count)
        }
        self._pending_packets: dict[int, deque[Packet]] = {
            t: deque() for t in range(self.config.tile_count)
        }
        self.delivered: list[Packet] = []
        self._eject_partial: dict[int, list[Flit]] = {}
        self._eject_packet_queue: dict[int, deque[Packet]] = {}
        self.now = 0
        self.total_flit_hops = 0
        # Flit-conservation ledger and forward-progress watermark for
        # the invariant checkers; maintained unconditionally (integer
        # adds), consumed only when ``checker`` is installed.
        self.flits_injected = 0
        self.flits_ejected = 0
        self.last_progress = 0
        #: Optional :class:`repro.check.CheckSuite`; ``None`` keeps
        #: the step loop check-free.
        self.checker = None

    # ------------------------------------------------------------- injection
    def inject(self, packet: Packet, at_tile: int) -> None:
        """Queue a packet for injection at ``at_tile``'s local port."""
        self.floorplan.coord_of(packet.dest)  # rejects tiles off the mesh
        packet.injected_at = self.now
        self._pending_packets[at_tile].append(packet)
        self._eject_packet_queue.setdefault(packet.dest, deque()).append(
            packet
        )
        for flit in packet.flits:
            self._inject_queues[at_tile].append(flit)
        self.flits_injected += len(packet.flits)

    @property
    def in_flight(self) -> int:
        """Flits injected but not yet ejected."""
        queued = sum(len(q) for q in self._inject_queues.values())
        buffered = sum(
            len(port.queue)
            for router in self.routers
            for port in router.inputs.values()
        )
        partial = sum(len(f) for f in self._eject_partial.values())
        return queued + buffered + partial

    # ------------------------------------------------------------------ step
    def step(self) -> None:
        """Advance one cycle."""
        self._feed_injection()
        moves = self._arbitrate()
        self._apply(moves)
        self.now += 1
        if self.checker is not None and self.now % self.CHECK_INTERVAL == 0:
            self.checker.check_mesh(self)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until every injected flit has been delivered."""
        for _ in range(max_cycles):
            if self.in_flight == 0:
                if self.checker is not None:
                    self.checker.check_mesh(self)
                return
            self.step()
        raise RuntimeError("network failed to drain (possible deadlock)")

    # ----------------------------------------------------------------- phases
    def _feed_injection(self) -> None:
        for tile, queue in self._inject_queues.items():
            router = self.routers[tile]
            while queue and router.can_accept(Port.LOCAL):
                router.enqueue(Port.LOCAL, queue.popleft())

    def _arbitrate(self) -> list[tuple[int, Port, Port]]:
        """This cycle's grants, as ``(tile, in_port, out_port)`` moves.

        Routers are visited in tile order and a router whose inputs are
        all empty is skipped: it would grant nothing and change no
        state. In a busy router each unlocked head flit's output is
        looked up once; then, per output in ``Port`` order, a locked
        wormhole path forwards its next flit, or the inputs requesting
        that output run the round-robin from its ``rr_pointer``. An
        input requests at most one output, so outputs are independent
        within a cycle and the grants equal asking every port in turn.
        """
        now = self.now
        moves: list[tuple[int, Port, Port]] = []
        for tile, queues in enumerate(self._queues):
            if not any(queues):
                continue
            ports = self._ports[tile]
            route = self._route[tile]
            requests: dict[Port, list[Port]] = {}
            for in_port, ip in zip(PORTS, ports):
                if ip.queue and ip.locked_output is None:
                    head = ip.queue[0]
                    if head.is_head:
                        requests.setdefault(route[head.dest], []).append(
                            in_port
                        )
            router = self.routers[tile]
            locked_by = router.output_locked_by
            rr_pointer = router.rr_pointer
            for out in PORTS:
                locked_in = locked_by[out]
                if locked_in is not None:
                    ip = ports[locked_in]
                    if (
                        ip.queue
                        and ip.stall_until <= now
                        and not self._downstream_full(tile, out)
                    ):
                        moves.append((tile, locked_in, out))
                    continue
                requesters = requests.get(out)
                if requesters is None:
                    continue
                # Requesters are in Port order; rotate to start at the
                # round-robin pointer.
                first = bisect_left(requesters, rr_pointer[out])
                for in_port in requesters[first:] + requesters[:first]:
                    ip = ports[in_port]
                    if ip.stall_until > now:
                        continue
                    if TURN[in_port][out] and ip.stall_until < now:
                        # First grant of a turning packet burns the
                        # turn cycle.
                        ip.stall_until = now + 1
                        rr_pointer[out] = int(in_port)
                    elif not self._downstream_full(tile, out):
                        # Lock the wormhole path.
                        ip.locked_output = out
                        locked_by[out] = in_port
                        rr_pointer[out] = (in_port + 1) % len(PORTS)
                        moves.append((tile, in_port, out))
                    break
        return moves

    def _downstream_full(self, tile: int, out_port: Port) -> bool:
        if out_port is Port.LOCAL:
            return False
        neighbour, in_port = self._neighbour[tile][out_port]
        return not self.routers[neighbour].can_accept(in_port)

    def _apply(self, moves: list[tuple[int, Port, Port]]) -> None:
        if moves:
            self.last_progress = self.now
        record = self.ledger.record
        link_last = self._link_last
        link_counts = self.link_counts
        for tile, in_port, out_port in moves:
            router = self.routers[tile]
            ip = self._ports[tile][in_port]
            flit = ip.queue.popleft()
            payload = flit.payload
            router.flits_routed += 1
            record(self._router_pass, activity=payload.bit_count() / 64.0)
            if flit.is_tail:
                ip.locked_output = None
                router.output_locked_by[out_port] = None
            if out_port is Port.LOCAL:
                self._eject(tile, flit)
                continue
            neighbour, entry = self._neighbour[tile][out_port]
            key = (tile, neighbour)
            prev = link_last.get(key, 0)
            record(
                self._flit_hop,
                activity=switching_bits(prev, payload) / 64.0,
            )
            record(self._coupling, activity=coupling_factor(prev, payload))
            link_last[key] = payload
            link_counts[key] = link_counts.get(key, 0) + 1
            self.total_flit_hops += 1
            self.routers[neighbour].enqueue(entry, flit)

    def _eject(self, tile: int, flit: Flit) -> None:
        partial = self._eject_partial.setdefault(tile, [])
        partial.append(flit)
        if flit.is_tail:
            queue = self._eject_packet_queue.get(tile)
            if queue:
                packet = queue.popleft()
                packet.delivered_at = self.now + 1
                self.delivered.append(packet)
            # Partial flits stay in flight until the tail lands, so
            # the whole packet ejects at once for conservation.
            self.flits_ejected += len(partial)
            self._eject_partial[tile] = []
