"""Differential test: the mesh arbiter against the naive reference.

``MeshNetwork`` arbitrates from per-config route and neighbour tables
and visits only routers that hold flits. ``NaiveMeshNetwork``
(``tests/reference/naive_mesh.py``) asks every router for a grant on
every output port each cycle. Both are driven in lockstep with the same
seeded schedule of ``(cycle, src, dst, payload words)`` injections, an
invariant checker installed and, optionally, a router stalled mid-run;
after every step their whole observable state must be equal exactly:
ledger counts and float weights, every router's queues, locks,
round-robin pointers, turn stalls and flit counts, the link state and
the per-packet delivery cycles.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.naive_mesh import NaiveMeshNetwork

from repro.arch.params import PitonConfig
from repro.check import CheckSuite, inject_stalled_router
from repro.noc.flit import Packet
from repro.noc.mesh import MeshNetwork
from repro.util.events import EventLedger

TILES = PitonConfig().tile_count
WORD = st.integers(0, (1 << 64) - 1)
MAX_CYCLES = 5_000


def _state(mesh: MeshNetwork, packets: list[Packet]) -> dict:
    """Everything the arbitration and apply phases can change."""
    routers = []
    for r in mesh.routers:
        routers.append((
            {p: (list(ip.queue), ip.locked_output, ip.stall_until)
             for p, ip in r.inputs.items()},
            dict(r.output_locked_by),
            dict(r.rr_pointer),
            r.flits_routed,
        ))
    index = {id(p): i for i, p in enumerate(packets)}
    return {
        "now": mesh.now,
        "counts": dict(mesh.ledger.counts),
        "weights": dict(mesh.ledger.weights),
        "routers": routers,
        "link_last": dict(mesh._link_last),
        "link_counts": dict(mesh.link_counts),
        "flit_hops": mesh.total_flit_hops,
        "ejected": mesh.flits_ejected,
        "last_progress": mesh.last_progress,
        "delivered": [index[id(p)] for p in mesh.delivered],
        "latencies": [p.latency for p in packets],
    }


def compute_result(schedule, network_id, stall=None):
    """Drive the fast mesh and the oracle in lockstep; compare each step.

    ``schedule`` holds ``(cycle, src, dst, words)`` injections;
    ``stall`` is ``(cycle, stall_cycles, seed)`` for one
    :func:`inject_stalled_router` applied to both meshes at ``cycle``.
    Returns the number of cycles run.
    """
    meshes = []
    for cls in (MeshNetwork, NaiveMeshNetwork):
        mesh = cls(PitonConfig(), EventLedger(), network_id=network_id)
        mesh.checker = CheckSuite()
        meshes.append((mesh, []))
    pending = sorted(schedule, key=lambda op: op[0])
    fast, naive = meshes
    while pending or fast[0].in_flight:
        assert fast[0].now < MAX_CYCLES, "mesh failed to drain"
        while pending and pending[0][0] <= fast[0].now:
            _, src, dst, words = pending.pop(0)
            for mesh, packets in meshes:
                packet = Packet.build(dst, words)
                packets.append(packet)
                mesh.inject(packet, src)
        if stall is not None and stall[0] == fast[0].now:
            reports = []
            for mesh, _ in meshes:
                try:
                    reports.append(inject_stalled_router(
                        mesh, stall_cycles=stall[1], seed=stall[2]))
                except RuntimeError:  # no router holds flits yet
                    reports.append(None)
            assert reports[0] == reports[1]
        for mesh, _ in meshes:
            mesh.step()
        assert _state(*fast) == _state(*naive), f"diverged at {fast[0].now}"
    assert naive[0].in_flight == 0
    assert len(fast[0].delivered) == len(schedule)
    return fast[0].now


@st.composite
def schedules(draw):
    """Uniform traffic, or many sources converging on one tile."""
    n = draw(st.integers(1, 16))
    hotspot = draw(st.one_of(st.none(), st.integers(0, TILES - 1)))
    ops = []
    for _ in range(n):
        cycle = draw(st.integers(0, 40))
        src = draw(st.integers(0, TILES - 1))
        dst = hotspot if hotspot is not None else draw(
            st.integers(0, TILES - 1))
        words = draw(st.lists(WORD, min_size=0, max_size=6))
        ops.append((cycle, src, dst, words))
    return ops


STALLS = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 30), st.integers(1, 40), st.integers(0, 99)),
)


@given(schedules(), st.sampled_from((1, 2, 3)), STALLS)
@settings(max_examples=40, deadline=None)
def test_fast_arbiter_matches_naive_oracle(schedule, network_id, stall):
    compute_result(schedule, network_id, stall)


def _seeded_ops(seed: int, packets: int) -> list:
    """Dense many-to-one plus background traffic, from ``seed``."""
    rng = random.Random(seed)
    hotspot = rng.randrange(TILES)
    ops = []
    for k in range(packets):
        dst = hotspot if k % 2 else rng.randrange(TILES)
        words = [rng.getrandbits(64) for _ in range(rng.randint(0, 6))]
        ops.append((k // 3, rng.randrange(TILES), dst, words))
    return ops


def test_saturated_contention_matches_naive_oracle():
    """A dense load with turn stalls, full queues and lock contention."""
    for seed, network_id in ((0, 1), (1, 2), (2, 3)):
        compute_result(_seeded_ops(seed, 40), network_id, (12, 25, seed))
