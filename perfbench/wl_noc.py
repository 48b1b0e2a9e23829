"""Workload ``noc_mesh``: the flit-level mesh, driven directly.

The benchmark drives ``repro.noc.mesh.MeshNetwork`` itself (inject,
``step``, ``drain``), in two phases per pass:

* sparse (the "light" class): the fig12 invalidation streams, one
  7-flit packet per 47-cycle chip-bridge pattern from tile 0 to a tile
  0-8 hops away, in all four bit patterns. Almost every router is empty
  on almost every cycle, so this phase times the fixed per-cycle cost of
  stepping the whole mesh.
* saturated (the "heavy" class): seeded uniform-random, hotspot and
  transpose traffic (6-word payloads, one packet every 1-3 cycles), so
  routers hold flits and the per-flit, grant and ledger costs dominate.

No other workload touches the mesh: the cache model accounts NoC
traffic in the ledger without stepping it. Every run is checked for
delivery (every injected packet and flit arrives) and against the
digest of its ledger recorded in ``expected/noc_mesh.json``.
"""

from __future__ import annotations

import random
import time

PATTERNS = ("NSW", "HSW", "FSW", "FSWA")
MAX_HOPS = 8
STREAM_PACKETS = 8
TRAFFIC_PACKETS = 48
TRAFFIC_WORDS = 6
TRAFFIC_SEEDS = tuple(range(8))
INJECT_EVERY = (1, 2, 3)

#: One pass: the sparse phase (each pattern twice, hop counts drawn by
#: the seed), then the saturated phase (each pattern at each injection
#: interval, traffic seeds drawn by the seed). The slots fix the load,
#: so every seed gives the same phase lengths in operations and packets.
SPARSE_LAYOUT = PATTERNS * 2
SATURATED_LAYOUT = tuple(
    (kind, every) for every in INJECT_EVERY
    for kind in ("uniform", "hotspot", "transpose"))
LIGHT, HEAVY = "sparse", "saturated"


def catalogue() -> list[str]:
    keys = [f"stream:{p}:h{h}" for p in PATTERNS for h in range(MAX_HOPS + 1)]
    for kind in ("uniform", "hotspot"):
        keys += [f"{kind}:s{s}:e{e}" for s in TRAFFIC_SEEDS
                 for e in INJECT_EVERY]
    keys += [f"transpose:e{e}" for e in INJECT_EVERY]
    return keys


def generate_ops(seed: int) -> list[str]:
    rng = random.Random(f"noc_mesh:{seed}")
    ops = [f"stream:{p}:h{rng.randint(0, MAX_HOPS)}" for p in SPARSE_LAYOUT]
    for kind, every in SATURATED_LAYOUT:
        if kind == "transpose":
            ops.append(f"transpose:e{every}")
        else:
            ops.append(f"{kind}:s{rng.choice(TRAFFIC_SEEDS)}:e{every}")
    return ops


def op_class(key: str) -> str:
    return LIGHT if key.startswith("stream:") else HEAVY


def build_input(key: str) -> dict:
    """Everything one mesh run injects: (cycle, src, packet payloads)."""
    import numpy as np

    from repro.arch.floorplan import Floorplan
    from repro.arch.params import PitonConfig
    from repro.noc import traffic
    from repro.workloads.noc_tests import (
        INVALIDATION_NOC,
        PATTERN_CYCLES,
        payload_words,
    )

    config = PitonConfig()
    parts = key.split(":")
    if parts[0] == "stream":
        pattern, hops = parts[1], int(parts[2][1:])
        dest = Floorplan(config).tile_at_hops(0, hops)
        packets = [
            (k * PATTERN_CYCLES, 0, dest, payload_words(pattern, k))
            for k in range(STREAM_PACKETS)
        ]
        return {"network_id": INVALIDATION_NOC, "packets": packets}
    every = int(parts[-1][1:])
    if parts[0] == "transpose":
        pairs = traffic.transpose(TRAFFIC_PACKETS, config)
    else:
        rng = np.random.default_rng(int(parts[1][1:]))
        make = getattr(traffic, {"uniform": "uniform_random",
                                 "hotspot": "hotspot"}[parts[0]])
        pairs = make(TRAFFIC_PACKETS, rng, config)
    words = random.Random(key)
    packets = [
        (k * every, src, dst,
         [words.getrandbits(64) for _ in range(TRAFFIC_WORDS)])
        for k, (src, dst) in enumerate(pairs)
    ]
    return {"network_id": 1, "packets": packets}


def build_inputs(keys: list[str]) -> dict:
    return {key: build_input(key) for key in dict.fromkeys(keys)}


#: What the class rates count, per host second.
RATE_NAME, RATE_UNIT = "kcycles_per_s", "kcycles/s"


def execute(key: str, inputs: dict):
    """One timed operation: inject on schedule, step, drain.

    Returns (host s, mesh cycles, digest, delivered, detail).
    """
    from common import digest, ledger_doc
    from repro.arch.params import PitonConfig
    from repro.noc.flit import Packet
    from repro.noc.mesh import MeshNetwork
    from repro.util.events import EventLedger

    spec = inputs[key]
    start = time.perf_counter()
    mesh = MeshNetwork(PitonConfig(), EventLedger(),
                       network_id=spec["network_id"])
    for at, src, dst, words in spec["packets"]:
        while mesh.now < at:
            mesh.step()
        mesh.inject(Packet.build(dst, words), src)
    mesh.drain()
    elapsed = time.perf_counter() - start
    delivered = (
        len(mesh.delivered) == len(spec["packets"])
        and mesh.flits_ejected == mesh.flits_injected
        and mesh.in_flight == 0
    )
    dig = digest({
        "ledger": ledger_doc(mesh.ledger),
        "cycles": mesh.now,
        "flit_hops": mesh.total_flit_hops,
        "delivered": len(mesh.delivered),
        "latencies": [p.latency for p in mesh.delivered],
    })
    return (elapsed, mesh.now, dig, delivered,
            {"cycles": mesh.now, "flit_hops": mesh.total_flit_hops})


def instrument(rec) -> dict:
    """Wrap the mesh's and ledger's public calls; returns live counters."""
    from repro.noc.mesh import MeshNetwork
    from repro.util.events import EventLedger

    counts = {"router_steps": 0, "busy_router_steps": 0}

    def step_probe(args, before):
        if before is None:
            routers = args[0].routers
            counts["router_steps"] += len(routers)
            counts["busy_router_steps"] += sum(
                1 for r in routers if any(p.queue for p in r.inputs.values())
            )
            return True
        return None

    rec.wrap(MeshNetwork, "step", "noc.step", probe=step_probe)
    rec.wrap(MeshNetwork, "drain", "noc.drain")
    rec.wrap(EventLedger, "record", "events.record")
    rec.wrap(EventLedger, "add_bulk", "events.add_bulk")
    return counts
