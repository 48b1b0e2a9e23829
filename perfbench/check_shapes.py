"""Check that two seeds give every workload the same shape.

    python3 perfbench/check_shapes.py [TUNING_SEED [HELD_OUT_SEED]]

The generators fix each workload's structure and let the seed choose
only values inside it, so a gain measured while tuning on one seed can
be confirmed on a held-out seed that was never used to tune anything.
This script compares, for both seeds: the class mix of sim_manycore,
the phase lengths of noc_mesh (operations and injected packets per
phase), and the request mix of serve_sweeps. It exits 1 if any differ.
Sizes that the seed is meant to vary (threads, injection spans, grid
points) are printed beside them for reading, not compared.
"""

from __future__ import annotations

import sys

from common import import_repro

#: Never used to tune the benchmark; confirm gain claims on it.
HELD_OUT_SEED = 90210


def shapes(seed: int) -> tuple[dict, dict]:
    """(compared shape, informational sizes) for one seed."""
    import wl_noc
    import wl_serve
    import wl_sim

    shape: dict = {}
    sizes: dict = {}
    ops = wl_sim.generate_ops(seed)
    shape["sim_manycore.class_mix"] = [wl_sim.op_class(k) for k in ops]
    shape["sim_manycore.kinds"] = [k.split(":")[0] for k in ops]
    workloads = wl_sim.build_inputs(ops)
    for cls in (wl_sim.LIGHT, wl_sim.HEAVY):
        sizes[f"sim_manycore.{cls}.threads"] = sum(
            len(tp.programs)
            for k in ops if wl_sim.op_class(k) == cls
            for tp in workloads[k].workload.values()
        )
    ops = wl_noc.generate_ops(seed)
    inputs = wl_noc.build_inputs(ops)
    for cls in (wl_noc.LIGHT, wl_noc.HEAVY):
        phase = [k for k in ops if wl_noc.op_class(k) == cls]
        shape[f"noc_mesh.{cls}.ops"] = len(phase)
        shape[f"noc_mesh.{cls}.packets"] = sum(
            len(inputs[k]["packets"]) for k in phase)
        sizes[f"noc_mesh.{cls}.injection_cycles"] = sum(
            inputs[k]["packets"][-1][0] for k in phase)
    requests = wl_serve.generate_requests(seed)
    shape["serve_sweeps.request_mix"] = wl_serve.request_mix(requests)
    trace = requests[:wl_serve.TRACE_REQUESTS]
    shape["serve_sweeps.trace_mix"] = wl_serve.request_mix(trace)
    sizes["serve_sweeps.trace_grid_points"] = sum(
        len(d["personas"]) * len(d["vdd"]) * len(d["freq_mhz"])
        for _, d in trace if d is not None)
    return shape, sizes


def main(argv: list[str]) -> int:
    import_repro()
    tuning = int(argv[0]) if argv else 1
    held_out = int(argv[1]) if len(argv) > 1 else HELD_OUT_SEED
    (shape_a, size_a), (shape_b, size_b) = shapes(tuning), shapes(held_out)
    differing = [k for k in shape_a if shape_a[k] != shape_b[k]]
    for key in shape_a:
        mark = "DIFFERS" if key in differing else "same"
        print(f"{mark:7s} {key}: {shape_a[key]}")
    for key in size_a:
        print(f"size    {key}: seed {tuning} -> {size_a[key]}, "
              f"seed {held_out} -> {size_b[key]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
