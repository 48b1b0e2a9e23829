"""Record the expected output digest of every catalogue operation.

    python3 perfbench/record_expected.py [sim_manycore|noc_mesh ...]

The seeded generators draw every operation from a fixed catalogue, so
the digests recorded here cover every seed. Re-record only when the
catalogue changes or a change to the program is meant to change its
simulated results; a perf-only change must leave every digest as is.
"""

from __future__ import annotations

import json
import sys

from common import BENCH_DIR, import_repro


def record(workload: str) -> dict:
    import wl_noc
    import wl_sim

    mod = wl_sim if workload == "sim_manycore" else wl_noc
    keys = mod.catalogue()
    inputs = mod.build_inputs(keys)
    table = {}
    for key in keys:
        _, _, dig, ok, _ = mod.execute(key, inputs)
        if not ok:
            raise SystemExit(f"{workload} {key}: operation did not complete")
        table[key] = dig
    return table


def main(argv: list[str]) -> int:
    import_repro()
    for workload in argv or ("sim_manycore", "noc_mesh"):
        path = BENCH_DIR / "expected" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(workload), indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
