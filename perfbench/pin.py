"""Pin the seed-2015 output digests the benchmark checks.

    python3 perfbench/pin.py --seconds 20

Runs every workload once at the pinned seed without checking digests
and writes what they produced to ``perfbench/digests.json``.  Re-pin
only when a change to the program's output is intended; a change that
claims a speed-up must leave the digests as they are.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

import run
from common import DIGESTS_PATH, OUT_DIR, PINNED_SEED, SCENARIO_SEED


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    pinned = {
        "scenario_seed": SCENARIO_SEED, "seed": PINNED_SEED,
        "seconds": args.seconds,
    }
    unpinned = OUT_DIR / "unpinned-digests.json"
    unpinned.parent.mkdir(exist_ok=True)
    unpinned.write_text("{}\n")
    for workload in sorted(run.WORKLOADS):
        code = run.main([
            "--workload", workload, "--seed", str(PINNED_SEED),
            "--seconds", str(args.seconds), "--trace", "0",
            "--digests", str(unpinned),
        ])
        result = json.loads(
            (OUT_DIR / f"{workload}-seed{PINNED_SEED}-trace0.json").read_text()
        )
        if code != 0 or not result["correct"]:
            raise SystemExit(f"{workload}: run failed; nothing pinned")
        pinned[workload] = result["details"]["digests"]
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
