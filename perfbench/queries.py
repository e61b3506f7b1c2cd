"""The seeded what-if query mix.

The benchmark generates every query itself, from the workload seed and
the cities, conduit edges and ISPs of the scenario's constructed map;
the program only ever sees the generated requests.

Kinds are drawn in blocks of 100 holding exactly the mix below, so
every run sends the same share of each kind, and a pool of any length
is a prefix of a longer one (the pinned digests index into it).  Within
a block each kind's queries are spread evenly with random jitter (the
j-th of n sits at a random point of the j-th n-th of the block), so
the rare, slow kinds never arrive in clumps that only some seeds draw.
Audit and risk queries walk a shuffled cycle of all ISPs, so each pool
audits nearly every ISP equally often.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

#: (kind, queries per block of 100)
MIX: Tuple[Tuple[str, int], ...] = (
    ("latency", 50),
    ("add", 20),
    ("risk", 15),
    ("audit", 12),
    ("cut", 3),
)
KINDS: Tuple[str, ...] = tuple(kind for kind, _ in MIX)


def map_inputs(scenario: Any) -> Dict[str, List[Any]]:
    """Cities, conduit edges and ISPs of *scenario*'s constructed map."""
    fiber_map = scenario.constructed_map
    edges = sorted({
        tuple(sorted(conduit.endpoints))
        for conduit in fiber_map.conduits.values()
    })
    return {
        "cities": sorted(fiber_map.nodes),
        "edges": [list(edge) for edge in edges],
        "isps": sorted(scenario.risk_matrix.isps),
    }


def make_pool(
    seed: int,
    count: int,
    cities: Sequence[str],
    edges: Sequence[Sequence[str]],
    isps: Sequence[str],
) -> List[Dict[str, Any]]:
    """The first *count* queries of the seed's query sequence."""
    rng = random.Random(f"perfbench-queries-{seed}")
    isp_cycle: List[str] = []

    def next_isp() -> str:
        if not isp_cycle:
            isp_cycle.extend(rng.sample(list(isps), len(isps)))
        return isp_cycle.pop()

    def query(kind: str) -> Dict[str, Any]:
        request: Dict[str, Any] = {"v": 1, "kind": kind}
        if kind in ("latency", "add"):
            request["city_a"], request["city_b"] = rng.sample(list(cities), 2)
        elif kind == "risk":
            if rng.random() < 0.5:
                request["isp"] = next_isp()
            else:
                request["top"] = 10
        elif kind == "audit":
            request["isp"] = next_isp()
        else:
            request["city_a"], request["city_b"] = rng.choice(list(edges))
        return request

    pool: List[Dict[str, Any]] = []
    while len(pool) < count:
        slots = sorted(
            ((j + rng.random()) / share, kind)
            for kind, share in MIX
            for j in range(share)
        )
        pool.extend(query(kind) for _, kind in slots)
    return pool[:count]
