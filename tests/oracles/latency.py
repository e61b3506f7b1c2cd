"""NetworkX oracle for the §5.3 latency study: per-pair NetworkX solves,
``networkx.shortest_simple_paths`` for the alternative-path means, and
the transportation network's own ROW shortest path."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.mitigation.latency import (
    DEFAULT_MAX_KM,
    DEFAULT_MAX_PATHS,
    DEFAULT_MIN_KM,
    DEFAULT_SLACK,
    LatencyStudy,
    PairDelays,
    _study_pairs,
)
from repro.transport.network import EdgeKey, TransportationNetwork


def _alternative_paths_mean_km(
    graph: nx.Graph,
    a: str,
    b: str,
    best_km: float,
    max_paths: int,
    slack: float,
) -> float:
    """Mean length of distinct physical paths between two cities.

    Enumerates shortest simple paths until the slack bound or path-count
    cap is hit; always includes the best path.
    """
    lengths: List[float] = []
    generator = nx.shortest_simple_paths(graph, a, b, weight="length_km")
    for path in generator:
        km = sum(
            graph[u][v]["length_km"] for u, v in zip(path, path[1:])
        )
        if km > best_km * slack and lengths:
            break
        lengths.append(km)
        if len(lengths) >= max_paths:
            break
    return sum(lengths) / len(lengths)


def _pair_delays_reference(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    ordered: Sequence[EdgeKey],
    los_of: Dict[EdgeKey, float],
    max_paths: int,
    slack: float,
    row_kinds: Tuple[str, ...],
) -> List[PairDelays]:
    """NetworkX reference: per-pair graph solves (and a per-call ROW
    subgraph rebuild inside ``row_shortest_path``)."""
    conduit_graph = fiber_map.simple_conduit_graph()
    results: List[PairDelays] = []
    for a, b in ordered:
        if a not in conduit_graph or b not in conduit_graph:
            continue
        try:
            best_km = nx.shortest_path_length(
                conduit_graph, a, b, weight="length_km"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        avg_km = _alternative_paths_mean_km(
            conduit_graph, a, b, best_km, max_paths, slack
        )
        try:
            _, row_km = network.row_shortest_path(a, b, kinds=row_kinds)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        results.append(
            PairDelays(
                pair=(a, b),
                best_ms=fiber_delay_ms(best_km),
                avg_ms=fiber_delay_ms(avg_km),
                row_ms=fiber_delay_ms(row_km),
                los_ms=fiber_delay_ms(los_of[(a, b)]),
            )
        )
    return results


def latency_study(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    min_km: float = DEFAULT_MIN_KM,
    max_km: float = DEFAULT_MAX_KM,
    max_pairs: Optional[int] = 400,
    max_paths: int = DEFAULT_MAX_PATHS,
    slack: float = DEFAULT_SLACK,
    seed: int = 97,
    row_kinds: Tuple[str, ...] = ("road", "rail"),
) -> LatencyStudy:
    """Reference :func:`repro.mitigation.latency.latency_study`."""
    ordered, los_of = _study_pairs(
        fiber_map, network, min_km, max_km, max_pairs, seed
    )
    results = _pair_delays_reference(
        fiber_map, network, ordered, los_of, max_paths, slack, tuple(row_kinds)
    )
    return LatencyStudy(pairs=tuple(results))
