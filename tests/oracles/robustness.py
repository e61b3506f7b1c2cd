"""NetworkX oracle for the §5.1 robustness suggestions: the conduit graph
rebuilt per target conduit and solved with one NetworkX Dijkstra."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.mitigation.robustness import RobustnessSuggestion, _suggestion_for_isp
from repro.risk.matrix import RiskMatrix
from repro.risk.metrics import most_shared_conduits


def _risk_graph(fiber_map: FiberMap, exclude: Optional[str] = None) -> nx.Graph:
    """Conduit graph weighted by shared risk (tenant count).

    Parallel conduits collapse to the least-shared one; the conduit being
    optimized away is excluded so the alternate path cannot use it.
    """
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if cid == exclude:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.num_tenants < data["risk"]:
            graph.add_edge(
                a, b, conduit_id=cid, risk=conduit.num_tenants,
                length_km=conduit.length_km,
            )
    return graph


def _optimized_path_reference(
    fiber_map: FiberMap, conduit_id: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """NetworkX reference: the min-shared-risk alternate path around one
    conduit, as ``(conduit_ids, max_risk)``."""
    conduit = fiber_map.conduit(conduit_id)
    graph = _risk_graph(fiber_map, exclude=conduit_id)
    a, b = conduit.edge
    try:
        path = nx.shortest_path(graph, a, b, weight="risk")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    conduits = tuple(
        graph[u][v]["conduit_id"] for u, v in zip(path, path[1:])
    )
    max_risk = max(graph[u][v]["risk"] for u, v in zip(path, path[1:]))
    return conduits, max_risk


def optimize_all_isps(
    fiber_map: FiberMap, matrix: RiskMatrix, top: int = 12
) -> Dict[str, RobustnessSuggestion]:
    """Reference :func:`repro.mitigation.robustness.optimize_all_isps`."""
    shared = [cid for cid, _ in most_shared_conduits(matrix, top=top)]
    solved = {
        cid: _optimized_path_reference(fiber_map, cid)
        for cid in dict.fromkeys(shared)
    }
    return {
        isp: _suggestion_for_isp(fiber_map, isp, shared, solved)
        for isp in matrix.isps
    }
