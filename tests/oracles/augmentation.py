"""NetworkX oracles for the §5.2 augmentation search and the §6.3
conduit exchange.

:class:`_FootprintRouter` routes one provider's footprint with dict
Dijkstras; :class:`ReferenceAugmentationEnv` runs any driver on it, and
:func:`plan_exchange` is the exchange's original per-candidate gain
loop.  The parity suites require the substrate implementations in
:mod:`repro.mitigation` to match these exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.mitigation import augmentation as _aug
from repro.mitigation.augmentation import (
    COST_PENALTY_PER_KM,
    LENGTH_EPSILON,
    AugmentationResult,
    candidate_new_edges,
)
from repro.mitigation.drivers import AugmentationEnv, make_driver, run_driver
from repro.mitigation.exchange import (
    COST_PER_KM,
    MIN_GAIN,
    ExchangeConduit,
    ExchangeMember,
)
from repro.transport.network import EdgeKey, TransportationNetwork


class _FootprintRouter:
    """Minimum-risk routing over one provider's (augmentable) footprint."""

    def __init__(self, fiber_map: FiberMap, isp: str):
        self.graph = nx.Graph()
        for cid, conduit in sorted(fiber_map.conduits.items()):
            if isp not in conduit.tenants:
                continue
            a, b = conduit.edge
            weight = conduit.num_tenants + LENGTH_EPSILON * conduit.length_km
            data = self.graph.get_edge_data(a, b)
            if data is None or weight < data["w"]:
                self.graph.add_edge(
                    a, b, w=weight, risk=conduit.num_tenants
                )

    def add_private_conduit(self, edge: EdgeKey, length_km: float) -> None:
        weight = 1.0 + LENGTH_EPSILON * length_km
        data = self.graph.get_edge_data(*edge)
        if data is None or weight < data["w"]:
            self.graph.add_edge(edge[0], edge[1], w=weight, risk=1)

    def route_exposure(self, demands: Sequence[EdgeKey]) -> float:
        """Traffic-weighted average shared risk over all demands."""
        total_risk = 0.0
        total_hops = 0
        for a, b in demands:
            try:
                path = nx.shortest_path(self.graph, a, b, weight="w")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            for u, v in zip(path, path[1:]):
                total_risk += self.graph[u][v]["risk"]
                total_hops += 1
        if total_hops == 0:
            return 0.0
        return total_risk / total_hops

    def dijkstra_risk(self, source: str) -> Dict[str, float]:
        if source not in self.graph:
            return {}
        return nx.single_source_dijkstra_path_length(
            self.graph, source, weight="w"
        )


def _dist_from(
    router: _FootprintRouter, cache: Dict[str, Dict[str, float]], source: str
) -> Dict[str, float]:
    """``router.dijkstra_risk(source)``, computed only on a cache miss."""
    dist = cache.get(source)
    if dist is None:
        dist = cache[source] = router.dijkstra_risk(source)
    return dist


class _ReferenceEngine:
    """NetworkX reference state for :class:`AugmentationEnv` (dict
    Dijkstras per demand source and candidate endpoint per estimate).
    *substrate* is accepted for signature parity and ignored."""

    def __init__(
        self,
        fiber_map: FiberMap,
        isp: str,
        candidates: List[Tuple[EdgeKey, float]],
        substrate=None,
    ):
        self._fiber_map = fiber_map
        self._isp = isp
        self.router = _FootprintRouter(fiber_map, isp)
        self.demands = sorted(
            {link.endpoints for link in fiber_map.links_of(isp)}
        )
        footprint_cities = set(self.router.graph.nodes)
        eligible = [
            (edge, length)
            for edge, length in candidates
            if edge[0] in footprint_cities and edge[1] in footprint_cities
        ]
        self.pool = eligible[: _aug.MAX_CANDIDATES]
        self.pool_truncated = len(eligible) - len(self.pool)
        self.baseline = self.router.route_exposure(self.demands)

    def reset(self) -> None:
        self.router = _FootprintRouter(self._fiber_map, self._isp)

    def estimate_scores(self, applied: Set[int]) -> List[Optional[float]]:
        router = self.router
        demands = self.demands
        # Current demand costs, computed once per estimate: one Dijkstra
        # per distinct demand source.
        sources = sorted({a for a, _ in demands} | {b for _, b in demands})
        dist_from: Dict[str, Dict[str, float]] = {
            s: router.dijkstra_risk(s) for s in sources
        }
        current_cost: Dict[EdgeKey, float] = {}
        for a, b in demands:
            cost = dist_from.get(a, {}).get(b)
            if cost is not None:
                current_cost[(a, b)] = cost
        inf = float("inf")
        scores: List[Optional[float]] = []
        for pos, (edge, length) in enumerate(self.pool):
            if pos in applied:
                scores.append(None)
                continue
            # Estimated gain: links that would reroute through the new
            # conduit save (old path cost) - (cost via new conduit).
            from_u = _dist_from(router, dist_from, edge[0])
            from_v = _dist_from(router, dist_from, edge[1])
            new_weight = 1.0 + LENGTH_EPSILON * length
            gain = 0.0
            for (a, b), cost in current_cost.items():
                # Inf-safe on both orientations, mirroring the kernel's
                # mask-on-the-min (see candidate_gain).
                via_new = min(
                    from_u.get(a, inf) + new_weight + from_v.get(b, inf),
                    from_v.get(a, inf) + new_weight + from_u.get(b, inf),
                )
                if via_new < cost:
                    gain += cost - via_new
            scores.append(gain - COST_PENALTY_PER_KM * length)
        return scores

    def apply(self, pos: int) -> float:
        edge, length = self.pool[pos]
        self.router.add_private_conduit(edge, length)
        return self.router.route_exposure(self.demands)


class ReferenceAugmentationEnv(AugmentationEnv):
    """:class:`AugmentationEnv` on the NetworkX reference engine."""

    engine_type = _ReferenceEngine


def improvement_curve(
    fiber_map: FiberMap,
    network: Optional[TransportationNetwork],
    isp: str,
    max_k: int = 10,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
    driver="greedy",
    driver_seed: int = 0,
    **driver_params,
) -> AugmentationResult:
    """Reference :func:`repro.mitigation.augmentation.improvement_curve`."""
    env = ReferenceAugmentationEnv(
        fiber_map, network, isp, max_k=max_k, candidates=candidates
    )
    return run_driver(env, make_driver(driver, seed=driver_seed, **driver_params))


def improvement_curves(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isps: Sequence[str],
    max_k: int = 10,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
) -> Dict[str, AugmentationResult]:
    """Reference :func:`repro.mitigation.augmentation.improvement_curves`
    (greedy driver, serial)."""
    if candidates is None:
        candidates = candidate_new_edges(fiber_map, network)
    return {
        isp: improvement_curve(
            fiber_map, network, isp, max_k=max_k, candidates=candidates
        )
        for isp in dict.fromkeys(isps)
    }


def _estimated_gain(
    router: _FootprintRouter,
    demands: Sequence[EdgeKey],
    dist_cache: Dict[str, Dict[str, float]],
    edge: EdgeKey,
    length_km: float,
) -> float:
    """Exposure-cost drop for one provider if *edge* existed (estimate)."""
    if edge[0] not in router.graph or edge[1] not in router.graph:
        return 0.0
    from_u = _dist_from(router, dist_cache, edge[0])
    from_v = _dist_from(router, dist_cache, edge[1])
    new_weight = 1.0 + LENGTH_EPSILON * length_km
    gain = 0.0
    for a, b in demands:
        current = _dist_from(router, dist_cache, a).get(b)
        if current is None:
            continue
        via = min(
            from_u.get(a, float("inf")) + new_weight + from_v.get(b, float("inf")),
            from_v.get(a, float("inf")) + new_weight + from_u.get(b, float("inf")),
        )
        if via < current:
            gain += current - via
    return gain


def plan_exchange(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isps: Sequence[str],
    num_conduits: int = 5,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
) -> List[ExchangeConduit]:
    """Reference :func:`repro.mitigation.exchange.plan_exchange`: one
    :func:`_estimated_gain` per (candidate, provider)."""
    if num_conduits <= 0:
        raise ValueError("num_conduits must be positive")
    if candidates is None:
        candidates = candidate_new_edges(fiber_map, network)
    routers: Dict[str, _FootprintRouter] = {}
    demands: Dict[str, List[EdgeKey]] = {}
    caches: Dict[str, Dict[str, Dict[str, float]]] = {}
    for isp in isps:
        routers[isp] = _FootprintRouter(fiber_map, isp)
        demands[isp] = sorted({link.endpoints for link in fiber_map.links_of(isp)})
        caches[isp] = {}
    scored: List[Tuple[EdgeKey, float, float, Dict[str, float]]] = []
    for edge, length in candidates:
        gains = {}
        for isp in isps:
            gain = _estimated_gain(
                routers[isp], demands[isp], caches[isp], edge, length
            )
            if gain > MIN_GAIN:
                gains[isp] = gain
        total = sum(gains.values())
        if total > MIN_GAIN:
            scored.append((edge, length, total, gains))
    scored.sort(key=lambda item: (-item[2], item[0]))
    result = []
    for edge, length, total, gains in scored[:num_conduits]:
        cost = length * COST_PER_KM
        members = tuple(
            ExchangeMember(
                isp=isp,
                gain=gain,
                cost_share=cost * gain / total,
                solo_cost=cost,
            )
            for isp, gain in sorted(gains.items())
        )
        result.append(
            ExchangeConduit(
                edge=edge, length_km=length, total_gain=total, members=members
            )
        )
    return result
