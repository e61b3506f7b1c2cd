"""NetworkX oracles for the resilience cut studies: per-link NetworkX
reroutes over each provider's surviving footprint, and one full
:func:`assess_cut` per step of a cumulative cut sequence."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.resilience.cuts import CutEvent, edge_cut
from repro.resilience.impact import CutImpact, IspImpact, probes_crossing
from repro.resilience.montecarlo import AttackResult
from repro.risk.matrix import RiskMatrix
from repro.traceroute.overlay import TrafficOverlay
from repro.transport.network import EdgeKey


def _surviving_graph(fiber_map: FiberMap, isp: str, event: CutEvent) -> nx.Graph:
    """The provider's conduit graph with the severed conduits removed."""
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp not in conduit.tenants or cid in event.conduit_ids:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.length_km < data["length_km"]:
            graph.add_edge(a, b, length_km=conduit.length_km)
    return graph


def _reroute_stats(
    fiber_map: FiberMap, isp: str, event: CutEvent, hit_links
) -> Tuple[int, List[float]]:
    """Disconnected-pair count and reroute delays for one provider."""
    survivors = _surviving_graph(fiber_map, isp, event)
    disconnected = 0
    delays: List[float] = []
    for link in hit_links:
        a, b = link.endpoints
        original_km = sum(
            fiber_map.conduit(cid).length_km for cid in link.conduit_ids
        )
        try:
            rerouted_km = nx.shortest_path_length(
                survivors, a, b, weight="length_km"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            disconnected += 1
            continue
        delays.append(
            max(0.0, fiber_delay_ms(rerouted_km) - fiber_delay_ms(original_km))
        )
    return disconnected, delays


def assess_cut(
    fiber_map: FiberMap,
    event: CutEvent,
    overlay: Optional[TrafficOverlay] = None,
) -> CutImpact:
    """Reference :func:`repro.resilience.impact.assess_cut`."""
    tenants = set()
    for conduit_id in event.conduit_ids:
        tenants |= fiber_map.conduit(conduit_id).tenants
    per_isp: List[IspImpact] = []
    for isp in sorted(tenants):
        hit_links = [
            link
            for link in fiber_map.links_of(isp)
            if any(cid in event.conduit_ids for cid in link.conduit_ids)
        ]
        if not hit_links:
            per_isp.append(IspImpact(isp, 0, 0, 0.0, 0.0))
            continue
        disconnected, delays = _reroute_stats(fiber_map, isp, event, hit_links)
        per_isp.append(
            IspImpact(
                isp=isp,
                links_hit=len(hit_links),
                pairs_disconnected=disconnected,
                mean_reroute_delay_ms=(
                    sum(delays) / len(delays) if delays else 0.0
                ),
                max_reroute_delay_ms=max(delays, default=0.0),
            )
        )
    probes = 0
    if overlay is not None:
        probes = probes_crossing(overlay.traffic(), event.conduit_ids)
    return CutImpact(event=event, per_isp=tuple(per_isp), probes_affected=probes)


def _apply_sequence_reference(
    fiber_map: FiberMap,
    edges: Sequence[EdgeKey],
    overlay: Optional[TrafficOverlay],
) -> AttackResult:
    """Assess a sequence of ROW cuts with cumulative conduit removal.

    One :func:`assess_cut` per step; the per-step probe count comes from
    the overlay's traffic table directly instead of a second full
    assessment of the single-edge event.
    """
    traffic = overlay.traffic() if overlay is not None else None
    events: List[CutEvent] = []
    dead: set = set()
    cumulative_disconnected: List[int] = []
    cumulative_isps: List[int] = []
    probes: List[int] = []
    for edge in edges:
        event = edge_cut(fiber_map, *edge)
        # Accumulate: everything severed so far goes dark together.
        dead |= event.conduit_ids
        combined = CutEvent(
            description=f"cumulative cuts through {event.description}",
            conduit_ids=frozenset(dead),
            location=event.location,
        )
        impact = assess_cut(fiber_map, combined)
        events.append(event)
        cumulative_disconnected.append(impact.total_pairs_disconnected)
        cumulative_isps.append(
            sum(1 for i in impact.per_isp if i.pairs_disconnected > 0)
        )
        probes.append(
            probes_crossing(traffic, event.conduit_ids)
            if traffic is not None
            else 0
        )
    return AttackResult(
        events=tuple(events),
        cumulative_disconnected=tuple(cumulative_disconnected),
        cumulative_isps_harmed=tuple(cumulative_isps),
        probes_affected=tuple(probes),
    )


def targeted_attack(
    fiber_map: FiberMap,
    matrix: RiskMatrix,
    cuts: int = 5,
    overlay: Optional[TrafficOverlay] = None,
) -> AttackResult:
    """Reference :func:`repro.resilience.montecarlo.targeted_attack`."""
    by_edge: Dict[EdgeKey, int] = {}
    for conduit in fiber_map.conduits.values():
        count = matrix.sharing_count(conduit.conduit_id)
        by_edge[conduit.edge] = max(by_edge.get(conduit.edge, 0), count)
    ranked = sorted(by_edge.items(), key=lambda kv: (-kv[1], kv[0]))
    edges = [edge for edge, _ in ranked[:cuts]]
    return _apply_sequence_reference(fiber_map, edges, overlay)


def random_cut_study(
    fiber_map: FiberMap,
    cuts: int = 5,
    trials: int = 10,
    seed: int = 13,
    overlay: Optional[TrafficOverlay] = None,
) -> List[AttackResult]:
    """Reference :func:`repro.resilience.montecarlo.random_cut_study`."""
    rng = random.Random(seed)
    all_edges = sorted({c.edge for c in fiber_map.conduits.values()})
    return [
        _apply_sequence_reference(
            fiber_map, rng.sample(all_edges, min(cuts, len(all_edges))), overlay
        )
        for _ in range(trials)
    ]
