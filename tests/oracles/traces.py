"""Scalar reference trace generators for both RNG contracts.

The campaign only ever runs the columnar paths (the v1 per-index writer
and the v2 vectorized batches).  These per-trace object generators, and
the one-template-at-a-time v2 row builder, are what the column and
RNG-contract suites compare those paths against.
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import List

import numpy as np

from repro.traceroute.campaign import (
    CampaignConfig,
    _CampaignPlan,
    _pick,
    _trace_seed,
)
from repro.traceroute.probe import (
    QUEUE_NOISE_MS,
    Hop,
    ProbeEngine,
    TracerouteRecord,
)
from repro.traceroute.rngv2 import (
    _PURPOSE_ENDPOINT,
    _PURPOSE_NOISE,
    BLOCK_DRAWS,
    HOP_NOISE_BLOCKS,
    HOP_NOISE_BUDGET,
    MAX_ATTEMPTS_PER_TRACE,
    _PlanTables,
    _stream,
    _TemplateStore,
)


def _pick_index(cum: List[float], u: float) -> int:
    """Scalar twin of ``rngv2._pick_indices`` (same float64 arithmetic)."""
    return bisect(cum, u * cum[-1], 0, len(cum) - 1)


def _trace_for_index(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    index: int,
) -> TracerouteRecord:
    """The record for one trace index, independent of all other traces.

    Dispatches on ``config.rng_contract``; under v1 this is the
    reference object path whose RNG stream :func:`_columns_for_index`
    consumes draw for draw, under v2 it delegates to the scalar
    reference implementation of the vectorized batch path.
    """
    if config.rng_contract == 2:
        return trace_record_v2(engine, plan, config, index)
    rng = random.Random(_trace_seed(config.seed, index))
    for _ in range(MAX_ATTEMPTS_PER_TRACE):
        src_isp = _pick(rng, plan.client_names, plan.client_cum)
        dst_isp = _pick(rng, plan.dest_names, plan.dest_cum)
        cities, cum = plan.client_cities[src_isp]
        src_city = _pick(rng, cities, cum)
        cities, cum = plan.dest_cities[dst_isp]
        dst_city = _pick(rng, cities, cum)
        if src_city == dst_city and src_isp == dst_isp:
            continue
        record = engine.trace(src_city, src_isp, dst_city, dst_isp, rng=rng)
        if record.reached:
            return record
    raise RuntimeError(
        f"trace {index}: no reachable (src, dst) pair after "
        f"{MAX_ATTEMPTS_PER_TRACE} draws; topology too disconnected"
    )


def trace_record_v2(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    index: int,
) -> TracerouteRecord:
    """The v2 record for one trace index — the scalar reference
    implementation of the batch path, draw-compatible by construction."""
    seed = config.seed
    for rnd in range(MAX_ATTEMPTS_PER_TRACE):
        u = _stream(seed, _PURPOSE_ENDPOINT, rnd, index).random(BLOCK_DRAWS)
        src_isp = plan.client_names[_pick_index(plan.client_cum, u[0])]
        dst_isp = plan.dest_names[_pick_index(plan.dest_cum, u[1])]
        cities, cum = plan.client_cities[src_isp]
        src_city = cities[_pick_index(cum, u[2])]
        cities, cum = plan.dest_cities[dst_isp]
        dst_city = cities[_pick_index(cum, u[3])]
        if src_city == dst_city and src_isp == dst_isp:
            continue
        template = engine._hop_template(
            (src_isp, src_city), (dst_isp, dst_city)
        )
        if template is False:
            continue
        k = len(template.router_ids)
        noise = _stream(
            seed, _PURPOSE_NOISE, 0, index * HOP_NOISE_BLOCKS
        ).random(HOP_NOISE_BUDGET)[:k]
        rtts = template.double_cum + QUEUE_NOISE_MS * noise
        schema = engine.column_schema()
        hops = tuple(
            Hop(
                ip=schema.router_ips[r],
                dns_name=schema.router_dns[r],
                rtt_ms=float(rtts[j]),
            )
            for j, r in enumerate(template.router_ids.tolist())
        )
        return TracerouteRecord(
            src_city=src_city,
            src_isp=src_isp,
            dst_city=dst_city,
            dst_isp=dst_isp,
            hops=hops,
            reached=True,
        )
    raise RuntimeError(
        f"trace {index}: no reachable (src, dst) pair after "
        f"{MAX_ATTEMPTS_PER_TRACE} draws; topology too disconnected"
    )


def build_rows_scalar(
    store: _TemplateStore,
    engine: ProbeEngine,
    tables: _PlanTables,
    codes: np.ndarray,
) -> np.ndarray:
    """Fill *store* one engine hop template per endpoint-pair code — the
    reference for the vectorized builder — and return each code's row."""
    rows = store._reserve(len(codes))
    for row, code in zip(rows.tolist(), codes.tolist()):
        cn, dn = divmod(code, tables.n_dest_nodes)
        template = engine._hop_template(
            tables.client_nodes[cn], tables.dest_nodes[dn]
        )
        store._row_of[code] = row
        if template is False:
            continue
        k = len(template.router_ids)
        store._check_budget(k)
        store.counts[row] = k
        store.router_pad[row, :k] = template.router_ids
        store.cum_pad[row, :k] = template.double_cum
        store.endpoints[row] = (
            template.src_city_id,
            template.src_isp_id,
            template.dst_city_id,
            template.dst_isp_id,
        )
    return rows
