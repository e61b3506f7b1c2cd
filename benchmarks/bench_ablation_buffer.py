"""Ablation: co-location buffer width (Figure 4 sensitivity).

The paper does not publish its ArcGIS buffer width; this sweep shows how
the road/rail co-location fractions depend on it.  Each buffer also runs
through the per-point reference in ``tests/oracles/geography.py``: the
batched corridor-grid kernel must return identical rows, and the
speedup lands in ``BENCH_ablation_buffer.json``.  Run from the
repository root (``python -m pytest``) so the ``tests`` package is
importable.
"""

import time

from repro.analysis.geography import geography_report
from repro.analysis.report import format_table
from tests.oracles import geography as geo_oracle

BUFFERS_KM = (5.0, 15.0, 30.0)


def _sweep(scenario, report_fn):
    """``{buffer_km: (report, seconds)}`` for every buffer width."""
    results = {}
    for buffer_km in BUFFERS_KM:
        started = time.perf_counter()
        report = report_fn(
            scenario.constructed_map, scenario.network, buffer_km=buffer_km
        )
        results[buffer_km] = (report, time.perf_counter() - started)
    return results


def test_ablation_buffer(benchmark, scenario, report_output):
    # Warm the shared stages so the timings isolate the overlap analysis.
    scenario.constructed_map
    scenario.network
    kernel = benchmark.pedantic(
        _sweep, args=(scenario, geography_report), rounds=1, iterations=1
    )
    reference = _sweep(scenario, geo_oracle.geography_report)
    for buffer_km in BUFFERS_KM:
        assert kernel[buffer_km][0] == reference[buffer_km][0], buffer_km
    rows = []
    for buffer_km in BUFFERS_KM:
        report = kernel[buffer_km][0]
        rows.append(
            (
                f"{buffer_km:.0f} km",
                f"{report.mean_fraction('road'):.2f}",
                f"{report.mean_fraction('rail'):.2f}",
                f"{report.mean_fraction('road_or_rail'):.2f}",
                f"{report.road_beats_rail_fraction:.0%}",
            )
        )
    text = format_table(
        ("buffer", "road", "rail", "road|rail", "road>rail"),
        rows,
        title="Ablation: buffer width vs mean co-location fraction",
    )
    kernel_s = {f"{b:.0f}": kernel[b][1] for b in BUFFERS_KM}
    reference_s = {f"{b:.0f}": reference[b][1] for b in BUFFERS_KM}
    report_output(
        "ablation_buffer",
        text,
        kernel_s=kernel_s,
        reference_s=reference_s,
        speedup=sum(reference_s.values()) / sum(kernel_s.values()),
    )
