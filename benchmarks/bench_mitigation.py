"""Benchmark: the §5 mitigation sweep on the routing substrate vs the
NetworkX oracles.

Times Figure 10 (robustness), Figure 11 (augmentation), and Figure 12
(latency) end-to-end on the compiled CSR substrate and on the NetworkX
reference implementations in ``tests/oracles``, asserts the results
agree, and reports the speedup in ``BENCH_mitigation.json`` — the
acceptance number for the substrate (target: >= 5x on the combined
sweep).  Run from the repository root (``python -m pytest``) so the
``tests`` package is importable.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from repro.mitigation.augmentation import candidate_new_edges, improvement_curves
from repro.mitigation.latency import latency_study
from repro.mitigation.robustness import optimize_all_isps
from tests import oracles

#: The substrate entry points, shaped like the oracle module.
SUBSTRATE = SimpleNamespace(
    optimize_all_isps=optimize_all_isps,
    improvement_curves=improvement_curves,
    latency_study=latency_study,
)


def _run_sweep(scenario, impl, **options):
    """One full §5 sweep through *impl*'s three entry points."""
    fiber_map = scenario.constructed_map
    network = scenario.network
    timings = {}
    started = time.perf_counter()
    suggestions = impl.optimize_all_isps(
        fiber_map, scenario.risk_matrix, **options
    )
    timings["fig10"] = time.perf_counter() - started
    started = time.perf_counter()
    curves = impl.improvement_curves(
        fiber_map,
        network,
        list(scenario.isps),
        candidates=candidate_new_edges(fiber_map, network),
        **options,
    )
    timings["fig11"] = time.perf_counter() - started
    started = time.perf_counter()
    study = impl.latency_study(fiber_map, network, **options)
    timings["fig12"] = time.perf_counter() - started
    timings["total"] = sum(timings.values())
    return timings, (suggestions, curves, study)


def test_mitigation(scenario, report_output):
    # Warm the shared stages so the timings isolate the analyses.
    scenario.constructed_map
    scenario.risk_matrix
    fast, fast_results = _run_sweep(
        scenario, SUBSTRATE, substrate=scenario.substrate
    )
    reference, reference_results = _run_sweep(scenario, oracles)
    assert fast_results[0] == reference_results[0]
    assert fast_results[1] == reference_results[1]
    assert fast_results[2] == reference_results[2]
    speedup = (
        reference["total"] / fast["total"] if fast["total"] > 0 else float("inf")
    )
    lines = ["mitigation sweep: substrate vs NetworkX reference (seconds)"]
    for key in ("fig10", "fig11", "fig12", "total"):
        ratio = reference[key] / fast[key] if fast[key] > 0 else float("inf")
        lines.append(
            f"  {key:<6} substrate {fast[key]:8.3f}  "
            f"reference {reference[key]:8.3f}  ({ratio:.1f}x)"
        )
    text = "\n".join(lines)
    report_output(
        "mitigation",
        text,
        substrate_s=fast,
        reference_s=reference,
        speedup=speedup,
    )
