"""Reference implementations that only the test suite calls.

Each oracle is the original, straightforward implementation of a
question that :mod:`repro` now answers on the compiled scipy substrates
(:mod:`repro.perf.substrate`, :mod:`repro.perf.routing`), with
vectorized RNG streams, or with the batched corridor-grid kernel
(:mod:`tests.oracles.geography`, the per-point §3 buffer overlap).  The
parity suites run both on the same inputs and require identical
results, so the fast paths can never drift from the semantics these
oracles spell out.
"""

from tests.oracles.augmentation import (
    ReferenceAugmentationEnv,
    _estimated_gain,
    _FootprintRouter,
    _ReferenceEngine,
    improvement_curve,
    improvement_curves,
    plan_exchange,
)
from tests.oracles.latency import (
    _alternative_paths_mean_km,
    _pair_delays_reference,
    latency_study,
)
from tests.oracles.probe import ReferenceProbeEngine
from tests.oracles.resilience import (
    _apply_sequence_reference,
    _reroute_stats,
    _surviving_graph,
    assess_cut,
    random_cut_study,
    targeted_attack,
)
from tests.oracles.robustness import (
    _optimized_path_reference,
    _risk_graph,
    optimize_all_isps,
)
from tests.oracles.traces import _trace_for_index, build_rows_scalar, trace_record_v2

__all__ = [
    "ReferenceAugmentationEnv",
    "ReferenceProbeEngine",
    "_FootprintRouter",
    "_ReferenceEngine",
    "_alternative_paths_mean_km",
    "_apply_sequence_reference",
    "_estimated_gain",
    "_optimized_path_reference",
    "_pair_delays_reference",
    "_reroute_stats",
    "_risk_graph",
    "_surviving_graph",
    "_trace_for_index",
    "assess_cut",
    "build_rows_scalar",
    "improvement_curve",
    "improvement_curves",
    "latency_study",
    "optimize_all_isps",
    "plan_exchange",
    "random_cut_study",
    "targeted_attack",
    "trace_record_v2",
]
