"""Traced runs: spans around the public calls into each layer.

:func:`install` replaces each function or method named in
:data:`ENTRY_POINTS` with a wrapper that records a span, in every
``repro`` module that holds a reference to it, so calls through
``from x import f`` bindings are seen too.  Stage builds are traced by
wrapping :meth:`repro.engine.StageGraph.materialize`; a memo hit (the
stage is already built) records nothing.  Importing this module does
not import the program; only :func:`install` does.  Only children of traced runs
call :func:`install`: untraced runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Tuple

from common import Spans

#: (module, attribute or Class.method, span name): the §2 pipeline steps
PIPELINE_STEPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.fibermap.pipeline", "MapConstructionPipeline.step1_initial_map",
     "fibermap.pipeline.step1"),
    ("repro.fibermap.pipeline", "MapConstructionPipeline.step2_check_initial_map",
     "fibermap.pipeline.step2"),
    ("repro.fibermap.pipeline", "MapConstructionPipeline.step3_augment",
     "fibermap.pipeline.step3"),
    ("repro.fibermap.pipeline", "MapConstructionPipeline.step4_validate_augmented",
     "fibermap.pipeline.step4"),
)

#: ... and the layer entry points reported as call counts and busy time
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.geography", "geography_report",
     "analysis.geography_report"),
    ("repro.mitigation.exchange", "plan_exchange",
     "mitigation.plan_exchange"),
    ("repro.mitigation.augmentation", "improvement_curves",
     "mitigation.improvement_curves"),
    ("repro.mitigation.latency", "latency_study",
     "mitigation.latency_study"),
    ("repro.mitigation.robustness", "optimize_isp_around_conduits",
     "mitigation.optimize_isp_around_conduits"),
    ("repro.perf.substrate", "GraphView.dijkstra",
     "perf.substrate.dijkstra"),
    ("repro.resilience.impact", "assess_cut", "resilience.assess_cut"),
    ("repro.resilience.traffic_shift", "traffic_shift",
     "resilience.traffic_shift"),
)

#: Modules whose imports bind the entry points above; importing them
#: first lets :func:`install` rebind every reference.
_CALLERS = (
    "repro.experiments.runner",
    "repro.service.handlers",
    "repro.service.server",
    "repro.resilience",
    "repro.cli",
)


def _wrap(spans: Spans, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)

    return traced


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute bound to *original* at
    *replacement*; returns how many bindings moved."""
    moved = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                moved += 1
    return moved


def install(spans: Spans) -> None:
    """Wrap every entry point and stage build with spans."""
    for module_name in _CALLERS:
        importlib.import_module(module_name)
    for module_name, attr, span_name in PIPELINE_STEPS + ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, _wrap(spans, span_name, getattr(owner, method)))
            continue
        original = getattr(module, attr)
        if _rebind(original, _wrap(spans, span_name, original)) == 0:
            raise RuntimeError(f"{module_name}.{attr} is bound nowhere")

    from repro.engine.graph import StageGraph

    materialize = StageGraph.materialize

    @functools.wraps(materialize)
    def traced_materialize(self, name):
        if self.peek(name) is not None:
            return materialize(self, name)
        with spans.span(f"stage.{name}"):
            return materialize(self, name)

    StageGraph.materialize = traced_materialize
