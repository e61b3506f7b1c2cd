"""One fresh child process working on scenarios in-process.

Run by ``run.py``, never by hand::

    python child.py --mode {setup,batch,replay} --seed N --traces T
                    [--first F --queries Q] --out result.json
                    [--spans spans.json]

``setup`` times one cold set-up: ``scenario.graph.materialize_many``
of the stages the registered experiments require.  Each set-up gets
its own process, so it is cold as a user's single run is.  ``batch``
then runs every experiment in id order with ``run_experiment`` (timed
as ``run_s``).  ``replay`` instead sets up the stages the what-if
server warms, for the handler-time baseline the traced ``whatif`` run
compares its HTTP latencies and answers with.  Every mode then answers
queries F .. F+Q-1 of the query mix of seed N serially through
``Scenario.query``.  With ``--spans`` the layer entry points and stage
builds are wrapped (see ``layers.py``) and the spans are written to
that file.

The result, with this process's own peak RSS, goes to ``--out``.  Every
timed interval is reported as its ``time.monotonic()`` start and end,
so that the parent can judge it by the canary's samples over it.
"""

from __future__ import annotations

import argparse
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import SCENARIO_SEED, Spans, digest, peak_rss_mb, request_text, write_json
from queries import make_pool, map_inputs


def _state_digest(scenario) -> Dict[str, Any]:
    """Counts of the built scenario, and a digest over them that must
    agree between every set-up of one seed."""
    fiber_map = scenario.constructed_map
    campaign = scenario.peek("campaign")
    overlay = scenario.peek("overlay")
    counts = {
        "map": repr(fiber_map.stats()),
        "campaign_records": len(campaign) if campaign is not None else 0,
        "campaign_hops": campaign.num_hops if campaign is not None else 0,
        "overlay_traces": overlay.traces_processed if overlay is not None else 0,
        "overlay_unresolved_hops": (
            overlay.hops_unresolved if overlay is not None else 0
        ),
    }
    counts["digest"] = digest(*(f"{k}={v}" for k, v in sorted(counts.items())))
    return counts


def _answer(scenario, requests, encode_json, failures, first=0) -> List[Dict[str, Any]]:
    """Serial in-process answers to *requests* (pool positions
    ``first``, ``first + 1``, ...), timed one by one."""
    answers = []
    for index, request in enumerate(requests, first):
        started = time.monotonic()
        try:
            body = encode_json(scenario.query(request).to_json()) + "\n"
        except Exception:  # noqa: BLE001 - counted as a failed operation
            failures.append(f"query {index}: {traceback.format_exc(limit=3)}")
            answers.append({"kind": request["kind"], "ms": None, "digest": None})
            continue
        ended = time.monotonic()
        answers.append({
            "kind": request["kind"],
            "ms": 1e3 * (ended - started),
            "t": [started, ended],
            "digest": digest(request_text(request), body),
        })
    return answers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "batch", "replay"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traces", type=int, required=True)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--queries", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spans = Spans() if args.spans else None
    if spans is not None:
        import layers

        layers.install(spans)

    from repro.experiments.runner import EXPERIMENTS, run_experiment
    from repro.scenario import Scenario, ScenarioConfig
    from repro.service.registry import DEFAULT_WARM_STAGES
    from repro.service.schema import encode_json

    failures: List[str] = []
    result: Dict[str, Any] = {}
    scenario = Scenario(config=ScenarioConfig(
        seed=SCENARIO_SEED, campaign_traces=args.traces, workers=1,
        cache=False,
    ))

    if args.mode == "replay":
        stages = list(DEFAULT_WARM_STAGES)
    else:
        ids = sorted(EXPERIMENTS)
        stages = sorted({s for i in ids for s in EXPERIMENTS[i].requires})
    started = time.monotonic()
    scenario.graph.materialize_many(stages)
    result["setup"] = [started, time.monotonic()]
    result["state"] = _state_digest(scenario)
    if args.mode == "batch":
        spans_before_run = spans.calls() if spans else 0
        experiments: Dict[str, Any] = {}
        started = time.monotonic()
        for experiment_id in ids:
            began = time.monotonic()
            try:
                with spans.span(f"experiment.{experiment_id}") if spans else nullcontext():
                    text = run_experiment(experiment_id, scenario).text
            except Exception:  # noqa: BLE001 - counted as a failed operation
                failures.append(
                    f"experiment {experiment_id}: {traceback.format_exc(limit=3)}"
                )
                experiments[experiment_id] = {"t": None, "digest": None}
                continue
            experiments[experiment_id] = {
                "t": [began, time.monotonic()],
                "digest": digest(text),
            }
        result["run"] = [started, time.monotonic()]
        result["run_spans"] = (spans.calls() if spans else 0) - spans_before_run
        result["experiments"] = experiments
    if args.queries:
        pool = make_pool(
            args.seed, args.first + args.queries, **map_inputs(scenario)
        )[args.first:]
        result["answers"] = _answer(scenario, pool, encode_json, failures, args.first)

    result["failures"] = failures
    result["peak_rss_mb"] = peak_rss_mb()
    if spans is not None:
        write_json(args.spans, spans.to_json())
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
