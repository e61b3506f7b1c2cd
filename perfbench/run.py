"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {runall,whatif}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measurement is taken in a fresh
child process (``PYTHONHASHSEED`` pinned, artifact cache off) pinned
to one CPU, beside the canary (``canary.py``), and times are scaled to
full speed by the canary's samples over them; this process only
launches children, checks their outputs and aggregates.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run; either way the last line of
standard output is one JSON object, and the full result (fingerprint,
per-operation details, span files) is written under ``.perfbench-out/``.
See ``perfbench/README.md`` for the workloads and metrics.

Exits non-zero, printing no result, when the checkout does not hold the
program, when a child crashes, or when the run cannot finish in time.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    DIGESTS_PATH,
    OTHER_CPUS,
    OUT_DIR,
    PINNED_SEED,
    ROOT,
    SCENARIO_SEED,
    WORK_CPU,
    CanaryTrace,
    child_env,
    cpu_s,
    fingerprint,
    median,
    peak_rss_mb,
    pin_to_work_cpu,
    program_present,
    tail,
    write_json,
)
import layers
from queries import KINDS, make_pool

#: name -> campaign size, and whether it runs in-process or as a server
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "runall": {"traces": 100_000, "kind": "batch"},
    "whatif": {"traces": 20_000, "kind": "service"},
}
#: Cold set-ups per ``runall`` run and server launches per ``whatif``
#: run; ``setup_s`` is their median.
SETUPS = 3
LAUNCHES = 3
#: Serial in-process queries per second of ``--seconds`` (batch workloads).
PROBE_PER_S = 10
#: Open-loop rate, and open- and closed-loop queries per second of
#: ``--seconds`` (whatif).  Pool sizes that are whole blocks of 100
#: (``--seconds`` a multiple of 10) hold the query mix exactly.
OPEN_RATE = 12.0
OPEN_PER_S = 20
CLOSED_PER_S = 5
#: Everything must end within this many seconds of start.
DEADLINE_S = 170.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("saturation_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Stage -> per-layer metric of its build time.
STAGE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("ground_truth", "fibermap.synthesis_s"),
    ("provider_maps", "fibermap.publish_s"),
    ("records", "fibermap.records_s"),
    ("constructed_map", "fibermap.pipeline_s"),
    ("topology", "traceroute.topology_s"),
    ("probe_engine", "traceroute.probe_engine_s"),
    ("campaign", "traceroute.campaign_s"),
    ("geolocation", "traceroute.geolocate_s"),
    ("overlay", "traceroute.overlay_s"),
    ("risk_matrix", "risk.matrix_s"),
    ("substrate", "perf.substrate_s"),
)
ENTRY_POINTS: Tuple[str, ...] = tuple(name for _, _, name in layers.ENTRY_POINTS)
#: Every registered experiment; a run fails if the registry differs.
EXPERIMENT_IDS: Tuple[str, ...] = (
    "ext_annotated", "ext_capacity", "ext_exchange", "ext_growth",
    "ext_nsfnet", "ext_opacity", "ext_partition", "ext_policy",
    "ext_protection", "ext_resilience", "fig1", "fig10", "fig11", "fig12",
    "fig2_3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1",
    "table2_3", "table4", "table5",
)


def per_layer_metrics() -> Tuple[Tuple[str, str], ...]:
    names: List[Tuple[str, str]] = [(m, "s") for _, m in STAGE_METRICS]
    names += [(f"fibermap.pipeline.step{i}_s", "s") for i in range(1, 5)]
    names += [
        ("traceroute.campaign.records_per_s", "1/s"),
        ("traceroute.overlay.traces_per_s", "1/s"),
        ("traceroute.overlay.unresolved_hop_frac", "ratio"),
        ("setup.unattributed_s", "s"),
    ]
    names += [(f"experiments.{i}_s", "s") for i in EXPERIMENT_IDS]
    names.append(("run.unattributed_s", "s"))
    for entry in ENTRY_POINTS:
        names += [(f"{entry}.calls", "count"), (f"{entry}.busy_s", "s")]
    for kind in KINDS:
        names += [
            (f"service.{kind}.p50_ms", "ms"),
            (f"service.{kind}.p99_ms", "ms"),
            (f"service.handler.{kind}_ms", "ms"),
        ]
    names += [
        ("service.latency_batcher.coalesce_ratio", "ratio"),
        ("loadgen.late_p99_ms", "ms"),
        ("trace.setup_overhead_frac", "ratio"),
        ("trace.run_overhead_frac", "ratio"),
    ]
    return tuple(names)


PER_LAYER = per_layer_metrics()


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Outcome:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.checked = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def pinned(self, expected: Optional[str], actual: Optional[str], what: str) -> None:
        """Count one output against its pinned digest (when pinned)."""
        self.attempted += 1
        if actual is None:
            self.failures.append(f"{what}: no output")
        elif expected is not None:
            self.checked += 1
            if actual != expected:
                self.failures.append(f"{what}: digest {actual} != pinned {expected}")


class Bench:
    """One benchmark run: its children, its deadline, its scratch dir."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.monotonic()
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.servers: List[subprocess.Popen] = []
        self.outcome = Outcome()
        self.notes: List[str] = []
        self.details: Dict[str, Any] = {}
        pinned = json.loads(args.digests.read_text())
        self.pinned_digests: Dict[str, Any] = dict(pinned.get(args.workload, {}))
        if args.seed != PINNED_SEED:
            self.pinned_digests.pop("queries", None)
        # This process and the load generator keep off the work CPU,
        # which the measured children share with the canary alone.
        os.sched_setaffinity(0, OTHER_CPUS)
        self.canary: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "canary.py"), "--cpu", str(WORK_CPU),
             "--out", str(self.tmp / "canary.json")],
            cwd=ROOT, stdin=subprocess.DEVNULL,
        )

    # -- children ------------------------------------------------------
    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, name: str, script: str, argv: List[str],
              measured: bool = True) -> Dict[str, Any]:
        """Run one child to completion; a *measured* one on the work CPU."""
        out = self.tmp / f"{name}.json"
        log = self.tmp / f"{name}.log"
        with open(log, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / script), *argv, "--out", str(out)],
                cwd=ROOT, env=child_env(), stdout=stderr, stderr=stderr,
                preexec_fn=pin_to_work_cpu if measured else None,
            )
            try:
                code = proc.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{name} timed out")
        if code != 0:
            raise BenchError(f"{name} exited {code}:\n{log.read_text()[-2000:]}")
        return json.loads(out.read_text())

    def scenario_child(self, name: str, argv: List[str]) -> Dict[str, Any]:
        argv = [
            "--seed", str(self.args.seed),
            "--traces", str(WORKLOADS[self.args.workload]["traces"]),
            *argv,
        ]
        result = self.child(name, "child.py", argv)
        for failure in result["failures"]:
            self.notes.append(f"{name}: {failure.strip()}")
        return result

    # -- the what-if server ----------------------------------------------
    def launch(self, extra: List[str]) -> Tuple[subprocess.Popen, int, List[float]]:
        """Start the server (``serve.py`` with *extra* options) on the
        work CPU; returns it, its port and its set-up interval, from the
        launch until it was ready as the server reports it;
        ``GET /healthz`` then confirms the 200."""
        cmd = [
            sys.executable, str(BENCH_DIR / "serve.py"), *extra, "--",
            "--seed", str(SCENARIO_SEED),
            "--traces", str(WORKLOADS["whatif"]["traces"]),
            "serve", "--port", "0",
        ]
        log = open(self.tmp / f"server{len(self.servers)}.log", "w")
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=log, text=True, preexec_fn=pin_to_work_cpu,
        )
        log.close()
        self.servers.append(proc)
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def read() -> None:
            with proc.stdout:
                for line in proc.stdout:
                    lines.put(line)
            lines.put(None)

        threading.Thread(target=read, daemon=True).start()
        port = ready = None
        while port is None or ready is None:
            try:
                line = lines.get(timeout=min(self.remaining(), 60))
            except queue.Empty:
                raise BenchError("server neither ready nor exited within 60 s")
            if line is None:
                proc.wait()
                raise BenchError(f"server exited {proc.returncode} while warming")
            address = re.search(r"http://[\d.]+:(\d+)", line)
            port = int(address.group(1)) if address else port
            if line.startswith("warmed "):
                _, state, at = line.split()
                if state != "ready":
                    raise BenchError(f"server warm-up ended {state}")
                ready = float(at)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            status = conn.getresponse().status
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"server reported ready, /healthz answered {status}")
        return proc, port, [started, ready]

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _end_canary(self) -> subprocess.Popen:
        """SIGTERM lets the canary stop its spinner and save its samples."""
        proc, self.canary = self.canary, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("the canary did not stop")
        return proc

    def stop_canary(self) -> CanaryTrace:
        """End the canary, once the measured work is over; its samples."""
        proc = self._end_canary()
        if proc.returncode != 0:
            raise BenchError(f"the canary exited {proc.returncode}")
        trace = CanaryTrace(json.loads((self.tmp / "canary.json").read_text()))
        factor = trace.factor(trace.starts[0], trace.starts[-1])
        self.details["canary"] = {"samples": len(trace.seconds), "factor": factor}
        self.notes.append(
            f"canary on CPU {WORK_CPU}: {len(trace.seconds)} units, the work CPU "
            f"ran {factor:.3f}x slower than full speed on average; times below "
            "are scaled to full speed"
        )
        return trace

    def close(self) -> None:
        for proc in self.servers:
            self.stop(proc)
        if self.canary is not None:
            try:
                self._end_canary()
            except BenchError:
                pass  # killed instead; its spinner exits when it sees that
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- checks ----------------------------------------------------------
    def check_experiments(self, child: Dict[str, Any]) -> None:
        pinned = self.pinned_digests.get("experiments", {})
        for experiment_id, got in sorted(child["experiments"].items()):
            self.outcome.pinned(pinned.get(experiment_id), got["digest"],
                                f"experiment {experiment_id}")

    def check_answers(self, answers: List[Dict[str, Any]], first: int = 0) -> None:
        pinned = self.pinned_digests.get("queries", [])
        for offset, answer in enumerate(answers):
            i = first + offset
            expected = pinned[i] if i < len(pinned) else None
            ok = answer.get("status", 200) == 200 and answer.get("kind_ok", True)
            if not ok:
                self.outcome.op(False, f"query {i} ({answer['kind']}): HTTP {answer['status']}")
                continue
            self.outcome.pinned(expected, answer["digest"], f"query {i} ({answer['kind']})")

    def check_setups(self, states: List[Dict[str, Any]]) -> None:
        states = [state["digest"] for state in states]
        for i, state in enumerate(states):
            self.outcome.op(state == states[0], f"set-up {i}: state {state} != {states[0]}")


def _latency_stats(values: List[float]) -> Dict[str, Any]:
    pct, value = tail(values)
    return {"p50": median(values), "tail": value, "tail_pct": pct, "n": len(values)}


def _layer_metrics(
    totals: Dict[str, Dict[str, float]],
    state: Dict[str, Any],
    setup_factor: float,
    run_factor: float,
) -> Dict[str, float]:
    """Per-layer metrics derivable from one traced process's spans.

    Stage times are scaled by the canary factor of the traced set-up,
    entry-point times by that of the traced run (or load)."""

    def total(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    metrics: Dict[str, float] = {}
    for stage, metric in STAGE_METRICS:
        metrics[metric] = total(f"stage.{stage}", "net_s") / setup_factor
    for i in range(1, 5):
        metrics[f"fibermap.pipeline.step{i}_s"] = (
            total(f"fibermap.pipeline.step{i}", "busy_s") / setup_factor
        )
    campaign_s = metrics["traceroute.campaign_s"]
    overlay_s = metrics["traceroute.overlay_s"]
    metrics["traceroute.campaign.records_per_s"] = (
        state["campaign_records"] / campaign_s if campaign_s else 0.0
    )
    metrics["traceroute.overlay.traces_per_s"] = (
        state["overlay_traces"] / overlay_s if overlay_s else 0.0
    )
    metrics["traceroute.overlay.unresolved_hop_frac"] = (
        state["overlay_unresolved_hops"] / state["campaign_hops"]
        if state["campaign_hops"] else 0.0
    )
    for entry in ENTRY_POINTS:
        metrics[f"{entry}.calls"] = total(entry, "calls")
        metrics[f"{entry}.busy_s"] = total(entry, "busy_s") / run_factor
    return metrics


def _query_ms(canary: CanaryTrace, answers: List[Dict[str, Any]]) -> List[float]:
    """Scaled latencies of the answered in-process queries, in ms."""
    return [1e3 * canary.normalized(*a["t"]) for a in answers if "t" in a]


def _handler_ms(canary: CanaryTrace, answers: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        f"service.handler.{kind}_ms": median(
            _query_ms(canary, [a for a in answers if a["kind"] == kind]) or [0.0]
        )
        for kind in KINDS
    }


def _stage_sum(metrics: Dict[str, float]) -> float:
    return sum(metrics[m] for _, m in STAGE_METRICS)


# ----------------------------------------------------------------------
# the batch workload: runall
# ----------------------------------------------------------------------
def run_batch(bench: Bench) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Returns (end-to-end metrics, per-layer metrics or {})."""
    # Each process answers its share of the queries after its set-up,
    # so the query phase samples the whole run, not one stretch of it.
    queries = PROBE_PER_S * bench.args.seconds
    bounds = [round(i * queries / SETUPS) for i in range(SETUPS + 1)]

    def share(i: int) -> List[str]:
        return ["--first", str(bounds[i]), "--queries", str(bounds[i + 1] - bounds[i])]

    spans = OUT_DIR / f"{bench.tag}-spans.json" if bench.args.trace else None
    child = bench.scenario_child(
        "batch", ["--mode", "batch", *share(0)] + (["--spans", str(spans)] if spans else [])
    )
    processes = [child] + [
        bench.scenario_child(f"setup{i}", ["--mode", "setup", *share(i)])
        for i in range(1, SETUPS)
    ]
    canary = bench.stop_canary()
    answers = [a for c in processes for a in c["answers"]]

    bench.check_setups([c["state"] for c in processes])
    bench.outcome.op(
        tuple(child["experiments"]) == EXPERIMENT_IDS,
        f"registered experiments {sorted(child['experiments'])} differ from "
        "the benchmark's list",
    )
    bench.check_experiments(child)
    bench.check_answers(answers)

    setups = [canary.normalized(*c["setup"]) for c in processes]
    ran = {k: v["t"] for k, v in child["experiments"].items() if v["t"]}
    experiments_s = {k: canary.normalized(*t) for k, t in ran.items()}
    latencies = _query_ms(canary, answers)
    stats = _latency_stats(latencies)
    e2e = {
        "setup_s": median(setups),
        "run_s": sum(experiments_s.values()),
        "query_p50_ms": stats["p50"],
        "query_p99_ms": stats["tail"],
        "saturation_qps": 1e3 * len(latencies) / sum(latencies),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    run_wall_s = child["run"][1] - child["run"][0]
    bench.details.update({
        "setup_s_each": setups,
        "setup_wall_s_each": [c["setup"][1] - c["setup"][0] for c in processes],
        "run_wall_s": run_wall_s,
        "experiments_s": experiments_s,
        "query_tail_pct": stats["tail_pct"],
        "query_samples": stats["n"],
        "state": child["state"],
        "digests": {
            "experiments": {k: v["digest"] for k, v in child["experiments"].items()},
            "queries": [a["digest"] for a in answers],
        },
    })
    bench.notes.append(
        f"set-ups: {', '.join('%.3f' % s for s in setups)} s scaled "
        f"({', '.join('%.3f' % s for s in bench.details['setup_wall_s_each'])} s wall)"
        f"{' (first traced)' if spans else ''}; experiments {run_wall_s:.3f} s wall; "
        f"queries: {stats['n']} serial in-process, tail = p{stats['tail_pct']:.1f}"
    )
    if spans is None:
        return e2e, {}

    traced = json.loads(spans.read_text())
    run_factor = canary.factor(*child["run"])
    layer = _layer_metrics(traced["totals"], child["state"],
                           canary.factor(*child["setup"]), run_factor)
    for experiment_id in EXPERIMENT_IDS:
        layer[f"experiments.{experiment_id}_s"] = experiments_s.get(experiment_id, 0.0)
    layer["setup.unattributed_s"] = setups[0] - _stage_sum(layer)
    layer["run.unattributed_s"] = (
        run_wall_s - sum(t1 - t0 for t0, t1 in ran.values())
    ) / run_factor
    layer.update(_handler_ms(canary, answers))
    # No HTTP on this workload: the client-side service metrics read 0.
    for kind in KINDS:
        layer[f"service.{kind}.p50_ms"] = layer[f"service.{kind}.p99_ms"] = 0.0
    layer["service.latency_batcher.coalesce_ratio"] = 0.0
    layer["loadgen.late_p99_ms"] = 0.0
    layer["trace.setup_overhead_frac"] = setups[0] / median(setups[1:]) - 1.0
    cost = child["run_spans"] * traced["span_cost_s"]
    layer["trace.run_overhead_frac"] = cost / (run_wall_s - cost)
    bench.details["traced"] = {"spans": str(spans), "run_spans": child["run_spans"]}
    return e2e, layer


# ----------------------------------------------------------------------
# the what-if service workload
# ----------------------------------------------------------------------
def run_service(bench: Bench) -> Tuple[Dict[str, float], Dict[str, float]]:
    seconds = bench.args.seconds
    open_count = OPEN_PER_S * seconds
    closed_count = CLOSED_PER_S * seconds
    trace = bool(bench.args.trace)
    if trace:
        # The in-process baseline: the open-loop queries answered serially.
        replay = bench.scenario_child(
            "replay", ["--mode", "replay", "--queries", str(open_count)]
        )

    # The first launch takes the load; the others are only timed.
    inputs = bench.tmp / "inputs.json"
    spans = OUT_DIR / f"{bench.tag}-spans.json" if trace else None
    proc, port, launched = bench.launch(
        ["--inputs", str(inputs)] + (["--spans", str(spans)] if spans else [])
    )
    launches = [launched]
    bench.outcome.op(True, "launch")
    # The map the server built, for the query mix; asked for only now,
    # after the timed set-up.
    proc.send_signal(signal.SIGUSR1)
    while not inputs.exists():
        if proc.poll() is not None:
            raise BenchError("server exited before writing its map")
        bench.remaining()
        time.sleep(0.01)
    pool = make_pool(bench.args.seed, open_count + closed_count,
                     **json.loads(inputs.read_text()))
    pool_path = bench.tmp / "pool.json"
    pool_path.write_text(json.dumps(pool))
    cpu_before = cpu_s(proc.pid)
    result = bench.child("load", "loadgen.py", [
        "--port", str(port), "--pool", str(pool_path),
        "--open-count", str(open_count), "--rate", str(OPEN_RATE),
        "--closed-count", str(closed_count),
    ], measured=False)
    rss = peak_rss_mb(proc.pid)
    load_cpu_s = cpu_s(proc.pid) - cpu_before
    bench.stop(proc)
    for _ in range(LAUNCHES - 1):
        proc, _, launched = bench.launch([])
        launches.append(launched)
        bench.outcome.op(True, "launch")
        bench.stop(proc)
    canary = bench.stop_canary()

    opened, closed = result["open"]["records"], result["closed"]["records"]
    bench.check_answers(opened, 0)
    bench.check_answers(closed, open_count)
    if trace:
        # The same queries answered in-process must give the same bytes.
        for i, (served, local) in enumerate(zip(opened, replay["answers"])):
            bench.outcome.op(served["digest"] == local["digest"],
                             f"query {i}: HTTP body differs from in-process answer")

    load = [result["open"]["t"][0], result["closed"]["t"][1]]
    load_factor = canary.factor(*load)
    setups = [canary.normalized(*launched) for launched in launches]
    ok = [r for r in opened if r["status"] == 200]
    latencies = [1e3 * canary.normalized(r["due"], r["done"]) for r in ok]
    stats = _latency_stats(latencies)
    late = _latency_stats([r["late_ms"] for r in opened])
    e2e = {
        "setup_s": median(setups),
        "run_s": load_cpu_s / load_factor,
        # Not scaled: the median query's time, mostly the batch window
        # and the loopback round trip, and the closed loop's rate do not
        # follow the work CPU's speed (see README.md); the canary would
        # only add noise.  The tail (cuts) is CPU work and is scaled.
        "query_p50_ms": median([r["ms"] for r in ok]),
        "query_p99_ms": stats["tail"],
        "saturation_qps": len(closed) / result["closed"]["wall_s"],
        "peak_rss_mb": rss,
    }
    entry = result["manifest"]["scenarios"]["default"]
    coalesce = entry["latency_batched_requests"] / max(entry["latency_batches"], 1)
    bench.details.update({
        "setup_s_each": setups,
        "setup_wall_s_each": [t1 - t0 for t0, t1 in launches],
        "load_cpu_s": load_cpu_s,
        "query_tail_pct": stats["tail_pct"],
        "query_samples": stats["n"],
        "closed_samples": len(closed),
        "closed_wall_s": result["closed"]["wall_s"],
        "loadgen_late_p99_ms": late["tail"],
        "loadgen_late_tail_pct": late["tail_pct"],
        "coalesce_ratio": coalesce,
        "digests": {"queries": [r["digest"] for r in opened + closed]},
    })
    bench.notes.append(
        f"launches: {', '.join('%.3f' % s for s in setups)} s scaled "
        f"({', '.join('%.3f' % s for s in bench.details['setup_wall_s_each'])} s wall); "
        f"open loop {stats['n']} queries at {OPEN_RATE:g}/s, tail = "
        f"p{stats['tail_pct']:.1f}; closed loop {len(closed)} queries on 2 "
        f"connections in {result['closed']['wall_s']:.3f} s wall; server CPU over "
        f"the load {load_cpu_s:.2f} s; generator late "
        f"p{late['tail_pct']:.1f} = {late['tail']:.2f} ms"
    )
    if not trace:
        return e2e, {}

    traced = json.loads(spans.read_text())
    layer = _layer_metrics(traced["totals"], replay["state"],
                           canary.factor(*launches[0]), load_factor)
    for experiment_id in EXPERIMENT_IDS:
        layer[f"experiments.{experiment_id}_s"] = 0.0
    layer["setup.unattributed_s"] = setups[0] - _stage_sum(layer)
    layer["run.unattributed_s"] = 0.0
    for kind in KINDS:
        values = [ms for r, ms in zip(ok, latencies) if r["kind"] == kind]
        kind_stats = _latency_stats(values) if values else {"p50": 0.0, "tail": 0.0}
        layer[f"service.{kind}.p50_ms"] = kind_stats["p50"]
        layer[f"service.{kind}.p99_ms"] = kind_stats["tail"]
    layer.update(_handler_ms(canary, replay["answers"]))
    layer["service.latency_batcher.coalesce_ratio"] = coalesce
    layer["loadgen.late_p99_ms"] = late["tail"]
    layer["trace.setup_overhead_frac"] = setups[0] / median(setups[1:]) - 1.0
    # Spans outside the warm-up (stage builds) were recorded under load.
    load_spans = sum(
        total["calls"] for name, total in traced["totals"].items()
        if not name.startswith(("stage.", "fibermap."))
    )
    cost = load_spans * traced["span_cost_s"]
    load_s = result["open"]["wall_s"] + result["closed"]["wall_s"]
    layer["trace.run_overhead_frac"] = cost / (load_s - cost)
    bench.details["traced"] = {"spans": str(spans), "load_spans": load_spans}
    return e2e, layer


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--digests", type=Path, default=DIGESTS_PATH,
        help="pinned output digests (default: perfbench/digests.json)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not program_present():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not args.digests.is_file():
        print(f"perfbench: no pinned digests at {args.digests}", file=sys.stderr)
        return 2

    bench = Bench(args)
    try:
        if WORKLOADS[args.workload]["kind"] == "batch":
            e2e, layer = run_batch(bench)
        else:
            e2e, layer = run_service(bench)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    outcome = bench.outcome
    error_rate = len(outcome.failures) / outcome.attempted
    checked = f"{outcome.checked} outputs checked against pinned digests"
    if args.seed != PINNED_SEED:
        checked += f"; query answers are pinned for seed {PINNED_SEED} only"
    table = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in table}
    machine = fingerprint()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for note in bench.notes:
        print(f"  {note}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    print(f"  error_rate = {error_rate:.4f} ratio ({len(outcome.failures)} of "
          f"{outcome.attempted} operations failed; {checked})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    summary = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    write_json(OUT_DIR / f"{bench.tag}.json", {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "error_rate": error_rate,
        "digests_checked": outcome.checked,
        "failures": outcome.failures,
        "end_to_end": e2e,
        "per_layer": layer,
        "details": bench.details,
        "fingerprint": machine,
    })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
