"""The host-speed canary: how fast the measured core runs, moment by moment.

Run by ``run.py``, never by hand::

    python canary.py --cpu N --out samples.json

Pinned to the CPU the measured process runs on, the canary wakes every
``CANARY_PERIOD_S`` and times one fixed unit of pure-Python work (a
Dijkstra over a fixed random graph with ``heapq`` and dicts, the kind
of code the program spends its time in).  It runs under ``SCHED_FIFO``
where the system allows it, so the measured process never preempts a
unit and the unit's time reflects only the speed of the core.

On a shared host that speed is not constant: other tenants' work on
the same physical core slows this one by up to 2x within seconds, and
independently on each CPU.  The benchmark divides each measured
interval by the canary's mean unit time over it (see
``common.CanaryTrace``).

A child of the canary spins on the same CPU in the ``SCHED_IDLE``
class, so the CPU never idles (see ``_fill``).

On SIGTERM, or when its parent is gone, or after ``CANARY_MAX_S``, it
writes ``[[start, seconds], ...]`` (``time.monotonic()`` starts, shared
by every process on the machine) to ``--out`` and exits.
"""

from __future__ import annotations

import argparse
import heapq
import os
import random
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import CANARY_MAX_S, CANARY_PERIOD_S, write_json

#: Size of the canary's graph: one unit takes about a millisecond on an
#: uncontended 2.1 GHz Xeon core.
NODES = 400
DEGREE = 4


def _graph() -> Dict[int, Dict[int, float]]:
    rng = random.Random(7)
    graph: Dict[int, Dict[int, float]] = {i: {} for i in range(NODES)}
    for i in range(NODES):
        for _ in range(DEGREE):
            j = rng.randrange(NODES)
            if j != i:
                graph[i][j] = graph[j][i] = rng.random()
    return graph


def _unit(graph: Dict[int, Dict[int, float]]) -> int:
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in graph[u].items():
            if d + w < dist.get(v, float("inf")):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return len(done)


def _fill() -> None:
    """Spin at the lowest priority until the canary is gone, so the work
    CPU never idles: any runnable process preempts this one at once,
    and the canary's units, and the measured process's own wake-ups,
    never start from an idle core, whatever share of the time the
    measured process is busy."""
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os._exit(0)  # without the idle class, spinning would compete
    canary = os.getppid()
    while os.getppid() == canary:
        for _ in range(10_000):
            pass
    os._exit(0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    filler = os.fork()
    if filler == 0:
        _fill()
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except (AttributeError, OSError):
        pass  # an ordinary process; the measured one may preempt a unit
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    graph = _graph()
    samples: List[List[float]] = []
    deadline = time.monotonic() + CANARY_MAX_S
    while not stop and os.getppid() == parent and time.monotonic() < deadline:
        time.sleep(CANARY_PERIOD_S)
        started = time.monotonic()
        _unit(graph)
        samples.append([started, time.monotonic() - started])
    os.kill(filler, signal.SIGKILL)
    os.waitpid(filler, 0)
    write_json(args.out, samples)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
