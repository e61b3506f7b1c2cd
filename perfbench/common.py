"""Helpers shared by the benchmark's parent and child processes.

Nothing here imports the ``repro`` package: the parent process
(``run.py``) only launches children and aggregates what they report, so
its own memory and import time never mix with the measured work.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The benchmark directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output (child results, traced spans); ignored by git.
OUT_DIR = ROOT / ".perfbench-out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: The hash seed every child runs under.  Overlay path tie-breaking
#: iterates sets, so outputs are only reproducible across processes
#: with a fixed hash seed.
HASH_SEED = "0"

#: The scenario every workload builds: the paper's map family at its
#: default seed.  ``--seed`` varies the generated query mix, not the
#: world: how much work the scenario holds varies with its seed (the
#: exchange plan takes 18 s at scenario seed 31 and 21-23 s at 2015 on
#: the same machine), which alone would fill a run-to-run bound.
SCENARIO_SEED = 2015

#: The ``--seed`` whose query answers are pinned in ``digests.json``;
#: experiment outputs, which do not depend on ``--seed``, are checked
#: on every run.
PINNED_SEED = 2015

#: Spans stored per traced process; past it only per-name totals grow,
#: so a long-lived traced server stays bounded in memory.
SPAN_LIMIT = 100_000

#: The canary (``canary.py``) sleeps this long between units ...
CANARY_PERIOD_S = 0.03
#: ... and gives up after this long, should nobody stop it.
CANARY_MAX_S = 200.0
#: The canary unit time that counts as full speed: a measured interval
#: is reported as ``seconds * CANARY_REF_S / mean canary unit time``
#: over it, the seconds it would have taken on a core where the unit
#: takes 1 ms (about an uncontended 2.1 GHz Xeon core).
CANARY_REF_S = 0.001
#: Intervals shorter than this (single queries) are judged by the
#: canary units within this window centred on them.
CANARY_MIN_WINDOW_S = 0.5

#: The CPU the measured processes and the canary run on; the benchmark's
#: own processes (this parent, the load generator) run on the others.
CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU = CPUS[0]
OTHER_CPUS = set(CPUS[1:]) or {WORK_CPU}


def pin_to_work_cpu() -> None:
    """``preexec_fn`` of every measured child."""
    os.sched_setaffinity(0, {WORK_CPU})


class CanaryTrace:
    """The canary's samples, and the speed factor of any interval."""

    def __init__(self, samples: Sequence[Sequence[float]]):
        if not samples:
            raise ValueError("the canary recorded nothing")
        self.starts = [s[0] for s in samples]
        self.seconds = [s[1] for s in samples]

    def factor(self, t0: float, t1: float) -> float:
        """How many times slower than full speed the work CPU ran over
        ``[t0, t1]`` (``time.monotonic()``): the mean canary unit time
        there over ``CANARY_REF_S``."""
        pad = max(0.0, CANARY_MIN_WINDOW_S - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        if hi - lo < 3:
            raise ValueError(f"no canary samples over [{t0:.3f}, {t1:.3f}]")
        return statistics.fmean(self.seconds[lo:hi]) / CANARY_REF_S

    def normalized(self, t0: float, t1: float) -> float:
        """The interval's length, scaled to full speed."""
        return (t1 - t0) / self.factor(t0, t1)


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every child: pinned hash seed, artifact cache off,
    the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["REPRO_CACHE"] = "0"
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """The process's own RSS high-water mark (``VmHWM``), in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds the process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); 3 is fields[0].
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def digest(*parts: str) -> str:
    """Short, stable content digest of one output."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def request_text(request: Dict[str, Any]) -> str:
    """Canonical text of one query request (digest input)."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the reported tail.

    The 99th percentile when at least ten samples lie beyond it;
    otherwise the highest nearest-rank percentile that still has ten
    samples beyond it.  Below 21 samples that percentile would not lie
    above the median, and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = min(math.ceil(0.99 * n), n - 10) if n > 20 else n
    return 100.0 * rank / n, ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def fingerprint() -> Dict[str, Any]:
    """The machine and toolchain a result was measured on."""
    import platform
    from importlib import metadata

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Spans:
    """Spans recorded around calls into the program, kept in memory.

    Each span has a name, start and end (seconds since the recorder was
    made), the name of the span that caused it on the same thread, and
    its self time (duration minus the time its child spans cover).  Per
    name the recorder also keeps:

    * ``calls`` and ``busy_s``: busy seconds count only the outermost
      span of a name on a thread, so recursion is not counted twice;
    * ``self_s``: summed self time;
    * ``net_s``: duration minus the time of nested spans of the same
      layer (the name's first dotted component), e.g. a stage build
      without the dependency builds it triggered, but with the
      pipeline steps it ran.

    Past ``SPAN_LIMIT`` stored spans, further spans still update the
    totals but are not stored, and ``dropped`` counts them.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: List[Tuple[str, float, float, Optional[str], int, float]] = []
        self.dropped = 0
        #: name -> [calls, busy_s, self_s, net_s]
        self.totals: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        layer = name.split(".", 1)[0]
        parent = stack[-1][0] if stack else None
        outermost = all(frame[0] != name for frame in stack)
        # [name, layer, time in child spans, time in nested same-layer spans]
        frame = [name, layer, 0.0, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            for ancestor in reversed(stack):
                if ancestor[1] == layer:
                    ancestor[3] += duration
                    break
            with self._lock:
                total = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
                total[0] += 1
                if outermost:
                    total[1] += duration
                total[2] += duration - frame[2]
                total[3] += duration - frame[3]
                if len(self.records) < SPAN_LIMIT:
                    self.records.append((
                        name, start - self.origin, end - self.origin,
                        parent, threading.get_ident(), duration - frame[2],
                    ))
                else:
                    self.dropped += 1

    def calls(self) -> int:
        """Spans recorded so far (stored or not)."""
        with self._lock:
            return int(sum(total[0] for total in self.totals.values()))

    @staticmethod
    def cost_s(samples: int = 20_000) -> float:
        """Measured seconds one span adds around a call, on this machine."""
        probe = Spans()
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("calibrate"):
                pass
        return (time.perf_counter() - started) / samples

    def to_json(self) -> Dict[str, Any]:
        return {
            "span_cost_s": self.cost_s(),
            "fields": ["name", "start_s", "end_s", "parent", "thread", "self_s"],
            "spans": self.records,
            "dropped": self.dropped,
            "totals": {
                name: {"calls": int(c), "busy_s": b, "self_s": s, "net_s": n}
                for name, (c, b, s, n) in sorted(self.totals.items())
            },
        }


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    tmp.replace(path)
