"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Checks that:

1. ``BENCHMARK.json`` names exactly the workloads and metrics that
   ``run.py`` runs and prints;
2. run from a directory that holds only ``BENCHMARK.json`` and the
   benchmark, without the program, it exits non-zero and prints no
   result, and so it does when its digests file is missing;
3. the output gate can fail: with one pinned digest flipped, a run at
   the pinned seed reports exactly that one failure (``correct`` false,
   ``error_rate`` above 0).  This is done once for an experiment's
   text (``runall``) and once for a query answer (``whatif``).

Exits non-zero with a message on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from common import BENCH_DIR, DIGESTS_PATH, OUT_DIR, PINNED_SEED, ROOT


def _fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_declaration() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if names != list(run.WORKLOADS):
        _fail(f"BENCHMARK.json workloads {names} != {list(run.WORKLOADS)}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in declared[key]]
        if got != list(table):
            _fail(f"BENCHMARK.json {key} differs from run.py")
    print("ok: BENCHMARK.json matches run.py")


def check_refuses_without_program(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "runall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok: without the program the benchmark exits {proc.returncode}, no result")


def check_refuses_without_digests(scratch: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "runall",
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--digests", str(scratch / "missing.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"missing digests: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok: without its digests file the benchmark exits {proc.returncode}, no result")


def check_corrupted_digest(scratch: Path, workload: str, path: tuple) -> None:
    digests = json.loads(DIGESTS_PATH.read_text())
    node = digests[workload]
    for key in path[:-1]:
        node = node[key]
    original = node[path[-1]]
    node[path[-1]] = ("0" if original[0] != "0" else "1") + original[1:]
    corrupted = scratch / f"digests-{workload}.json"
    corrupted.write_text(json.dumps(digests))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(PINNED_SEED), "--seconds", "1", "--trace", "0",
         "--digests", str(corrupted)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        _fail(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] != 1:
        _fail(f"{workload}: flipped digest {path} gave {result['failed']} failures")
    print(f"ok: {workload}: flipped digest {'/'.join(map(str, path))} -> "
          f"error_rate {result['failed']}/{result['attempted']}")


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT_DIR))
    try:
        check_declaration()
        check_refuses_without_program(scratch)
        check_refuses_without_digests(scratch)
        check_corrupted_digest(scratch, "runall", ("experiments", "fig6"))
        check_corrupted_digest(scratch, "whatif", ("queries", 0))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
