"""Launch the what-if server: the program's own CLI in this process.

    python serve.py [--spans spans.json] [--inputs inputs.json] -- <repro CLI arguments>

Runs ``repro ... serve`` through ``repro.cli.main``.  When a scenario's
warm-up ends, a line ``warmed <state> <time.monotonic()>`` goes to
standard output, so the benchmark times the set-up to the moment
``/healthz`` turns 200 without polling the server while it warms.
With ``--spans`` the layer entry points are wrapped (see ``layers.py``)
and the spans are written to that file when the server stops (SIGINT).
With ``--inputs``, SIGUSR1 makes the server write the cities, conduit
edges and ISPs of its constructed map to that file, from which the
benchmark generates the query mix; the benchmark sends it only after
the server reported healthy, so it never overlaps the timed set-up.
"""

from __future__ import annotations

import argparse
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import Spans, write_json


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    spans = Spans() if args.spans else None
    if spans is not None:
        import layers

        layers.install(spans)

    from repro.service.registry import ScenarioEntry, ScenarioRegistry

    warm = ScenarioEntry.warm

    def timed_warm(self):
        warm(self)
        print(f"warmed {self.state} {time.monotonic()!r}", flush=True)

    ScenarioEntry.warm = timed_warm
    if args.inputs is not None:
        from queries import map_inputs

        served: Dict[str, Any] = {}
        add = ScenarioRegistry.add

        def capture(self, name, *rest, **kwargs):
            entry = add(self, name, *rest, **kwargs)
            served[name] = entry.scenario
            return entry

        ScenarioRegistry.add = capture
        signal.signal(
            signal.SIGUSR1,
            lambda *_: write_json(args.inputs, map_inputs(served["default"])),
        )
    from repro.cli import main as repro_main

    try:
        return repro_main(cli)
    finally:
        if spans is not None:
            write_json(args.spans, spans.to_json())


if __name__ == "__main__":
    raise SystemExit(main())
