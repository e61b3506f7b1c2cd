"""Load generator for the what-if service: one process, two keep-alive
connections over loopback.

Run by ``run.py``, never by hand::

    python loadgen.py --port P --pool pool.json --out result.json
                      --open-count N --rate R --closed-count M

Phase 1 (open loop) sends queries ``0 .. N-1`` of the pool on a fixed
schedule, query ``i`` due at ``start + i / R``, whichever connection is
free taking the next due query.  Latency is timed from the due time, so
a stall also counts against the queries it delays; how late each send
was is recorded too.  Times are ``time.monotonic()``, the clock the
canary's samples share.  Phase 2 (closed loop) sends the next ``M``
queries back to back, each connection sending its next query as soon
as its previous answer arrives; its wall time gives the saturation
rate.  Finally the service manifest is read for the latency
micro-batcher's counters.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import digest, request_text, write_json

CONNECTIONS = 2


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _phase(port, pool, first, count, rate) -> Dict[str, Any]:
    """Send pool[first:first+count]; open loop at *rate*, or closed
    loop when *rate* is None."""
    records: List[Optional[Dict[str, Any]]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.05

    def worker() -> None:
        client = _Client(port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= count:
                    return
                request = pool[first + i]
                due = start + i / rate if rate else time.monotonic()
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent = time.monotonic()
                body = request_text(request)
                try:
                    status, raw = client.call("POST", "/v1/query", body.encode())
                    text = raw.decode("utf-8")
                    kind_ok = json.loads(text).get("kind") == request["kind"] + ".result"
                except (OSError, http.client.HTTPException, ValueError) as error:
                    status, text, kind_ok = 0, repr(error), False
                done = time.monotonic()
                records[i] = {
                    "kind": request["kind"],
                    "status": status,
                    "kind_ok": kind_ok,
                    "digest": digest(body, text),
                    "ms": 1e3 * (done - due),
                    "late_ms": 1e3 * (sent - due),
                    "due": due,
                    "sent": sent,
                    "done": done,
                }
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    span = [min(r["sent"] for r in records), max(r["done"] for r in records)]
    return {"records": records, "t": span, "wall_s": span[1] - span[0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--pool", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--open-count", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--closed-count", type=int, required=True)
    args = parser.parse_args(argv)

    pool = json.loads(args.pool.read_text())
    result: Dict[str, Any] = {
        "open": _phase(args.port, pool, 0, args.open_count, args.rate),
        "closed": _phase(args.port, pool, args.open_count, args.closed_count, None),
    }
    client = _Client(args.port)
    try:
        status, raw = client.call("GET", "/v1/manifest")
    finally:
        client.close()
    if status != 200:
        raise SystemExit(f"manifest: HTTP {status}")
    result["manifest"] = json.loads(raw)
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
