#!/usr/bin/env python
"""Gate keep-alive latency on a live ``repro-serve``.

Used by the CI ``serve-smoke`` job.  Opens ONE keep-alive HTTP
connection to the server named by an ``endpoint.json``, sends one
warm-up ``ping`` and then ``PINGS`` more, and exits 1 unless the
median round-trip is under ``MAX_P50_MS``.  A server that lets Nagle
hold back its response bodies answers a keep-alive client only after
the client's delayed ACK, about 40 ms per request, however fast the
query itself ran; ``repro-replay`` opens a connection per request and
cannot see that stall.

Usage: ``python benchmarks/check_keepalive.py ENDPOINT_JSON``
"""

import argparse
import http.client
import json
import statistics
import sys
import time
import urllib.parse

PINGS = 50
# Half the ~40 ms delayed-ACK floor: a stalled server cannot pass.
MAX_P50_MS = 20.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("endpoint", help="the server's endpoint.json")
    args = parser.parse_args(argv)
    with open(args.endpoint) as handle:
        url = urllib.parse.urlsplit(json.load(handle)["url"])
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10.0)
    body = json.dumps({"schema": 1, "mode": "ping"}).encode()
    headers = {"Content-Type": "application/json"}
    round_trips_ms = []
    try:
        for index in range(PINGS + 1):
            started = time.perf_counter()
            conn.request("POST", "/query", body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if response.status != 200 or payload.get("outcome") != "ok":
                print(f"FAIL: ping {index} answered {response.status} {payload}")
                return 1
            if index:  # the first ping warms the connection and worker
                round_trips_ms.append(elapsed_ms)
    finally:
        conn.close()
    p50 = statistics.median(round_trips_ms)
    print(
        f"keep-alive pings: n={len(round_trips_ms)} p50={p50:.2f} ms "
        f"max={max(round_trips_ms):.2f} ms (limit p50 < {MAX_P50_MS:g} ms)"
    )
    if p50 >= MAX_P50_MS:
        print(f"FAIL: keep-alive p50 {p50:.2f} ms >= {MAX_P50_MS:g} ms")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
