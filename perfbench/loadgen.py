"""Seeded request sequence and closed-loop HTTP client for ``repro-serve``.

The client is a closed loop: each of at most ``nproc`` threads owns one
keep-alive connection and sends its next request only when the previous
answer arrived, with no think time, so a slow server receives less load.
Threads draw requests from one shared, seed-determined sequence.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time

#: Modes in Zipf rank order (rank 1 is the most frequent).  The order
#: is fixed, not drawn from the seed, so every seed offers the same mix.
MODES = ("ping", "summary") + tuple(f"e{i:02d}" for i in range(1, 23))

ZIPF_S = 1.0
BATCH_SHARE = 0.25

#: The result cache is flushed through ``POST /admin/cache`` before
#: every this-many requests, so misses recur as after a dataset epoch.
#: It is also the length of one block of the request sequence.
FLUSH_EVERY = 100

#: Each client samples ``GET /healthz`` before every this-many of its requests.
HEALTH_EVERY = 32


def block_counts(size: int = FLUSH_EVERY) -> dict[str, int]:
    """Requests per mode in one block: Zipf shares, at least one each.

    Every mode is asked once per block after the flush (a miss) and the
    remaining requests follow the Zipf weights (largest remainders
    rounded up), so each block costs the server about the same.
    """
    weights = [1.0 / rank**ZIPF_S for rank in range(1, len(MODES) + 1)]
    spare = size - len(MODES)
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(share) for share in shares]
    by_remainder = sorted(range(len(MODES)), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: size - sum(counts)]:
        counts[i] += 1
    return dict(zip(MODES, counts))


def request_sequence(seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` (mode, priority) pairs in seed-shuffled blocks of :func:`block_counts`.

    A quarter of each block (rounded) goes to the batch lane.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    block = [mode for mode, count in block_counts().items() for _ in range(count)]
    n_batch = round(BATCH_SHARE * len(block))
    sequence: list[tuple[str, str]] = []
    while len(sequence) < n:
        modes = rng.sample(block, len(block))
        lanes = ["batch"] * n_batch + ["interactive"] * (len(block) - n_batch)
        rng.shuffle(lanes)
        sequence.extend(zip(modes, lanes))
    return sequence[:n]


def query_body(mode: str, priority: str, request_id: str) -> dict:
    body = {"schema": 1, "request_id": request_id, "priority": priority}
    if mode in ("ping", "summary"):
        body["mode"] = mode
    else:
        body.update(mode="experiment", experiment=mode)
    return body


def payload_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()


class Connection:
    """One keep-alive HTTP connection that reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn = None

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def one_request(conn: Connection, mode: str, priority: str, request_id: str) -> dict:
    """Send one query; return its record (latency in seconds)."""
    started = time.perf_counter()
    try:
        _, answer = conn.request("POST", "/query", query_body(mode, priority, request_id))
    except (OSError, http.client.HTTPException, ValueError):
        return {"mode": mode, "outcome": "unreachable", "cache": None,
                "latency": time.perf_counter() - started, "digest": None}
    latency = time.perf_counter() - started
    outcome = answer.get("outcome", "error")
    return {
        "mode": mode,
        "outcome": outcome,
        "cache": answer.get("cache"),
        "latency": latency,
        "digest": payload_digest(answer.get("result")) if outcome == "ok" else None,
    }


class ClosedLoop:
    """``clients`` threads replaying ``sequence`` for ``seconds``."""

    def __init__(self, host: str, port: int, sequence, clients: int, on_health=None):
        self.host, self.port = host, port
        self.sequence = sequence
        self.clients = clients
        self.on_health = on_health
        self.records: list[dict] = []
        self.flushes = 0
        self.attempted = 0
        self._lock = threading.Lock()
        self._next = 0

    def _take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index

    def _client(self, stop_at: float, errors: list) -> None:
        conn = Connection(self.host, self.port)
        own = 0
        try:
            while time.perf_counter() < stop_at:
                index = self._take()
                if index % FLUSH_EVERY == 0:
                    # No body: the server does not read one on this path.
                    conn.request("POST", "/admin/cache")
                    with self._lock:
                        self.flushes += 1
                if own % HEALTH_EVERY == 0 and self.on_health is not None:
                    self.on_health(conn.request("GET", "/healthz")[1])
                own += 1
                mode, priority = self.sequence[index % len(self.sequence)]
                with self._lock:
                    self.attempted += 1
                record = one_request(conn, mode, priority, f"pb-{index}")
                with self._lock:
                    self.records.append(record)
        except Exception as error:  # noqa: BLE001 - reported by run()
            errors.append(repr(error))
        finally:
            conn.close()

    def run(self, seconds: float) -> float:
        """Drive the loop; returns the measured wall time.  Raises on client errors."""
        errors: list[str] = []
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(started + seconds, errors))
            for _ in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60.0)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("closed-loop client did not finish")
        if errors:
            raise RuntimeError(f"closed-loop client failed: {errors[0]}")
        return wall
