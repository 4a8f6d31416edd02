"""The toolkit's benchmark: four seeded workloads, checked and timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the directory holding ``src/repro``).
Workloads, metrics and why each is there: see ``BENCHMARK.json``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a separate traced run carries the per-layer metrics
and the tracing overhead.  Lines before it are notes for people: the
host stamp, the workload's own metric names (``report_s``,
``serve_p99_ms`` ...), check verdicts and the per-span table.

Exit codes: 0 with a result line; 2 when the checkout has no program
to measure; 1 on any other harness error (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    child_env,
    environment,
    host_stamp,
    python,
    reap_survivors,
    stray_processes,
)

GEN_TIMEOUT_S = 90.0

WORKLOADS = ("report-cold", "report-warm", "serve-zipf", "stream-catchup")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms": "ms",
    "throughput_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class Context:
    """One benchmark run: its inputs, scratch directory and tallies."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tag = f"{os.getpid()}-{time.monotonic_ns()}"
        self.work = root / ".perfbench_tmp" / f"{workload}-{self.tag}"
        self.work.mkdir(parents=True)
        self.env = child_env(root, self.work, self.tag)
        self.attempted = 0
        self.failed = 0
        self.reference_digest = None
        digests = json.loads((HERE / "digests.json").read_text())
        # Stored digests hold only where they were recorded (see record_digests.py).
        self._digests = digests if digests.get("environment") == environment() else {}

    def close(self) -> None:
        """Remove the run's scratch directory (and its parent once empty)."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def note(self, line: str) -> None:
        print(f"# {line}", flush=True)

    def env_with_cache(self, cache: Path) -> dict:
        env = dict(self.env)
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def stored_digest(self, workload: str) -> str | None:
        return self._digests.get(workload, {}).get(str(self.seed))

    def generate(self, args: list[str], env: dict) -> None:
        """Make seeded inputs with ``gen.py`` in a child process (untimed)."""
        started = time.monotonic()
        done = subprocess.run(
            [python(), str(HERE / "gen.py"), *args], cwd=self.work, env=env,
            capture_output=True, text=True, timeout=GEN_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed: {done.stderr[-800:]}")
        self.failed += reap_survivors(self.tag)
        self.note(f"inputs {args[0]} generated in {time.monotonic() - started:.1f} s")


def _workloads():
    from reports import report_cold, report_warm
    from serve import serve_zipf
    from stream import stream_catchup

    return dict(zip(WORKLOADS, (report_cold, report_warm, serve_zipf, stream_catchup)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    strays = stray_processes()
    print(f"# host {json.dumps(host_stamp(root, strays))}", flush=True)
    for stray in strays:
        print(f"# stray process before the run: {stray['pid']} {stray['cmd']}")
    ctx = Context(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = _workloads()[args.workload](ctx)
        ctx.failed += reap_survivors(ctx.tag)
    finally:
        ctx.close()
    if args.trace:
        from layers import UNITS
        result = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                  for name, unit in UNITS.items()}
    else:
        result = {name: {"value": float(metrics[name]), "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
