"""Stream catch-ups, each as after a ``repro-tail`` restart.

    python perfbench/catchup.py FEED CHECKPOINT WORKDIR [--seconds S] [--min N] [--trace-dir DIR]

Each catch-up copies the mid-feed CHECKPOINT into a directory under
WORKDIR, resumes a fresh ``StreamPipeline`` from it (timed as set-up,
median of a few resumes) and ticks until a tick makes no progress, with
a checkpoint every few ticks (timed as the catch-up).  Catch-ups repeat
until S seconds have passed and N were made; the last one ends with
``verify_batch()``.  Prints one JSON list with a record per catch-up:
timings, row counts and a digest of the final state.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Resumes timed per catch-up (each on a fresh pipeline); the last one
#: is caught up.  Their median is the set-up time.
RESUMES = 5


def _rows(pipeline) -> list[int]:
    """[applied, duplicates, quarantined, lines seen], summed over sources."""
    sources = pipeline.results()["sources"]
    identity = pipeline.state_payload()["identity"]["sources"]
    return [
        sum(s["rows_applied"] for s in sources.values()),
        sum(s["duplicates"] for s in sources.values()),
        pipeline.quarantined_total(),
        sum(int(s.get("lines_seen", 0)) for s in identity.values()),
    ]


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def catch_up_once(feed: str, checkpoint: str, workdir: Path) -> tuple[dict, object]:
    """Resume from a fresh copy of ``checkpoint`` and drain the backlog."""
    from gen import catch_up, open_pipeline

    shutil.copytree(checkpoint, workdir)
    resumes = []
    for _ in range(RESUMES):
        pipeline = open_pipeline(feed, workdir)
        started = time.monotonic()
        resumed = pipeline.resume()
        resumes.append(time.monotonic() - started)
    cpu0 = _cpu()
    ready = time.monotonic()
    before = _rows(pipeline)
    catch_up(pipeline)
    done = time.monotonic()
    cpu1 = _cpu()
    after = _rows(pipeline)
    applied, duplicates, quarantined, seen = (a - b for a, b in zip(after, before))
    record = {
        "resumed": resumed,
        "setup": statistics.median(resumes),
        "wall": done - ready,
        "cpu": cpu1 - cpu0,
        "applied": applied,
        "duplicates": duplicates,
        "quarantined": quarantined,
        "seen": seen,
        "state": hashlib.sha256(pipeline.state_json().encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return record, pipeline


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("feed")
    parser.add_argument("checkpoint")
    parser.add_argument("workdir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min", type=int, default=1)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace_dir:
        from layers import TARGETS
        from spans import SpanRecorder, wrap_targets

        recorder = SpanRecorder(args.trace_dir)
        wrap_targets(recorder, [t for t in TARGETS if t.module.startswith("repro.stream")])
    records = []
    started = time.monotonic()
    while len(records) < args.min or time.monotonic() - started < args.seconds:
        # Start every catch-up from the same heap state: the previous
        # pipeline's garbage would otherwise shift when collections pause it.
        pipeline = None
        gc.collect()
        record, pipeline = catch_up_once(
            args.feed, args.checkpoint, Path(args.workdir) / str(len(records))
        )
        records.append(record)
    if recorder is not None:
        recorder.write()
    verdict = pipeline.verify_batch()
    records[-1]["verified"] = verdict["ok"]
    records[-1]["failed_checks"] = [k for k, v in verdict["checks"].items() if not v["ok"]]
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
