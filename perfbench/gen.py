"""Make a workload's seeded inputs, in a process of their own.

    python perfbench/gen.py warm DIR DAYS SEED     # CSV dataset + e22 inputs
    python perfbench/gen.py serve DAYS SEED        # synthesized arena + e22 inputs
    python perfbench/gen.py stream DIR DAYS SEED ROWS  # feed + checkpoint ROWS short of its end

Runs with the benchmark's isolated ``REPRO_CACHE_DIR``.  e22's four
backend traces are synthesized here, into that cache, so the timed
report and server runs read them the way they would on a host that
ran the toolkit before; none of this is timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Rows appended per source per feeder step.
FEED_CHUNK_ROWS = 250

#: Ticks between checkpoints, both while pre-feeding and in the timed catch-up.
CHECKPOINT_EVERY = 8

#: Rows left unread behind the mid-feed checkpoint (to within one feeder
#: step), so a catch-up's work hardly depends on the seed.
BACKLOG_ROWS = 75_000

#: Event-time lateness allowance per source (s).  Job and task rows
#: arrive in the order the dataset lists them, up to about 7 days out
#: of end-time order, so the allowance covers that and no row is late.
LATENESS = {"ras": 600.0, "jobs": 14 * 86400.0, "tasks": 14 * 86400.0}


def open_pipeline(feed, checkpoint):
    from repro.stream.pipeline import StreamPipeline

    return StreamPipeline(feed, checkpoint, lateness=LATENESS)


def _prewarm_e22(dataset) -> None:
    from repro.experiments import run_experiment

    run_experiment("e22", dataset)


def make_warm(directory: Path, days: float, seed: int) -> None:
    from repro.dataset import MiraDataset

    MiraDataset.synthesize(days, seed=seed, cache=False).save(directory)
    _prewarm_e22(MiraDataset.load(directory, cache=False))


def make_serve(days: float, seed: int) -> None:
    from repro.dataset import MiraDataset

    _prewarm_e22(MiraDataset.synthesize(days, seed=seed, mode="mmap"))


def catch_up(pipeline) -> None:
    """Tick until a tick makes no progress; checkpoint every few ticks and at the end."""
    ticks = 0
    while True:
        progressed = pipeline.tick()["progressed"]
        ticks += 1
        if ticks % CHECKPOINT_EVERY == 0 or not progressed:
            pipeline.checkpoint()
        if not progressed:
            return


def prefeed_steps(rows_per_file: list[int], backlog: int, chunk: int) -> int:
    """Fewest feeder steps that leave at most ``backlog`` rows unfed."""
    steps = 0
    while sum(max(0, n - steps * chunk) for n in rows_per_file) > backlog:
        steps += 1
    return steps


def make_stream(directory: Path, days: float, seed: int,
                backlog: int = BACKLOG_ROWS) -> None:
    from repro.dataset import MiraDataset
    from repro.faults.streams import StreamFeeder

    source = directory / "source"
    MiraDataset.synthesize(days, seed=seed, cache=False).save(source)
    feeder = StreamFeeder(
        source, directory / "feed", seed=seed, chunk_rows=FEED_CHUNK_ROWS
    )
    rows = [
        sum(1 for _ in open(source / name)) - 1
        for name in ("ras.csv", "jobs.csv", "tasks.csv", "io.csv")
    ]
    if sum(rows) <= backlog:
        raise SystemExit(f"{days} days give {sum(rows)} rows, not more than {backlog}")
    feeder.run(steps=prefeed_steps(rows, backlog, FEED_CHUNK_ROWS))
    catch_up(open_pipeline(directory / "feed", directory / "checkpoint"))
    feeder.run()


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "warm":
        make_warm(Path(rest[0]), float(rest[1]), int(rest[2]))
    elif kind == "serve":
        make_serve(float(rest[0]), int(rest[1]))
    elif kind == "stream":
        make_stream(Path(rest[0]), float(rest[1]), int(rest[2]), int(rest[3]))
    else:
        raise SystemExit(f"unknown input kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
