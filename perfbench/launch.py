"""Run one toolkit entry point as the benchmark's child process.

    python perfbench/launch.py {report|serve} [--mark FILE] [--trace-dir DIR] -- ARGS...

``report`` is ``repro-report`` and ``serve`` is ``repro-serve``, both
called through their console-script functions with ``ARGS``.
``--mark`` writes the monotonic time at which the experiment suite is
first dispatched (the end of the report's set-up).  ``--trace-dir``
wraps the layers' public callables (see ``layers.TARGETS``) and leaves
one span file per process there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _mark_first_dispatch(path: str) -> None:
    import repro.experiments.engine as engine

    original = engine.run_suite

    def run_suite(*args, **kwargs):
        if not Path(path).exists():
            Path(path).write_text(repr(time.monotonic()))
        return original(*args, **kwargs)

    engine.run_suite = run_suite


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("entry", choices=("report", "serve"))
    parser.add_argument("--mark")
    parser.add_argument("--trace-dir")
    split = argv.index("--") if "--" in argv else len(argv)
    opts = parser.parse_args(argv[:split])
    args = argv[split + 1:]
    if opts.entry == "report":
        from repro.cli import main_report as entry
    else:
        from repro.serve.cli import main_serve as entry
    recorder = None
    if opts.trace_dir:
        from layers import TARGETS
        from spans import SpanRecorder, wrap_targets

        recorder = SpanRecorder(opts.trace_dir)
        wrap_targets(recorder, TARGETS)
    if opts.mark:
        _mark_first_dispatch(opts.mark)
    try:
        return entry(args)
    finally:
        if recorder is not None:
            recorder.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
