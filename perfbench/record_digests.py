"""Record the report digests the benchmark checks its reports against.

    python3 perfbench/record_digests.py --seeds 0-15

Run from the root of a checkout whose reports are known to be right.
For each seed it renders the report-cold and report-warm reports once
and rewrites ``perfbench/digests.json``.  The digests hold for the
Python, numpy and scipy versions and the machine type they were
recorded with; elsewhere the benchmark only checks that a run's
reports agree with each other.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import environment  # noqa: E402
from reports import reference_digest  # noqa: E402
from run import Context  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    digests: dict = {"environment": environment(), "report-cold": {}, "report-warm": {}}
    for seed in seeds:
        for workload in ("report-cold", "report-warm"):
            ctx = Context(Path.cwd(), workload, seed, 0.0, False)
            try:
                digest = reference_digest(ctx)
            finally:
                ctx.close()
            if digest is None:
                raise SystemExit(f"{workload} seed {seed}: the report failed")
            digests[workload][str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
