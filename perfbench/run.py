"""vidb benchmark: one run of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

It starts real ``vidb`` processes from the checkout's ``src/``, drives
them from this one process (at most two connections and two threads),
checks the outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it stamps the environment and inputs the numbers came
from.

Exit status: 0 with a result; 1 when an output check failed (the result
line then says ``"correct": false`` and carries no metrics); 2 when the
benchmark cannot run at all, for example outside a vidb checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vidb" / "cli.py").is_file():
        print(f"error: no vidb sources at {SRC}; run from a vidb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, stamp = bench.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
