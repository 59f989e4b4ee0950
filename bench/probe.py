"""One set-up sample in a fresh interpreter: import scrollbin.cli, then make
the workload's warm-up calls. Prints {"seconds": ..., "ok": ...} as JSON.

Usage: python3 bench/probe.py --workload W --seed N --dir D
(with the checkout's src/ on PYTHONPATH, as run.py sets it).
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    start = perf_counter()
    import scrollbin.cli

    seconds = perf_counter() - start
    import workloads  # the benchmark's own code is not part of set-up

    workload = workloads.make(args.workload, Path(args.dir), args.seed, threads2=1)
    start = perf_counter()
    ops = workload.warmup(workloads.Runner(scrollbin.cli))
    seconds += perf_counter() - start
    print(json.dumps({"seconds": seconds, "ok": all(op.ok for op in ops)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
