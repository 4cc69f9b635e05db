"""One set-up in a fresh interpreter; prints its seconds on standard output.

The clock starts at the probe's first statement, so interpreter start-up,
which the program cannot change, is left out.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <dataset.jsonl>
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    root, workload, dataset = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
    sys.path.insert(0, str(root / "src"))
    import workloads

    workloads.set_up(workload, dataset)
    print(time.perf_counter() - started)
