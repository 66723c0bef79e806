"""Time ``import mimodof`` plus a workload's first call in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED TMPDIR
Prints the seconds taken as its only line.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports mimodof and numpy)

workload, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[workload][1](seed, tmp)
print(time.perf_counter() - start)
