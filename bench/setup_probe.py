"""Time a fresh interpreter's `import sparsetree` plus one workload's input build.

Usage: python3 bench/setup_probe.py <workload> <seed> <workdir>
Prints the elapsed seconds as its only line of output.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sparsetree  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
