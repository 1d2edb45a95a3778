"""ordercky benchmark: parse and train throughput, quality and memory.

Run from the repository root:

    python3 perfbench/run.py --workload parse-short --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run in which every measured unit is done once plain and once
traced.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--spec`` prints the
BENCHMARK.json this harness implements.  See README.md beside this file.
"""

import os
import sys
from pathlib import Path

# pinned before numpy is first imported, here and in the set-up probes
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "ordercky" / "cli.py").is_file():
        print(f"error: ordercky sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
