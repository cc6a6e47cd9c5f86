"""Set-up probe: time importing levelcurv and parsing one workload's configs.

Run in a fresh interpreter by the harness:

    python3 perfbench/setup_probe.py <root> <workload> <seed> <size>

Prints the seconds as its only line.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    root = Path(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import levelcurv.cli  # noqa: F401
    import levelcurv.config
    import levelcurv.report  # noqa: F401
    import workloads

    for op in workloads.build_ops(sys.argv[2], int(sys.argv[3]), root, sys.argv[4]):
        levelcurv.config.parse_config(op.raw)
    print(time.perf_counter() - start)
