"""levelcurv benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload minimal-ellipse --seed 1 --seconds 15 --trace 0

Workloads are listed in ``workloads.WORKLOADS``.  With ``--trace 0`` the result
holds the end-to-end metrics (run_norm_s, setup_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of ``seams.PER_LAYER`` and the
tracing overhead.  The lines before the result give the environment, raw wall
run_s with its quartiles and sample count, first_run_s, failed_frac, and any
failed gate.  The benchmark runs the levelcurv sources of the checkout that
holds this directory (``src/``, ``configs/``) and exits 2 without a result when
they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/levelcurv/__init__.py", "configs/minimal-ring-extremum.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a levelcurv checkout, missing {missing}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import workloads

    harness.pin_blas_threads()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    result, detail = harness.run_benchmark(ROOT, args.workload, args.seed, args.seconds,
                                           trace=bool(args.trace))
    print(json.dumps({"detail": detail}))
    raw = detail["run_s"]
    print(f"{args.workload} run_s = {raw['median']:.6g} s (wall; q1 {raw['q1']:.6g}, "
          f"q3 {raw['q3']:.6g}, n {raw['n']})")
    print(f"{args.workload} first_run_s = {detail['first_run_s']:.6g} s")
    print(f"{args.workload} failed_frac = {detail['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} op runs)")
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    raise SystemExit(main())
