"""The benchmark harness: set-up probes, timed runs, correctness gates, metrics.

One call of ``run_benchmark`` measures one workload in this process.  With
tracing off it reports the end-to-end metrics: run_norm_s is the median wall
time of a run scaled by the machine speed that ``calibrate`` measures around
it, and the raw wall times are kept in the detail.  With tracing on it
alternates untraced and traced runs and reports the per-layer metrics from the
seams plus the tracing overhead.  Every run of every op passes these gates, and an op
that misses one counts as failed:

* the report's verdict is ``AllPass`` and every emitted artifact parses and
  has the expected size;
* determinism: within one process every op's emitted JSON is byte-identical
  across runs;
* translation: every 2D ring op reproduces seed 0's verdict, solver iterations
  and check numbers within ``TRANSLATION_RTOL``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import seams
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"

# Relative tolerance of the translation gate.  Translating the ring by up to
# MAX_OFFSET moved check numbers by at most 4e-8 (relative) in probes.
TRANSLATION_RTOL = 1e-5
TRANSLATION_ATOL = 1e-12
# Numbers of a check report that the translation gate compares.
GATED_NUMBERS = ("margin", "bound_value", "min_k_interior", "min_k_boundary")

END_TO_END = (
    ("run_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"


def pin_blas_threads():
    """Pin the BLAS pools to one thread; must run before numpy is imported.

    This module imports levelcurv (and so numpy) only inside functions, so
    the pin can follow ``import harness``.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"l{level}"] = size
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def measure_setup(root: Path, name: str, seed: int, size: str) -> float:
    """Seconds to import levelcurv and parse the workload's configs, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(root), name, str(seed), size],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class OpResult:
    def __init__(self, op):
        self.op = op
        self.report = None
        self.artifacts = []
        self.expected_csv_lines = {}
        self.error = None


def run_ops(ops, out_prefix: str | None):
    """Run every op as the CLI would: parse, run, emit.  Returns (results, seconds)."""
    import levelcurv.cli
    import levelcurv.config
    import levelcurv.report

    results = []
    start = time.perf_counter()
    for op in ops:
        res = OpResult(op)
        raw = copy.deepcopy(op.raw)
        if out_prefix is not None:
            raw["output"] = f"{out_prefix}/{op.label}"
        try:
            cfg = levelcurv.config.parse_config(raw)
            res.report, solutions = levelcurv.cli.run(cfg)
            if op.emit and cfg.output:
                res.artifacts = levelcurv.report.emit_report(res.report, cfg.output,
                                                             solutions=solutions)
                res.expected_csv_lines = {f"{cfg.output}.{k}.csv": s.values.size + 1
                                          for k, s in solutions.items()}
        except Exception:  # an op that raises is a failed op; the run goes on
            res.error = traceback.format_exc()
        results.append(res)
    return results, time.perf_counter() - start


def _check_numbers(report: dict) -> dict:
    out = {"verdict": report.get("verdict"),
           "iterations": report.get("solver", {}).get("iterations"),
           "checks": []}
    for check in report.get("checks", []):
        out["checks"].append({
            "name": check.get("name"),
            "pass": bool(check.get("pass")),
            **{k: float(check[k]) for k in GATED_NUMBERS if isinstance(check.get(k), (int, float))},
        })
    return out


def _translation_problems(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("verdict", "iterations"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]!r} != seed-0 {ref[key]!r}")
    if [c["name"] for c in got["checks"]] != [c["name"] for c in ref["checks"]]:
        return problems + ["check list differs from seed 0"]
    for cg, cr in zip(got["checks"], ref["checks"]):
        if cg["pass"] != cr["pass"]:
            problems.append(f"{cg['name']}: pass {cg['pass']} != seed-0 {cr['pass']}")
        for k in GATED_NUMBERS:
            if (k in cg) != (k in cr):
                problems.append(f"{cg['name']}: {k} present on one side only")
            elif k in cg and abs(cg[k] - cr[k]) > TRANSLATION_ATOL + TRANSLATION_RTOL * abs(cr[k]):
                problems.append(f"{cg['name']}: {k} {cg[k]!r} vs seed-0 {cr[k]!r}")
    return problems


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def verify(res: OpResult, first: dict, reference: dict) -> list[str]:
    """Problems with one op run; empty when every gate passes."""
    if res.error is not None:
        return [res.error.strip().splitlines()[-1]]
    problems = []
    label = res.op.label
    if res.report.get("verdict") != "AllPass":
        problems.append(f"verdict {res.report.get('verdict')!r}")
    if res.op.emit:
        json_path = next((p for p in res.artifacts if p.endswith(".json")
                          and not p.endswith(".index.json")), None)
        if json_path is None:
            return problems + ["no JSON report emitted"]
        fingerprint = _read(json_path)
        try:
            if json.loads(fingerprint).get("verdict") != res.report.get("verdict"):
                problems.append("emitted verdict differs from the report")
        except ValueError:
            problems.append("emitted JSON does not parse")
        for path, lines in res.expected_csv_lines.items():
            if _read(path).count(b"\n") != lines:
                problems.append(f"{os.path.basename(path)}: expected {lines} lines")
    else:
        fingerprint = repr(res.report).encode()
    first.setdefault(label, fingerprint)
    if fingerprint != first[label]:
        problems.append("report is not byte-identical to the first run's")
    if res.op.ring:
        problems += _translation_problems(_check_numbers(res.report), reference[label])
    return [f"{label}: {p}" for p in problems]


def seed0_reference(root: Path, name: str, size: str) -> dict:
    """Check numbers of the untranslated ring ops, cached per source tree."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "levelcurv").glob("*.py")) + [HERE / "workloads.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    cache = root / OUT_DIR / "reference" / f"{name}-{size}-{digest.hexdigest()[:16]}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    ops = [op for op in workloads.build_ops(name, 0, root, size) if op.ring]
    results, _ = run_ops(ops, None)
    for res in results:
        if res.error is not None:
            raise RuntimeError(f"seed-0 reference run of {res.op.label} failed:\n{res.error}")
    reference = {res.op.label: _check_numbers(res.report) for res in results}
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(reference, indent=1))
    return reference


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_benchmark(root: Path, name: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", setup_repeats: int = 3, seam_list=None):
    """Measure one workload; returns (result, detail) as printed by run.py."""
    import levelcurv.cli  # noqa: F401  (imported before the first timed run)

    ops = workloads.build_ops(name, seed, root, size)
    out_prefix = f"{OUT_DIR}/{name}"
    setup = [] if trace else [measure_setup(root, name, seed, size) for _ in range(setup_repeats)]

    attempted = failed = 0
    problems = []
    first_fingerprints = {}

    def gate(results, reference):
        nonlocal attempted, failed
        for res in results:
            attempted += 1
            bad = verify(res, first_fingerprints, reference)
            if bad:
                failed += 1
                problems.extend(bad)

    first_results, first_run_s = run_ops(ops, out_prefix)
    # what a one-shot CLI run holds at most, before the calibration allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = seed0_reference(root, name, size)
    gate(first_results, reference)

    untraced, normalized, traced, layers = [], [], [], []
    tracer = seams.Tracer()
    calibration = None if trace else calibrate.Calibration()
    # Rounds run while the next one is expected to end within the window, so
    # a run lasts about the same time whatever the workload's run length.
    window_start = round_end = time.perf_counter()
    last_round = 0.0
    speed_before = calibration.speed() if calibration else 1.0
    while not untraced or round_end - window_start + last_round <= seconds:
        round_start = round_end
        results, wall = run_ops(ops, out_prefix)
        speed_after = calibration.speed() if calibration else 1.0
        untraced.append(wall)
        normalized.append(wall * (speed_before + speed_after) / 2.0)
        speed_before = speed_after
        gate(results, reference)
        if trace:
            tracer.reset()
            restore = seams.install(tracer, seam_list or seams.SEAMS)
            try:
                results, wall = run_ops(ops, out_prefix)
            finally:
                restore()
            traced.append(wall)
            layers.append(tracer.layer_metrics())
            gate(results, reference)
        round_end = time.perf_counter()
        last_round = round_end - round_start

    detail = {
        "workload": name,
        "seed": seed,
        "ring_offset": workloads.ring_offset(seed),
        "ops": [op.label for op in ops],
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "run_s": _summary(untraced),
        "run_s_samples": untraced,
        "first_run_s": first_run_s,
        "failed_frac": failed / attempted,
        "translation_tolerance": {"rtol": TRANSLATION_RTOL, "atol": TRANSLATION_ATOL,
                                  "numbers": list(GATED_NUMBERS)},
        "problems": problems[:20],
    }
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = dict(seams.PER_LAYER)
        detail["traced_run_s"] = _summary(traced)
    else:
        metrics = {
            "run_norm_s": statistics.median(normalized),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        detail["run_norm_s"] = _summary(normalized)
        detail["setup_s"] = _summary(setup)
        detail["setup_s_samples"] = setup
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, detail
