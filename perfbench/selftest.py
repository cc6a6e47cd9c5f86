"""Self-test of the benchmark harness on tiny grids (about 20 s).

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, in both modes; that a seam with no calls, or whose target is
gone, reports 0; and that the determinism and translation gates reject a
mismatch.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str):
    if not condition:
        raise SelfTestFailure(message)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import seams
    import workloads

    harness.pin_blas_threads()
    os.chdir(ROOT)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    def run(name, trace, seam_list=None):
        result, detail = harness.run_benchmark(ROOT, name, seed=3, seconds=0.0, trace=trace,
                                               size="tiny", setup_repeats=1,
                                               seam_list=seam_list)
        check(result["correct"] and result["failed"] == 0,
              f"{name} trace={trace}: failed gates {detail['problems']}")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        check(units == expected[trace], f"{name} trace={trace}: metrics {units}")
        return {k: v["value"] for k, v in result["metrics"].items()}

    layers = {}
    for name in workloads.WORKLOADS:
        run(name, trace=False)
        layers[name] = run(name, trace=True)
        print(f"ok {name}")

    # seams with no calls report 0; seams with calls report work
    ident, ellipse = layers["identity-suite"], layers["minimal-ellipse"]
    for key in ("ring2d.factorizations", "ring2d.grids", "recover.fit_calls", "ring2d.lu_nnz"):
        check(ident[key] == 0, f"identity-suite {key} = {ident[key]}, expected 0")
        check(ellipse[key] > 0, f"minimal-ellipse {key} = {ellipse[key]}, expected > 0")
    check(ident["identities.calls"] > 0 and ellipse["identities.calls"] == 0,
          "identities.calls should count only on identity-suite")
    check(layers["psi-harmonicity"]["recover.fit4_s"] > 0, "psi-harmonicity ran no degree-4 fit")

    # a seam whose target is gone reports 0 instead of failing
    gone = [("levelcurv.ring2d", "no_such_splu", "ring2d.factor", None),
            ("levelcurv.no_such_module", "splu", "ring2d.factor", None)]
    kept = [s for s in seams.SEAMS if s[1] != "splu"]
    missing = run("minimal-ellipse", trace=True, seam_list=kept + gone)
    check(missing["ring2d.factorizations"] == 0 and missing["ring2d.factor_s"] == 0,
          "a missing seam must report 0")
    check(missing["ring2d.iterations"] > 0, "the other seams must still count")
    print("ok missing seams report 0")

    # the gates reject a mismatch
    import levelcurv.cli
    import levelcurv.config

    op = workloads.build_ops("minimal-ellipse", 0, ROOT, "tiny")[0]
    report, _ = levelcurv.cli.run(levelcurv.config.parse_config(op.raw))
    numbers = harness._check_numbers(report)
    shifted = json.loads(json.dumps(numbers))
    shifted["checks"][0]["margin"] *= 1.0 + 10 * harness.TRANSLATION_RTOL
    check(not harness._translation_problems(numbers, numbers), "translation gate: false alarm")
    check(harness._translation_problems(shifted, numbers), "translation gate missed a shift")
    res = harness.OpResult(dataclasses.replace(op, emit=False))
    res.report = report
    check(harness.verify(res, {op.label: b"other bytes"}, {op.label: numbers}),
          "determinism gate missed a changed report")
    print("ok gates reject mismatches")

    # identity-suite leaves jet-verify's JSON out while emit_report rejects it
    import levelcurv.report

    jet = next(op for op in workloads.build_ops("identity-suite", 0, ROOT, "tiny")
               if op.label == "jet-verify")
    report, _ = levelcurv.cli.run(levelcurv.config.parse_config(jet.raw))
    try:
        levelcurv.report.emit_report(report, f"{harness.OUT_DIR}/selftest/jet-verify")
        print("note: jet-verify reports now emit; set emit=True for it in workloads.py")
    except TypeError as exc:
        print(f"note: jet-verify emission defect still present ({exc})")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        raise SystemExit(1)
