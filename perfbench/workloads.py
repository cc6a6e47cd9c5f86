"""Workload definitions: each workload is a list of ops built from a seed.

An op is one levelcurv run as a user would start it: a raw config dict that
goes through ``levelcurv.config.parse_config`` and ``levelcurv.cli.run``, with
its report written by ``levelcurv.report.emit_report``.

The seed translates every 2D ring (domain centre and both curve centres) by an
offset drawn from it.  K and psi are translation invariant, so the work per run
stays the same while the floating-point inputs change; seed 0 is the
untranslated ring of the shipped configs.  The identity ops take the seed as
their jet-verify / lemma32 seed.

This module imports nothing from levelcurv, so the set-up probe can time the
import of levelcurv separately.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("minimal-ellipse", "semilinear-circle", "psi-harmonicity", "identity-suite")

# Largest offset of the translated rings, in each coordinate.
MAX_OFFSET = 4.0

# Sizes of the full workloads and of the tiny ones the self-test uses.
SIZES = {
    "full": {
        "ellipse": [128, 256],
        "circle_corollary": [96, 192],
        "circle_theorem": [128, 256],
        "psi_grids": [[25, 48], [49, 96], [97, 192]],
        "jet_fields": 400,
        "lemma32_instances": 2000,
    },
    "tiny": {
        "ellipse": [24, 48],
        "circle_corollary": [24, 48],
        "circle_theorem": [32, 64],
        "psi_grids": [[25, 48], [49, 96]],
        "jet_fields": 10,
        "lemma32_instances": 50,
    },
}


@dataclass(frozen=True)
class Op:
    label: str
    raw: dict
    ring: bool  # a 2D ring op, subject to the translation gate
    emit: bool  # write the report with emit_report


def ring_offset(seed: int) -> tuple[float, float]:
    if seed == 0:
        return (0.0, 0.0)
    rng = random.Random(seed)
    return (rng.uniform(-MAX_OFFSET, MAX_OFFSET), rng.uniform(-MAX_OFFSET, MAX_OFFSET))


def _translated(raw: dict, offset) -> dict:
    out = copy.deepcopy(raw)
    geom = out["problem"]["geometry"]
    geom["center"] = [offset[0], offset[1]]
    for side in ("outer", "inner"):
        c = geom[side].get("center", [0.0, 0.0])
        geom[side]["center"] = [c[0] + offset[0], c[1] + offset[1]]
    return out


def _load(root: Path, name: str) -> dict:
    with open(root / "configs" / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_ops(name: str, seed: int, root: Path, size: str = "full") -> list[Op]:
    """The ops of one workload for one seed; the same seed gives the same ops."""
    sz = SIZES[size]
    offset = ring_offset(seed)

    def ring_op(label, raw, emit=True):
        raw = _translated(raw, offset)
        raw["seed"] = seed
        return Op(label, raw, ring=True, emit=emit)

    def plain_op(label, raw, emit=True):
        raw = dict(raw, seed=seed)
        return Op(label, raw, ring=False, emit=emit)

    if name == "minimal-ellipse":
        raw = _load(root, "minimal-ring-extremum.json")
        raw["problem"]["geometry"]["grid"] = list(sz["ellipse"])
        return [ring_op("ellipse-extremum", raw)]

    if name == "semilinear-circle":
        corollary = _load(root, "semilinear-ring-bound.json")
        corollary["problem"]["geometry"]["grid"] = list(sz["circle_corollary"])
        theorem = copy.deepcopy(corollary)
        theorem["command"] = "check-theorem"
        theorem["problem"]["geometry"]["grid"] = list(sz["circle_theorem"])
        theorem["spec"] = {"kind": "poisson-power", "power": -2.0}
        theorem["checks"] = ["min", "gradient-monotonicity"]
        return [ring_op("circle-corollary", corollary), ring_op("circle-theorem", theorem)]

    if name == "psi-harmonicity":
        raw = _load(root, "minimal-ring-extremum.json")
        raw["checks"] = ["harmonic-psi"]
        raw["grids"] = [list(g) for g in sz["psi_grids"]]
        return [ring_op("ellipse-harmonic-psi", raw)]

    if name == "identity-suite":
        radial_corollary = {
            "command": "check-corollary",
            "problem": {
                "equation": "minimal",
                "geometry": {"kind": "radial", "n": 3, "a": 2.0, "b": 4.0},
                "boundary": {"outer": "catenoid", "inner": "constant:0"},
            },
        }
        return [
            # emit=False: emit_report rejects the numpy.bool pass flags of the
            # jet-verify report (known defect, see BENCHMARK.json), and the
            # benchmark runs only ops that do not fail.
            plain_op("jet-verify", {"command": "jet-verify",
                                    "options": {"fields": sz["jet_fields"], "dims": [2, 3]}},
                     emit=False),
            plain_op("lemma32", {"command": "lemma32",
                                 "options": {"instances": sz["lemma32_instances"]}}),
            plain_op("radial-sharpness", _load(root, "radial-sharpness.json")),
            plain_op("radial-corollary", radial_corollary),
        ]

    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
