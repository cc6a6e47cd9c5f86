"""Deterministic report emission.

Reports are plain dicts rendered to JSON with sorted keys and floats printed
at 17 significant digits, whole ones with a trailing ".0", which round-trip
exactly: identical runs produce byte-identical files, and
parse(emit(report)) == report field for field, types included.
Volatile quantities (wall time) are printed to the console but kept out of
the emitted JSON for that reason.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} in report")
    text = f"{x:.17g}"
    # a whole float such as 1.0 or -0.0 prints as "1" or "-0", which parse back as ints
    return text + ".0" if text.lstrip("-").isdigit() else text


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            items.append(f'{pad}  {json.dumps(key)}: {render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)} in a report")


def parse_report(text: str) -> dict:
    return json.loads(text)


def solution_csv_lines(solution) -> list[str]:
    """CSV export: (r, u, u_prime) radial or (s, t, x1, x2, u) for 2D grids."""
    if solution.kind == "radial":
        header = "r,u,u_prime"
        columns = [solution.r, solution.values, solution.u_prime]
    else:
        header = "s,t,x1,x2,u"
        ns, nt = solution.values.shape
        s, t = np.meshgrid(np.linspace(0.0, 1.0, ns), np.arange(nt) * (2.0 * math.pi / nt),
                           indexing="ij")
        columns = [s, t, solution.coords[..., 0], solution.coords[..., 1], solution.values]
    table = np.column_stack([np.ravel(c) for c in columns])
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"non-finite float {float(table[~finite][0])!r} in report")
    row = ",".join(["%.17g"] * table.shape[1])
    return [header] + [row % tuple(values) for values in table.tolist()]


def emit_report(report: dict, prefix: str, solutions=None) -> list[str]:
    """Write <prefix>.json (+ one CSV per solution) and an artifact index."""
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    text = render_json(report)  # before any file is opened: a failed render writes nothing
    paths = []
    json_path = prefix + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    paths.append(json_path)
    for name, sol in (solutions or {}).items():
        csv_path = f"{prefix}.{name}.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(solution_csv_lines(sol)))
            fh.write("\n")
        paths.append(csv_path)
    index_path = prefix + ".index.json"
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(render_json({"artifacts": [os.path.basename(p) for p in paths]}))
        fh.write("\n")
    paths.append(index_path)
    return paths
