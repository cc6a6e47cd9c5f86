"""Deterministic report emission.

Reports are plain dicts rendered to JSON with sorted keys and floats printed
at 17 significant digits, which round-trip exactly: identical runs produce
byte-identical files, and parse(emit(report)) == report field for field.
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
    return f"{x:.17g}"


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
    lines = []
    if solution.kind == "radial":
        lines.append("r,u,u_prime")
        up = solution.u_prime if solution.u_prime is not None else np.full_like(solution.r, float("nan"))
        for r, u, upv in zip(solution.r, solution.values, up):
            lines.append(f"{_fmt_float(float(r))},{_fmt_float(float(u))},{_fmt_float(float(upv))}")
    else:
        lines.append("s,t,x1,x2,u")
        ns, nt = solution.values.shape
        s = np.linspace(0.0, 1.0, ns)
        t = np.arange(nt) * (2.0 * math.pi / nt)
        for i in range(ns):
            for j in range(nt):
                x1, x2 = solution.coords[i, j]
                lines.append(
                    f"{_fmt_float(float(s[i]))},{_fmt_float(float(t[j]))},"
                    f"{_fmt_float(float(x1))},{_fmt_float(float(x2))},"
                    f"{_fmt_float(float(solution.values[i, j]))}"
                )
    return lines


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
