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


def solution_csv_text(solution) -> str:
    """CSV export: (r, u, u_prime) radial or (s, t, x1, x2, u) for 2D grids.

    Every float is printed with "%.17g", which round-trips exactly.  A 2D grid
    repeats each s along its row and each t down its column, so those are
    formatted once and baked into one template per row; only x1, x2 and u are
    formatted per node.
    """
    if solution.kind == "radial":
        table = np.column_stack([solution.r, solution.values, solution.u_prime])
        _require_finite(table)
        return "r,u,u_prime\n" + "".join(["%.17g,%.17g,%.17g\n" % tuple(row)
                                            for row in table.tolist()])
    ns, nt = solution.values.shape
    nodes = np.concatenate([solution.coords, solution.values[..., None]], axis=-1)
    _require_finite(nodes)
    s_text = ["%.17g" % s for s in np.linspace(0.0, 1.0, ns).tolist()]
    columns = [",%.17g,%%.17g,%%.17g,%%.17g" % t
               for t in (np.arange(nt) * (2.0 * math.pi / nt)).tolist()]
    rows = [(s + ("\n" + s).join(columns)) % tuple(values)
            for s, values in zip(s_text, nodes.reshape(ns, 3 * nt).tolist())]
    return "s,t,x1,x2,u\n" + "\n".join(rows) + "\n"


def _require_finite(table: np.ndarray) -> None:
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"non-finite float {float(table[~finite][0])!r} in report")


def emit_report(report: dict, prefix: str, solutions=None) -> list[str]:
    """Write <prefix>.json (+ one CSV per solution) and an artifact index.

    Every text is rendered before any file is opened, so a report or solution
    that cannot be rendered writes nothing.
    """
    texts = {prefix + ".json": render_json(report) + "\n"}
    for name, sol in (solutions or {}).items():
        texts[f"{prefix}.{name}.csv"] = solution_csv_text(sol)
    index = {"artifacts": [os.path.basename(p) for p in texts]}
    texts[prefix + ".index.json"] = render_json(index) + "\n"
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return list(texts)
