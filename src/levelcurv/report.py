"""Deterministic report emission.

Reports are plain dicts rendered to JSON with sorted keys and floats printed
at 17 significant digits, whole ones with a trailing ".0", which round-trip
exactly: identical runs produce byte-identical files, and
json.loads(render_json(report)) == report field for field, types included.
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


# Exact "%.17g" for float arrays.  For 1e-4 <= |x| < 1e17, "%.17g" prints x
# positionally with its 17 correctly rounded significant digits: with
# e = floor(log10 |x|) they are the integer nearest |x| * 10**(16 - e), ties to
# even.  e comes from comparing |x| with the smallest double >= 10**e.  10**k
# is an exact double for k <= 22, and Dekker's product (Numer. Math. 18:224,
# 1971) gives |x| * 10**(16 - e) exactly as hi + lo.  hi is an even integer,
# being >= 1e16 > 2**53, so rint(lo), which rounds ties to even, completes the
# rounding.  No double of the range lies close enough below a power of ten to
# round up into the next decade (the closest ones are in the tests).  Zeros,
# subnormals and the magnitudes "%.17g" prints in exponent notation are
# formatted by "%.17g" itself.
_WIDTH = 24  # the longest "%.17g" text: "-2.2250738585072014e-308"
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """Dekker's split of a into a 26-bit head and the rest: a == head + tail."""
    c = _SPLITTER * a
    head = c - (c - a)
    return head, a - head


_POW10 = np.cumprod(np.concatenate([[1.0], np.full(20, 10.0)]))  # 10**k, exact
_POW10_HEAD, _POW10_TAIL = _split(_POW10)
_DECADES = np.concatenate([[1e-4, 1e-3, 1e-2, 1e-1], _POW10[:17]])  # e = -4 .. 16
# "0000" .. "9999", one native uint32 per entry
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T
                              + ord("0")).view(np.uint32).ravel()
_PREFIX_WORD = np.frombuffer(b"-0.0", np.uint32)[0]

# A field is laid out in 24 bytes from two rows of digits.  The "shifted" row
# is "-0.0" followed by the digits as five quads: "-0.0000" d0 .. d16, with
# digit i at byte 7 + i.  The "unshifted" row is the same moved one byte left.
# For e >= 0 a field takes its e + 1 integer digits from the unshifted row
# (bytes 6 .. 6 + e), the point at byte 7 + e, and the rest from the shifted
# row; for e < 0 it is the shifted row, "0." and -e - 1 zeros before d0.
# Which bytes are kept depends only on the sign, e and the number of
# significant digits: trailing zeros are dropped, and the point with them.
_E = np.arange(-4, 17)[:, None]
_BYTE = np.arange(_WIDTH)
_FROM_UNSHIFTED = (_E >= 0) & (_BYTE >= 6) & (_BYTE <= 6 + _E)
_POINT = (_E >= 0) & (_BYTE == 7 + _E)


def _byte_mask(selected, byte=0xFF):
    return np.where(selected, byte, 0).astype(np.uint8).view(np.uint64)


_UNSHIFTED_MASK = _byte_mask(_FROM_UNSHIFTED)
_SHIFTED_MASK = _byte_mask(~_FROM_UNSHIFTED & ~_POINT)
_POINT_BYTE = _byte_mask(_POINT, ord("."))


def _keep_table():
    """keep[negative, e + 4, significant - 1]: the bytes of a field's text."""
    e, significant = _E[:, :, None], np.arange(1, 18)[:, None]
    # the digits run from byte 6 (e >= 0) or the first leading zero (e < 0) to
    # the last significant digit, or to the last integer digit if that comes later
    digits = ((_BYTE >= np.where(e >= 0, 6, 8 + e))
              & (_BYTE <= 6 + np.where(significant > e + 1, significant, e)))
    unsigned = digits | ((e < 0) & ((_BYTE == 1) | (_BYTE == 2)))  # "0." when |x| < 1
    return np.stack([unsigned, unsigned | (_BYTE == 0)])


_KEEP = _keep_table()
_BLOCK_ROWS = 16  # s-rows of a 2D grid formatted at a time, which bounds the scratch memory


def _fields(values):
    """"%.17g" of every float of ``values`` as fixed-width ASCII rows.

    Returns (chars, keep), uint8 and bool arrays of shape values.shape + (24,):
    the text of a value is its chars row where keep is set.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    n = v.size
    a = np.abs(v)
    exact = (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0  # any value of the range: "%.17g" overwrites these rows below
    e = np.searchsorted(_DECADES, a, side="right") - 5  # floor(log10 a), exactly
    k = 16 - e
    hi = a * np.take(_POW10, k)
    a_head, a_tail = _split(a)
    p_head, p_tail = np.take(_POW10_HEAD, k), np.take(_POW10_TAIL, k)
    lo = ((a_head * p_head - hi) + a_head * p_tail + a_tail * p_head) + a_tail * p_tail
    digits17 = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = (digits17 // 10**8).astype(np.int32)
    low = (digits17 % 10**8).astype(np.int32)

    words = np.empty((n, 6), np.uint32)
    words[:, 0] = _PREFIX_WORD
    for i, part in enumerate((top // 10**8, top // 10**4 % 10**4, top % 10**4,
                              low // 10**4, low % 10**4), start=1):
        words[:, i] = np.take(_QUADS, part)
    shifted = words.view(np.uint8)
    unshifted = np.empty_like(shifted)
    unshifted[:, :-1] = shifted[:, 1:]
    e_row = e + 4
    chars = ((unshifted.view(np.uint64) & np.take(_UNSHIFTED_MASK, e_row, axis=0))
             | (shifted.view(np.uint64) & np.take(_SHIFTED_MASK, e_row, axis=0))
             | np.take(_POINT_BYTE, e_row, axis=0)).view(np.uint8)
    significant = 17 - np.argmax(shifted[:, :6:-1] != ord("0"), axis=1)
    keep = np.take(_KEEP.reshape(-1, _WIDTH), np.ravel_multi_index(
        (v < 0.0, e_row, significant - 1), _KEEP.shape[:-1]), axis=0)

    other = np.flatnonzero(~exact)
    if other.size:
        # by bit pattern, so that -0.0 and 0.0 stay apart
        bits, index = np.unique(v[other].view(np.int64), return_inverse=True)
        texts = [b"%.17g" % x for x in bits.view(float).tolist()]
        padded = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
        chars[other] = padded[index]
        keep[other] = _BYTE < np.array([len(t) for t in texts])[index, None]
    shape = np.shape(values) + (_WIDTH,)
    return chars.reshape(shape), keep.reshape(shape)


def _csv_lines(*groups) -> bytes:
    """CSV lines from ``_fields`` outputs whose second-to-last axis is the field axis.

    The groups broadcast against each other over their leading axes and are
    laid side by side, one line per leading index in C order.
    """
    lead = np.broadcast_shapes(*(chars.shape[:-2] for chars, _ in groups))
    width = sum(chars.shape[-2] for chars, _ in groups)
    chars = np.empty(lead + (width, _WIDTH + 1), np.uint8)
    keep = np.empty(chars.shape, bool)
    start = 0
    for group_chars, group_keep in groups:
        stop = start + group_chars.shape[-2]
        chars[..., start:stop, :-1] = group_chars
        keep[..., start:stop, :-1] = group_keep
        start = stop
    chars[..., -1] = ord(",")
    chars[..., -1, -1] = ord("\n")
    keep[..., -1] = True
    return chars[keep].tobytes()


def _csv_blocks(solution) -> list[bytes]:
    """The CSV export of ``solution`` as consecutive ASCII blocks: the header, then the rows.

    Every float is printed as "%.17g" prints it, which round-trips exactly.
    ``_fields`` computes the 17 digits of each value exactly with numpy for
    1e-4 <= |x| < 1e17 and hands the rest (zeros, subnormals, and the
    magnitudes "%.17g" prints in exponent notation) to "%.17g" itself.  A 2D
    grid formats its s and t columns once and its nodes in blocks of s-rows.
    """
    if solution.kind == "radial":
        table = np.column_stack([solution.r, solution.values, solution.u_prime])
        _require_finite(table)
        return [b"r,u,u_prime\n", _csv_lines(_fields(table))]
    ns, nt = solution.values.shape
    nodes = np.concatenate([solution.coords, solution.values[..., None]], axis=-1)
    _require_finite(nodes)
    s_chars, s_keep = _fields(np.linspace(0.0, 1.0, ns)[:, None, None])
    t_fields = _fields(np.arange(nt)[:, None] * (2.0 * math.pi / nt))
    parts = [b"s,t,x1,x2,u\n"]
    for i in range(0, ns, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        parts.append(_csv_lines((s_chars[rows], s_keep[rows]), t_fields, _fields(nodes[rows])))
    return parts


def _require_finite(table: np.ndarray) -> None:
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"non-finite float {float(table[~finite][0])!r} in report")


def emit_report(report: dict, prefix: str, solutions=None) -> list[str]:
    """Write <prefix>.json (+ one CSV per solution) and an artifact index.

    Every text is rendered before any file is opened, so a report or solution
    that cannot be rendered writes nothing.  A CSV is kept as its list of
    blocks and written block by block, never joined into a second copy.
    """
    texts = {prefix + ".json": [(render_json(report) + "\n").encode("utf-8")]}
    for name, sol in (solutions or {}).items():
        texts[f"{prefix}.{name}.csv"] = _csv_blocks(sol)
    index = {"artifacts": [os.path.basename(p) for p in texts]}
    texts[prefix + ".index.json"] = [(render_json(index) + "\n").encode("utf-8")]
    out_dir = os.path.dirname(prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for path, blocks in texts.items():
        with open(path, "wb") as fh:
            fh.writelines(blocks)
    return list(texts)
