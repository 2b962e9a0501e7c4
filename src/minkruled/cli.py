"""Command-line front end: JSON config in, JSON report / OBJ mesh out.

    minkruled <command> --config cfg.json [--output-dir DIR] [--tolerance X]

Commands: analyze, synthesize, transversal, verify, mesh.  Exit codes:
0 success, 1 numerical degeneracy aborted the computation, 2 config error.
Reports are deterministic: fixed key order, round-trip float formatting,
no timestamps; file writes are atomic (write temp, rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import expressions as ex
from ._version import __version__
from .errors import (
    BaseNotDevelopableError,
    ConfigError,
    DegenerateDenominatorError,
    ExprError,
    GeometryError,
    NonTimelikeStrictionError,
    ParseError,
    WorkLimitError,
)
from .lorentz import DEFAULT_TOLERANCES, CausalCharacter, Tolerances, lorentz_dot
from .ruled import (
    ExplicitSurface,
    classify,
    distribution_parameter,
    sample_frames,
    sample_grid,
    sampled_ruled_invariants,
    striction,
    striction_predicates,
)
from .synthesis import MAX_MESH_VERTICES, IntrinsicData, _ruled_grid, synthesize_surface, to_explicit_grid
from .transversal import (
    Branch,
    Family,
    TransversalSpec,
    analyze as analyze_transversal,
    coincidence_condition,
    corollary_checks,
    developability_condition,
    drall_law,
    ruling_samples,
    to_explicit,
)
from .verify import SuiteConfig, run_all

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_expr(text, context: str) -> ex.Expr:
    if not isinstance(text, str):
        raise ConfigError(f"{context}: expected an expression string")
    try:
        return ex.parse(text)
    except ParseError as err:
        raise ConfigError(f"{context}: {err.message} at offset {err.position}") from err


def _number(value, context: str) -> float:
    """A JSON number (not a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        return math.inf if value > 0 else -math.inf


def _items(value, context: str, item, count=None) -> tuple:
    """A JSON list, of ``count`` entries if given, as the tuple of ``item`` of each entry."""
    if not isinstance(value, list) or count not in (None, len(value)):
        raise ConfigError(f"{context}: expected a list" + (f" of {count} values" if count else ""))
    return tuple(item(x, f"{context}[{i}]") for i, x in enumerate(value))


def _pair(value, context: str) -> tuple:
    return _items(value, context, _number, 2)


def _v_range(value, context: str) -> tuple:
    """A pair, finite and increasing: no library type owns the mesh's v range."""
    lo, hi = _pair(value, context)
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"{context}: range must be finite and increasing")
    return lo, hi


def _vector(value, context: str) -> np.ndarray:
    return np.array(_items(value, context, _number, 3))


def _count(value, context: str) -> int:
    if not isinstance(value, int) or value < 2:
        raise ConfigError(f"{context}: expected an integer >= 2")
    return value


def _flag(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context}: expected true or false")
    return value


def _path(value, context: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{context}: expected a non-empty path string")
    if "\0" in value:
        raise ConfigError(f"{context}: a path cannot hold a NUL character")
    return value


def _member(value, context: str, enum=Family):
    """The member of ``enum`` (Family by default) that the JSON value names."""
    try:
        return enum(value)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


def _block(obj, table: dict, context: str, scope: str | None = None) -> dict:
    """The keys of a config object, each parsed by its rule in ``table``.

    ``table`` maps each key the object may hold to ``(rule, required)``.  A
    rule maps a JSON value and its context to the value the key's owner type
    takes, or raises ConfigError; the owner checks its range, through _build.
    ``scope`` names the object in an unknown-key error (default ``context``).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    for key in obj:
        if key not in table:
            raise ConfigError(f"{scope or context}: unknown key {key!r}")
    values = {}
    for key, (rule, required) in table.items():
        if key in obj:
            values[key] = rule(obj[key], f"{context}.{key}")
        elif required:
            raise ConfigError(f"{context}: missing required key {key!r}")
    return values


def _build(context: str, owner, **kwargs):
    """``owner(**kwargs)``, its ValueError (a value out of range) a ConfigError."""
    try:
        return owner(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


def _transversal(value, context: str) -> TransversalSpec:
    spec = _block(value, _TRANSVERSAL, context)  # the config's kind is the spec's family
    return _build(context, TransversalSpec, family=spec.pop("kind"), **spec)


# each config block's keys, key -> (parse rule, required); a key its table
# does not hold is a config error
_OUTPUT = {
    "report_path": (_path, False),
    "mesh_path": (_path, False),
    "v_range": (_v_range, False),
    "v_samples": (_count, False),
}
_TRANSVERSAL = {
    "kind": (_member, True),
    "angle": (_parse_expr, True),
    "branch": (lambda v, c: None if v is None else _member(v, c, Branch), False),
}
_TOLERANCES = {"causal_eps": (_number, False), "general_eps": (_number, False)}
_SUITE = {
    "k1_values": (lambda v, c: _items(v, c, _number), False),
    "k2_values": (lambda v, c: _items(v, c, _number), False),
    "theta_values": (lambda v, c: _items(v, c, _number), False),
    "angle": (_number, False),
    "families": (lambda v, c: _items(v, c, _member), False),
    "tolerance": (_number, False),
    "step": (_number, False),
    "s_range": (_pair, False),
}
# each mode's top-level keys; those naming a field of the mode's surface type
# (ExplicitSurface, IntrinsicData) build it, the others fill Config
_MODE_KEYS = {
    "explicit": {
        "mode": (lambda v, c: v, True),  # checked before the table is chosen
        "f": (lambda v, c: _items(v, c, _parse_expr, 3), True),
        "q": (lambda v, c: _items(v, c, _parse_expr, 3), True),
        "u_range": (_pair, True),
        "samples": (_count, True),
        "normalize_q": (_flag, False),
        "output": (lambda v, c: _block(v, _OUTPUT, c), False),
        "tolerances": (lambda v, c: _build(c, Tolerances, **_block(v, _TOLERANCES, c)), False),
    },
    "intrinsic": {
        "mode": (lambda v, c: v, True),
        "k1": (_parse_expr, True),
        "k2": (_parse_expr, True),
        "theta": (_parse_expr, True),
        "s_range": (_pair, True),
        "step": (_number, True),
        "epsilon": (lambda v, c: v, False),  # IntrinsicData checks it
        "initial_frame": (lambda v, c: _items(v, c, _vector, 3), False),
        "transversal": (_transversal, False),
        "output": (lambda v, c: _block(v, _OUTPUT, c), False),
        "suite": (lambda v, c: _build(c, SuiteConfig, **_block(v, _SUITE, c)), False),
    },
}


@dataclass
class Config:
    """Validated run configuration plus the raw dict for report echoes."""

    mode: str
    raw: dict
    data: IntrinsicData | None = None
    surface: ExplicitSurface | None = None
    samples: int | None = None
    transversal_spec: TransversalSpec | None = None
    report_path: str = "report.json"
    mesh_path: str | None = None
    v_range: tuple = (-1.0, 1.0)
    v_samples: int = 11
    tolerances: Tolerances = DEFAULT_TOLERANCES
    suite: SuiteConfig | None = None


def parse_config(path: str) -> Config:
    """Load and strictly validate a JSON config; ConfigError on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, nested too deep or too many digits
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "mode" not in raw:
        raise ConfigError("config: missing required key 'mode'")
    mode = raw["mode"]
    if mode not in ("explicit", "intrinsic"):
        raise ConfigError(f"config: mode must be 'explicit' or 'intrinsic', got {mode!r}")
    values = _block(raw, _MODE_KEYS[mode], "config", f"config ({mode} mode)")
    owner, name = (ExplicitSurface, "surface") if mode == "explicit" else (IntrinsicData, "data")
    fields = {key: values.pop(key) for key in owner.__dataclass_fields__ if key in values}
    values[name] = _build("config", owner, **fields)
    values["transversal_spec"] = values.pop("transversal", None)
    values.update(values.pop("output", {}))
    return Config(raw=raw, **values)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


# vertex rows per block when streaming an OBJ (faces go twice as many per
# block): a block's text is built and written before the next block is read,
# so a large mesh is never held as one string, and a block's scratch arrays
# (about 1.3 kB per vertex row, 0.5 kB per face) stay under a megabyte
OBJ_CHUNK_ROWS = 512

_VERTEX_LINE = b"v %.17g %.17g %.17g\n"


def _atomic_write(path: str, chunks):
    """Write the bytes-like ``chunks`` to a temp file, then rename it to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _split(a):
    """Veltkamp's split of doubles into 26-bit halves, ``hi + lo == a``."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a, k, pow10):
    """``(p, e)``: p = fl(a * 10**k) and p + e == a * 10**k exactly (Dekker's TwoProduct)."""
    b, bh, bl = np.take(pow10, k, axis=1)
    p = a * b
    ah, al = _split(a)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _vertex_tables():
    """The lookup tables of ``_vertex_text``, built per mesh in a fraction of a millisecond.

    * ``quad[g]``: the four digits of g < 10**4 as one uint64, "d.d.d.d.".
    * ``zeros[g]``: the trailing zeros of g written with four digits, so
      that ``zeros[g] >> 2`` is 1 for g = 0 only.
    * ``keep[key]``: which bytes of a 48-byte field ``%.17g`` writes, for
      key = (sign, exponent + 4, trailing zeros of the 17 digits).
    * ``pow10[:, k]``: 10**k (exact in a double for k < 22) and its split.
    """
    digit = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    quad = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    for place in range(4):
        quad[..., 2 * place] = digit.reshape((10,) + (1,) * (3 - place))
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int8)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    # A field is "v -", three unused bytes, then the stream "0000" and the
    # 17 digits with a point after each character: S_i at byte 6 + 2i.  The
    # grids are floats, as integers would load numpy's integer compare loops.
    negative, exp, tz = np.ix_(np.arange(2.0), np.arange(-4.0, 16.0), np.arange(17.0))
    i = np.arange(21.0)
    first = (4 + np.minimum(exp, 0))[..., None]  # S_0 is the "0" of "0.000..."
    last = (20 - np.minimum(tz, 16 - exp))[..., None]  # trailing zeros dropped
    keep = np.zeros((2, 20, 17, 48), dtype=bool)
    keep[..., 0] = keep[..., 1] = True  # "v " (the caller drops the "v" of y and z)
    keep[..., 2] = negative == 1  # "-"
    keep[..., 6::2] = (first <= i) & (i <= last)
    keep[..., 7::2] = (i == 4 + exp[..., None]) & (tz < 16 - exp)[..., None]
    pow10 = np.array([float(10**k) for k in range(22)])
    return quad.reshape(-1).view(np.uint64), zeros.reshape(-1), keep.reshape(-1, 48), np.stack([pow10, *_split(pow10)])


def _vertex_text(rows, tables):
    """The bytes of ``_VERTEX_LINE % row`` for the rows of an (n, 3) block in range.

    Returns ``(text, fallback, ends)``.  ``text`` is a uint8 array holding
    the lines of the rows whose coordinates are all ±0 or have 1e-4 <= |x|
    < 1e16, which ``%.17g`` writes in positional notation.  ``fallback`` indexes the
    other rows, for the caller to format with ``%``, and ``ends[i]`` is the
    length of the lines in ``text`` up to row i (None if there are none).

    A coordinate x with decimal exponent X (10**X <= |x| < 10**(X+1)) has
    the 17 significant digits D = round-half-even(|x| * 10**(16-X)).  The
    product is exact as p + e; p >= 2**53 is an even integer, so D = p +
    rint(e).  X is read from log10, then settled by comparing p + e with
    10**16 and 10**17.  D never rounds up to 10**17 (where C would take
    X + 1): no double in the range lies within half a unit of the 17th
    digit below a power of ten.  The digits are rendered four at a time
    from ``quad``, and ``keep`` picks the bytes written.  A zero is written
    as 1.0 is, with its 17 digits set to 0: "0", or "-0" after its sign bit.

    Compares are on floats and integer arithmetic on int64 through divmod:
    numpy's other loops for them would add about 0.3 MB of resident code.
    """
    quad, zeros, keep_of, pow10 = tables
    n = len(rows)
    a = np.abs(rows.reshape(-1))
    zero = a == 0
    inside = (a >= 1e-4) & (a < 1e16)
    a[~inside] = 1.0
    inside |= zero
    exp = np.floor(np.log10(a)).astype(np.int64)
    p, e = _scaled(a, 16 - exp, pow10)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        exp[wrong] += high[wrong].astype(np.int64) - low[wrong]
        p[wrong], e[wrong] = _scaled(a[wrong], 16 - exp[wrong], pow10)
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    digits[zero] = 0

    lead, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (lead, *np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    field = np.empty((3 * n, 6), dtype=np.uint64)
    field[:, 0] = np.frombuffer(b"v -   0.", dtype=np.uint64)
    for j, g in enumerate(groups, 1):
        np.take(quad, g, out=field[:, j], mode="clip")  # "raise" would buffer
    text = field.view(np.uint8).reshape(n, 144)
    text[:, 143] = ord("\n")  # in place of the point after S_20 of z
    z0, z1, z2, z3 = (zeros[g].astype(np.int64) for g in groups[1:])
    tz = z3 + (z3 >> 2) * (z2 + (z2 >> 2) * (z1 + (z1 >> 2) * z0))
    key = 340 * np.signbit(rows.reshape(-1)) + 17 * exp + tz + 68
    keep = np.take(keep_of, key, axis=0).reshape(n, 144)
    keep[:, 48] = keep[:, 96] = False
    keep[:, 143] = True
    if inside.all():
        return np.compress(keep.reshape(-1), text.reshape(-1)), (), None
    fallback = np.flatnonzero(~inside.reshape(n, 3).all(axis=1))
    keep[fallback] = False
    return np.compress(keep.reshape(-1), text.reshape(-1)), fallback, np.cumsum(keep.sum(axis=1))


def _vertex_lines(vertices):
    """Yield ``_VERTEX_LINE % row`` over an (n, 3) array, in bytes-like blocks."""
    tables = _vertex_tables()
    for start in range(0, len(vertices), OBJ_CHUNK_ROWS):
        rows = vertices[start:start + OBJ_CHUNK_ROWS]
        text, fallback, ends = _vertex_text(rows, tables)
        done = 0
        for i in fallback:
            yield text[done:ends[i]]
            yield _VERTEX_LINE % tuple(rows[i].tolist())
            done = ends[i]
        yield text[done:]


def _face_tables():
    """The lookup tables of ``_face_text``, built per mesh in a fraction of a millisecond.

    * ``digits[g]``: the four digits of g < 10**4 as one uint32.
    * ``lead[g]``: the leading zeros of g written with four digits, so that
      ``lead[g] >> 2`` is 1 for g = 0 only.
    * ``keep[z]``: which bytes of an index's 12-byte field (a separator
      word, then eight digits) are written when the digits have z leading zeros.
    """
    digits = np.zeros((10, 10, 10, 10, 4), dtype=np.uint8)
    lead = np.zeros((10, 10, 10, 10), dtype=np.int64)
    for place in range(4):
        digits[..., place] = np.arange(ord("0"), ord("0") + 10).reshape((10,) + (1,) * (3 - place))
        lead[(0,) * (place + 1)] += 1
    keep = np.arange(12.0) >= np.arange(4.0, 12.0)[:, None]
    keep[:, 0] = True
    return digits.reshape(-1).view(np.uint32), lead.reshape(-1), keep


def _face_text(faces, tables):
    """The bytes of ``b"f %d %d %d %d\\n" % row`` for the rows of an (n, 4) block of indices in [1, 10**8).

    Each index is written as eight digits, two words of ``digits``, after a
    separator word: "f   " for the first, "    " for the others.  ``keep``
    drops the separator's padding and the leading zeros, counted as
    ``_vertex_text`` counts trailing ones, and one ``np.compress`` writes the text.
    """
    digits, lead, keep = tables
    hi, lo = np.divmod(faces, 10**4)
    n = len(faces)
    text = np.empty((n, 13), dtype=np.uint32)  # (separator, high, low) per index, then the newline
    text[:] = np.frombuffer(b"f   " + b"    " * 11 + b"\n   ", dtype=np.uint32)
    np.take(digits, hi, out=text[:, 1:12:3], mode="clip")
    np.take(digits, lo, out=text[:, 2:12:3], mode="clip")
    zeros = lead[hi]
    mask = np.zeros((n, 52), dtype=bool)
    mask[:, :48] = np.take(keep, zeros + (zeros >> 2) * lead[lo], axis=0).reshape(n, 48)
    mask[:, 1] = mask[:, 48] = True  # the space after "f", the newline
    return np.compress(mask.reshape(-1), text.view(np.uint8).reshape(-1))


def _face_lines(ns: int, nv: int):
    """Yield the quad faces of an (ns, nv) vertex grid as OBJ lines, in bytes-like blocks.

    A generator, so the face table is built only once the vertex lines are
    written.  Indices are 1-based, at most ``MAX_MESH_VERTICES`` = 10**7.
    """
    tables = _face_tables()
    base = (np.arange(ns - 1)[:, None] * nv + np.arange(1, nv)).reshape(-1)
    corners = np.array([0, nv, nv + 1, 1])
    for start in range(0, len(base), 2 * OBJ_CHUNK_ROWS):
        yield _face_text(base[start:start + 2 * OBJ_CHUNK_ROWS, None] + corners, tables)


def export_obj(grid: np.ndarray, path: str):
    """Write a quad-mesh Wavefront OBJ for a (ns, nv, 3) vertex grid.

    Vertex lines are ``v %.17g %.17g %.17g`` byte for byte: ``_vertex_text``
    writes every row whose coordinates are ±0 or lie in 1e-4 <= |x| < 1e16,
    and rows holding a smaller or a larger coordinate are formatted with
    ``%``.  Face lines are ``f %d %d %d %d`` byte for byte, 1-based, rendered
    by ``_face_lines`` from a four-digit table.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3 or grid.shape[2] != 3 or grid.shape[0] < 2 or grid.shape[1] < 2:
        raise ValueError("mesh grid must have shape (ns >= 2, nv >= 2, 3)")
    if not np.isfinite(grid).all():
        raise ValueError("mesh grid holds non-finite vertices")
    if grid.shape[0] * grid.shape[1] > MAX_MESH_VERTICES:
        raise ValueError(f"mesh grid has more than MAX_MESH_VERTICES = {MAX_MESH_VERTICES} vertices")
    parts = (_vertex_lines(grid.reshape(-1, 3)), _face_lines(*grid.shape[:2]))
    _atomic_write(path, (chunk for part in parts for chunk in part))


def _scalar(value) -> str:
    """The JSON text of a float, str, None, bool or int, as ``json.dumps`` writes it."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_json(value, out: list, indent: str, path, warnings: list, encode):
    """Append to ``out`` the text ``json.dumps(indent=2, allow_nan=False)`` writes for ``value``.

    Numpy arrays and scalars go as ``tolist()`` and ``item()``; a non-finite
    float goes as null, with ``"<path>: non-finite value replaced by null"``
    appended to ``warnings`` (``path``: the key path, None above the top keys,
    shared by a list's items).  ``indent`` is the indent of the value's line.
    A list of numbers, bools and nulls, or a finite non-empty 2-D array, is one
    call of ``encode``, the C encoder, which has no indent: its ``", "`` and
    ``"], ["`` separators (no string, so none inside a value) become the
    indented line breaks.  A list ``encode`` rejects is walked item by item.
    """
    if isinstance(value, np.ndarray):
        if np.isfinite(value).all() and value.ndim == 2 and value.size:  # isfinite rejects non-numbers
            inner, row = indent + "  ", indent + "    "
            text = encode(value.tolist())[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{row}")
            out.append(f"[\n{inner}[\n{row}" + text.replace(", ", ",\n" + row) + f"\n{inner}]\n{indent}]")
            return
        value = value.tolist()
    elif isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if not isinstance(value, (dict, list, tuple)):
        if isinstance(value, float) and not math.isfinite(value):
            warnings.append(f"{path}: non-finite value replaced by null")
            value = None
        out.append(_scalar(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = indent + "  "
    sep = "\n" + inner
    if isinstance(value, dict):
        out.append("{")
        for key, item in value.items():  # a non-str key is written as json writes it, quoted
            out.append(sep + (encode_basestring_ascii(key) if isinstance(key, str) else f'"{_scalar(key)}"') + ": ")
            _write_json(item, out, inner, f"{key}" if path is None else f"{path}.{key}", warnings, encode)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
        return
    if not isinstance(value[0], (str, dict, list, tuple, np.ndarray)):
        try:
            text = encode(value)
        except (TypeError, ValueError):  # a non-finite float or a numpy scalar
            text = '"'  # walked below
        if '"' not in text and text.find("[", 1) < 0:  # no str, no dict but {}, no list
            out.append("[\n" + inner + text[1:-1].replace(", ", ",\n" + inner) + "\n" + indent + "]")
            return
    out.append("[")
    for item in value:
        out.append(sep)
        _write_json(item, out, inner, path, warnings, encode)
        sep = ",\n" + inner
    out.append("\n" + indent + "]")


def export_report(report: dict, path: str):
    """Serialize a report deterministically (fixed key order, UTF-8, LF).

    The bytes are ``json.dumps(body, indent=2, allow_nan=False)`` and a newline,
    ``body`` being the report with numpy values as lists and numbers, non-finite
    floats nulled and ``warnings`` last: ``_write_json`` adds each null's
    warning to ``report["warnings"]`` in its one walk, before it reaches that key.
    """
    warnings = report.setdefault("warnings", [])
    body = {k: v for k, v in report.items() if k != "warnings"} | {"warnings": warnings}
    out: list = []
    _write_json(body, out, "", None, warnings, json.JSONEncoder(allow_nan=False).encode)
    out.append("\n")
    text = "".join(out)
    del out  # the pieces go before the bytes are made
    _atomic_write(path, (text.encode(),))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _envelope(command: str, cfg: Config) -> dict:
    return {"version": __version__, "command": command, "config": cfg.raw}


def _explicit_grid(cfg: Config) -> np.ndarray:
    """Vertex grid f(u_i) + v_j q(u_i) of the explicit surface, u evenly spaced."""
    f, q = cfg.surface._d.fields(sample_grid(cfg.surface, cfg.samples), "f", "q")
    return _ruled_grid(f, q, cfg.v_range, cfg.v_samples)


def _cmd_analyze(cfg: Config) -> tuple[dict, np.ndarray | None]:
    surface = cfg.surface
    report = _envelope("analyze", cfg)
    warnings: list = []
    cls = classify(surface, cfg.samples, cfg.tolerances)
    report["classification"] = {
        "ruling_character": cls.ruling_character.value,
        "class": "N-" if cls.ruling_character is CausalCharacter.TIMELIKE else "N+",
        "developable": cls.developable,
        "skew": (not cls.developable) if cls.developable is not None else None,
        "conoid": cls.conoid,
        "cylindrical": cls.cylindrical,
        "max_abs_drall": cls.max_abs_drall,
    }
    # every row at one arc-length node
    track = sample_frames(surface, cfg.samples, cfg.tolerances)
    report["samples"] = {
        "u": track.u,
        "drall": distribution_parameter(surface, track.u, cfg.tolerances),
        "strictional_distance": striction(surface, track.u, cfg.tolerances)[0],
        "arc_length": track.s,
        "k1": track.k1,
        "k2": track.k2,
        # NaN theta (striction tangent not timelike) is reported as null
        "theta": [None if math.isnan(x) else x for x in track.theta.tolist()],
    }
    report["striction_predicates"] = None
    not_timelike = "striction tangent is not timelike; predicates skipped"
    if np.any(np.isnan(track.theta)):
        warnings.append(not_timelike)
    elif len(track) < 7:
        warnings.append("predicates need at least 7 samples; predicates skipped")
    else:
        try:  # the stencil's tangent may fail to be timelike where theta is finite
            predicates = striction_predicates(track, cfg.tolerances.general_eps * 100)
        except NonTimelikeStrictionError:
            warnings.append(not_timelike)
        else:
            report["striction_predicates"] = {
                r.name: {key: value for key, value in asdict(r).items() if key != "name"}
                for r in predicates.results()
            }
    report["warnings"] = warnings
    return report, None if cfg.mesh_path is None else _explicit_grid(cfg)


def _cmd_synthesize(cfg: Config) -> tuple[dict, np.ndarray | None]:
    surf = synthesize_surface(cfg.data)
    report = _envelope("synthesize", cfg)
    qq = lorentz_dot(surf.q, surf.q)
    hh = lorentz_dot(surf.h, surf.h)
    aa = lorentz_dot(surf.a, surf.a)
    dets = np.linalg.det(np.stack([surf.q, surf.h, surf.a], axis=1))
    report["frame_residuals"] = {
        "ruling_norm": float(np.max(np.abs(qq + 1))),
        "central_normal_norm": float(np.max(np.abs(hh - 1))),
        "central_tangent_norm": float(np.max(np.abs(aa - 1))),
        "orientation": float(np.max(np.abs(dets + 1))),
    }
    oracle = sampled_ruled_invariants(surf.c, surf.q, surf.step)
    closed = drall_law(surf.k1, surf.theta)
    gap = None
    if np.any(oracle.valid):
        gap = float(
            np.max(np.abs(closed[oracle.sl][oracle.valid] - oracle.drall[oracle.valid]))
        )
    report["drall"] = {"closed_form": closed, "oracle_max_gap": gap}
    report["samples"] = {
        "s": surf.s,
        "k1": surf.k1,
        "k2": surf.k2,
        "theta": surf.theta,
        "striction_curve": surf.c,
    }
    report["warnings"] = []
    return report, None if cfg.mesh_path is None else to_explicit_grid(surf, cfg.v_range, cfg.v_samples)


def _cmd_transversal(cfg: Config) -> tuple[dict, np.ndarray | None]:
    if cfg.transversal_spec is None:
        raise ConfigError("transversal requires a 'transversal' config block")
    surf = synthesize_surface(cfg.data)
    spec = cfg.transversal_spec
    analysis = analyze_transversal(surf, spec)
    report = _envelope("transversal", cfg)
    warnings: list = []
    report["family"] = spec.family.value
    report["ruling_norm"] = analysis.ell
    report["samples"] = {
        "s": analysis.s,
        "v_closed": analysis.v_closed,
        "v_printed": analysis.v_printed,
        "d_closed": analysis.d_closed,
        "d_via_base_drall": analysis.d_via_base,
    }
    report["oracle"] = {
        "interior_offset": analysis.sl.start,
        "v": analysis.oracle.v0,
        "d": analysis.oracle.drall,
        "valid": analysis.oracle.valid,
    }
    report["agreement"] = {
        "rel_v": analysis.rel_v,
        "rel_d": analysis.rel_d,
        "closed_form_suspect": analysis.suspect,
        "printed_sign_flip": analysis.printed_sign_flip,
    }
    if analysis.printed_sign_flip:
        warnings.append(
            "commonly printed strictional-distance form disagrees with the "
            "defining quotient by an overall sign; the oracle-backed value is reported"
        )
    if analysis.suspect:
        warnings.append("closed form disagrees with the sampled oracle beyond 1e-4")
    report["coincidence"] = asdict(coincidence_condition(analysis))
    development = developability_condition(analysis)
    report["developability"] = asdict(development)
    warnings.extend(development.notes)
    try:
        report["corollaries"] = asdict(corollary_checks(surf, spec))
    except (BaseNotDevelopableError, DegenerateDenominatorError) as err:
        report["corollaries"] = None
        warnings.append(f"corollary checks skipped: {err}")
    report["warnings"] = warnings
    return report, None if cfg.mesh_path is None else to_explicit(surf, analysis.q_t, cfg.v_range, cfg.v_samples)


def _cmd_verify(cfg: Config) -> tuple[dict, None]:
    report = _envelope("verify", cfg)
    combined = run_all(cfg.suite or SuiteConfig())
    report["suites"] = combined["suites"]
    report["summary"] = combined["summary"]
    report["warnings"] = combined["warnings"]
    return report, None


def _cmd_mesh(cfg: Config) -> tuple[None, np.ndarray]:
    """No report, only the mesh; a transversal ruling comes from its angle alone."""
    if cfg.mode == "explicit":
        return None, _explicit_grid(cfg)
    surf = synthesize_surface(cfg.data)
    if cfg.transversal_spec is None:
        return None, to_explicit_grid(surf, cfg.v_range, cfg.v_samples)
    q_t, _ = ruling_samples(surf, cfg.transversal_spec)
    return None, to_explicit(surf, q_t, cfg.v_range, cfg.v_samples)


# command: (builder, config modes it accepts, config field --tolerance sets); a
# builder returns the report (None for mesh) and, where the config names a mesh,
# the vertex grid of the surface it already holds (else None)
COMMAND_TABLE = {
    "analyze": (_cmd_analyze, ("explicit",), "tolerances.general_eps"),
    "synthesize": (_cmd_synthesize, ("intrinsic",), None),
    "transversal": (_cmd_transversal, ("intrinsic",), None),
    "verify": (_cmd_verify, ("intrinsic",), "suite.tolerance"),
    "mesh": (_cmd_mesh, ("explicit", "intrinsic"), None),
}


def run(command: str, cfg: Config, output_dir: str | None = None, tolerance: float | None = None) -> int:
    """Dispatch a command; returns the process exit code."""
    if command not in COMMAND_TABLE:
        raise ConfigError(f"unknown command {command!r}")
    build, modes, field = COMMAND_TABLE[command]
    if cfg.mode not in modes:
        raise ConfigError(f"{command} requires mode = {' or '.join(map(repr, modes))}")
    if tolerance is not None:
        if field is None:
            raise ConfigError(f"--tolerance: {command} reads no tolerance")
        block, key = field.split(".")
        try:  # Tolerances and SuiteConfig own the range rule; no suite block is the default suite
            setattr(cfg, block, replace(getattr(cfg, block) or SuiteConfig(), **{key: tolerance}))
        except ValueError as err:
            raise ConfigError("--tolerance must be a positive finite number") from err

    def resolve(path: str) -> str:
        if output_dir is not None and not os.path.isabs(path):
            return os.path.join(output_dir, path)
        return path

    try:
        report, grid = build(cfg)
        # every output is built before any is written, so a run that fails writes no file
        outputs = [] if report is None else [(export_report, report, resolve(cfg.report_path))]
        if grid is not None:
            outputs.append((export_obj, grid, resolve(cfg.mesh_path or "mesh.obj")))
        if len({os.path.realpath(path) for _, _, path in outputs}) < len(outputs):
            raise ConfigError("config.output: report_path and mesh_path name the same file")
        for export, value, path in outputs:
            export(value, path)
        return 0
    except WorkLimitError as err:  # the input asks for too much work
        raise ConfigError(f"config: {err}") from err
    except (GeometryError, ExprError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minkruled",
        description="Timelike ruled surfaces in Minkowski 3-space: analysis, "
        "synthesis, transversal families, verification and mesh export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, field) in COMMAND_TABLE.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--output-dir", default=None, help="directory for relative output paths")
        p.add_argument(
            "--tolerance", type=float, default=None, help=f"override config {field}" if field else "not accepted"
        )
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        return run(args.command, cfg, args.output_dir, args.tolerance)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
