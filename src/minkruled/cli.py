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

import numpy as np

from . import expressions as ex
from ._version import __version__
from .errors import (
    BaseNotDevelopableError,
    ConfigError,
    DegenerateDenominatorError,
    ExprError,
    GeometryError,
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
from .synthesis import IntrinsicData, SampledSurface, _ruled_grid, synthesize_surface, to_explicit_grid
from .transversal import (
    Branch,
    Family,
    TransversalSpec,
    analyze as analyze_transversal,
    coincidence_condition,
    corollary_checks,
    developability_condition,
    drall_law,
    to_explicit,
)
from .verify import SuiteConfig, run_all

COMMANDS = ("analyze", "synthesize", "transversal", "verify", "mesh")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "mode",
    "f",
    "q",
    "u_range",
    "samples",
    "normalize_q",
    "k1",
    "k2",
    "theta",
    "epsilon",
    "s_range",
    "step",
    "initial_frame",
    "transversal",
    "output",
    "tolerances",
    "suite",
}
_TRANSVERSAL_KEYS = {"kind", "angle", "branch"}
_OUTPUT_KEYS = {"report_path", "mesh_path", "v_range", "v_samples"}
_TOLERANCE_KEYS = {"causal_eps", "frame_eps", "general_eps"}
_SUITE_KEYS = {
    "k1_values",
    "k2_values",
    "theta_values",
    "angle_values",
    "families",
    "tolerance",
    "s_range",
    "step",
}


def _reject_unknown(obj: dict, allowed: set, context: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{context}: unknown key {key!r}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return obj[key]


def _parse_expr(text, context: str) -> ex.Expr:
    if not isinstance(text, str):
        raise ConfigError(f"{context}: expected an expression string")
    try:
        return ex.parse(text)
    except ParseError as err:
        raise ConfigError(f"{context}: {err.message} at offset {err.position}") from err


def _number(value, context: str) -> float:
    """A JSON number (not a boolean) as a float; the value's owner checks its range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        return math.inf if value > 0 else -math.inf


def _pair(value, context: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{context}: expected a pair [lo, hi] of numbers")
    return tuple(_number(x, context) for x in value)


def _build(context: str, owner, **kwargs):
    """``owner(**kwargs)``, its ValueError (a value out of range) a ConfigError."""
    try:
        return owner(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


@dataclass
class Config:
    """Validated run configuration plus the raw dict for report echoes.

    ``data`` (intrinsic mode) and ``surface`` (explicit mode) are the
    library's input types; their constructors check every value's range.
    """

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
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    mode = _require(raw, "mode", "config")
    if mode not in ("explicit", "intrinsic"):
        raise ConfigError(f"config: mode must be 'explicit' or 'intrinsic', got {mode!r}")
    cfg = Config(mode=mode, raw=raw)

    if mode == "explicit":
        kwargs = {}
        for name in ("f", "q"):
            triple = _require(raw, name, "config")
            if not isinstance(triple, list) or len(triple) != 3:
                raise ConfigError(f"config.{name}: expected three expression strings")
            kwargs[name] = tuple(_parse_expr(t, f"config.{name}[{i}]") for i, t in enumerate(triple))
        kwargs["u_range"] = _pair(_require(raw, "u_range", "config"), "config.u_range")
        samples = _require(raw, "samples", "config")
        if not isinstance(samples, int) or samples < 2:
            raise ConfigError("config.samples: expected an integer >= 2")
        cfg.samples = samples
        normalize_q = raw.get("normalize_q", False)
        if not isinstance(normalize_q, bool):
            raise ConfigError("config.normalize_q: expected true or false")
        cfg.surface = _build("config", ExplicitSurface, normalize_q=normalize_q, **kwargs)
    else:
        kwargs = {
            name: _parse_expr(_require(raw, name, "config"), f"config.{name}")
            for name in ("k1", "k2", "theta")
        }
        kwargs["s_range"] = _pair(_require(raw, "s_range", "config"), "config.s_range")
        kwargs["step"] = _number(_require(raw, "step", "config"), "config.step")
        kwargs["epsilon"] = raw.get("epsilon", -1)
        if "initial_frame" in raw:
            frame = raw["initial_frame"]
            if not isinstance(frame, list) or len(frame) != 3 or not all(
                isinstance(v, list) and len(v) == 3 for v in frame
            ):
                raise ConfigError("config.initial_frame: expected three 3-vectors of numbers")
            kwargs["initial_frame"] = tuple(
                np.array([_number(x, "config.initial_frame") for x in v]) for v in frame
            )
        cfg.data = _build("config", IntrinsicData, **kwargs)

    if "transversal" in raw:
        block = raw["transversal"]
        if not isinstance(block, dict):
            raise ConfigError("config.transversal: expected an object")
        _reject_unknown(block, _TRANSVERSAL_KEYS, "config.transversal")
        kind = _require(block, "kind", "config.transversal")
        if kind not in ("alpha", "beta", "gamma"):
            raise ConfigError(f"config.transversal.kind: unknown family {kind!r}")
        angle = _parse_expr(_require(block, "angle", "config.transversal"), "config.transversal.angle")
        branch = block.get("branch")
        if branch not in (None, "timelike", "spacelike"):
            raise ConfigError("config.transversal.branch: expected 'timelike' or 'spacelike'")
        cfg.transversal_spec = _build(
            "config.transversal",
            TransversalSpec,
            family=Family(kind),
            angle=angle,
            branch=None if branch is None else Branch(branch),
        )

    if "output" in raw:
        block = raw["output"]
        if not isinstance(block, dict):
            raise ConfigError("config.output: expected an object")
        _reject_unknown(block, _OUTPUT_KEYS, "config.output")
        if "report_path" in block:
            cfg.report_path = str(block["report_path"])
        if "mesh_path" in block:
            cfg.mesh_path = str(block["mesh_path"])
        if "v_range" in block:
            # no library type owns the mesh's v range
            cfg.v_range = _pair(block["v_range"], "config.output.v_range")
            if not -math.inf < cfg.v_range[0] < cfg.v_range[1] < math.inf:
                raise ConfigError("config.output.v_range: range must be finite and increasing")
        if "v_samples" in block:
            if not isinstance(block["v_samples"], int) or block["v_samples"] < 2:
                raise ConfigError("config.output.v_samples: expected an integer >= 2")
            cfg.v_samples = block["v_samples"]

    if "tolerances" in raw:
        block = raw["tolerances"]
        if not isinstance(block, dict):
            raise ConfigError("config.tolerances: expected an object")
        _reject_unknown(block, _TOLERANCE_KEYS, "config.tolerances")
        values = {key: _number(x, f"config.tolerances.{key}") for key, x in block.items()}
        cfg.tolerances = _build("config.tolerances", Tolerances, **values)

    if "suite" in raw:
        block = raw["suite"]
        if not isinstance(block, dict):
            raise ConfigError("config.suite: expected an object")
        _reject_unknown(block, _SUITE_KEYS, "config.suite")
        kwargs = {}
        for key in ("k1_values", "k2_values", "theta_values", "angle_values"):
            if key in block:
                if not isinstance(block[key], list):
                    raise ConfigError(f"config.suite.{key}: expected a list of numbers")
                kwargs[key] = tuple(_number(x, f"config.suite.{key}") for x in block[key])
        if "families" in block:
            if not isinstance(block["families"], list):
                raise ConfigError("config.suite.families: expected a list of family names")
            try:
                kwargs["families"] = tuple(Family(f) for f in block["families"])
            except ValueError as err:
                raise ConfigError(f"config.suite.families: {err}") from err
        for key in ("tolerance", "step"):
            if key in block:
                kwargs[key] = _number(block[key], f"config.suite.{key}")
        if "s_range" in block:
            kwargs["s_range"] = _pair(block["s_range"], "config.suite.s_range")
        cfg.suite = _build("config.suite", SuiteConfig, **kwargs)
    return cfg


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


# rows per string block when streaming an OBJ: one ``%`` per block keeps the
# formatting in C without holding the whole file as one string
OBJ_CHUNK_ROWS = 4096


def _atomic_write(path: str, chunks):
    """Write the strings of ``chunks`` to a temp file, then rename it to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(*tables):
    """Yield ``fmt % row`` over each ``(fmt, rows)`` table, OBJ_CHUNK_ROWS rows per string."""
    for fmt, rows in tables:
        for start in range(0, len(rows), OBJ_CHUNK_ROWS):
            block = rows[start:start + OBJ_CHUNK_ROWS]
            yield (fmt * len(block)) % tuple(block.reshape(-1).tolist())


def export_obj(grid: np.ndarray, path: str):
    """Write a quad-mesh Wavefront OBJ for a (ns, nv, 3) vertex grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 3 or grid.shape[2] != 3 or grid.shape[0] < 2 or grid.shape[1] < 2:
        raise ValueError("mesh grid must have shape (ns >= 2, nv >= 2, 3)")
    if not np.isfinite(grid).all():
        raise ValueError("mesh grid holds non-finite vertices")
    ns, nv, _ = grid.shape
    base = (np.arange(ns - 1)[:, None] * nv + np.arange(1, nv)).reshape(-1)
    faces = np.stack([base, base + nv, base + nv + 1, base + 1], axis=1)
    _atomic_write(
        path,
        _format_rows(("v %.17g %.17g %.17g\n", grid.reshape(-1, 3)), ("f %d %d %d %d\n", faces)),
    )


def _sanitize(value, warnings: list, context: str):
    """Replace non-finite numbers with null, recording a warning."""
    if isinstance(value, dict):
        return {k: _sanitize(v, warnings, f"{context}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, warnings, context) for v in value]
    if isinstance(value, np.ndarray):
        if np.isfinite(value).all():
            return value.tolist()
        return _sanitize(value.tolist(), warnings, context)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        warnings.append(f"{context}: non-finite value replaced by null")
        return None
    return value


def export_report(report: dict, path: str):
    """Serialize a report deterministically (fixed key order, UTF-8, LF)."""
    warnings = report.setdefault("warnings", [])
    body = {k: _sanitize(v, warnings, k) for k, v in report.items() if k != "warnings"}
    body["warnings"] = list(warnings)
    _atomic_write(path, (json.dumps(body, indent=2, allow_nan=False), "\n"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _envelope(command: str, cfg: Config) -> dict:
    return {"version": __version__, "command": command, "config": cfg.raw}


def _cmd_analyze(cfg: Config) -> tuple[dict, None]:
    if cfg.mode != "explicit":
        raise ConfigError("analyze requires mode = 'explicit'")
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
    u = sample_grid(surface, cfg.samples)
    drall = distribution_parameter(surface, u, cfg.tolerances)
    v0 = striction(surface, u, cfg.tolerances)[0]
    track = sample_frames(surface, cfg.samples, cfg.tolerances)
    report["samples"] = {
        "u": u,
        "drall": drall,
        "strictional_distance": v0,
        "arc_length": track.s,
        "k1": track.k1,
        "k2": track.k2,
        # NaN theta (striction tangent not timelike) is reported as null
        "theta": [None if math.isnan(x) else x for x in track.theta.tolist()],
    }
    if np.any(np.isnan(track.theta)):
        report["striction_predicates"] = None
        warnings.append("striction tangent is not timelike; predicates skipped")
    elif len(track) < 7:
        report["striction_predicates"] = None
        warnings.append("predicates need at least 7 samples; predicates skipped")
    else:
        report["striction_predicates"] = {
            r.name: {key: value for key, value in asdict(r).items() if key != "name"}
            for r in striction_predicates(track, cfg.tolerances.general_eps * 100).results()
        }
    report["warnings"] = warnings
    return report, None


def _cmd_synthesize(cfg: Config) -> tuple[dict, SampledSurface]:
    if cfg.mode != "intrinsic":
        raise ConfigError("synthesize requires mode = 'intrinsic'")
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
    return report, surf


def _cmd_transversal(cfg: Config) -> tuple[dict, SampledSurface]:
    if cfg.mode != "intrinsic":
        raise ConfigError("transversal requires mode = 'intrinsic'")
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
    return report, surf


def _cmd_verify(cfg: Config) -> tuple[dict, None]:
    report = _envelope("verify", cfg)
    combined = run_all(cfg.suite or SuiteConfig())
    report["suites"] = combined["suites"]
    report["summary"] = combined["summary"]
    report["warnings"] = combined["warnings"]
    return report, None


def _cmd_mesh(cfg: Config) -> tuple[None, None]:
    """No report: ``run`` builds the mesh of the configured surface."""
    return None, None


def _mesh_grid(cfg: Config, surf: SampledSurface | None = None) -> np.ndarray:
    """Vertex grid of the configured surface; reuses ``surf`` when given.

    ValueError where a vertex is not finite (say a v range too wide for
    floats); numpy's overflow warnings are silenced in favour of it.
    """
    with np.errstate(all="ignore"):
        if cfg.mode == "explicit":
            surface = cfg.surface
            u = sample_grid(surface, cfg.samples)
            f, q = surface._d.fields(u, "f", "q")
            grid = _ruled_grid(f, q, cfg.v_range, cfg.v_samples)
        else:
            if surf is None:
                surf = synthesize_surface(cfg.data)
            if cfg.transversal_spec is not None:
                grid = to_explicit(surf, cfg.transversal_spec, cfg.v_range, cfg.v_samples)
            else:
                grid = to_explicit_grid(surf, cfg.v_range, cfg.v_samples)
    if not np.isfinite(grid).all():
        raise ValueError("mesh grid holds non-finite vertices")
    return grid


def run(command: str, cfg: Config, output_dir: str | None = None, tolerance: float | None = None) -> int:
    """Dispatch a command; returns the process exit code."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if tolerance is not None:
        try:  # Tolerances and SuiteConfig own the range rule
            cfg.tolerances = replace(cfg.tolerances, general_eps=tolerance)
            cfg.suite = replace(cfg.suite or SuiteConfig(), tolerance=tolerance)
        except ValueError as err:
            raise ConfigError("--tolerance must be a positive finite number") from err

    def resolve(path: str) -> str:
        if output_dir is not None and not os.path.isabs(path):
            return os.path.join(output_dir, path)
        return path

    try:
        builders = {
            "analyze": _cmd_analyze,
            "synthesize": _cmd_synthesize,
            "transversal": _cmd_transversal,
            "verify": _cmd_verify,
            "mesh": _cmd_mesh,
        }
        report, surf = builders[command](cfg)
        # every output is built before any is written, so a run that fails writes no file
        outputs = [] if report is None else [(export_report, report, cfg.report_path)]
        if command == "mesh" or (cfg.mesh_path is not None and surf is not None):
            outputs.append((export_obj, _mesh_grid(cfg, surf), cfg.mesh_path or "mesh.obj"))
        for export, value, path in outputs:
            export(value, resolve(path))
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--output-dir", default=None, help="directory for relative output paths")
        p.add_argument("--tolerance", type=float, default=None, help="override the general tolerance")
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
