"""Output checks for one benchmark job, run outside the program's process.

A job passes when the CLI exited 0 and every output it was asked for is
present and correct:

* each report validates against ``docs/report.schema.json``;
* each OBJ mesh has ``n_s * n_v`` vertices and ``(n_s - 1)(n_v - 1)``
  quad faces, with ``n_s`` and ``n_v`` derived from the config;
* a ``verify`` report has no case that ends in ``fail`` or ``error``;
* no striction predicate reports ``agree: false``;
* the closed-form-vs-oracle gaps stay within the pinned acceptance
  tolerances (drall closure 1e-6, transversal agreement 1e-5).

The checks only read the config and the files; they never import the
program, so a broken program cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import jsonschema

DRALL_GAP_TOL = 1e-6
AGREEMENT_TOL = 1e-5


@dataclass
class JobCheck:
    """Outcome of checking one job's outputs."""

    errors: list = field(default_factory=list)
    output_bytes: int = 0
    digest: str = ""
    max_gap_ratio: float | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def load_schema(root: str):
    """A validator for ``docs/report.schema.json``, built once per run."""
    with open(os.path.join(root, "docs", "report.schema.json"), "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _n_steps(config: dict) -> int:
    # Mirrors synthesis.IntrinsicData.n_steps: the step is a target that
    # divides the range evenly.
    s0, s1 = config["s_range"]
    return max(1, int(round((s1 - s0) / config["step"])))


def expected_mesh_shape(config: dict) -> tuple[int, int]:
    """(n_s, n_v) of the vertex grid the config asks for."""
    n_v = config.get("output", {}).get("v_samples", 11)
    if config["mode"] == "explicit":
        return config["samples"], n_v
    return _n_steps(config) + 1, n_v


def check_obj(path: str, n_s: int, n_v: int) -> list:
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    errors = []
    if lines[-1] != b"":
        errors.append(f"{path}: does not end with a newline")
    vertices = sum(1 for line in lines if line.startswith(b"v "))
    faces = [line for line in lines if line.startswith(b"f ")]
    if vertices != n_s * n_v:
        errors.append(f"{path}: {vertices} vertices, expected {n_s * n_v}")
    if len(faces) != (n_s - 1) * (n_v - 1):
        errors.append(f"{path}: {len(faces)} faces, expected {(n_s - 1) * (n_v - 1)}")
    elif faces and max(int(i) for i in faces[-1].split()[1:]) != n_s * n_v:
        errors.append(f"{path}: last face does not close the grid")
    return errors


def _gap_ratio(report: dict, errors: list) -> float | None:
    """Worst pinned-tolerance ratio of a synthesize or transversal report."""
    ratios = []
    if report["command"] == "synthesize":
        gap = report["drall"]["oracle_max_gap"]
        if gap is None:
            errors.append("synthesize: no valid oracle samples for the drall gap")
        else:
            ratios.append(gap / DRALL_GAP_TOL)
    elif report["command"] == "transversal":
        for key in ("rel_v", "rel_d"):
            gap = report["agreement"][key]
            if gap is None:
                errors.append(f"transversal: agreement.{key} is null")
            else:
                ratios.append(gap / AGREEMENT_TOL)
    if not ratios:
        return None
    worst = max(ratios)
    if worst > 1.0:
        errors.append(f"{report['command']}: oracle gap is {worst:.3g} times its tolerance")
    return worst


def check_report(path: str, schema) -> tuple[list, float | None]:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        schema.validate(report)
    except jsonschema.ValidationError as err:
        return [f"{path}: schema: {err.message}"], None
    errors = []
    if report["command"] == "verify":
        summary = report["summary"]
        if summary["fail"] or summary["error"]:
            errors.append(f"verify: {summary['fail']} fail, {summary['error']} error cases")
    predicates = report.get("striction_predicates") or {}
    for name, result in predicates.items():
        if result.get("agree") is False:
            errors.append(f"predicate {name}: geometric and curvature sides disagree")
    return errors, _gap_ratio(report, errors)


def expected_outputs(command: str, config: dict) -> tuple[str | None, str | None]:
    """Relative (report, mesh) paths the command must write, or None."""
    output = config.get("output", {})
    if command == "mesh":
        return None, output.get("mesh_path", "mesh.obj")
    mesh = output.get("mesh_path") if command in ("synthesize", "transversal") else None
    return output.get("report_path", "report.json"), mesh


def check_job(command: str, config: dict, out_dir: str, exit_code: int, schema) -> JobCheck:
    """Check the outputs a job wrote into ``out_dir``; digest them in a fixed order."""
    result = JobCheck()
    if exit_code != 0:
        result.errors.append(f"exit code {exit_code}")
        return result
    digest = hashlib.sha256()
    report, mesh = expected_outputs(command, config)
    for rel in (report, mesh):
        if rel is None:
            continue
        path = os.path.join(out_dir, rel)
        if not os.path.isfile(path):
            result.errors.append(f"missing output {rel}")
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(rel.encode() + b"\0" + data)
        result.output_bytes += len(data)
        if rel == report:
            errors, result.max_gap_ratio = check_report(path, schema)
        else:
            errors = check_obj(path, *expected_mesh_shape(config))
        result.errors.extend(errors)
    result.digest = digest.hexdigest()
    return result
