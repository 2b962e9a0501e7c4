"""Seeded job generators for the three benchmark workloads.

A job is one CLI invocation: a command and the JSON config it reads.  Job
``i`` of a workload is drawn from its own ``random.Random`` keyed by
(workload, seed, i), so a job never depends on how many jobs came before
it, and the same seed always yields byte-identical config files.  Index
``WARMUP`` names the untimed warm-up job, which is drawn like the others
but is never one of the timed jobs.

Each workload cycles through a fixed list of job shapes, so every run
holds the same mix of shapes whatever the seed; the seed only moves
coefficients inside ranges chosen so that no job fails.
"""

from __future__ import annotations

import json
import random

WARMUP = -1

# The default suite grid (verify.SuiteConfig); sub-grids keep its value shape
# and always keep the 0.0 entries that reach the developable-base branches.
_K1 = (0.5, 1.0, 2.0)
_K2_NONZERO = (0.5, 1.0)
_THETA_NONZERO = (0.5, 1.0)
# (number of k1, k2, theta values) per sub-grid job: 4 to 9 triples each,
# and once per cycle the default suite (18 triples).  The 6-triple shape
# holds the middle three of the seven jobs by latency, so the median job is
# always one of its jobs rather than a boundary between two shapes.
_VERIFY_SHAPES = ((1, 2, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 2, 2), (1, 3, 3), "default")

# Explicit surfaces.  "T" bases have a timelike striction tangent (the
# predicates run); "H" bases are helicoid-like with a spacelike striction
# tangent (the predicates are skipped).  Speed trees span about 160 to 810
# nodes; much larger trees make a single analyze job take tens of seconds.
# T1 fills half of each cycle, so the median job is always a T1 analysis.
_EXPLICIT_SHAPES = (
    ("analyze", "H0"),
    ("analyze", "T1"),
    ("analyze", "T1"),
    ("analyze", "T1"),
    ("analyze", "H3"),
    ("mesh", "T1"),
)

# Intrinsic jobs: every transversal family and branch, one surface per job.
_INTRINSIC_SHAPES = (
    ("synthesize", None),
    ("transversal", ("alpha", "timelike")),
    ("transversal", ("alpha", "spacelike")),
    ("transversal", ("beta", None)),
    ("transversal", ("gamma", "timelike")),
    ("transversal", ("gamma", "spacelike")),
    ("mesh", None),
)

_SHAPES = {
    "verify-grid": _VERIFY_SHAPES,
    "explicit-analyze": _EXPLICIT_SHAPES,
    "intrinsic-pipeline": _INTRINSIC_SHAPES,
}
WORKLOADS = tuple(_SHAPES)
# A run holds cycles of the workload's shapes, the last of which the run's
# time limit may cut short.
CYCLE = {name: len(shapes) for name, shapes in _SHAPES.items()}


def shape(workload: str, index: int):
    """Shape of timed job ``index``."""
    return _SHAPES[workload][index % CYCLE[workload]]


def _num(rng: random.Random, lo: float, hi: float) -> str:
    """A coefficient as the config carries it, with two decimals."""
    return f"{rng.uniform(lo, hi):.2f}"


def _verify_job(rng: random.Random, index: int) -> tuple[str, dict]:
    config = {
        "mode": "intrinsic",
        "k1": "1",
        "k2": "0",
        "theta": "0",
        "s_range": [0.0, 1.0],
        "step": 0.001,
        "output": {"report_path": "report.json"},
    }
    if shape("verify-grid", index) == "default":
        return "verify", config  # no suite block: the default SuiteConfig()
    n1, n2, n3 = shape("verify-grid", index)
    config["suite"] = {
        "k1_values": sorted(rng.sample(_K1, n1)),
        "k2_values": [0.0] + sorted(rng.sample(_K2_NONZERO, n2 - 1)),
        "theta_values": [0.0] + sorted(rng.sample(_THETA_NONZERO, n3 - 1)),
    }
    return "verify", config


def _explicit_surface(rng: random.Random, family: str) -> tuple[list, list]:
    if family == "H0":
        return ["0", "0", f"{_num(rng, 1.1, 1.6)}*s"], ["cosh(s)", "sinh(s)", "0"]
    w = _num(rng, 0.55, 0.95)
    if family == "H3":
        arg = f"{w}*s+{_num(rng, 0.1, 0.3)}*s^2"
        return ["0", "0", f"{_num(rng, 1.1, 1.6)}*s"], [f"cosh({arg})", f"sinh({arg})", "0"]
    # T1: the striction tangent is timelike because b < 2a.
    a, b = _num(rng, 0.7, 0.95), _num(rng, 0.6, 0.95)
    return [f"{a}*s", "0", f"{b}*s"], [f"cosh({w}*s)", f"sinh({w}*s)", "0"]


def _explicit_job(rng: random.Random, index: int) -> tuple[str, dict]:
    command, family = shape("explicit-analyze", index)
    f, q = _explicit_surface(rng, family)
    config = {
        "mode": "explicit",
        "f": f,
        "q": q,
        "u_range": [0.0, float(_num(rng, 0.9, 1.1))],
        "samples": 101,
    }
    if command == "analyze":
        config["output"] = {"report_path": "report.json"}
    else:
        config["samples"] = 201
        config["output"] = {"mesh_path": "mesh.obj", "v_range": [-1.0, 1.0], "v_samples": 11}
    return command, config


def _intrinsic_job(rng: random.Random, index: int) -> tuple[str, dict]:
    command, transversal = shape("intrinsic-pipeline", index)
    # k1 in [1.0, 1.8] and k2 in [0.02, 0.35] keep every family's closed-form
    # denominator away from zero for angles in the ranges below.
    config = {
        "mode": "intrinsic",
        "k1": f"{_num(rng, 1.2, 1.6)}+{_num(rng, 0.05, 0.2)}*sin({_num(rng, 0.5, 1.5)}*s)",
        "k2": f"{_num(rng, 0.12, 0.25)}+{_num(rng, 0.02, 0.1)}*cos({_num(rng, 0.5, 1.5)}*s)",
        "theta": f"{_num(rng, 0.3, 0.9)}+{_num(rng, 0.05, 0.3)}*sin({_num(rng, 0.5, 1.5)}*s)",
        # A fixed range keeps n_steps, and so each shape's work, the same
        # for every seed; the seed moves only the coefficients.
        "s_range": [0.0, 3.0],
        "step": 0.001,
    }
    if transversal is not None:
        kind, branch = transversal
        lo, hi = (0.5, 0.9) if kind == "beta" else (0.8, 1.0)
        block = {"kind": kind, "angle": f"{_num(rng, lo, hi)}+{_num(rng, -0.03, 0.03)}*s"}
        if branch is not None:
            block["branch"] = branch
        config["transversal"] = block
    output = {"mesh_path": "mesh.obj", "v_range": [-1.0, 1.0], "v_samples": 11}
    if command != "mesh":
        output["report_path"] = "report.json"
    config["output"] = output
    return command, config


_GENERATORS = {
    "verify-grid": _verify_job,
    "explicit-analyze": _explicit_job,
    "intrinsic-pipeline": _intrinsic_job,
}


def job(workload: str, seed: int, index: int) -> tuple[str, dict]:
    """Command and config of job ``index`` (``WARMUP`` for the warm-up job)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if index == WARMUP:
        index = 0  # the cycle's first shape, drawn from its own key
    return _GENERATORS[workload](rng, index)


def config_bytes(config: dict) -> bytes:
    """The exact bytes written to a job's config file."""
    return (json.dumps(config, indent=2) + "\n").encode("utf-8")
