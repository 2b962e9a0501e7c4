"""Benchmark of the minkruled batch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root; the program is imported from ``src/`` of the
same tree.  Each workload runs in its own worker process (``worker.py``),
which drives the CLI in-process through ``minkruled.cli.main(argv)`` as a
closed loop with one client and one job at a time, on configs generated
from ``--seed`` (``workloads.py``).  This process checks every job's
outputs (``checks.py``) and prints the metrics; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``, tracing off):

* ``setup_s``: fresh interpreter, ``import minkruled.cli`` and parsing the
  first config, the cost every CLI invocation pays; median of 5 after one
  untimed start.
* ``wall_s``: time of one pass over the workload's jobs: one cycle of job
  shapes, each shape at its mean latency over the run.  A shared host
  switches between fast and slow spells of a few seconds; a mean per shape
  moves in proportion to the share of the run spent slow, where a median
  would jump to the slow value once that share passes one half.
* ``job_p50_s``: median latency of the jobs of that same pass, each job at
  its shape's mean latency over the run.  The shapes of a workload have
  overlapping latencies, so the median of the raw latencies moves from
  shape to shape as a slow spell hits one job or another; the per-shape
  means hold it to the fixed mix of shapes.
* ``peak_rss_mb``: peak resident memory of the worker process.

Timed jobs follow one untimed warm-up job and run until their summed
latency reaches ``--seconds``, and for at least one whole cycle of shapes,
so that every shape has a latency.  Three more figures
are printed and recorded but not reported as metrics:

* ``job_tail_s``: latency at the highest percentile that leaves at least 10
  jobs above it.  With fewer than 21 jobs (explicit-analyze runs 10 to 17,
  verify-grid 13 to 25) that percentile would fall at or below the median,
  so the slowest job stands in, and one job's latency is too noisy to bound.
* ``failed_frac``: jobs failing a check over jobs run; failures also make
  ``correct`` false and count in ``failed``.
* ``max_gap_ratio``: worst closed-form-vs-oracle gap over its pinned
  tolerance, on synthesize and transversal jobs; a job above 1 fails.

Per-layer metrics (``--trace 1``): the same jobs run again in a second
worker with every public function of each module wrapped in a span
(``tracing.py``); the run reports calls, self time and work counts per
layer, and ``trace_overhead_frac`` against the untraced worker.  The run
fails if a layer the workload is meant to exercise records no calls.

Outputs and a results file (with ``nproc``, load average, versions and
the git commit) go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole run, so a hung program cannot hold the caller

# Functions each workload is meant to exercise; zero calls to any of them in
# a traced run means a wrapper missed a binding, and the run fails.
EXPECTED_CALLS = {
    "verify-grid": (
        "verify.run_striction_suite", "verify.run_coincidence_suite",
        "verify.run_developability_suite", "synthesis.synthesize_surface",
        "synthesis.SampledSurface.frames", "ruled.striction_predicates",
        "transversal.analyze", "transversal.developability_condition",
        "transversal.corollary_checks", "expressions.evaluate",
        "cli.parse_config", "cli.export_report",
    ),
    "explicit-analyze": (
        "expressions.evaluate", "expressions.differentiate", "expressions.parse",
        "numerics.uniform_arclength_nodes", "numerics.adaptive_simpson",
        "ruled.sample_frames", "ruled.classify", "ruled.distribution_parameter",
        "ruled.striction", "ruled.striction_predicates",
        "cli.parse_config", "cli.export_report", "cli.export_obj",
    ),
    "intrinsic-pipeline": (
        "synthesis.synthesize_surface", "ruled.sampled_ruled_invariants",
        "transversal.analyze", "transversal.coincidence_condition",
        "transversal.developability_condition", "transversal.corollary_checks",
        "transversal.to_explicit", "expressions.evaluate",
        "cli.parse_config", "cli.export_report", "cli.export_obj",
    ),
}

_SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import minkruled.cli as cli; cli.parse_config(sys.argv[2])"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def thread_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def tail_latency(latencies: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile leaving >= 10 jobs above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def one_pass(workload: str, latencies: list) -> list:
    """Latencies of one cycle of shapes, each shape at its mean latency over
    the run."""
    by_shape = {}
    for index, latency in enumerate(latencies):
        by_shape.setdefault(workloads.shape(workload, index), []).append(latency)
    shapes = [workloads.shape(workload, i) for i in range(workloads.CYCLE[workload])]
    return [statistics.fmean(by_shape[key]) for key in shapes]


def measure_setup(env: dict, config_path: Path) -> list:
    argv = [sys.executable, "-c", _SETUP_SNIPPET, str(ROOT / "src"), str(config_path)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as err:
            raise BenchError("set-up probe did not finish within 60 s") from err
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return times[1:]


class WorkerRun:
    """One worker process and the checks of the jobs it reports."""

    def __init__(self, workload, seed, seconds, work_dir, env, schema, trace, jobs=None):
        self.workload, self.seed, self.schema = workload, seed, schema
        self.checked = []  # (index, JobCheck)
        argv = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--work-dir", str(work_dir),
        ]
        if trace:
            argv.append("--trace")
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        self.argv, self.env = argv, env

    def run(self, deadline: float) -> dict:
        proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        done = None
        try:
            for line in proc.stdout:
                message = json.loads(line)
                if message["event"] == "done":
                    done = message
                    continue
                self._check(message)
                proc.stdin.write("ok\n")
                proc.stdin.flush()
        finally:
            timer.cancel()
            if proc.poll() is None and done is None:
                proc.kill()
            proc.stdin.close()
            proc.wait()
        if proc.returncode != 0 or done is None:
            raise BenchError(f"{self.workload} worker exited with code {proc.returncode}")
        return done

    def _check(self, message: dict):
        job_dir = Path(message["dir"])
        command, config = workloads.job(self.workload, self.seed, message["index"])
        if (job_dir / "config.json").read_bytes() != workloads.config_bytes(config):
            raise BenchError(f"job {message['index']}: config on disk differs from the generator")
        result = checks.check_job(command, config, str(job_dir), message["exit"], self.schema)
        self.checked.append((message["index"], result))
        shutil.rmtree(job_dir)

    def digest(self, indices) -> str:
        wanted = set(indices)
        h = hashlib.sha256()
        for index, result in self.checked:
            if index in wanted:
                h.update(f"{index}:{result.digest}\n".encode())
        return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (metrics plus context)."""
    deadline = time.monotonic() + DEADLINE_S
    env = thread_env()
    schema = checks.load_schema(str(ROOT))
    work_dir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
        if not trace:
            probe = work_dir / "setup_config.json"
            probe.write_bytes(workloads.config_bytes(workloads.job(workload, seed, 0)[1]))
            record["setup_runs_s"] = measure_setup(env, probe)
        untraced = WorkerRun(workload, seed, seconds, work_dir, env, schema, trace=False)
        done = untraced.run(deadline)
        runs = [untraced]
        lat = done["latencies"]
        first_cycle = workloads.CYCLE[workload]
        tail, tail_pct = tail_latency(lat)
        pass_lat = one_pass(workload, lat)
        record.update(
            jobs=len(lat),
            latencies=lat,
            wall_s=sum(pass_lat),
            job_p50_s=statistics.median(pass_lat),
            job_tail_s=tail,
            tail_percentile=tail_pct,
            peak_rss_mb=done["peak_rss_mb"],
            versions=done["versions"],
            digest_first_cycle=untraced.digest(range(first_cycle)),
            digest_all=untraced.digest(range(len(lat))),
        )
        if not trace:
            record["setup_s"] = statistics.median(record["setup_runs_s"])
        else:
            traced = WorkerRun(workload, seed, seconds, work_dir, env, schema, trace=True, jobs=len(lat))
            tdone = traced.run(deadline)
            runs.append(traced)
            record["per_layer"] = tdone["per_layer"]
            record["speed_tree_nodes"] = tdone["speed_tree_nodes"]
            record["trace_overhead_frac"] = sum(tdone["latencies"]) / sum(lat) - 1.0
            record["traced_wall_s"] = sum(tdone["latencies"])
            # Tracing must not change outputs, and self times nest inside each job.
            record["traced_consistent"] = traced.digest(range(len(lat))) == record["digest_all"] and all(
                s <= t for s, t in zip(tdone["self_s_by_job"], tdone["latencies"])
            )
            record["prediction"] = predictions(record)
            missing = [name for name in EXPECTED_CALLS[workload] if tdone["per_layer"][f"{name}.calls"][0] == 0]
            if missing:
                raise BenchError(f"{workload}: traced layers recorded no calls: {', '.join(missing)}")
            spans = work_dir / "spans.json"
            if spans.exists():
                (OUT / "results").mkdir(parents=True, exist_ok=True)
                shutil.move(spans, OUT / "results" / f"{workload}-seed{seed}-spans.json")
        checked = [result for run in runs for _, result in run.checked]
        failures = [
            f"job {index}: {err}" for run in runs for index, result in run.checked for err in result.errors
        ]
        ratios = [r.max_gap_ratio for r in checked if r.max_gap_ratio is not None]
        record.update(
            attempted=len(checked),
            failed=sum(1 for r in checked if not r.ok),
            failures=failures[:20],
            failed_frac=sum(1 for r in checked if not r.ok) / len(checked),
            max_gap_ratio=max(ratios) if ratios else None,
            output_bytes=sum(r.output_bytes for r in checked),
        )
        record["correct"] = record["failed"] == 0 and record.get("traced_consistent", True)
        record["environment"] = {
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "git_commit": git_commit(),
            "executable": sys.executable,
        }
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("peak_rss_mb", "MB"))


def predictions(record: dict) -> dict:
    """The per-layer split the benchmark predicts for each workload."""
    layer = {name: record["per_layer"][f"{name}.self_s"][0] for name in tracing.LAYERS}
    wall = record["traced_wall_s"]
    if record["workload"] == "explicit-analyze":
        share = (layer["expressions"] + layer["numerics"]) / wall
        return {"expressions+numerics share of wall": share, "holds": share > 0.5}
    if record["workload"] == "verify-grid":
        share = layer["synthesis"] / wall
        return {"synthesis share of wall": share, "holds": share > 0.5}
    largest = max(layer, key=layer.get)
    return {"largest layer": largest, "holds": largest == "cli"}


def summarize(record: dict) -> list:
    """Human-readable lines for one workload's record."""
    lines = [f"== {record['workload']} (seed {record['seed']}, {record['jobs']} jobs)"]
    if record["trace"]:
        for name, (value, unit) in record["per_layer"].items():
            lines.append(f"  {name:48s} {value:14.6g} {unit}")
        lines.append(f"  {'trace_overhead_frac':48s} {record['trace_overhead_frac']:14.6g} frac")
        lines.append(f"  prediction: {record['prediction']}")
    else:
        for name, unit in END_TO_END:
            lines.append(f"  {name:14s} {record[name]:12.6g} {unit}")
    lines.append(f"  {'job_tail_s':14s} {record['job_tail_s']:12.6g} s at p{record['tail_percentile']:.1f} "
                 f"of {record['jobs']} jobs")
    lines.append(f"  {'failed_frac':14s} {record['failed_frac']:12.6g} frac "
                 f"({record['failed']} of {record['attempted']} jobs)")
    gap = record["max_gap_ratio"]
    lines.append(f"  {'max_gap_ratio':14s} {'n/a' if gap is None else f'{gap:12.6g}'} "
                 f"{'(no synthesize/transversal jobs)' if gap is None else 'of tolerance'}")
    lines.append(f"  first-cycle digest {record['digest_first_cycle'][:16]}")
    nodes = record.get("speed_tree_nodes")
    lines.append(f"  inputs: {record['output_bytes'] / record['attempted']:.0f} output bytes per job"
                 + (f"; speed trees of {min(nodes)}-{max(nodes)} nodes" if nodes else ""))
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["per_layer"].items()}
        metrics["trace_overhead_frac"] = {"value": record["trace_overhead_frac"], "unit": "frac"}
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/minkruled/cli.py", "docs/report.schema.json"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found under {ROOT}; run from a full checkout", file=sys.stderr)
            return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (OUT / "results").mkdir(parents=True, exist_ok=True)
            path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
            print("\n".join(summarize(record)))
            results[name] = result_line(record)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
