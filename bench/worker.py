"""One workload's jobs, run in-process through ``minkruled.cli.main``.

Started by ``run.py``, one process per workload so that ``ru_maxrss`` is
this workload's peak alone.  A closed loop with one client: each job
starts after the previous one has finished and its outputs have been
checked.  The worker writes one JSON line to stdout per job and waits for
the launcher, which checks the job's outputs, to answer ``ok`` before it
starts the next job, so check time never lands in a job's latency and
check memory never lands in this process's peak.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import minkruled  # noqa: E402
import minkruled.cli as cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# The launcher protocol owns stdout; anything the program prints goes to stderr.
_PROTOCOL = sys.stdout
sys.stdout = sys.stderr


def _send(message: dict):
    _PROTOCOL.write(json.dumps(message) + "\n")
    _PROTOCOL.flush()
    if sys.stdin.readline().strip() != "ok":
        raise SystemExit("launcher stopped answering")


def _run_job(workload, seed, index, work_dir, tracer):
    command, config = workloads.job(workload, seed, index)
    job_dir = work_dir / f"job{index:+06d}"
    job_dir.mkdir()
    config_path = job_dir / "config.json"
    config_path.write_bytes(workloads.config_bytes(config))
    argv = [command, "--config", str(config_path), "--output-dir", str(job_dir)]
    if tracer is not None:
        tracer.job_id = index
    start = time.perf_counter()
    exit_code = cli.main(argv)
    latency = time.perf_counter() - start
    _send({"event": "job", "index": index, "dir": str(job_dir), "exit": exit_code, "latency": latency})
    return latency


def _speed_tree_nodes(workload, seed, indices) -> list:
    """Node count of each explicit surface's speed expression (input property)."""
    from minkruled import expressions as ex
    from minkruled.ruled import ExplicitSurface

    def nodes(e):
        children = [getattr(e, k) for k in ("arg", "left", "right") if isinstance(getattr(e, k, None), ex.Expr)]
        return 1 + sum(nodes(c) for c in children)

    counts = []
    for index in indices:
        command, config = workloads.job(workload, seed, index)
        if command == "analyze":
            surface = ExplicitSurface.from_strings(config["f"], config["q"], config["u_range"])
            counts.append(nodes(surface._d.speed))
    return counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--jobs", type=int, default=None, help="run exactly this many timed jobs")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(minkruled.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"minkruled imported from {minkruled.__file__}, not from {src}")
    work_dir = Path(args.work_dir)
    cycle = workloads.CYCLE[args.workload]

    _run_job(args.workload, args.seed, workloads.WARMUP, work_dir, None)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    latencies = []
    try:
        while True:
            if args.jobs is not None:
                if len(latencies) >= args.jobs:
                    break
            elif len(latencies) >= cycle and sum(latencies) >= args.seconds:
                break
            latencies.append(_run_job(args.workload, args.seed, len(latencies), work_dir, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()

    done = {
        "event": "done",
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": __import__("scipy").__version__,
            "minkruled": minkruled.__version__,
        },
    }
    if tracer is not None:
        done["speed_tree_nodes"] = _speed_tree_nodes(args.workload, args.seed, range(len(latencies)))
        done["per_layer"] = tracer.metrics()
        done["self_s_by_job"] = [tracer.self_seconds(i) for i in range(len(latencies))]
        with open(work_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_json(), fh)
    _PROTOCOL.write(json.dumps(done) + "\n")
    _PROTOCOL.flush()


if __name__ == "__main__":
    main()
