"""Tests of the benchmark itself: generator, output checks and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minkruled import cli, synthesis, transversal  # noqa: E402

SMALL_TRANSVERSAL = {
    "mode": "intrinsic",
    "k1": "1.3+0.1*sin(0.8*s)",
    "k2": "0.2+0.05*cos(s)",
    "theta": "0.5+0.1*sin(s)",
    "s_range": [0.0, 0.4],
    "step": 0.001,
    "transversal": {"kind": "beta", "angle": "0.7+0.01*s"},
    "output": {"report_path": "report.json", "mesh_path": "mesh.obj", "v_samples": 5},
}


def _configs(workload, seed):
    indices = [workloads.WARMUP, *range(2 * workloads.CYCLE[workload])]
    return [workloads.config_bytes(workloads.job(workload, seed, i)[1]) for i in indices]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    assert _configs(workload, 7) == _configs(workload, 7)
    assert _configs(workload, 7) != _configs(workload, 8)


def test_intrinsic_jobs_have_distinct_surfaces():
    keys = set()
    n = 2 * workloads.CYCLE["intrinsic-pipeline"]
    for i in range(n):
        _, config = workloads.job("intrinsic-pipeline", 3, i)
        keys.add((config["k1"], config["k2"], config["theta"], tuple(config["s_range"])))
    assert len(keys) == n


def _run_job(tmp_path, command, config):
    (tmp_path / "config.json").write_bytes(workloads.config_bytes(config))
    argv = [command, "--config", str(tmp_path / "config.json"), "--output-dir", str(tmp_path)]
    start = time.perf_counter()
    exit_code = cli.main(argv)
    return exit_code, time.perf_counter() - start


def _corrupt_schema(tmp_path):
    report = json.loads((tmp_path / "report.json").read_text())
    del report["warnings"]
    (tmp_path / "report.json").write_text(json.dumps(report))


def _corrupt_gap(tmp_path):
    report = json.loads((tmp_path / "report.json").read_text())
    report["agreement"]["rel_d"] = 2e-5
    (tmp_path / "report.json").write_text(json.dumps(report))


def _corrupt_mesh(tmp_path):
    lines = (tmp_path / "mesh.obj").read_text().splitlines(keepends=True)
    (tmp_path / "mesh.obj").write_text("".join(lines[:-1]))


def _remove_mesh(tmp_path):
    (tmp_path / "mesh.obj").unlink()


@pytest.mark.parametrize("corrupt", [_corrupt_schema, _corrupt_gap, _corrupt_mesh, _remove_mesh])
def test_checker_rejects_corrupted_outputs(tmp_path, corrupt):
    schema = checks.load_schema(str(BENCH.parent))
    exit_code, _ = _run_job(tmp_path, "transversal", SMALL_TRANSVERSAL)
    good = checks.check_job("transversal", SMALL_TRANSVERSAL, str(tmp_path), exit_code, schema)
    assert good.ok, good.errors
    assert 0.0 < good.max_gap_ratio < 1.0
    corrupt(tmp_path)
    bad = checks.check_job("transversal", SMALL_TRANSVERSAL, str(tmp_path), exit_code, schema)
    assert not bad.ok


def test_checker_rejects_failed_verify_case(tmp_path):
    schema = checks.load_schema(str(BENCH.parent))
    config = {"mode": "intrinsic", "k1": "1", "k2": "0", "theta": "0", "s_range": [0.0, 1.0],
              "step": 0.01, "suite": {"k1_values": [1.0], "k2_values": [0.0], "theta_values": [0.0]}}
    exit_code, _ = _run_job(tmp_path, "verify", config)
    assert checks.check_job("verify", config, str(tmp_path), exit_code, schema).ok
    report = json.loads((tmp_path / "report.json").read_text())
    report["summary"]["fail"] = 1
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert not checks.check_job("verify", config, str(tmp_path), exit_code, schema).ok


def test_traced_self_times_fit_in_job_wall(tmp_path):
    original = transversal.analyze
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.analyze_transversal is not original
        tracer.job_id = 0
        exit_code, wall = _run_job(tmp_path, "transversal", SMALL_TRANSVERSAL)
    finally:
        tracer.uninstall()
    assert exit_code == 0
    assert cli.analyze_transversal is original and transversal.analyze is original
    assert synthesis.SampledSurface.frames.__name__ == "frames"
    assert not hasattr(synthesis.SampledSurface.frames, "__wrapped__")
    metrics = tracer.metrics()
    for name in ("cli.parse_config", "synthesis.synthesize_surface", "transversal.analyze",
                 "transversal.to_explicit", "cli.export_report", "cli.export_obj"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert 0.0 < tracer.self_seconds(0) <= wall
    layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert layer_total == pytest.approx(tracer.self_seconds(0))
    spans = tracer.spans_json()
    ids = {span[0] for span in spans}
    assert all(parent is None or parent in ids for _, parent, *_ in spans)
    assert {job for _, _, job, *_ in spans} == {0}


def test_tail_leaves_ten_jobs_above():
    latencies = [float(i) for i in range(1, 31)]
    value, percentile = run.tail_latency(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert run.tail_latency(latencies[:15]) == (15.0, 100.0)


def test_one_pass_takes_each_shape_at_its_mean():
    # verify-grid: a cycle of seven shapes, three of them alike.
    cycle = workloads.CYCLE["verify-grid"]
    latencies = [float(i % cycle) for i in range(2 * cycle + 1)]
    latencies[0] = 6.0  # one slow job of the first shape
    # Alike shapes pool their samples (1, 2, 3, 1, 2, 3).
    expected = [2.0, 2.0, 2.0, 2.0, 4.0, 5.0, 6.0]
    assert run.one_pass("verify-grid", latencies) == expected
