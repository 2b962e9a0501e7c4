"""What the benchmark in ``bench/`` needs of the CLI, checked without running it.

``bench/test_bench.py`` lies outside ``testpaths``; these tests read the
benchmark's job generator and tracer, and edit nothing there.
"""

import importlib
import os
import sys

import pytest

from minkruled import cli

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
SEED = 18


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        return {name: importlib.import_module(name) for name in ("workloads", "tracing", "run")}
    finally:
        sys.path.remove(BENCH)


class Reached(Exception):
    """Raised by the first library call a command makes once its mode check passed."""


def test_every_benchmark_job_passes_parse_config_and_its_mode_check(bench, tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    # analyze, mesh (explicit), synthesize/transversal/mesh (intrinsic), verify
    for name in ("classify", "sample_grid", "synthesize_surface", "run_all"):
        monkeypatch.setattr(cli, name, reached)
    workloads = bench["workloads"]
    path = tmp_path / "config.json"
    for workload in workloads.WORKLOADS:
        for index in range(workloads.CYCLE[workload]):
            command, config = workloads.job(workload, SEED, index)
            path.write_bytes(workloads.config_bytes(config))
            cfg = cli.parse_config(str(path))
            with pytest.raises(Reached):
                cli.run(command, cfg, str(tmp_path / "out"))
    assert os.listdir(tmp_path) == ["config.json"]


def test_tracer_installs_and_uninstalls(bench):
    originals = (cli.parse_config, cli.export_report, cli.export_obj)
    tracer = bench["tracing"].Tracer()
    tracer.install()
    try:
        assert all(getattr(cli, f.__name__).__wrapped__ is f for f in originals)
    finally:
        tracer.uninstall()
    assert (cli.parse_config, cli.export_report, cli.export_obj) == originals


def test_expected_calls_are_traced_targets(bench):
    targets = {f"{module}.{path}" for module, path in bench["tracing"].TARGETS}
    for workload, names in bench["run"].EXPECTED_CALLS.items():
        assert set(names) <= targets, workload


# the fewest seeded jobs that reach every name the benchmark expects a
# workload to call: the smallest verify sub-grid, a T1 analysis (its
# striction predicates run) and the explicit mesh, and one transversal job,
# whose config names a mesh
FEWEST_JOBS = {"verify-grid": (0,), "explicit-analyze": (1, 5), "intrinsic-pipeline": (1,)}


def test_every_expected_call_is_reached_by_a_traced_job(bench, tmp_path):
    """A reroute that skips a layer the benchmark traces (say the transversal
    mesh no longer going through ``transversal.to_explicit``) fails here, not
    only as the benchmark's "traced layers recorded no calls".  A guard: every
    tree that keeps the contract passes it."""
    workloads = bench["workloads"]
    assert set(FEWEST_JOBS) == set(workloads.WORKLOADS)
    for workload, indices in FEWEST_JOBS.items():
        tracer = bench["tracing"].Tracer()
        tracer.install()
        try:
            for index in indices:
                command, config = workloads.job(workload, SEED, index)
                job_dir = tmp_path / f"{workload}{index}"
                job_dir.mkdir()
                (job_dir / "config.json").write_bytes(workloads.config_bytes(config))
                argv = [command, "--config", str(job_dir / "config.json"), "--output-dir", str(job_dir)]
                assert cli.main(argv) == 0, (workload, index)
        finally:
            tracer.uninstall()
        missed = [name for name in bench["run"].EXPECTED_CALLS[workload] if not tracer.calls[name]]
        assert not missed, workload
