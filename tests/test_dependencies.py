"""numpy is the only runtime dependency; importing the CLI loads nothing else."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minkruled"


def imported_modules(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in imported_modules(path)
        if module not in allowed
    ]
    assert not foreign


def test_pyproject_declares_numpy_only_at_runtime():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [req.split(">")[0].split("=")[0].split("<")[0].strip() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_cli_import_leaves_scipy_unloaded():
    # past numpy, importing the CLI loads the package and only these stdlib modules:
    # the benchmark's setup_s times this import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, numpy; before = set(sys.modules); import minkruled.cli; print(*sorted(set(sys.modules) - before))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    stdlib = {"__future__", "_json", "argparse", "copy", "dataclasses", "gettext"}
    assert "minkruled.cli" in loaded and "scipy" not in loaded
    assert [m for m in loaded if m.split(".")[0] not in {"minkruled", "json"} and m not in stdlib] == []
