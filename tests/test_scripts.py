"""The calibration scripts and the README's Library example run against the package as it is."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import intension

ROOT = Path(__file__).resolve().parent.parent


def test_exclusive_sweep_matches_the_closed_form():
    result = subprocess.run(
        [sys.executable, "scripts/exclusive_sweep.py", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    last = result.stdout.strip().splitlines()[-1]
    assert last.startswith("worst |enumerated - closed form| = ")
    assert float(last.rsplit("=", 1)[1]) <= 1e-12


def test_compressor_noise_prints_its_statistics():
    result = subprocess.run(
        [sys.executable, "scripts/compressor_noise.py", "7"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "seed=7 compressor=deflate"
    prefixes = ["identical pairs: ", "disjoint pairs: ", "order asymmetry ", "self vs cross (<50% shared): "]
    assert [line[: len(p)] for line, p in zip(lines[1:], prefixes)] == prefixes
    assert len(lines) == 5


@pytest.mark.parametrize("script, arg", [("exclusive_sweep.py", "2"), ("compressor_noise.py", "7")])
def test_scripts_run_from_any_directory(script, arg, tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), arg],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def readme_library_block():
    """The first python block under the README's Library heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    return library.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    result = subprocess.run(
        [sys.executable, "-c", readme_library_block()],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_top_level_exports_the_readme_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(readme_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "intension"
        for alias in node.names
    }
    exported = {name for name, value in vars(intension).items() if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == imported
    assert intension.__version__
