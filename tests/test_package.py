"""The package root: one import path per name, and the version it reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawtoothlab

ROOT = Path(__file__).resolve().parents[1]


def test_package_root_holds_only_the_version():
    # every public name is imported from its module, so the root loads nothing
    code = (
        "import sys, sawtoothlab\n"
        "public = [n for n in vars(sawtoothlab) if not n.startswith('_')]\n"
        "assert public == [], public\n"
        "assert 'numpy' not in sys.modules\n"
    )
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert sawtoothlab.__version__ == tomllib.load(fh)["project"]["version"]
