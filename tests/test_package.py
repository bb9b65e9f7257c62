"""The package root: one import path per name, and the version it reports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sawtoothlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sawtoothlab").glob("*.py"))
# the files whose reading keeps a public name: the package, the README, the
# benchmark and the acceptance claims
READERS = [
    *SOURCES,
    ROOT / "README.md",
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
# ROADMAP item 2 gives it its first reader, the held-out risk
UNREAD = {("problem", "full_loss_minimum")}


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


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_public_name_has_a_reader():
    texts = {path: path.read_text() for path in READERS}
    unread = set()
    for path in SOURCES:
        tree = ast.parse(texts[path])
        exports = [node for node in tree.body if _defines(node, "__all__")]
        if not exports:
            continue
        for name in ast.literal_eval(exports[0].value):
            # the module without the name's own definition and its __all__ entry
            lines = texts[path].splitlines()
            for node in tree.body:
                if node is exports[0] or _defines(node, name):
                    lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
            word = re.compile(rf"\b{name}\b")
            own = "\n".join(lines)
            if not any(word.search(own if p == path else text) for p, text in texts.items()):
                unread.add((path.stem, name))
    assert unread <= UNREAD, sorted(unread - UNREAD)
