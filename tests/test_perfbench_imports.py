"""The benchmark under perfbench/ still finds every package name it imports.

The benchmark stays frozen while the package changes, and nothing else in
the suite imports it, so a rename in the package could break it unseen.
This reads its sources with `ast` and never runs it.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports():
    """(file, module, name) for every import from sawtoothlab; name None for `import`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sawtoothlab"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("sawtoothlab")
                ]
    return found


def test_perfbench_imports_resolve():
    missing = []
    for filename, module, name in _package_imports():
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(f"{filename}: {module}")
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{filename}: {module}.{name}")
    assert not missing


def test_perfbench_imports_include_the_fit_entry_points():
    imported = {(module, name) for _, module, name in _package_imports()}
    assert ("sawtoothlab.cli", "MODELS") in imported
    for model in ("g_norm", "m_norm", "v_norm", "dot_m", "dot_dtheta"):
        assert ("sawtoothlab.analysis", f"fit_{model}") in imported
