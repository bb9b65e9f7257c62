"""The benchmark under perfbench/ still finds every package name it imports,
and still calls each one in a shape its signature accepts.

The benchmark stays frozen while the package changes, and nothing else in
the suite imports it, so a rename or a new required parameter in the
package could break it unseen. This reads its sources with `ast` and never
runs it.
"""

import ast
import importlib
import inspect
from pathlib import Path

from sawtoothlab.trainer import RunConfig, run

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


def _callee(func, objects):
    """(label, object) when func is an imported name or an attribute of one."""
    if isinstance(func, ast.Name) and func.id in objects:
        return func.id, objects[func.id]
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in objects
    ):
        return f"{func.value.id}.{func.attr}", getattr(objects[func.value.id], func.attr)
    return None


def _package_calls():
    """(file:line, label, object, positional count, keyword names) per call.

    Calls made through `Tracer.call(label, fn, *args, **kwargs)` count as
    calls of fn; calls that unpack `*` or `**` are skipped.
    """
    imported = {}
    for filename, module, name in _package_imports():
        if name is not None:
            obj = getattr(importlib.import_module(module), name)
            imported.setdefault(filename, {})[name] = obj
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        objects = imported.get(path.name, {})
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            target, args = _callee(node.func, objects), node.args
            if (
                target is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call"
                and len(args) >= 2
            ):
                target, args = _callee(args[1], objects), args[2:]
            if target is None:
                continue
            keywords = [kw.arg for kw in node.keywords]
            if any(isinstance(a, ast.Starred) for a in args) or None in keywords:
                continue
            calls.append((f"{path.name}:{node.lineno}", *target, len(args), keywords))
    return calls


def test_perfbench_calls_bind_to_package_signatures():
    calls = _package_calls()
    mismatched = []
    for where, label, obj, positional, keywords in calls:
        try:
            inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            mismatched.append(f"{where}: {label}: {exc}")
    assert not mismatched
    checked = {label for _, label, *_ in calls}
    for name in ("adam_step", "rmsprop_step", "sgd_momentum_step", "OptimizerState.fresh",
                 "run", "esp_metrics", "boundary_overlap_mc", "write_trace_csv"):
        assert name in checked, name


# The parameter each positional argument of perfbench's calls binds to, per
# call label, as the package declared them when the benchmark was written. A
# parameter inserted ahead of these would keep the arity and shift every
# later argument onto the wrong name.
_POSITIONAL_PARAMS = {
    "AdamConfig": (),
    "Batch": (),
    "EpochSchedule": ("policy", "num_samples", "batch_size", "seed", "initial_shuffle"),
    "OptimizerState.fresh": ("dim",),
    "Trace": ("columns",),
    "adam_step": ("state", "config", "grad", "theta"),
    "batch_grad": ("problem", "batch", "x"),
    "batch_loss": ("problem", "batch", "x"),
    "boundary_overlap_mc": ("num_samples", "batch_size", "trials", "seed"),
    "esp_metrics": ("trace",),
    "evaluate_fit": ("fit", "t"),
    "expected_overlap": ("num_samples", "batch_size"),
    "generate_quadratic": ("seed", "num_functions", "dim"),
    "load_spec": ("path",),
    "read_trace_csv": ("path",),
    "render_line_chart_svg": ("path", "series"),
    "rmsprop_step": ("state", "config", "grad"),
    "run": ("config",),
    "sgd_momentum_step": ("state", "lr", "beta1", "grad"),
    "sparse_batch_grad": ("problem", "batch", "x"),
    "window_average": ("y", "window"),
    "write_epochs_csv": ("metrics", "path"),
    "write_meta_json": ("meta", "path"),
    "write_trace_csv": ("trace", "path"),
}


def test_perfbench_positional_arguments_keep_their_parameters():
    moved = []
    for where, label, obj, positional, keywords in _package_calls():
        bound = inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
        names = tuple(bound.arguments)[:positional]
        pinned = _POSITIONAL_PARAMS.get(label, ())[:positional]
        if names != pinned:
            moved.append(f"{where}: {label}: binds {names}, pinned {pinned}")
    assert not moved


def _result_reads():
    """(file:line, name) for every attribute read off a variable named `result`.

    perfbench names each `run()` result `result`.
    """
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "result"
            ):
                reads.append((f"{path.name}:{node.lineno}", node.attr))
    return reads


def test_perfbench_result_reads_resolve_on_a_run_result():
    reads = _result_reads()
    read = {name for _, name in reads}
    for name in ("trace", "diverged", "divergence_step", "epoch_mean_loss", "final_mean_loss"):
        assert name in read, name
    result = run(RunConfig(num_functions=20, dim=10, num_epochs=2, tracked_batch=0))
    missing = [f"{where}: result.{name}" for where, name in reads if not hasattr(result, name)]
    assert not missing
