"""The traced run: an in-process replay with spans, and per-layer timings.

The replay mirrors what the CLI command does (``cli.cmd_run``,
``cli.cmd_fit``, ``cli.cmd_overlap``), calling the package's public
functions from here with a span around each call. Spans are recorded by the
benchmark only; spans inside the package are not part of this benchmark.
The replay runs twice, untraced and traced, and its outputs must equal the
CLI's: the run traces bit for bit, fits within 1e-6 relative.

The layer suite then times single layers on inputs drawn from the workload
seed. It is the same on every workload, so every traced run reports every
per-layer metric. The optim and problem arrays are at most 320 KB, well
inside the per-core L2, so their timings are cache-resident rates, not
memory bandwidth.
"""

from __future__ import annotations

import csv
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import endtoend as e2e
from sawtoothlab import __version__
from sawtoothlab.analysis import (
    esp_metrics,
    evaluate_fit,
    fit_dot_dtheta,
    fit_dot_m,
    fit_g_norm,
    fit_m_norm,
    fit_v_norm,
    window_average,
)
from sawtoothlab.optim import AdamConfig, OptimizerState, adam_step, rmsprop_step, sgd_momentum_step
from sawtoothlab.problem import Batch, batch_grad, batch_loss, generate_quadratic, sparse_batch_grad
from sawtoothlab.schedule import EpochSchedule, boundary_overlap_mc, expected_overlap
from sawtoothlab.specfile import load_spec
from sawtoothlab.traceio import (
    read_trace_csv,
    render_line_chart_svg,
    write_epochs_csv,
    write_meta_json,
    write_trace_csv,
)
from sawtoothlab.trainer import TRACE_COLUMNS, Trace, run

# model -> (fitter, whether it takes beta1), as cmd_fit dispatches
FITTERS = {
    "g_norm": (fit_g_norm, False),
    "m_norm": (fit_m_norm, True),
    "v_norm": (fit_v_norm, False),
    "dot_m": (fit_dot_m, True),
    "dot_dtheta": (fit_dot_dtheta, True),
}
OPTIM_DIMS = {"d1e3": 1_000, "d1e4": 10_000, "d4e4": 40_000}
# calls per timing block, so that each block takes some tens of milliseconds
OPTIM_CALLS = {"d1e3": 1000, "d1e4": 200, "d4e4": 50}
BATCH_SIZES = (1, 4, 16)
# shortened trainer runs: the reference problem, fewer epochs
STEP_EPOCHS = 1
# probes-on and probes-off runs alternate this many times
PROBE_PAIRS = 3
WEIGHT_DECAY = 1e-4
WEIGHT_DECAY_FUNCTIONS = 2000
CLI_IMPORT_CHILDREN = 5


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written out once."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (span name up to the first dot), child spans excluded."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, covered):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start - inner) / 1e9
        return layers

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "workload": self.workload}) + "\n")


# -- replays ---------------------------------------------------------------------


def _downsample(x, y, cap=2000):
    if len(x) <= cap:
        return x, y
    stride = int(np.ceil(len(x) / cap))
    return x[::stride], y[::stride]


def replay_run(tr: Tracer, spec_path: Path, out: Path):
    """`sawtoothlab run SPEC --out OUT`; returns the results and each point's wall time."""
    results, point_walls = {}, []
    with tr.span("cli.run"):
        spec = tr.call("specfile.load_spec", load_spec, spec_path)
        points = tr.call("specfile.expand", spec.expand)
        for label, config in points:
            t0 = time.perf_counter()
            point = out if len(points) == 1 else out / label
            point.mkdir(parents=True, exist_ok=True)
            result = tr.call("trainer.run", run, config)
            metrics = tr.call("analysis.esp_metrics", esp_metrics, result.trace, window=spec.window)
            if "csv" in spec.emit:
                tr.call("traceio.write_trace_csv", write_trace_csv, result.trace, point / "trace.csv")
                tr.call("traceio.write_epochs_csv", write_epochs_csv, metrics, point / "epochs.csv")
            meta = {
                "label": label,
                "config": asdict(config),
                "diverged": result.diverged,
                "divergence_step": result.divergence_step,
                "epoch_mean_loss": result.epoch_mean_loss,
                "final_mean_loss": result.final_mean_loss,
                "version": __version__,
            }
            tr.call("traceio.write_meta_json", write_meta_json, meta, point / "meta.json")
            if "svg" in spec.emit:
                t = result.trace
                w = spec.window or max(1, round(0.05 * max(1, len(t) // config.num_epochs)))
                w = min(w, len(t))
                averaged = tr.call("analysis.window_average", window_average, t.batch_loss, w)
                series = [
                    ("batch loss", *_downsample(np.arange(len(t), dtype=float), t.batch_loss)),
                    (f"window mean (w={w})", *_downsample(np.arange(len(averaged), dtype=float), averaged)),
                ]
                tr.call("traceio.render_line_chart_svg", render_line_chart_svg, point / "loss.svg",
                        series, title=label, x_label="step", y_label="loss")
            results[label] = result
            point_walls.append(time.perf_counter() - t0)
    return results, point_walls


def fit_series(trace: Trace, model: str, epoch: int):
    """The (t, y) series cmd_fit hands to the fitter for one epoch."""
    rows = trace.epoch_rows(epoch)
    y = getattr(trace, model)[rows]
    t = trace.step[rows].astype(float)
    finite = np.isfinite(y)
    t, y = t[finite], y[finite]
    if model == "dot_dtheta":
        keep = t >= 1.0
        t, y = t[keep], y[keep]
    return t, y


def replay_fit(tr: Tracer, trace_path: Path, model: str, epoch: int, out: Path) -> dict:
    """`sawtoothlab fit TRACE --model M --epoch E --window W --out OUT`; betas from meta.json."""
    with tr.span("cli.fit"):
        trace = tr.call("traceio.read_trace_csv", read_trace_csv, trace_path)
        t, y = fit_series(trace, model, epoch)
        conf = json.loads(trace_path.with_name("meta.json").read_text())["config"]
        fitter, needs_beta1 = FITTERS[model]
        betas = (conf["beta1"], conf["beta2"]) if needs_beta1 else (conf["beta2"],)
        fit = tr.call(f"analysis.fit_{model}", fitter, t, y, *betas, window=e2e.FIT_WINDOW)
        fitted = tr.call("analysis.evaluate_fit", evaluate_fit, fit, t)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"fit_{model}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            for name, value in fit.coeffs.items():
                writer.writerow([name, repr(float(value))])
            writer.writerow(["r_squared", repr(float(fit.r_squared))])
        with open(out / f"overlay_{model}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "observed", "fitted"])
            for row in zip(t, y, fitted):
                writer.writerow([repr(float(v)) for v in row])
    return {**fit.coeffs, "r_squared": fit.r_squared}


def replay(workload, tr: Tracer, tag: str) -> tuple[float, float]:
    """Replay the workload and check its outputs against the CLI's.

    Returns the replay's wall time and its critical path: with a sweep's
    points on parallel workers, only the slowest point counts.
    """
    gate, out = workload.gate, workload.work / f"replay_{tag}"
    t0 = time.perf_counter()
    try:
        if workload.name == "fit_epochs":
            for model, epoch in e2e.FIT_CALLS:
                values = replay_fit(tr, workload.fixture / "trace.csv", model, epoch, out / f"{model}_e{epoch}")
                key = f"fit_epochs/{model}_e{epoch}"
                gate.operation(f"{tag} replay {key}", gate.same(key, values, rel_tol=e2e.FIT_REL_TOL))
            wall = time.perf_counter() - t0
            return wall, wall
        if workload.name == "overlap_mc":
            with tr.span("cli.overlap"):
                tr.call("schedule.expected_overlap", expected_overlap, e2e.OVERLAP_N, e2e.OVERLAP_B)
                mean, se = tr.call("schedule.boundary_overlap_mc", boundary_overlap_mc, e2e.OVERLAP_N,
                                   e2e.OVERLAP_B, e2e.OVERLAP_TRIALS, seed=workload.seed)
            wall = time.perf_counter() - t0
            printed = [f"{mean:.6g}", f"{se:.2g}"]
            gate.operation(f"{tag} replay overlap", gate.same("overlap_mc/monte_carlo", printed, recorded=False))
            return wall, wall
        results, point_walls = replay_run(tr, workload.spec, out)
        wall = time.perf_counter() - t0
        for label, result in results.items():
            problems = ["run flagged diverged"] if result.diverged else []
            problems += gate.same(f"{workload.name}/{label}/columns", e2e.column_digests(result.trace))
            gate.operation(f"{tag} replay {label}", problems)
        workers = load_spec(workload.spec).workers
        if workers >= len(point_walls) > 1:
            return wall, wall - sum(point_walls) + max(point_walls)
        return wall, wall
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- layer suite -------------------------------------------------------------------


class Suite:
    """Per-layer metrics, each timing with its call count and page faults."""

    SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.rows: list[str] = []

    def time(self, name: str, fn, calls: int, unit: str, blocks: int = 5, warm: bool = True,
             per: int = 1) -> float:
        """Median over blocks of the mean time per call (per ``per`` items of work), in seconds."""
        if warm:
            fn()
        before = resource.getrusage(resource.RUSAGE_SELF)
        per_call = []
        for _ in range(blocks):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            per_call.append((time.perf_counter() - t0) / calls)
        after = resource.getrusage(resource.RUSAGE_SELF)
        seconds = statistics.median(per_call) / per
        n = calls * blocks
        minflt = after.ru_minflt - before.ru_minflt
        self.put(name, seconds * self.SCALE[unit], unit)
        self.rows.append(
            f"{name}: {seconds * self.SCALE[unit]:.6g} {unit} (median of {blocks} blocks), "
            f"{n} calls, {minflt} minor / {after.ru_majflt - before.ru_majflt} major page faults"
        )
        return seconds

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _import_ms(work: Path) -> float:
    samples = []
    for i in range(CLI_IMPORT_CHILDREN):
        child = e2e.run_child([str(e2e.HERE / "setup_child.py")], work, f"import{i}")
        if child.returncode != 0:
            raise RuntimeError(f"import child exited with {child.returncode}")
        samples.append(float(child.stdout.split()[-1]) * 1e3)
    return statistics.median(samples)


def _run_us(config):
    """Microseconds per step of one run, and its result."""
    t0 = time.perf_counter()
    result = run(config)
    return (time.perf_counter() - t0) / len(result.trace) * 1e6, result


def _tiled_trace(trace: Trace, epochs: int) -> Trace:
    """A full-length trace made of one recorded epoch repeated ``epochs`` times."""
    rows = trace.epoch_rows(int(trace.epoch[-1]))
    n = len(rows)
    cols = {name: np.tile(getattr(trace, name)[rows], epochs) for name in TRACE_COLUMNS}
    cols["epoch"] = np.repeat(np.arange(1, epochs + 1, dtype=np.int64), n)
    cols["global_step"] = np.arange(n * epochs, dtype=np.int64)
    return Trace(cols, probes_enabled=trace.probes_enabled)


def _optim(s: Suite, rng, ref) -> None:
    adam = AdamConfig(lr=ref.lr, beta1=ref.beta1, beta2=ref.beta2, epsilon=ref.epsilon)
    for tag, d in OPTIM_DIMS.items():
        grad = np.zeros(d)
        grad[rng.choice(d, 4, replace=False)] = rng.standard_normal(4)
        theta = np.full(d, ref.x_init)
        state = OptimizerState.fresh(d)
        k = OPTIM_CALLS[tag]
        s.time(f"optim.adam_step_us.{tag}", lambda: adam_step(state, adam, grad, theta), k, "us")
        if tag != "d1e3":
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(k):
                adam_step(state, adam, grad, theta)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            s.put(f"optim.adam_minflt_per_step.{tag}", faults / k, "count")
        s.time(f"optim.rmsprop_step_us.{tag}", lambda: rmsprop_step(state, adam, grad), k, "us")
        s.time(f"optim.sgd_step_us.{tag}", lambda: sgd_momentum_step(state, ref.lr, ref.beta1, grad), k, "us")
    s.rows.append(
        "optim/problem vectors are float64: 8 KB at d1e3, 80 KB at d1e4, 320 KB at d4e4, "
        f"against per-core caches {e2e.caches()}; the step timings are cache-resident rates, "
        "not memory bandwidth"
    )


def _problem(s: Suite, rng, ref, ref_spec: Path) -> None:
    n, dim = ref.num_functions, ref.dim
    s.time("specfile.load_expand_ms", lambda: load_spec(ref_spec).expand(), 20, "ms")
    s.time("problem.generate_ms", lambda: generate_quadratic(ref.problem_seed, n, dim), 2, "ms")
    prob = generate_quadratic(ref.problem_seed, n, dim)
    x = ref.x_init + rng.standard_normal(dim)
    batches = {b: Batch(indices=rng.choice(n, b, replace=False)) for b in BATCH_SIZES}
    for b in BATCH_SIZES:
        s.time(f"problem.batch_loss_us.b{b}", lambda b=b: batch_loss(prob, batches[b], x), 1000, "us")
    for b in BATCH_SIZES[1:]:
        s.time(f"problem.batch_grad_us.b{b}", lambda b=b: batch_grad(prob, batches[b], x), 1000, "us")
        s.time(f"problem.sparse_batch_grad_us.b{b}",
               lambda b=b: sparse_batch_grad(prob, batches[b], x), 1000, "us")


def _schedule(s: Suite, seed: int, n: int) -> None:
    for b in (1, 4):
        s.time(f"schedule.epoch_build_ms.b{b}",
               lambda b=b: EpochSchedule("shuffle", n, b, seed).peek_epoch_batches(), 3, "ms")
    per_call = []
    for k in range(7):
        sched = EpochSchedule("shuffle", n, 1, seed + k)
        sched.peek_epoch_batches()
        t0 = time.perf_counter()
        for _ in range(n):
            sched.next_batch()
        per_call.append((time.perf_counter() - t0) / n * 1e6)
    s.put("schedule.next_batch_us", statistics.median(per_call), "us")
    s.rows.append(f"schedule.next_batch_us: {statistics.median(per_call):.6g} us "
                  f"(median of 7 epochs of {n} calls, epoch build excluded)")
    trials = 200
    s.time("schedule.overlap_trial_us",
           lambda: boundary_overlap_mc(e2e.OVERLAP_N, e2e.OVERLAP_B, trials, seed),
           1, "us", blocks=3, per=trials)


def _trainer(s: Suite, ref, mb_spec: Path) -> Trace:
    """Shortened runs of each workload's configuration; returns a probed B = 1 trace."""
    on, off = [], []
    for _ in range(PROBE_PAIRS):
        us, result = _run_us(ref)
        on.append(us)
        off.append(_run_us(replace(ref, probe=False))[0])
    on_us, off_us = statistics.median(on), statistics.median(off)
    s.put("trainer.step_us.reference_b1", on_us, "us")
    s.put("trainer.probe_overhead_us", on_us - off_us, "us")
    s.rows.append(f"trainer.step_us.reference_b1: {on_us:.6g} us, probes off {off_us:.6g} us "
                  f"(medians of {PROBE_PAIRS} alternating {len(result.trace)}-step runs each)")
    for _, config in load_spec(mb_spec).expand():
        us, short = _run_us(replace(config, num_epochs=1))
        s.put(f"trainer.step_us.minibatch_b{config.batch_size}", us, "us")
        s.rows.append(f"trainer.step_us.minibatch_b{config.batch_size}: {us:.6g} us "
                      f"over {len(short.trace)} steps")
    # one generic-path step at B = 4 makes each of these calls once, and the
    # probe adds a second batch_loss; the rest of the step is unattributed
    m = {k: v for k, (v, _) in s.metrics.items()}
    attributed = (2 * m["problem.batch_loss_us.b4"] + m["problem.batch_grad_us.b4"]
                  + m["problem.sparse_batch_grad_us.b4"] + m["optim.adam_step_us.d1e4"]
                  + m["schedule.next_batch_us"])
    unattributed = m["trainer.step_us.minibatch_b4"] - attributed
    s.put("trainer.unattributed_us.minibatch_b4", unattributed, "us")
    s.rows.append(f"trainer.unattributed_us.minibatch_b4: {unattributed:.6g} us (estimated: step "
                  f"time minus {attributed:.6g} us of its layer calls timed in isolation)")
    wd = replace(ref, num_functions=WEIGHT_DECAY_FUNCTIONS, weight_decay=WEIGHT_DECAY)
    us, short = _run_us(wd)
    s.put("trainer.weight_decay_step_us", us, "us")
    s.rows.append(f"trainer.weight_decay_step_us: {us:.6g} us over {len(short.trace)} steps "
                  f"(weight decay {WEIGHT_DECAY:g}, N = {WEIGHT_DECAY_FUNCTIONS}, dim = {wd.dim})")
    return result.trace


def _analysis_traceio(s: Suite, probed: Trace, ref, work: Path) -> None:
    trace = _tiled_trace(probed, ref.num_epochs)
    s.rows.append(f"analysis and traceio use a {len(trace)}-row trace: a {len(probed)}-step "
                  f"reference run repeated {ref.num_epochs} times")
    s.time("analysis.esp_metrics_ms", lambda: esp_metrics(trace), 1, "ms")
    for model, (fitter, needs_beta1) in FITTERS.items():
        t, y = fit_series(trace, model, 5)
        betas = (ref.beta1, ref.beta2) if needs_beta1 else (ref.beta2,)
        s.time(f"analysis.fit_ms.{model}", lambda: fitter(t, y, *betas, window=e2e.FIT_WINDOW),
               1, "ms", blocks=2, warm=False)
    path = work / "suite_trace.csv"
    write_s = s.time("traceio.write_trace_s", lambda: write_trace_csv(trace, path), 1, "s",
                     blocks=1, warm=False)
    size = path.stat().st_size
    s.put("traceio.trace_bytes", size, "B")
    s.put("traceio.write_mb_per_s", size / 1e6 / write_s, "MB/s")
    s.time("traceio.read_trace_s", lambda: read_trace_csv(path), 1, "s", blocks=1, warm=False)
    path.unlink()
    metrics = esp_metrics(trace)
    s.time("traceio.epochs_csv_ms", lambda: write_epochs_csv(metrics, work / "epochs.csv"), 20, "ms")
    meta = {"config": asdict(ref), "epoch_mean_loss": np.ones(ref.num_epochs), "version": __version__}
    s.time("traceio.meta_json_ms", lambda: write_meta_json(meta, work / "meta.json"), 50, "ms")
    series = [("batch loss", *_downsample(np.arange(len(trace), dtype=float), trace.batch_loss))]
    s.time("traceio.svg_ms", lambda: render_line_chart_svg(work / "loss.svg", series), 5, "ms")


def layer_suite(seed: int, work: Path) -> Suite:
    """Every per-layer timing, on inputs drawn from ``seed``; optim runs first,
    while the process's heap is as fresh as a CLI child's."""
    s = Suite()
    rng = np.random.default_rng(seed)
    ref_spec = e2e.seeded_spec("reference_b1", seed, work)
    ref = load_spec(ref_spec).expand()[0][1]
    _optim(s, rng, ref)
    s.put("cli.import_ms", _import_ms(work), "ms")
    _problem(s, rng, ref, ref_spec)
    _schedule(s, seed, ref.num_functions)
    short = replace(ref, num_epochs=STEP_EPOCHS)
    probed = _trainer(s, short, e2e.seeded_spec("minibatch_sweep", seed, work))
    _analysis_traceio(s, probed, ref, work)
    return s


def traced_run(workload) -> tuple[dict, list[str], dict]:
    """One CLI repetition, the untraced and traced replays, then the layer suite.

    The suite runs in a child process of its own, so that its timings do not
    depend on what the replay left in this process's heap.
    """
    workload.prepare()
    cli_rep = workload.rep(0)
    untraced, untraced_critical = replay(workload, Tracer(workload.name, enabled=False), "untraced")
    tracer = Tracer(workload.name, enabled=True)
    traced, _ = replay(workload, tracer, "traced")
    suite = e2e.run_child([__file__, str(workload.seed), str(workload.work)], workload.work, "suite")
    if suite.returncode != 0:
        raise RuntimeError(f"layer suite exited with {suite.returncode}")
    report = json.loads(suite.stdout.splitlines()[-1])
    metrics = {name: tuple(value) for name, value in report["metrics"].items()}
    metrics["cli.overhead_s"] = (cli_rep.wall_s - untraced_critical, "s")
    metrics["replay.ops"] = (float(workload.units), "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    spans = e2e.STATE / "results" / f"spans-{workload.name}-seed{workload.seed}-{stamp}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans)
    self_times = ", ".join(f"{k} {v:.4g} s" for k, v in sorted(tracer.self_times().items()))
    lines = [
        f"cli.overhead_s: CLI {cli_rep.wall_s:.6g} s against an untraced replay of {untraced:.6g} s "
        f"(critical path {untraced_critical:.6g} s); traced replay {traced:.6g} s",
        f"replay.ops: {workload.units} ({e2e.WORK_UNIT[workload.name].removesuffix('_per_s')})",
        f"self time per layer in the traced replay: {self_times}",
        f"{len(tracer.spans)} spans written to {spans.relative_to(e2e.ROOT)}",
        *report["rows"],
    ]
    return metrics, lines, {"cli_wall_s": cli_rep.wall_s, "replay_s": [untraced, traced]}


if __name__ == "__main__":
    # python3 perfbench/layers.py SEED WORK_DIR: the layer suite, as one JSON line
    suite = layer_suite(int(sys.argv[1]), Path(sys.argv[2]))
    print(json.dumps({"metrics": suite.metrics, "rows": suite.rows}))
