"""Command-line front end.

Subcommands:

    run      execute a spec file (or bundled spec) and write traces
    fit      fit a trace model to one epoch of a written trace
    toy      run the two-batch sequencing demonstration
    nshape   sweep the update/gradient similarity over beta2
    overlap  expected (and Monte Carlo) boundary-batch overlap

Commands raise on failure and print nothing to stderr; ``main`` alone turns
a failure into an ``error: ...`` (or ``io error: ...``) line and picks the
exit code: 0 success (including runs flagged diverged), 2 for malformed
specs, arguments or traces (ValueError), 3 for I/O failures (OSError).

Each command imports the modules it runs when it runs. Importing this module
loads no numpy and no other package module, so ``--help`` and ``--version``
load neither, and ``overlap`` loads ``schedule`` alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

# analysis.TRACE_MODELS' names, in its order: the parser needs them when it is
# built, and importing analysis for them would load the fitting code into
# every command (tests/test_cli.py checks the two agree)
MODELS = ("g_norm", "m_norm", "v_norm", "dot_m", "dot_dtheta")


def _resolve_spec_path(name: str) -> Path:
    from importlib import resources

    path = Path(name)
    if path.exists():
        return path
    bundled = resources.files("sawtoothlab").joinpath("specs", f"{name}.spec")
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(
        f"no spec file {name!r} and no bundled spec of that name"
    )


def _execute_point(job: tuple) -> dict:
    from dataclasses import asdict

    import numpy as np

    from .analysis import default_window, esp_metrics, window_average
    from .schedule import batches_per_epoch
    from .traceio import render_line_chart_svg, write_epochs_csv, write_meta_json, write_trace_csv
    from .trainer import run as run_training

    label, config, point_dir, emit, window = job
    point_dir = Path(point_dir)
    point_dir.mkdir(parents=True, exist_ok=True)
    result = run_training(config)
    # one window from the schedule's epoch, for the metrics and the svg alike
    w = window or default_window(batches_per_epoch(config.num_functions, config.batch_size))
    metrics = esp_metrics(result.trace, window=w)
    if "csv" in emit:
        write_trace_csv(result.trace, point_dir / "trace.csv")
        write_epochs_csv(metrics, point_dir / "epochs.csv")
    meta = {
        "label": label,
        "config": asdict(config),
        "diverged": result.diverged,
        "divergence_step": result.divergence_step,
        "epoch_mean_loss": result.epoch_mean_loss,
        "final_mean_loss": result.final_mean_loss,
        "version": __version__,
    }
    if result.epoch_start_losses is not None:
        meta["epoch_start_probe_epoch"] = config.epoch_start_probe_epoch
        meta["epoch_start_losses"] = result.epoch_start_losses
    write_meta_json(meta, point_dir / "meta.json")
    if "svg" in emit:
        t = result.trace
        averaged = window_average(t.batch_loss, min(w, len(t)))
        x_avg = np.arange(len(averaged), dtype=float)
        render_line_chart_svg(
            point_dir / "loss.svg",
            [
                ("batch loss", np.arange(len(t), dtype=float), t.batch_loss),
                (f"window mean (w={min(w, len(t))})", x_avg, averaged),
            ],
            title=label,
            x_label="step",
            y_label="loss",
        )
    return {
        "label": label,
        "final_mean_loss": result.final_mean_loss,
        "diverged": result.diverged,
        "dir": str(point_dir),
    }


def cmd_run(args) -> None:
    # _execute_point's modules, with load_spec's trainer bringing the rest:
    # loaded before a sweep forks, no worker imports them again, and loaded
    # before the spec is read, they leave a sweep's peak RSS 0.9 MB lower
    from . import analysis, traceio  # noqa: F401
    from .specfile import load_spec

    spec_path = _resolve_spec_path(args.spec)
    spec = load_spec(spec_path)
    out_dir = Path(args.out or spec.out or f"runs/{spec.name}")
    points = spec.expand()
    jobs = []
    for label, config in points:
        point_dir = out_dir if len(points) == 1 else out_dir / label
        jobs.append((label, config, str(point_dir), spec.emit, spec.window))
    if spec.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random  # noqa: F401 (the forked workers share it, not import it each)

        with ProcessPoolExecutor(max_workers=min(spec.workers, len(jobs))) as pool:
            summaries = list(pool.map(_execute_point, jobs))
    else:
        summaries = [_execute_point(job) for job in jobs]
    for s in summaries:
        flag = " DIVERGED" if s["diverged"] else ""
        print(f"{s['label']}: final_mean_loss={s['final_mean_loss']:.6g}{flag} -> {s['dir']}")


def cmd_fit(args) -> None:
    import csv
    import json

    import numpy as np

    from .analysis import TRACE_MODELS, evaluate_fit, fit_model
    from .traceio import read_trace_csv, render_line_chart_svg, write_columns
    from .trainer import RunConfig

    if args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    model = TRACE_MODELS[args.model]
    trace = read_trace_csv(args.trace, epoch=args.epoch)
    if len(trace) == 0:
        raise ValueError(f"trace has no rows for epoch {args.epoch}")
    # each model is fitted to the trace column of the same name
    y = getattr(trace, args.model)
    t = trace.step.astype(float)
    finite = np.isfinite(y)
    if not np.any(finite):
        raise ValueError(
            f"trace column {args.model!r} carries no values for epoch "
            f"{args.epoch} (probes disabled?)"
        )
    keep = finite & (t >= model.min_t)
    if args.t_min is not None:
        keep &= t >= args.t_min
    if args.t_max is not None:
        keep &= t <= args.t_max
    t, y = t[keep], y[keep]
    if len(t) < 2:
        raise ValueError("not enough points left to fit")

    beta1, beta2 = args.beta1, args.beta2
    no_beta2 = "no meta.json next to the trace"
    if beta2 is None or (beta1 is None and model.needs_beta1):
        meta_path = Path(args.trace).with_name("meta.json")
        if meta_path.exists():
            with open(meta_path) as fh:
                try:
                    config = RunConfig(**json.load(fh)["config"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{meta_path} does not hold a run config: {exc}") from None
            # the betas the run's stepper used: RMSProp's beta1 is 0, and SGD
            # keeps no second moment, so it has no beta2 to offer
            stepper = config.adam_config()
            beta1 = stepper.beta1 if beta1 is None else beta1
            if config.optimizer == "sgd":
                no_beta2 = "an sgd run keeps no second moment"
            elif beta2 is None:
                beta2 = stepper.beta2
    if beta2 is None:
        raise ValueError(f"--beta2 is required ({no_beta2})")
    if model.needs_beta1 and beta1 is None:
        raise ValueError("--beta1 is required (no meta.json next to the trace)")

    fit = fit_model(args.model, t, y, beta1, beta2, window=args.window)
    out_dir = Path(args.out) if args.out else Path(args.trace).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    fitted = evaluate_fit(fit, t)
    with open(out_dir / f"fit_{args.model}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["model", fit.model])
        writer.writerow(["epoch", args.epoch])
        for name, value in fit.coeffs.items():
            writer.writerow([name, repr(float(value))])
        writer.writerow(["r_squared", repr(float(fit.r_squared))])
        writer.writerow(["residual_norm", repr(float(fit.residual_norm))])
        writer.writerow(["beta1", "" if fit.beta1 is None else repr(float(fit.beta1))])
        writer.writerow(["beta2", "" if fit.beta2 is None else repr(float(fit.beta2))])
        writer.writerow(["degenerate", str(fit.degenerate).lower()])
        writer.writerow(["notes", "; ".join(fit.notes)])
    write_columns(out_dir / f"overlay_{args.model}.csv", {"t": t, "observed": y, "fitted": fitted})
    if args.svg:
        render_line_chart_svg(
            out_dir / f"fit_{args.model}.svg",
            [("observed", t, y), ("fitted", t, fitted)],
            title=f"{args.model} fit, epoch {args.epoch}",
            x_label="step in epoch",
            y_label=args.model,
        )
    coeff_text = ", ".join(f"{k}={v:.6g}" for k, v in fit.coeffs.items())
    print(f"{args.model} epoch {args.epoch}: {coeff_text}, r2={fit.r_squared:.4f}")


def cmd_toy(args) -> None:
    import numpy as np

    from .traceio import render_line_chart_svg, write_trace_csv
    from .trainer import oscillation_amplitude, run_toy

    if not args.beta1 > 0:
        # beta1 = 0 would run reversed_momentum as plain SGD, a copy of reversed
        raise ValueError(f"--beta1 must be > 0, got {args.beta1}")
    # every case runs before anything is written, so a bad flag leaves no output
    traces = {
        label: run_toy(sequencing, beta1, lr=args.lr, epochs=args.epochs).trace
        for label, sequencing, beta1 in (
            ("fixed", "fixed", 0.0),
            ("reversed", "reversed", 0.0),
            ("reversed_momentum", "reversed", args.beta1),
        )
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    amplitudes = {}
    for label, trace in traces.items():
        amplitudes[label] = amp = oscillation_amplitude(trace)
        write_trace_csv(trace, out_dir / f"toy_{label}.csv")
        print(f"{label}: amplitude={amp:.6g}")
    ordered = (
        amplitudes["fixed"] < amplitudes["reversed"] < amplitudes["reversed_momentum"]
    )
    print(f"ordering fixed < reversed < reversed_momentum: {ordered}")
    if args.svg:
        render_line_chart_svg(
            out_dir / "toy.svg",
            [
                (label, np.arange(len(trace), dtype=float), trace.batch_loss)
                for label, trace in traces.items()
            ],
            title="two-batch sequencing demonstration",
            x_label="step",
            y_label="batch loss",
        )


_VECTORS = ("grad", "momentum", "second_moment_prev", "grad_squared")


def _parse_vector_file(path) -> dict[str, np.ndarray]:
    import numpy as np

    from .specfile import SpecError, read_settings

    with open(path) as fh:
        text = fh.read()
    values: dict[str, np.ndarray] = {}
    for lineno, key, value in read_settings(text, _VECTORS, str(path)):
        try:
            values[key] = np.array([float(v) for v in value.split(",")], dtype=float)
        except ValueError:
            raise SpecError(f"bad number in {key!r}", str(path), lineno) from None
        if not np.all(np.isfinite(values[key])):
            raise SpecError(f"non-finite number in {key!r}", str(path), lineno)
    missing = [k for k in _VECTORS if k not in values]
    if missing:
        raise SpecError(f"missing vectors: {', '.join(missing)}", str(path))
    lengths = {len(v) for v in values.values()}
    if len(lengths) != 1:
        raise SpecError("vectors must share one length", str(path))
    return values


def cmd_nshape(args) -> None:
    import numpy as np

    from .analysis import (
        DEMO_GRAD_SQUARED,
        DEMO_MOMENTUM,
        DEMO_SECOND_MOMENT_PREV,
        DEMO_TRACKED_GRAD,
        nshape_delta,
        nshape_sweep,
    )
    from .traceio import render_line_chart_svg, write_columns

    if args.vectors:
        vecs = _parse_vector_file(args.vectors)
        grad = vecs["grad"]
        momentum = vecs["momentum"]
        v_prev = vecs["second_moment_prev"]
        g_squared = vecs["grad_squared"]
    else:
        grad = np.array(DEMO_TRACKED_GRAD)
        momentum = np.array(DEMO_MOMENTUM)
        v_prev = np.array(DEMO_SECOND_MOMENT_PREV)
        g_squared = np.array(DEMO_GRAD_SQUARED)
    betas, cosines = nshape_sweep(grad, momentum, v_prev, g_squared)
    if len(betas) == 0:
        raise ValueError("every beta2 grid point has a zero denominator or a zero-norm vector")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_columns(out_dir / "nshape.csv", {"beta2": betas, "cosine": cosines})
    if args.svg:
        render_line_chart_svg(
            out_dir / "nshape.svg",
            [("cosine", betas, cosines)],
            title="update/gradient cosine across beta2",
            x_label="beta2",
            y_label="cosine",
        )
    for k in (0, int(np.argmin(np.abs(betas - 0.5))), -1):
        print(f"cosine at beta2={betas[k]:g}: {cosines[k]:.6g}")
    delta0 = nshape_delta(momentum, v_prev, g_squared, betas[0])
    print(f"dot(grad, delta) at beta2={betas[0]:g}: {float(np.dot(grad, delta0)):.6g}")


def cmd_overlap(args) -> None:
    from .schedule import boundary_overlap_mc, expected_overlap

    if args.mc < 0 or args.mc == 1:
        # one trial has no standard error to measure the mean against
        raise ValueError(f"--mc must be 0 or at least 2 trials, got {args.mc}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    expected = expected_overlap(args.num_samples, args.batch_size)
    print(f"expected boundary overlap: {expected:.6g}")
    if args.mc:
        mean, se = boundary_overlap_mc(
            args.num_samples, args.batch_size, args.mc, seed=args.seed
        )
        if se > 0:
            match = f"{abs(mean - expected) / se:.2f} se from expected"
        elif mean == expected:
            # every trial drew the same count, the expected one (B = N)
            match = "exact match with expected"
        else:
            match = "inf se from expected"
        print(f"monte carlo ({args.mc} trials): {mean:.6g} +/- {se:.2g} ({match})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawtoothlab",
        description="Deterministic laboratory for sawtooth-shaped training loss under adaptive optimizers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a spec file or bundled spec name")
    p_run.add_argument("spec", help="path to a spec file, or a bundled spec name")
    p_run.add_argument("--out", help="output directory (overrides the spec)")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit a trace model to one epoch of a trace")
    p_fit.add_argument("trace", help="path to a trace.csv written by run")
    p_fit.add_argument("--model", choices=MODELS, required=True)
    p_fit.add_argument("--epoch", type=int, default=4)
    p_fit.add_argument("--beta1", type=float)
    p_fit.add_argument("--beta2", type=float)
    p_fit.add_argument(
        "--window",
        type=int,
        default=1,
        help="moving-average width (>= 1; 1 fits unsmoothed) applied to the series and basis",
    )
    p_fit.add_argument("--t-min", type=float, dest="t_min")
    p_fit.add_argument("--t-max", type=float, dest="t_max")
    p_fit.add_argument("--out", help="output directory (default: next to the trace)")
    p_fit.add_argument("--svg", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_toy = sub.add_parser("toy", help="two-batch sequencing demonstration")
    p_toy.add_argument("--lr", type=float, default=0.1)
    p_toy.add_argument("--epochs", type=int, default=60)
    p_toy.add_argument("--beta1", type=float, default=0.9)
    p_toy.add_argument("--out", default="runs/toy")
    p_toy.add_argument("--svg", action="store_true")
    p_toy.set_defaults(func=cmd_toy)

    p_nshape = sub.add_parser("nshape", help="update/gradient similarity across beta2")
    p_nshape.add_argument("--vectors", help="vector file (grad, momentum, second_moment_prev, grad_squared)")
    p_nshape.add_argument("--out", default="runs/nshape")
    p_nshape.add_argument("--svg", action="store_true")
    p_nshape.set_defaults(func=cmd_nshape)

    p_overlap = sub.add_parser("overlap", help="expected boundary-batch overlap")
    p_overlap.add_argument("--num-samples", type=int, required=True)
    p_overlap.add_argument("--batch-size", type=int, required=True)
    p_overlap.add_argument("--mc", type=int, default=0, help="Monte Carlo trials")
    p_overlap.add_argument("--seed", type=int, default=0)
    p_overlap.set_defaults(func=cmd_overlap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
