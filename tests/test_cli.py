"""Command-line front end, exercised in-process through main()."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_impl
from sawtoothlab import cli
from sawtoothlab.analysis import (
    DEMO_GRAD_SQUARED,
    DEMO_MOMENTUM,
    DEMO_SECOND_MOMENT_PREV,
    DEMO_TRACKED_GRAD,
    evaluate_fit,
    fit_model,
    nshape_sweep,
)
from sawtoothlab.cli import _resolve_spec_path, main
from sawtoothlab.schedule import batches_per_epoch
from sawtoothlab.specfile import load_spec
from sawtoothlab.traceio import read_trace_csv, render_line_chart_svg, write_trace_csv
from sawtoothlab.trainer import TRACE_COLUMNS, run_toy

TINY_SPEC = """
name = tiny
num_functions = 40
dim = 20
epochs = 2
tracked_batch = 3
emit = csv, svg
"""


@pytest.fixture
def tiny_run(tmp_path):
    spec = tmp_path / "tiny.spec"
    spec.write_text(TINY_SPEC)
    out = tmp_path / "out"
    rc = main(["run", str(spec), "--out", str(out)])
    assert rc == 0
    return out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sawtoothlab" in capsys.readouterr().out


def test_run_writes_artifacts(tiny_run, capsys):
    assert (tiny_run / "trace.csv").exists()
    assert (tiny_run / "epochs.csv").exists()
    assert (tiny_run / "meta.json").exists()
    assert (tiny_run / "loss.svg").exists()


def test_run_summary_line(tmp_path, capsys):
    spec = tmp_path / "tiny.spec"
    spec.write_text(TINY_SPEC)
    rc = main(["run", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tiny" not in out  # the point label is printed, not the spec name
    assert "point_000: final_mean_loss=" in out


def test_run_sweep_uses_point_directories(tmp_path):
    spec = tmp_path / "sweep.spec"
    spec.write_text(TINY_SPEC.replace("emit = csv, svg", "emit = csv") + "beta2 = 0.999, 0.9\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == ["point_000_beta2=0.999", "point_001_beta2=0.9"]
    for d in dirs:
        assert (out / d / "trace.csv").exists()
        assert not (out / d / "loss.svg").exists()


def test_run_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.spec")]) == 3
    bad = tmp_path / "bad.spec"
    bad.write_text("bogus = 1\n")
    assert main(["run", str(bad)]) == 2
    # config errors land on exit 2 before any output is written
    invalid = tmp_path / "invalid.spec"
    invalid.write_text(TINY_SPEC.replace("tracked_batch = 3", "tracked_batch = 60"))
    assert main(["run", str(invalid), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    # a window below 1 used to pass the parser, train every point, then fail
    windowless = tmp_path / "windowless.spec"
    windowless.write_text(TINY_SPEC + "window = 0\n")
    assert main(["run", str(windowless), "--out", str(tmp_path / "w")]) == 2
    assert not (tmp_path / "w").exists()
    # a negative seed used to make the output directory, then fail in numpy
    unseeded = tmp_path / "unseeded.spec"
    unseeded.write_text(TINY_SPEC + "seed = -1\n")
    assert main(["run", str(unseeded), "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s").exists()
    # an infinite lr used to run its point and flag it DIVERGED
    unbounded = tmp_path / "unbounded.spec"
    unbounded.write_text(TINY_SPEC + "lr = inf\n")
    assert main(["run", str(unbounded), "--out", str(tmp_path / "u")]) == 2
    assert not (tmp_path / "u").exists()


def test_sweep_through_the_worker_pool_matches_the_serial_sweep(tmp_path, capsys):
    outputs = {}
    for workers in (1, 2):
        spec = tmp_path / f"workers{workers}.spec"
        spec.write_text(TINY_SPEC + f"beta2 = 0.999, 0.9\nworkers = {workers}\n")
        out = tmp_path / f"out{workers}"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        summary = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
        files = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.name in ("trace.csv", "epochs.csv", "meta.json")
        }
        outputs[workers] = summary, files
    assert len(outputs[1][0]) == 2 and len(outputs[1][1]) == 6
    assert outputs[2] == outputs[1]


def test_run_rejects_bad_sweep_point_before_any_point_runs(tmp_path, capsys):
    # point 0 (B = 1) is valid; point 1 (B = 8) has only 100 batches per
    # epoch, so the default tracked_batch of 100 is out of range
    spec = tmp_path / "sweep.spec"
    spec.write_text("num_functions = 800\ndim = 20\nepochs = 1\nbatch_size = 1, 8\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "tracked_batch" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_unknown_policy_before_any_point_runs(tmp_path, capsys):
    # point 0 is a valid shuffle run; point 1 used to fail only after point 0
    # had run to the end, leaving an empty point directory behind
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "num_functions = 50\ndim = 10\ntracked_batch = 2\npolicy = shuffle, bogus\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "unknown policy 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_loss_svg_window_follows_the_schedule_epoch(tmp_path):
    # the run diverges at step 30 of its first 50-step epoch; the svg's
    # default window is 5 percent of 50, not of the 30 recorded steps / 3
    spec = tmp_path / "diverging.spec"
    spec.write_text(
        "optimizer = sgd\nlr = 10.0\nnum_functions = 50\ndim = 10\nproblem_seed = 1\n"
        "seed = 1\nepochs = 3\nprobe = false\nemit = svg\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert '"diverged": true' in (out / "meta.json").read_text()
    assert "window mean (w=2)" in (out / "loss.svg").read_text()


def test_run_meta_records_the_epoch_start_probe(tmp_path):
    spec = tmp_path / "probed.spec"
    spec.write_text(TINY_SPEC + "epoch_start_probe = 2\n")
    assert main(["run", str(spec), "--out", str(tmp_path / "p")]) == 0
    meta = json.loads((tmp_path / "p" / "meta.json").read_text())
    assert meta["epoch_start_probe_epoch"] == 2
    assert len(meta["epoch_start_losses"]) == 40
    # this point diverges on its 30th step, in epoch 1, so epoch 2 is never probed
    spec.write_text(
        "optimizer = sgd\nlr = 10.0\nnum_functions = 50\ndim = 10\nproblem_seed = 1\n"
        "seed = 1\nepochs = 3\nprobe = false\nemit = csv\nepoch_start_probe = 2\n"
    )
    assert main(["run", str(spec), "--out", str(tmp_path / "d")]) == 0
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert meta["diverged"] and meta["divergence_step"] == 29
    assert meta["config"]["epoch_start_probe_epoch"] == 2
    assert "epoch_start_probe_epoch" not in meta and "epoch_start_losses" not in meta


def test_bundled_specs_resolve_and_parse():
    ref = load_spec(_resolve_spec_path("shuffle_reference"))
    assert ref.num_points() == 1
    [(_, cfg)] = ref.expand()
    assert cfg.num_functions == 10000
    assert cfg.num_epochs == 9
    sweep = load_spec(_resolve_spec_path("beta2_stability_sweep"))
    assert sweep.num_points() == 8
    with pytest.raises(FileNotFoundError):
        _resolve_spec_path("no_such_bundled_spec")


def test_fit_from_run_output(tiny_run, capsys):
    trace = tiny_run / "trace.csv"
    # betas are recovered from meta.json, so none are passed here
    rc = main(["fit", str(trace), "--model", "g_norm", "--epoch", "2", "--svg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r2=" in out
    fit_csv = (tiny_run / "fit_g_norm.csv").read_text().splitlines()
    keys = [line.split(",")[0] for line in fit_csv]
    for expected in ("model", "offset", "slope", "r_squared", "beta2"):
        assert expected in keys
    overlay = (tiny_run / "overlay_g_norm.csv").read_text().splitlines()
    assert overlay[0] == "t,observed,fitted"
    assert len(overlay) == 1 + 40
    assert (tiny_run / "fit_g_norm.svg").exists()


def test_fit_windowed_alignment_model(tiny_run):
    trace = tiny_run / "trace.csv"
    rc = main(["fit", str(trace), "--model", "dot_dtheta", "--epoch", "2", "--window", "5"])
    assert rc == 0
    keys = [line.split(",")[0] for line in (tiny_run / "fit_dot_dtheta.csv").read_text().splitlines()]
    for expected in ("decay_amp", "level", "hyperbolic_amp", "hyperbolic_shift", "slope"):
        assert expected in keys
    # the alignment model starts at t = 1, so one step fewer than the epoch
    overlay = (tiny_run / "overlay_dot_dtheta.csv").read_text().splitlines()
    assert len(overlay) == 1 + 39


def test_fit_error_paths(tiny_run, tmp_path, capsys):
    trace = str(tiny_run / "trace.csv")
    assert main(["fit", trace, "--model", "g_norm", "--epoch", "7"]) == 2
    assert "no rows" in capsys.readouterr().err
    assert main(["fit", trace, "--model", "g_norm", "--epoch", "2", "--window", "99"]) == 2
    # fit_model's own check: the 40-step epoch is shorter than the window
    assert "error: window 99 exceeds series length 40" in capsys.readouterr().err
    # a window below 1 is an error, not a request for no smoothing
    for window in ("0", "-7"):
        assert main(["fit", trace, "--model", "g_norm", "--epoch", "2", "--window", window]) == 2
        assert "error: --window must be >= 1" in capsys.readouterr().err
    assert not (tiny_run / "fit_g_norm.csv").exists()
    assert main(["fit", trace, "--model", "g_norm", "--epoch", "2", "--window", "1"]) == 0
    # no meta.json next to the trace and no --beta2 on the command line
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "trace.csv").write_bytes((tiny_run / "trace.csv").read_bytes())
    assert main(["fit", str(bare / "trace.csv"), "--model", "g_norm", "--epoch", "2"]) == 2
    assert "--beta2 is required" in capsys.readouterr().err
    assert main([
        "fit", str(bare / "trace.csv"), "--model", "g_norm", "--epoch", "2",
        "--beta2", "0.999",
    ]) == 0
    # the momentum model also needs beta1, which --beta2 does not supply
    m_norm = [
        "fit", str(bare / "trace.csv"), "--model", "m_norm", "--epoch", "2", "--beta2", "0.999",
    ]
    assert main(m_norm) == 2
    assert "--beta1 is required" in capsys.readouterr().err
    assert not (bare / "fit_m_norm.csv").exists()
    assert main(m_norm + ["--beta1", "0.8"]) == 0
    assert "beta1,0.8" in (bare / "fit_m_norm.csv").read_text().splitlines()


def test_fit_on_an_rmsprop_trace_takes_the_stepper_betas(tmp_path):
    # RMSProp's stepper runs with beta1 = 0 whatever the config's beta1
    # says, so the fitted decay column vanishes; an explicit --beta1 wins
    spec = tmp_path / "rmsprop.spec"
    spec.write_text(TINY_SPEC + "optimizer = rmsprop\nbeta2 = 0.95\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["config"]["beta1"] == 0.9
    fit = ["fit", str(out / "trace.csv"), "--model", "dot_dtheta", "--epoch", "2"]
    assert main(fit) == 0
    lines = (out / "fit_dot_dtheta.csv").read_text().splitlines()
    for expected in ("beta1,0.0", "beta2,0.95", "degenerate,true", "decay_amp,0.0"):
        assert expected in lines
    assert main(fit + ["--beta1", "0.5"]) == 0
    assert "beta1,0.5" in (out / "fit_dot_dtheta.csv").read_text().splitlines()


def test_fit_flags_the_unused_momentum_of_an_rmsprop_trace(tmp_path):
    # RMSProp never touches m, so its m_norm column is all zero
    spec = tmp_path / "rmsprop.spec"
    spec.write_text(TINY_SPEC + "optimizer = rmsprop\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert main(["fit", str(out / "trace.csv"), "--model", "m_norm", "--epoch", "2"]) == 0
    lines = (out / "fit_m_norm.csv").read_text().splitlines()
    for expected in ("r_squared,1.0", "degenerate,true",
                     'notes,"the series is constant, so r_squared says nothing"'):
        assert expected in lines


def test_fit_on_an_sgd_trace_takes_no_beta2_from_meta_json(tmp_path, capsys):
    # SGD keeps no second moment, so meta.json's beta2 was never used
    spec = tmp_path / "sgd.spec"
    spec.write_text(TINY_SPEC + "optimizer = sgd\nlr = 0.05\nbeta1 = 0.8\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    for model in ("g_norm", "v_norm", "m_norm"):
        fit = ["fit", str(out / "trace.csv"), "--model", model, "--epoch", "2"]
        written = sorted(p.name for p in out.iterdir())
        assert main(fit) == 2
        assert "error: --beta2 is required (an sgd run keeps no second moment)" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == written
        # an explicit --beta2 wins, and beta1 (SGD's momentum) still comes from meta.json
        assert main(fit + ["--beta2", "0.99"]) == 0
        lines = (out / f"fit_{model}.csv").read_text().splitlines()
        assert "beta2,0.99" in lines
        assert ("beta1,0.8" if model == "m_norm" else "beta1,") in lines
    # the v_norm column is all zero, and the fit says so
    assert "degenerate,true" in (out / "fit_v_norm.csv").read_text().splitlines()


def test_fit_reads_the_run_config_without_importing_numpy_random(tiny_run):
    # building the schedule to check the config draws nothing, so a fit
    # keeps numpy.random's 5 MB of extension modules out of its peak RSS
    code = (
        "import sys\n"
        "from sawtoothlab.cli import main\n"
        f"assert main(['fit', {str(tiny_run / 'trace.csv')!r}, '--model', 'dot_m', '--epoch', '2']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"label": "no config"}, "'config'"),
        ({"config": {"beta2": 0.99, "momentum": 0.9}}, "unexpected keyword argument 'momentum'"),
        ({"config": [0.9, 0.999]}, "must be a mapping"),
        ({"config": {"beta2": 1.5}}, "beta2 must lie in [0, 1]"),
    ],
)
def test_fit_rejects_a_meta_json_without_a_run_config(tiny_run, tmp_path, capsys, meta, message):
    run_dir = tmp_path / "copy"
    run_dir.mkdir()
    (run_dir / "trace.csv").write_bytes((tiny_run / "trace.csv").read_bytes())
    (run_dir / "meta.json").write_text(json.dumps(meta))
    assert main(["fit", str(run_dir / "trace.csv"), "--model", "g_norm", "--epoch", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(p.name for p in run_dir.iterdir()) == ["meta.json", "trace.csv"]


def test_fit_overlay_matches_the_csv_module_loop(tiny_run, tmp_path):
    trace = read_trace_csv(tiny_run / "trace.csv")
    rows = trace.epoch_rows(2)
    t, y = trace.step[rows].astype(float), trace.v_norm[rows]
    assert main(["fit", str(tiny_run / "trace.csv"), "--model", "v_norm", "--epoch", "2",
                 "--window", "3", "--beta2", "0.98"]) == 0
    fitted = evaluate_fit(fit_model("v_norm", t, y, None, 0.98, window=3), t)
    reference_impl.write_overlay_csv(tmp_path / "reference.csv", t, y, fitted)
    assert (tiny_run / "overlay_v_norm.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()


def test_fit_rejects_an_unprobed_column_and_an_empty_step_range(tmp_path, capsys):
    spec = tmp_path / "unprobed.spec"
    spec.write_text(TINY_SPEC + "probe = false\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    trace = str(out / "trace.csv")
    assert main(["fit", trace, "--model", "dot_m", "--epoch", "2"]) == 2
    assert "carries no values for epoch 2 (probes disabled?)" in capsys.readouterr().err
    assert main(["fit", trace, "--model", "g_norm", "--epoch", "2",
                 "--t-min", "30", "--t-max", "5"]) == 2
    assert "not enough points left to fit" in capsys.readouterr().err
    assert not list(out.glob("fit_*"))


def test_fit_time_bounds(tiny_run):
    trace = str(tiny_run / "trace.csv")
    # the overlay spans exactly the bounds, except that the alignment model
    # starts at t = 1 whatever --t-min asks for
    for model, t_min, t_max, first in (("g_norm", 5, 30, 5), ("dot_dtheta", 0, 20, 1)):
        args = ["fit", trace, "--model", model, "--epoch", "2",
                "--t-min", str(t_min), "--t-max", str(t_max)]
        assert main(args) == 0
        overlay = (tiny_run / f"overlay_{model}.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[0]) for line in overlay] == list(range(first, t_max + 1))


def test_fit_rejects_malformed_trace(tiny_run, capsys):
    trace = tiny_run / "trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:5]) + "1,2\r\n" + "".join(lines[5:]))
    assert main(["fit", str(trace), "--model", "g_norm", "--epoch", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def three_epoch_run(tmp_path):
    spec = tmp_path / "three.spec"
    spec.write_text(TINY_SPEC.replace("epochs = 2", "epochs = 3"))
    out = tmp_path / "three"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    return out


def _corrupt_epoch_row(trace, epoch: int, edit) -> None:
    """Rewrite the sixth row of an epoch through edit(cells) -> line."""
    lines = trace.read_text().splitlines(keepends=True)
    k = [i for i, line in enumerate(lines) if line.startswith(f"{epoch},")][5]
    lines[k] = edit(lines[k].rstrip("\n").split(",")) + "\n"
    trace.write_text("".join(lines))


@pytest.mark.parametrize(
    "edit",
    [
        lambda cells: ",".join(cells[:-1]),
        lambda cells: ",".join(["3.0"] + cells[1:]),
        lambda cells: "",
    ],
    ids=["ragged row", "non-integer epoch cell", "blank line"],
)
def test_fit_rejects_a_malformed_row_of_another_epoch(three_epoch_run, capsys, edit):
    trace = three_epoch_run / "trace.csv"
    _corrupt_epoch_row(trace, 3, edit)
    assert main(["fit", str(trace), "--model", "g_norm", "--epoch", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(three_epoch_run.glob("fit_*"))


def test_fit_leaves_the_float_cells_of_other_epochs_unparsed(three_epoch_run, tmp_path):
    trace = three_epoch_run / "trace.csv"
    fit = ["fit", str(trace), "--model", "g_norm", "--epoch", "2", "--out"]
    assert main(fit + [str(tmp_path / "clean")]) == 0
    g_norm = TRACE_COLUMNS.index("g_norm")
    _corrupt_epoch_row(trace, 3, lambda cells: ",".join(
        cells[:g_norm] + ["0.2.5"] + cells[g_norm + 1:]
    ))
    assert main(fit + [str(tmp_path / "corrupt")]) == 0
    for name in ("fit_g_norm.csv", "overlay_g_norm.csv"):
        clean, corrupt = (tmp_path / side / name for side in ("clean", "corrupt"))
        assert corrupt.read_bytes() == clean.read_bytes(), name
    assert main(["fit", str(trace), "--model", "g_norm", "--epoch", "3"]) == 2
    with pytest.raises(ValueError):
        read_trace_csv(trace)


def test_fit_parses_only_the_rows_of_its_epoch(tiny_run, monkeypatch):
    parsed = []
    loadtxt = np.loadtxt

    def counting_loadtxt(lines, *args, **kwargs):
        lines = list(lines)
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    assert main(["fit", str(tiny_run / "trace.csv"), "--model", "g_norm", "--epoch", "2"]) == 0
    assert parsed == [batches_per_epoch(40, 1)]


def test_cli_import_leaves_the_process_pool_out():
    # only a sweep with workers > 1 needs concurrent.futures
    code = "import sys, sawtoothlab.cli\nassert 'concurrent.futures' not in sys.modules\n"
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_toy_command(tmp_path, capsys):
    out = tmp_path / "toy"
    rc = main(["toy", "--out", str(out), "--svg"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ordering fixed < reversed < reversed_momentum: True" in text
    for label in ("fixed", "reversed", "reversed_momentum"):
        assert (out / f"toy_{label}.csv").exists()
    assert (out / "toy.svg").exists()


def test_toy_command_passes_lr_and_beta1(tmp_path):
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out), "--epochs", "7", "--lr", "0.05", "--beta1", "0.5"]) == 0
    for label, sequencing, beta1 in (
        ("fixed", "fixed", 0.0),
        ("reversed", "reversed", 0.0),
        ("reversed_momentum", "reversed", 0.5),
    ):
        write_trace_csv(run_toy(sequencing, beta1, lr=0.05, epochs=7).trace, tmp_path / "ref.csv")
        assert (out / f"toy_{label}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "flag", [["--lr", "inf"], ["--beta1", "1.5"], ["--epochs", "0"], ["--beta1", "0"]]
)
def test_toy_bad_flag_fails_before_any_output(tmp_path, capsys, flag):
    # every case is checked before the first trace is written
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out), *flag]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_nshape_command(tmp_path, capsys):
    out = tmp_path / "nshape"
    rc = main(["nshape", "--out", str(out), "--svg"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dot(grad, delta) at beta2=0: -385" in text
    rows = (out / "nshape.csv").read_text().splitlines()
    assert rows[0] == "beta2,cosine"
    assert len(rows) == 1 + 101
    assert (out / "nshape.svg").exists()


def test_nshape_demo_lines_and_table(tmp_path, capsys):
    assert main(["nshape", "--out", str(tmp_path / "n")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cosine at beta2=0: -0.641146",
        "cosine at beta2=0.5: 0.346005",
        "cosine at beta2=1: -0.292341",
        "dot(grad, delta) at beta2=0: -385",
    ]
    betas, cosines = nshape_sweep(
        DEMO_TRACKED_GRAD, DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED
    )
    reference_impl.write_nshape_csv(tmp_path / "reference.csv", betas, cosines)
    assert (tmp_path / "n" / "nshape.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()


def _nshape_vectors(tmp_path, grad, second_moment_prev, grad_squared):
    vecs = tmp_path / "vectors.txt"
    vecs.write_text(
        f"grad = {grad}\nmomentum = -1, 1, 2\n"
        f"second_moment_prev = {second_moment_prev}\ngrad_squared = {grad_squared}\n"
    )
    return ["nshape", "--vectors", str(vecs), "--out", str(tmp_path / "n")]


def test_nshape_labels_each_cosine_with_its_own_beta2(tmp_path, capsys):
    # beta2 = 1 divides by the zero second moment, so the last point is 0.99
    assert main(_nshape_vectors(tmp_path, "1, 2, 3", "1, 0, 1", "1, 1, 1")) == 0
    lines = capsys.readouterr().out.splitlines()
    table = np.loadtxt(tmp_path / "n" / "nshape.csv", delimiter=",", skiprows=1)
    assert table[-1, 0] == 0.99
    assert lines[2] == f"cosine at beta2=0.99: {table[-1, 1]:.6g}"
    assert lines[0] == f"cosine at beta2=0: {table[0, 1]:.6g}"


def test_nshape_dot_line_takes_the_first_kept_beta2(tmp_path, capsys):
    # zero squared gradients: beta2 = 0 has a zero denominator and is skipped
    assert main(_nshape_vectors(tmp_path, "1, 2, 3", "1, 1, 1", "0, 0, 0")) == 0
    lines = capsys.readouterr().out.splitlines()
    # at beta2 = 0.01 the update is -m / sqrt(0.01): dot((1, 2, 3), -(-1, 1, 2) / 0.1)
    assert lines[0].startswith("cosine at beta2=0.01: ")
    assert lines[-1] == "dot(grad, delta) at beta2=0.01: -70"


def test_nshape_with_no_grid_point_left_writes_nothing(tmp_path, capsys):
    # a zero gradient has no cosine at any beta2
    assert main(_nshape_vectors(tmp_path, "0, 0, 0", "1, 0, 1", "1, 1, 1")) == 2
    assert capsys.readouterr().err.startswith("error: every beta2 grid point")
    assert not (tmp_path / "n").exists()


@pytest.mark.parametrize(
    "key, value", [("grad", "1, nan, 2"), ("momentum", "1, inf, 1"), ("grad_squared", "1, 1, -inf")]
)
def test_nshape_non_finite_vector_writes_nothing(tmp_path, capsys, key, value):
    # a NaN would fill the table with NaN cosines, an inf the dot line with -inf
    vectors = {
        "grad": "1, 2, 3",
        "momentum": "-1, 1, 2",
        "second_moment_prev": "1, 0, 1",
        "grad_squared": "1, 1, 1",
    } | {key: value}
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("".join(f"{k} = {v}\n" for k, v in vectors.items()))
    lineno = list(vectors).index(key) + 1
    assert main(["nshape", "--vectors", str(vecs), "--out", str(tmp_path / "n")]) == 2
    assert f"{vecs}:{lineno}: non-finite number in {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()


def test_nshape_custom_vectors(tmp_path, capsys):
    vecs = tmp_path / "vectors.txt"
    vecs.write_text(
        "grad = 1, 0\n"
        "momentum = -1, 1\n"
        "second_moment_prev = 1, 1\n"
        "grad_squared = 1, 1\n"
    )
    out = tmp_path / "n"
    assert main(["nshape", "--vectors", str(vecs), "--out", str(out)]) == 0
    data = np.loadtxt(out / "nshape.csv", delimiter=",", skiprows=1)
    # constant denominator: the cosine never moves across beta2
    np.testing.assert_allclose(data[:, 1], data[0, 1])
    missing = tmp_path / "missing.txt"
    missing.write_text("grad = 1\n")
    assert main(["nshape", "--vectors", str(missing), "--out", str(out)]) == 2


def test_overlap_command(capsys):
    rc = main(["overlap", "--num-samples", "10000", "--batch-size", "100"])
    assert rc == 0
    assert "expected boundary overlap: 1" in capsys.readouterr().out
    rc = main([
        "overlap", "--num-samples", "200", "--batch-size", "20", "--mc", "2000",
    ])
    assert rc == 0
    assert "monte carlo" in capsys.readouterr().out


def test_toy_svg_matches_the_written_traces(tmp_path):
    # toy.svg is drawn from the in-memory traces; the CSV round trip is
    # exact, so it equals the chart drawn from the traces read back
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out), "--epochs", "12", "--svg"]) == 0
    series = []
    for label in ("fixed", "reversed", "reversed_momentum"):
        trace = read_trace_csv(out / f"toy_{label}.csv")
        series.append((label, np.arange(len(trace), dtype=float), trace.batch_loss))
    render_line_chart_svg(
        tmp_path / "reread.svg",
        series,
        title="two-batch sequencing demonstration",
        x_label="step",
        y_label="batch loss",
    )
    assert (out / "toy.svg").read_bytes() == (tmp_path / "reread.svg").read_bytes()


def _demo_vector_text():
    vectors = {
        "grad": DEMO_TRACKED_GRAD,
        "momentum": DEMO_MOMENTUM,
        "second_moment_prev": DEMO_SECOND_MOMENT_PREV,
        "grad_squared": DEMO_GRAD_SQUARED,
    }
    lines = ["# the built-in demonstration vectors"]
    lines += [f"{key} = {', '.join(map(repr, values))}" for key, values in vectors.items()]
    return "\n".join(lines) + "\n"


def test_nshape_vector_file_of_the_demo_vectors_matches_the_builtin(tmp_path, capsys):
    assert main(["nshape", "--out", str(tmp_path / "builtin")]) == 0
    builtin = capsys.readouterr().out
    vecs = tmp_path / "demo.txt"
    vecs.write_text(_demo_vector_text())
    assert main(["nshape", "--vectors", str(vecs), "--out", str(tmp_path / "file")]) == 0
    assert capsys.readouterr().out == builtin
    assert (tmp_path / "file" / "nshape.csv").read_bytes() == (
        tmp_path / "builtin" / "nshape.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("grad = 1, 2, 3", "duplicate key 'grad'"),
        ("grad_squared =", "empty value for 'grad_squared'"),
        ("grad_squared = 1, two, 3", "bad number in 'grad_squared'"),
    ],
)
def test_nshape_vector_file_errors_name_their_line(tmp_path, capsys, bad_line, message):
    text = _demo_vector_text().replace("grad_squared", "# grad_squared")
    vecs = tmp_path / "bad.txt"
    vecs.write_text(text + bad_line + "\n")
    lineno = len(text.splitlines()) + 1
    assert main(["nshape", "--vectors", str(vecs), "--out", str(tmp_path / "n")]) == 2
    assert f"{vecs}:{lineno}: {message}" in capsys.readouterr().err


def test_overlap_uses_the_short_last_batch(capsys):
    # N = 10, B = 3: each epoch ends on a batch of r = 1 item, so r*B/N = 0.3
    assert main(["overlap", "--num-samples", "10", "--batch-size", "3"]) == 0
    assert "expected boundary overlap: 0.3\n" in capsys.readouterr().out


def test_overlap_rejects_a_single_trial(capsys):
    assert main(["overlap", "--num-samples", "200", "--batch-size", "20", "--mc", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --mc")
    assert "monte carlo" not in captured.out


def test_overlap_rejects_a_negative_seed_before_any_output(capsys):
    argv = ["overlap", "--num-samples", "10", "--batch-size", "3", "--mc", "5", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


def test_overlap_reports_an_exact_match(capsys):
    # B = N: every boundary shares all N items, so every trial counts N
    assert main(["overlap", "--num-samples", "7", "--batch-size", "7", "--mc", "50"]) == 0
    out = capsys.readouterr().out
    assert "monte carlo (50 trials): 7 +/- 0 (exact match with expected)" in out
    assert "inf" not in out
    assert main(["overlap", "--num-samples", "200", "--batch-size", "20", "--mc", "2000"]) == 0
    assert re.search(
        r"monte carlo \(2000 trials\): \S+ \+/- \S+ \(\d+\.\d\d se from expected\)",
        capsys.readouterr().out,
    )


def test_commands_raise_and_main_alone_reports():
    # one failure path: a cmd_* raises, and main prints the error and picks the exit code
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    commands = [f for f in functions if f.name.startswith("cmd_")]
    assert len(commands) == 5
    for f in commands:
        nodes = list(ast.walk(f))
        assert not [n for n in nodes if isinstance(n, ast.Return) and n.value is not None], f.name
        assert not [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "stderr"], f.name
    exit_returns = {
        f.name
        for f in functions
        for n in ast.walk(f)
        if isinstance(n, ast.Return) and isinstance(n.value, ast.Constant) and n.value.value in (2, 3)
    }
    assert exit_returns == {"main"}
