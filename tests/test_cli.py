"""Command-line front end, exercised in-process through main()."""

import re

import numpy as np
import pytest

from sawtoothlab.analysis import (
    DEMO_GRAD_SQUARED,
    DEMO_MOMENTUM,
    DEMO_SECOND_MOMENT_PREV,
    DEMO_TRACKED_GRAD,
)
from sawtoothlab.cli import _resolve_spec_path, main
from sawtoothlab.specfile import load_spec
from sawtoothlab.traceio import read_trace_csv, render_line_chart_svg

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
    assert "window longer" in capsys.readouterr().err
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


def test_fit_rejects_malformed_trace(tiny_run, capsys):
    trace = tiny_run / "trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:5]) + "1,2\r\n" + "".join(lines[5:]))
    assert main(["fit", str(trace), "--model", "g_norm", "--epoch", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_toy_command(tmp_path, capsys):
    out = tmp_path / "toy"
    rc = main(["toy", "--out", str(out), "--svg"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ordering fixed < reversed < reversed_momentum: True" in text
    for label in ("fixed", "reversed", "reversed_momentum"):
        assert (out / f"toy_{label}.csv").exists()
    assert (out / "toy.svg").exists()


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
