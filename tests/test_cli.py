"""Command-line front end, exercised in-process through main()."""

import numpy as np
import pytest

from sawtoothlab.cli import _resolve_spec_path, main
from sawtoothlab.specfile import load_spec

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
