"""On-disk round trips: trace CSV, epoch metrics CSV, meta sidecar, SVG."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl
from sawtoothlab.analysis import EspMetrics, esp_metrics
from sawtoothlab.trainer import PROBE_COLUMNS, TRACE_COLUMNS, RunConfig, Trace, run, run_toy
from sawtoothlab.traceio import (
    read_trace_csv,
    render_line_chart_svg,
    write_epochs_csv,
    write_meta_json,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def small_result():
    return run(
        RunConfig(
            num_functions=40, dim=20, problem_seed=2, seed=2, num_epochs=2,
            tracked_batch=3, probe_stride=4,
        )
    )


# -0.0, infinities, the subnormal range, the largest double and values whose
# shortest repr needs all 17 significant digits
SPECIAL_FLOATS = (
    -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.30000000000000004, 1.0000000000000002,
    123456789.01234567, 9.8765432109876543e-120,
)
_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
_INTS = st.integers(-(2 ** 63), 2 ** 63 - 1)


def _assert_matches_reference(trace: Trace, tmpdir: Path) -> None:
    """The columnar writer and reader against the row-loop reference."""
    written, expected = tmpdir / "new.csv", tmpdir / "reference.csv"
    write_trace_csv(trace, written)
    reference_impl.write_trace_csv(trace, expected)
    assert written.read_bytes() == expected.read_bytes()
    lf, unterminated = tmpdir / "lf.csv", tmpdir / "unterminated.csv"
    lf.write_bytes(written.read_bytes().replace(b"\r\n", b"\n"))
    unterminated.write_bytes(written.read_bytes()[:-2])
    for path in (written, lf, unterminated):
        back = read_trace_csv(path)
        ref = reference_impl.read_trace_csv(path)
        assert back.probes_enabled == ref.probes_enabled
        for name in TRACE_COLUMNS:
            got, want = getattr(back, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
            # every non-NaN value comes back bit for bit, NaN as NaN
            orig = getattr(trace, name)
            if orig.dtype.kind == "f":
                nan = np.isnan(orig)
                assert np.array_equal(np.isnan(got), nan), name
                got, orig = got[~nan], orig[~nan]
            assert got.tobytes() == orig.tobytes(), name


@st.composite
def _traces(draw):
    n = draw(st.integers(1, 12))
    probeless = draw(st.booleans())
    columns = {}
    for name in TRACE_COLUMNS:
        if name in ("epoch", "step", "global_step"):
            values = draw(st.lists(_INTS, min_size=n, max_size=n))
            columns[name] = np.array(values, dtype=np.int64)
        elif name in PROBE_COLUMNS and probeless:
            columns[name] = np.full(n, np.nan)
        else:
            values = draw(st.lists(_FLOATS, min_size=n, max_size=n))
            columns[name] = np.array(values, dtype=np.float64)
    return Trace(columns, probes_enabled=not probeless)


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_columnar_io_matches_reference_on_arbitrary_traces(trace):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_matches_reference(trace, Path(tmp))


def test_columnar_io_matches_reference_across_write_chunks(tmp_path):
    # long enough to span several write chunks, with strided probe gaps
    rng = np.random.default_rng(7)
    n = 9000
    columns = {
        "epoch": np.repeat(np.arange(3), 3000),
        "step": np.tile(np.arange(3000), 3),
        "global_step": np.arange(n),
    }
    for name in TRACE_COLUMNS[3:]:
        columns[name] = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        if name in PROBE_COLUMNS:
            columns[name][np.arange(n) % 3 != 0] = np.nan
    columns["batch_loss"][[5, 4100, 8191, 8192]] = [np.nan, np.inf, -0.0, 5e-324]
    _assert_matches_reference(Trace(columns, probes_enabled=True), tmp_path)


def test_run_traces_match_reference(small_result, tmp_path):
    _assert_matches_reference(small_result.trace, tmp_path)
    _assert_matches_reference(run_toy("fixed", 0.0, epochs=3).trace, tmp_path)


def test_trace_round_trip_is_exact(small_result, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(small_result.trace, path)
    back = read_trace_csv(path)
    assert len(back) == len(small_result.trace)
    assert back.probes_enabled
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            getattr(back, name), getattr(small_result.trace, name), err_msg=name
        )


def test_probe_gaps_written_as_empty_cells(small_result, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(small_result.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    # step 1 is skipped by the stride of 4: all five probe cells empty
    skipped = lines[2].split(",")
    assert skipped[TRACE_COLUMNS.index("tracked_loss"):] == [""] * 5
    probed = lines[1].split(",")
    assert all(cell != "" for cell in probed)


def test_write_is_idempotent(small_result, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(small_result.trace, p1)
    write_trace_csv(read_trace_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_probeless_trace_reads_back_probeless(tmp_path):
    res = run_toy("fixed", 0.0, epochs=3)
    path = tmp_path / "toy.csv"
    write_trace_csv(res.trace, path)
    back = read_trace_csv(path)
    assert not back.probes_enabled
    np.testing.assert_array_equal(back.batch_loss, res.trace.batch_loss)
    assert np.isnan(back.tracked_loss).all()


HEADER = ",".join(TRACE_COLUMNS) + "\r\n"
GOOD_ROW = "0,1,1,1.5,0.25,0.5,0.125,,,,,\r\n"
MALFORMED_TRACES = {
    "wrong header": "nope,nope\r\n" + GOOD_ROW,
    "reordered header": ",".join(reversed(TRACE_COLUMNS)) + "\r\n" + GOOD_ROW,
    "empty file": "",
    "short row": HEADER + GOOD_ROW + "1,2\r\n",
    "long row": HEADER + GOOD_ROW.replace("\r\n", ",7\r\n"),
    "float in integer column": HEADER + GOOD_ROW.replace("0,1,1,", "0,3.0,1,"),
    "letter in integer column": HEADER + GOOD_ROW.replace("0,1,1,", "x,1,1,"),
    "empty integer cell": HEADER + GOOD_ROW.replace("0,1,1,", "0,,1,"),
    "unparsable float": HEADER + GOOD_ROW.replace("0.25", "0.2.5"),
    "blank line": HEADER + GOOD_ROW + "\r\n" + GOOD_ROW,
    "quoted cell": HEADER + GOOD_ROW.replace("1.5", '"1.5"'),
}


def test_read_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    for case, text in MALFORMED_TRACES.items():
        bad.write_bytes(text.encode())
        with pytest.raises(ValueError):
            read_trace_csv(bad)
            pytest.fail(f"accepted a trace with a {case}")


def test_read_accepts_good_row(tmp_path):
    good = tmp_path / "good.csv"
    good.write_bytes((HEADER + GOOD_ROW).encode())
    trace = read_trace_csv(good)
    assert len(trace) == 1 and trace.g_norm[0] == 0.25
    assert not trace.probes_enabled


def test_non_finite_values_survive_round_trip(tmp_path):
    cfg = RunConfig(
        num_functions=30, dim=10, problem_seed=1, seed=1, num_epochs=2,
        probe=False, tracked_batch=0, divergence_ceiling=1e-3,
    )
    res = run(cfg)
    assert res.diverged
    path = tmp_path / "diverged.csv"
    write_trace_csv(res.trace, path)
    back = read_trace_csv(path)
    assert math.isnan(back.g_norm[-1])


def test_epochs_csv(small_result, tmp_path):
    metrics = esp_metrics(small_result.trace)
    path = tmp_path / "epochs.csv"
    write_epochs_csv(metrics, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("epoch,loss_start,loss_end,rise,drop")
    assert len(lines) == 1 + len(metrics)
    first = lines[1].split(",")
    assert int(first[0]) == metrics[0].epoch
    assert float(first[3]) == metrics[0].rise
    # the last epoch has no successor; its drop is written as nan
    assert "nan" in lines[-1]


_METRICS = st.builds(
    EspMetrics,
    epoch=st.integers(0, 10**6),
    loss_start=_FLOATS,
    loss_end=_FLOATS,
    rise=_FLOATS,
    drop=_FLOATS,
    amplitude=_FLOATS,
    curvature=_FLOATS,
    concavity_sign=st.sampled_from((-1, 0, 1)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_METRICS, max_size=6))
def test_epochs_csv_matches_reference(metrics):
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp) / "new.csv", Path(tmp) / "reference.csv"
        write_epochs_csv(metrics, written)
        reference_impl.write_epochs_csv(metrics, expected)
        assert written.read_bytes() == expected.read_bytes()


def test_run_epochs_csv_matches_reference(small_result, tmp_path):
    metrics = esp_metrics(small_result.trace, window=3)
    write_epochs_csv(metrics, tmp_path / "new.csv")
    reference_impl.write_epochs_csv(metrics, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_meta_json_stable_and_plain(tmp_path):
    cfg = RunConfig(num_functions=30, dim=10, problem_seed=1, seed=1, num_epochs=1,
                    tracked_batch=0)
    meta = {
        "config": cfg,
        "final": np.float64(1.5),
        "count": np.int64(7),
        "curve": np.array([1.0, 2.0]),
    }
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_meta_json(meta, p1)
    write_meta_json(meta, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["config"]["lr"] == 0.06
    assert data["final"] == 1.5
    assert data["count"] == 7
    assert data["curve"] == [1.0, 2.0]
    assert p1.read_text().endswith("\n")


def test_svg_smoke(tmp_path):
    path = tmp_path / "chart.svg"
    x = np.arange(50, dtype=float)
    render_line_chart_svg(
        path,
        [("loss", x, np.sin(x / 5.0)), ("other", x, np.full(50, np.nan))],
        title="demo",
        x_label="step",
        y_label="value",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text
    assert "demo" in text
    # all-NaN series contributes a legend entry but no polyline points
    assert text.count("<polyline") == 1


def test_svg_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    render_line_chart_svg(path, [])
    assert "<svg" in path.read_text()
