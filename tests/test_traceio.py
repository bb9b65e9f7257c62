"""On-disk round trips: trace CSV, epoch metrics CSV, meta sidecar, SVG."""

import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_impl
from sawtoothlab.analysis import EspMetrics, esp_metrics
from sawtoothlab.trainer import PROBE_COLUMNS, TRACE_COLUMNS, RunConfig, Trace, run, run_toy
from sawtoothlab.traceio import (
    read_trace_csv,
    render_line_chart_svg,
    write_columns,
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


def _chunk_spanning_trace() -> Trace:
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
    return Trace(columns, probes_enabled=True)


def test_columnar_io_matches_reference_across_write_chunks(tmp_path):
    _assert_matches_reference(_chunk_spanning_trace(), tmp_path)


def _assert_epoch_reads_match_the_full_read(trace: Trace, tmpdir: Path) -> None:
    """Each epoch's read against the full read's epoch_rows slice, bit for bit."""
    written, lf = tmpdir / "trace.csv", tmpdir / "lf.csv"
    write_trace_csv(trace, written)
    lf.write_bytes(written.read_bytes().replace(b"\r\n", b"\n"))
    for path in (written, lf):
        full = read_trace_csv(path)
        epochs = sorted(set(full.epoch.tolist()))
        # an epoch no row holds reads back as an empty trace
        absent = next(e for e in itertools.count() if e not in epochs)
        for epoch in epochs + [absent]:
            part = read_trace_csv(path, epoch=epoch)
            rows = full.epoch_rows(epoch)
            assert len(part) == len(rows), epoch
            for name in TRACE_COLUMNS:
                got, want = getattr(part, name), getattr(full, name)[rows]
                assert got.dtype == want.dtype, (epoch, name)
                assert got.tobytes() == want.tobytes(), (epoch, name)
            # probes_enabled describes the rows read
            probed = any(not np.isnan(getattr(full, name)[rows]).all() for name in PROBE_COLUMNS)
            assert part.probes_enabled == probed, epoch


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_epoch_reads_match_the_full_read_on_arbitrary_traces(trace):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_epoch_reads_match_the_full_read(trace, Path(tmp))


def test_epoch_reads_match_the_full_read_across_write_chunks(tmp_path):
    _assert_epoch_reads_match_the_full_read(_chunk_spanning_trace(), tmp_path)


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


def test_read_columns_share_one_buffer(small_result, tmp_path):
    # each column is a view of the loaded table, not a copy of it
    path = tmp_path / "trace.csv"
    write_trace_csv(small_result.trace, path)
    back = read_trace_csv(path)
    table = getattr(back, TRACE_COLUMNS[0]).base
    assert table is not None and table.dtype.names == TRACE_COLUMNS
    for name in TRACE_COLUMNS:
        assert np.shares_memory(table, getattr(back, name)), name


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


@pytest.mark.parametrize("epoch", [None, 0])
@pytest.mark.parametrize(
    "case, message",
    [
        ("short row", "line 3 has 2 cells, not 12"),
        ("long row", "line 2 has 13 cells, not 12"),
        ("blank line", "blank line at line 3"),
    ],
)
def test_both_reads_name_the_file_line_of_a_misshapen_row(tmp_path, case, message, epoch):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(MALFORMED_TRACES[case].encode())
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}") + "$"):
        read_trace_csv(bad, epoch=epoch)


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
@example([])
# integral floats, as from an epoch too short for a curvature fit: ints read
# 3 and floats 0.0, as the reference's str(int) and repr(float) write them
@example(
    [
        EspMetrics(
            epoch=3, loss_start=2.0, loss_end=1.0, rise=-1.0, drop=float("nan"),
            amplitude=float("nan"), curvature=0.0, concavity_sign=0,
        )
    ]
)
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


def _column(draw, n: int, values) -> np.ndarray:
    # a drawn pool of values repeated to length n, so a table can span
    # several write chunks without drawing every cell
    pool = draw(st.lists(values, min_size=1, max_size=8))
    return np.resize(np.array(pool, dtype=np.int64 if values is _INTS else np.float64), n)


@st.composite
def _tables(draw):
    n = draw(st.one_of(st.integers(0, 4), st.integers(250, 520)))
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=5), min_size=1,
                          max_size=4, unique=True))
    columns = {name: _column(draw, n, draw(st.sampled_from((_INTS, _FLOATS)))) for name in names}
    return columns, tuple(draw(st.sets(st.sampled_from(names))))


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_write_columns_matches_the_csv_module(table):
    # int and float columns, zero to several chunks of rows, NaN blanking
    # on any subset of the columns (one column included, where csv quotes)
    columns, blank_nan = table
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp) / "new.csv", Path(tmp) / "reference.csv"
        write_columns(written, columns, blank_nan)
        reference_impl.write_columns(expected, columns, blank_nan)
        assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("blank_nan", [(), ("x",), ("x", "k")])
def test_write_columns_special_values(tmp_path, blank_nan):
    floats = np.array(SPECIAL_FLOATS)
    ints = np.resize(np.array([-(2 ** 63), -1, 0, 7, 2 ** 63 - 1]), len(floats))
    for columns in ({"k": ints, "x": floats}, {"x": floats}, {"k": ints[:0], "x": floats[:0]}):
        write_columns(tmp_path / "new.csv", columns, blank_nan)
        reference_impl.write_columns(tmp_path / "reference.csv", columns, blank_nan)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == b"k,x\r\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_overlay_and_nshape_tables_match_their_csv_module_loops(data):
    n = data.draw(st.integers(0, 300))
    t, y, fitted = (_column(data.draw, n, _FLOATS) for _ in range(3))
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp) / "new.csv", Path(tmp) / "reference.csv"
        write_columns(written, {"t": t, "observed": y, "fitted": fitted})
        reference_impl.write_overlay_csv(expected, t, y, fitted)
        assert written.read_bytes() == expected.read_bytes()
        write_columns(written, {"beta2": t, "cosine": y})
        reference_impl.write_nshape_csv(expected, t, y)
        assert written.read_bytes() == expected.read_bytes()


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
    # every value type a meta dict can hold, against bytes written by the
    # recursive walk that json's default hook replaced
    rich = {
        "config": RunConfig(num_functions=4, dim=3, num_epochs=1, tracked_batch=0,
                            x_init=np.array([0.5, -0.0, 3.0])),
        "pair": (1, 2.5),
        "i32": np.int32(-3),
        "f32": np.float32(0.1),
        "u8": np.uint8(255),
        "grid": np.array([[np.nan, np.inf], [-np.inf, -0.0]]),
        "empty": np.array([]),
        "metrics": [EspMetrics(epoch=1, loss_start=1.5, loss_end=np.float64(2.0), rise=0.5,
                               drop=math.nan, amplitude=np.float32(0.25), curvature=-0.0,
                               concavity_sign=np.int64(-1))],
    }
    write_meta_json(rich, p1)
    assert p1.read_bytes() == RICH_META_JSON


RICH_META_JSON = b"""\
{
  "config": {
    "batch_size": 1,
    "beta1": 0.9,
    "beta2": 0.999,
    "bias_correction": true,
    "dim": 3,
    "divergence_ceiling": 1000000.0,
    "epoch_start_probe_epoch": null,
    "epsilon": 1e-08,
    "initial_shuffle": false,
    "lr": 0.06,
    "num_epochs": 1,
    "num_functions": 4,
    "optimizer": "adam",
    "policy": "shuffle",
    "probe": true,
    "probe_stride": 1,
    "problem_seed": 13,
    "seed": 12,
    "tracked_batch": 0,
    "weight_decay": 0.0,
    "x_init": [
      0.5,
      -0.0,
      3.0
    ]
  },
  "empty": [],
  "f32": 0.10000000149011612,
  "grid": [
    [
      NaN,
      Infinity
    ],
    [
      -Infinity,
      -0.0
    ]
  ],
  "i32": -3,
  "metrics": [
    {
      "amplitude": 0.25,
      "concavity_sign": -1,
      "curvature": -0.0,
      "drop": NaN,
      "epoch": 1,
      "loss_end": 2.0,
      "loss_start": 1.5,
      "rise": 0.5
    }
  ],
  "pair": [
    1,
    2.5
  ],
  "u8": 255
}
"""


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


def test_svg_escapes_its_text(tmp_path):
    path = tmp_path / "chart.svg"
    x = np.arange(5, dtype=float)
    render_line_chart_svg(path, [("lr<1 & b", x, x)], title="a&b", x_label="t > 0", y_label="<y>")
    # parse raises on a file that is not well-formed XML
    root = ElementTree.parse(path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("lr<1 & b", "a&b", "t > 0", "<y>"):
        assert text in texts


def test_svg_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    render_line_chart_svg(path, [])
    assert "<svg" in path.read_text()
    # one point spans no range on either axis; each axis then spans one unit
    render_line_chart_svg(path, [("one", [3.0], [2.0])])
    text = path.read_text()
    assert '<polyline points="64.00,436.00"' in text
    labels = re.findall(r'text-anchor="(?:middle|end)">([^<]*)</text>', text)
    assert labels == ["3", "4", "2", "3"]


def _polyline_points(path):
    return [len(pts.split()) for pts in re.findall(r'<polyline points="([^"]*)"', path.read_text())]


def test_svg_draws_at_most_2000_points_per_series(tmp_path):
    long_x = np.arange(10_000, dtype=float)
    short_x = np.arange(2_000, dtype=float)
    render_line_chart_svg(
        tmp_path / "chart.svg", [("long", long_x, np.sin(long_x)), ("short", short_x, short_x)]
    )
    # every 5th point of the long series; the 2,000-point series is drawn whole
    assert _polyline_points(tmp_path / "chart.svg") == [2000, 2000]


def test_svg_strides_before_dropping_non_finite_points(tmp_path):
    x = np.arange(4_001, dtype=float)
    y = np.where(x % 2 == 0, np.nan, x)
    render_line_chart_svg(tmp_path / "chart.svg", [("odd", x, y), ("all", x, x)])
    # the stride of 3 takes points 0, 3, 6, ...; only the odd ones among them are finite
    assert _polyline_points(tmp_path / "chart.svg") == [667, 1334]
