"""Sawtooth metrics, trace-model fitters, and the similarity sweep."""

import functools
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import reference_impl
from conftest import assert_digest
from sawtoothlab.analysis import (
    DEMO_GRAD_SQUARED,
    DEMO_MOMENTUM,
    DEMO_SECOND_MOMENT_PREV,
    DEMO_TRACKED_GRAD,
    TRACE_MODELS,
    FitResult,
    esp_metrics,
    evaluate_fit,
    fit_dot_dtheta,
    fit_dot_m,
    fit_g_norm,
    fit_m_norm,
    fit_model,
    fit_v_norm,
    nshape_delta,
    nshape_sweep,
    predict_loss_curve,
    window_average,
)
from sawtoothlab.trainer import RunConfig, run


def _trace(epochs, losses):
    return SimpleNamespace(epoch=np.asarray(epochs), batch_loss=np.asarray(losses, dtype=float))


# ---------------------------------------------------------------- metrics


def test_window_average_values():
    np.testing.assert_allclose(window_average([1.0, 2.0, 3.0, 4.0], 2), [1.5, 2.5, 3.5])
    np.testing.assert_allclose(window_average([5.0, 7.0], 1), [5.0, 7.0])
    # a window of 1 is a copy of y, bit for bit: np.convolve sums into +0.0,
    # so it would turn -0.0 into +0.0; the last value is a NaN with a payload
    y = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan, 7.0, 0.0])
    y.view(np.int64)[-1] = 0x7FF8000000000123
    averaged = window_average(y, 1)
    assert averaged is not y and not np.shares_memory(averaged, y)
    np.testing.assert_array_equal(averaged.view(np.int64), y.view(np.int64))
    with pytest.raises(ValueError):
        window_average([1.0], 0)
    # np.convolve would swap a kernel longer than its input and average anyway
    with pytest.raises(ValueError, match="window 3 exceeds series length 2"):
        window_average([1.0, 2.0], 3)


def test_esp_metrics_flat_trace():
    tr = _trace(np.repeat([1, 2], 40), np.full(80, 3.0))
    m1, m2 = esp_metrics(tr)
    assert m1.rise == 0.0 and m1.drop == 0.0 and m1.amplitude == 0.0
    assert np.isnan(m2.drop) and np.isnan(m2.amplitude)


def test_esp_metrics_sawtooth_values():
    # three 40-step epochs; default window is 5 percent of 40 = 2 steps
    i = np.arange(40, dtype=float)
    e1 = 1.0 + 0.1 * i
    e2 = 2.0 + 0.05 * i
    e3 = 3.0 - 0.02 * i
    tr = _trace(np.repeat([1, 2, 3], 40), np.concatenate([e1, e2, e3]))
    m1, m2, m3 = esp_metrics(tr)
    assert m1.loss_start == pytest.approx(1.05)
    assert m1.loss_end == pytest.approx(4.85)
    assert m1.rise == pytest.approx(3.8)
    assert m1.drop == pytest.approx(4.85 - 2.025)
    assert m1.amplitude == pytest.approx((4.85 - 2.025) / 4.85)
    assert m2.drop == pytest.approx(3.925 - 2.99)
    assert m3.rise == pytest.approx(-0.76)
    assert np.isnan(m3.drop)


def test_esp_metrics_explicit_window():
    i = np.arange(40, dtype=float)
    tr = _trace(np.repeat([1], 40), 1.0 + 0.1 * i)
    (m,) = esp_metrics(tr, window=5)
    assert m.loss_start == pytest.approx(np.mean(1.0 + 0.1 * i[:5]))
    assert m.loss_end == pytest.approx(np.mean(1.0 + 0.1 * i[-5:]))
    # window 1 on two-step epochs leaves two averages, too few for a parabola
    m1, m2 = esp_metrics(_trace([1, 1, 2, 2], [3.0, 1.0, 2.0, 5.0]), window=1)
    assert m1.rise == -2.0 and m2.rise == 3.0
    assert m1.curvature == m2.curvature == 0.0
    assert m1.concavity_sign == m2.concavity_sign == 0


def test_esp_metrics_concavity():
    i = np.arange(60, dtype=float)
    hump = -((i - 30.0) ** 2)
    bowl = (i - 30.0) ** 2
    (m_down,) = esp_metrics(_trace(np.ones(60, dtype=int), hump))
    (m_up,) = esp_metrics(_trace(np.ones(60, dtype=int), bowl))
    assert m_down.curvature < 0 and m_down.concavity_sign == -1
    assert m_up.curvature > 0 and m_up.concavity_sign == 1


def test_esp_metrics_skips_short_epochs():
    tr = _trace(
        np.concatenate([np.full(40, 1), np.array([2]), np.full(40, 3)]),
        np.concatenate([np.full(40, 2.0), np.array([9.0]), np.full(40, 1.0)]),
    )
    metrics = esp_metrics(tr)
    assert [m.epoch for m in metrics] == [1, 3]
    # the dropped neighbor means epoch 1 has no boundary to measure into
    assert np.isnan(metrics[0].drop)


def test_esp_metrics_scores_a_partial_last_epoch_with_the_full_window():
    # two 40-step epochs set the default window to 2 for the whole trace; a
    # 3-step last epoch is shorter than two of them and is skipped, where a
    # window of its own (5 percent of 3, so 1) would have scored it
    tr = _trace(
        np.repeat([1, 2, 3], [40, 40, 3]),
        np.concatenate([np.full(40, 2.0), np.full(40, 1.0), [5.0, 9.0, 50.0]]),
    )
    metrics = esp_metrics(tr)
    assert [m.epoch for m in metrics] == [1, 2]
    assert np.isnan(metrics[1].drop)
    # a 4-step last epoch is long enough and is scored with that same window
    tr = _trace(
        np.repeat([1, 2, 3], [40, 40, 4]),
        np.concatenate([np.full(40, 2.0), np.full(40, 1.0), [5.0, 9.0, 50.0, 70.0]]),
    )
    m3 = esp_metrics(tr)[-1]
    assert m3.epoch == 3
    assert m3.loss_start == pytest.approx(7.0) and m3.loss_end == pytest.approx(60.0)


def test_esp_metrics_empty():
    assert esp_metrics(_trace(np.array([], dtype=int), np.array([]))) == []


@pytest.mark.parametrize("window", [0, -3])
@pytest.mark.filterwarnings("error")
def test_esp_metrics_rejects_a_window_below_one_before_any_warning(window):
    tr = _trace(np.repeat([1, 2], 40), np.full(80, 3.0))
    with pytest.raises(ValueError, match="window must be >= 1"):
        esp_metrics(tr, window=window)


# ---------------------------------------------------------------- fitters


def test_fit_g_norm_exact_recovery():
    t = np.arange(300, dtype=float)
    beta2 = 0.999
    y = 1.7 + 0.04 * np.sqrt(1 - beta2) * t
    fit = fit_g_norm(t, y, beta2)
    assert fit.coeffs["offset"] == pytest.approx(1.7, abs=1e-8)
    assert fit.coeffs["slope"] == pytest.approx(0.04, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert not fit.degenerate


def test_fit_m_norm_exact_recovery():
    t = np.arange(300, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = 0.6 * beta1 ** t + 0.02 * np.sqrt(1 - beta2) * t + 0.3
    fit = fit_m_norm(t, y, beta1, beta2)
    assert fit.coeffs["decay_amp"] == pytest.approx(0.6, abs=1e-6)
    assert fit.coeffs["slope"] == pytest.approx(0.02, abs=1e-6)
    assert fit.coeffs["offset"] == pytest.approx(0.3, abs=1e-6)


def test_fit_v_norm_exact_recovery():
    t = np.arange(200, dtype=float)
    beta2 = 0.99
    y = 0.5 + 0.003 * t + 2.0 * (1 - beta2) * t ** 2
    fit = fit_v_norm(t, y, beta2)
    assert fit.coeffs["offset"] == pytest.approx(0.5, abs=1e-6)
    assert fit.coeffs["slope"] == pytest.approx(0.003, abs=1e-6)
    assert fit.coeffs["quad"] == pytest.approx(2.0, abs=1e-6)


def test_fit_dot_m_exact_recovery():
    t = np.arange(300, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = 1.2 * beta1 ** t + 0.05 * np.sqrt(1 - beta2) * t - 0.2
    fit = fit_dot_m(t, y, beta1, beta2)
    assert fit.coeffs["decay_amp"] == pytest.approx(1.2, abs=1e-6)
    assert fit.coeffs["slope"] == pytest.approx(0.05, abs=1e-6)
    assert fit.coeffs["offset"] == pytest.approx(-0.2, abs=1e-6)


def test_fit_dot_dtheta_exact_recovery():
    t = np.arange(1, 401, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = -2.0 * beta1 ** t / t + 0.3 + 1.5 / (t + 3.0)
    fit = fit_dot_dtheta(t, y, beta1, beta2)
    assert fit.coeffs["decay_amp"] == pytest.approx(2.0, abs=1e-6)
    assert fit.coeffs["level"] == pytest.approx(0.3, abs=1e-6)
    assert fit.coeffs["hyperbolic_amp"] == pytest.approx(1.5, abs=1e-6)
    assert fit.coeffs["hyperbolic_shift"] == 3.0
    assert fit.coeffs["slope"] == pytest.approx(0.3 / np.sqrt(1 - beta2), abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_dot_dtheta_tie_prefers_smallest_shift():
    t = np.arange(1, 201, dtype=float)
    y = -1.0 * 0.9 ** t / t + 0.5
    fit = fit_dot_dtheta(t, y, 0.9, 0.999)
    assert fit.coeffs["hyperbolic_shift"] == 0.0
    assert fit.coeffs["hyperbolic_amp"] == pytest.approx(0.0, abs=1e-8)


@functools.lru_cache(maxsize=None)
def _probed_trace():
    return run(RunConfig(num_functions=300, dim=60, problem_seed=3, seed=4,
                         num_epochs=3, tracked_batch=7)).trace


def _alignment_series():
    """Probed-run epochs plus planted series that bind different active sets."""
    trace = _probed_trace()
    for epoch in np.unique(trace.epoch):
        rows = trace.epoch_rows(epoch)
        keep = trace.step[rows] >= 1
        yield trace.step[rows][keep].astype(float), trace.dot_dtheta[rows][keep]
    yield from _planted_series()


def _planted_series():
    t = np.arange(1, 401, dtype=float)
    noise = 0.01 * np.random.default_rng(3).standard_normal(len(t))
    yield t, -2.0 * 0.9 ** t / t + 0.3 + 1.5 / (t + 3.0)
    yield t, -1.0 * 0.9 ** t / t + 0.5
    yield t, 1.5 / (t + 3.0)
    yield t, 0.2 - 0.001 * t + noise


@pytest.mark.parametrize("window", [None, 25])
def test_fit_dot_dtheta_matches_unhoisted_reference(window):
    # the shift-free active sets are solved once; results must not move a bit
    for t, y in _alignment_series():
        fit = fit_dot_dtheta(t, y, 0.9, 0.999, window=window)
        ref = reference_impl.fit_dot_dtheta(t, y, 0.9, 0.999, window=window)
        assert fit.coeffs == ref.coeffs
        assert fit.r_squared == ref.r_squared
        assert fit.residual_norm == ref.residual_norm
        assert fit.notes == ref.notes


FITTERS = {
    "g_norm": lambda t, y, b1, b2, w: fit_g_norm(t, y, b2, window=w),
    "m_norm": lambda t, y, b1, b2, w: fit_m_norm(t, y, b1, b2, window=w),
    "v_norm": lambda t, y, b1, b2, w: fit_v_norm(t, y, b2, window=w),
    "dot_m": lambda t, y, b1, b2, w: fit_dot_m(t, y, b1, b2, window=w),
    "dot_dtheta": lambda t, y, b1, b2, w: fit_dot_dtheta(t, y, b1, b2, window=w),
}


def _model_series(model):
    """Every epoch of a probed run's `model` column, then the planted series."""
    trace = _probed_trace()
    for epoch in np.unique(trace.epoch):
        rows = trace.epoch_rows(epoch)
        t = trace.step[rows].astype(float)
        y = getattr(trace, model)[rows]
        keep = t >= (1.0 if model == "dot_dtheta" else 0.0)
        yield t[keep], y[keep]
    yield from _planted_series()


def _fit_digest(model, window, betas):
    h = hashlib.sha256()
    for beta1, beta2 in betas:
        for t, y in _model_series(model):
            fit = FITTERS[model](t, y, beta1, beta2, window)
            h.update(repr((fit.coeffs, fit.r_squared, fit.residual_norm,
                           bool(fit.degenerate), fit.notes)).encode())
    return h.hexdigest()


# SHA-256 of repr((coeffs, r_squared, residual_norm, degenerate, notes)) over
# _model_series, recorded before the five fitters shared fit_model; the
# flag is taken as a bool because the linear fitters returned numpy bools.
FIT_DIGESTS = {
    ("g_norm", None): {
        "SkylakeX": "7349bbe3fe8e22c1af61708084ce94abe16b9f814d49c454171b54863402dbfd",
        "Haswell": "9d17beb5403a9424213ef2bcd6a2dbd49a10b909c91e64fc54120bb3d853dcbc",
    },
    ("g_norm", 25): {
        "SkylakeX": "407b98b32aa00a5e0924f0b56bd06a28f4c4799e5e34c03187e5eba95702f584",
        "Haswell": "7b8f1f3bb2d78d5267255e9acb41942b7d5a12bf767b635ab9ed4769fc3cebfc",
    },
    ("m_norm", None): {
        "SkylakeX": "91c8e9c89dca57cce357d4b9c08c95ab4cb7db7f82b6883420bab9ef0e71e747",
        "Haswell": "a4c3953564fe94982e0ad48059fdb77151b0843ec5ff310639fa66559d236782",
    },
    ("m_norm", 25): {
        "SkylakeX": "ce8357ba2b86c2b192d0efd93b832bbfa524ce3de5b289fd6902ab3213da8da5",
        "Haswell": "f1863a2cd6341487b2d77781ee9381e47b4bbbc7e73f26684d13dcb403630bb4",
    },
    ("v_norm", None): {
        "SkylakeX": "80aae3285522d7422852c28f0d391b707c407d8b1a52f91609cfbc1811ee85c8",
        "Haswell": "92049adc4940c5108c9ddfdf001530b37bbc806f6a7d7957854403a2e52bc17d",
    },
    ("v_norm", 25): {
        "SkylakeX": "6913ec093415d57d378a8d695887eb3cd2ce927d417769acde53a8d5562786c7",
        "Haswell": "fdf445de70aeb339843f0eb8ed305b220197a72b771af986365bdffcade7efb0",
    },
    ("dot_m", None): {
        "SkylakeX": "3d149d24da0440fed4c90ae3a19df7f33de48f58a7de3452a524b1fcef9b7003",
        "Haswell": "c56fc06026b4770ecf5c576d43bfcef244d3a755469f4105dd2a715cfd5b0608",
    },
    ("dot_m", 25): {
        "SkylakeX": "a71152fdb989d6f8b2a33d62d7e66f0b0bcbda0161341f30f5aa5f8c8ec438df",
        "Haswell": "1143017457f0e4a0cbd9a61faa18f0e4b3203ca472c8d146651c36af1f1c203f",
    },
    ("dot_dtheta", None): {
        "SkylakeX": "710de2d811cf2d91c0729e52689a4cc9f48be30e51d1d6f227bed7199cf802bc",
        "Haswell": "5bab6865fa670b285e75457020d8d4ba79686c648d167e0fc5b38c00d59ccea2",
    },
    ("dot_dtheta", 25): {
        "SkylakeX": "56f41ee4534c74810d69bff95212f93800e7a2b69d9c96b9015f3616c227ee24",
        "Haswell": "8df5ac8c3cc2591fd42f90b1ab3dbebc900ab1e6dd0ba085b966d782d6b91fb1",
    },
}
# The same at beta1 = 0, where the decaying column vanishes from t = 1 on.
# dot_dtheta's two digests were recorded after the change: its fitter used
# to keep the zero column, report degenerate = False and add no note, with
# coefficients a few ulps away from the ones the dropped column gives.
BETA1_ZERO_DIGESTS = {
    ("g_norm", None): {
        "SkylakeX": "72e1ddab17ed3e8273b1f47d1cd0e0461a727bf75cbeffbc5be402f395bce0e9",
        "Haswell": "65745865638308aecc162942e687779d779ed06917ed7490f693f2bbee4eb3ed",
    },
    ("g_norm", 25): {
        "SkylakeX": "52cea76751dc5743d1e5739ce32a393ebd4918749ad13f0f18e1c0813d6f1f7f",
        "Haswell": "7b3c722bf9f451a398277545fbe51142534a3cf858151590ff8ce459bc0ae169",
    },
    ("m_norm", None): {
        "SkylakeX": "f9470e61ba304f68dd7180c25db4a78357da641894705c0fa1c869bfd7c49b82",
        "Haswell": "46beaf0703aeadc626f9f249dce3410f97c4667720d7812c503ec92cf27b1fc8",
    },
    ("m_norm", 25): {
        "SkylakeX": "22f833dad75da1b69b29bcf7bd0d4b4751f84a9baf27cda4345a51ea73e21302",
        "Haswell": "5e0f3f92a9868195d6af557e81042935aedaf6ab8ca6f5d5a28c18cfef3a522d",
    },
    ("v_norm", None): {
        "SkylakeX": "cdb5ee44ad557d71e5672041276c2adc1a9f7d07ee696e99c9e11552923e62f6",
        "Haswell": "ead320b392243f299a50533b8f9ed70507ef468ed2343d320959c44ba2c2916a",
    },
    ("v_norm", 25): {
        "SkylakeX": "54dada7860f74f00eb2cdd5c74c007dbd6e8edd7b927102275a168e2a5ff1fc0",
        "Haswell": "6f82f9da6f5176a21f02404ea1516651f512b135465749bb6a42111fdf4d2f3e",
    },
    ("dot_m", None): {
        "SkylakeX": "4931f6ecdfbbddf83573b5e2bd2272221ac20f4f6ad1d53b7d9be630c7f6f879",
        "Haswell": "477b62357ec619b442e84c4cd679d21464609f059a88d7959d029879cdbaf189",
    },
    ("dot_m", 25): {
        "SkylakeX": "fad8f1f522e6afffa97ffde6b020e0cdbab0558ee86678e111d67183c46cae2c",
        "Haswell": "67d4816acc54991fe109129a07996621b5da4c1166051cba402a55a64c4e9103",
    },
    ("dot_dtheta", None): {
        "SkylakeX": "d52f1c8cff83019aaf7adfe1453a830cb98677e1476013e35c0570611f2a3569",
        "Haswell": "42a4c7c28c52f5eba7528eeb5e688e755bccd2934915b3a378610a80c1876917",
    },
    ("dot_dtheta", 25): {
        "SkylakeX": "2d37a7c6122f878d490a3ac86938880e736f8caa6768a6795b72c6690fe1e494",
        "Haswell": "30339a99c4e571fa34932efe4b8b787891b0b8fd60255b61b43939707a206353",
    },
}


@pytest.mark.parametrize("model, window", list(FIT_DIGESTS))
def test_fit_results_match_recorded_digests(model, window):
    betas = ((0.9, 0.999), (0.9, 1.0))
    assert_digest(_fit_digest(model, window, betas), FIT_DIGESTS[model, window])


@pytest.mark.parametrize("model, window", list(BETA1_ZERO_DIGESTS))
def test_beta1_zero_fit_results_match_recorded_digests(model, window):
    betas = ((0.0, 0.999),)
    assert_digest(_fit_digest(model, window, betas), BETA1_ZERO_DIGESTS[model, window])


@pytest.mark.parametrize("window", [None, 25])
def test_dot_dtheta_at_beta1_zero_flags_its_vanishing_decay_column(window):
    t = np.arange(1, 401, dtype=float)
    fit = fit_dot_dtheta(t, 0.3 + 1.5 / (t + 3.0), 0.0, 0.999, window=window)
    assert fit.degenerate
    assert "degenerate columns fixed at zero: decay_amp" in fit.notes
    assert fit.coeffs["decay_amp"] == 0.0
    assert fit.coeffs["level"] == pytest.approx(0.3, abs=1e-9)
    assert fit.coeffs["hyperbolic_amp"] == pytest.approx(1.5, abs=1e-9)
    assert fit.coeffs["hyperbolic_shift"] == 3.0


def test_fit_dot_dtheta_rejects_small_t():
    t = np.arange(0, 50, dtype=float)
    with pytest.raises(ValueError):
        fit_dot_dtheta(t, np.ones_like(t), 0.9, 0.999)


def test_nonnegative_constraints_bind():
    t = np.arange(200, dtype=float)
    y = 1.0 - 0.01 * t  # wants a negative slope
    fit = fit_dot_m(t, y, 0.9, 0.999)
    assert fit.coeffs["slope"] >= 0.0
    assert fit.coeffs["decay_amp"] >= 0.0


def test_constrained_fit_satisfies_kkt():
    rng = np.random.default_rng(0)
    t = np.arange(250, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = 0.8 * beta1 ** t - 0.004 * t + 0.1 + 0.05 * rng.normal(size=250)
    fit = fit_dot_m(t, y, beta1, beta2)
    X = np.column_stack([beta1 ** t, np.sqrt(1 - beta2) * t, np.ones_like(t)])
    beta = np.array([fit.coeffs["decay_amp"], fit.coeffs["slope"], fit.coeffs["offset"]])
    grad = -2.0 * X.T @ (y - X @ beta)
    scale = 1e-6 * max(1.0, float(np.abs(X.T @ y).max()))
    # free coefficient and any strictly positive constrained one: stationary;
    # a constrained coefficient at zero: increasing it must not help
    for j, constrained in enumerate([True, True, False]):
        if constrained and beta[j] <= 1e-12:
            assert grad[j] >= -scale
        else:
            assert abs(grad[j]) <= scale


def test_unconstrained_fit_matches_lstsq():
    rng = np.random.default_rng(1)
    t = np.arange(150, dtype=float)
    beta2 = 0.95
    y = 2.0 + 0.1 * t + rng.normal(size=150)
    fit = fit_g_norm(t, y, beta2)
    X = np.column_stack([np.ones_like(t), np.sqrt(1 - beta2) * t])
    ref, res, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert fit.coeffs["offset"] == pytest.approx(ref[0], rel=1e-9)
    assert fit.coeffs["slope"] == pytest.approx(ref[1], rel=1e-9)
    assert fit.residual_norm ** 2 == pytest.approx(float(res[0]), rel=1e-9)


@pytest.mark.parametrize("model", ["g_norm", "m_norm", "v_norm"])
def test_unconstrained_models_take_the_plain_lstsq_bits(model):
    # no nonnegative coefficient: the one active set keeps every column
    spec = TRACE_MODELS[model]
    assert not spec.nonneg
    t = np.arange(120, dtype=float)
    y = np.random.default_rng(3).normal(size=120).cumsum()
    fit = fit_model(model, t, y, 0.9, 0.95)
    X = np.column_stack(spec.basis(t, 0.9 if spec.needs_beta1 else None, 0.95))
    ref = np.linalg.lstsq(X, y, rcond=None)[0]
    got = np.array([fit.coeffs[name] for name in spec.coeffs])
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_every_shifted_coefficient_is_constrained():
    # the active sets that clamp it are solved once for the whole grid
    for spec in TRACE_MODELS.values():
        if spec.shift is not None:
            assert spec.coeffs[-1] in spec.nonneg


@pytest.mark.parametrize(
    "model, beta1, window, solves",
    [
        # 4 shift-dependent active sets at each of the 201 shifts, plus the
        # 3 that clamp the shifted column and keep a column to solve for
        ("dot_dtheta", 0.9, None, 4 * 201 + 3),
        ("dot_dtheta", 0.9, 25, 4 * 201 + 3),
        # the decay column vanishes: 2 per shift plus 1 shift-free
        ("dot_dtheta", 0.0, None, 2 * 201 + 1),
        ("dot_m", 0.9, None, 4),
        ("g_norm", 0.9, None, 1),
    ],
)
def test_fit_solve_counts(monkeypatch, model, beta1, window, solves):
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    t, y = next(_planted_series())
    fit_model(model, t, y, beta1, 0.999, window)
    assert len(calls) == solves


@pytest.mark.parametrize("model", list(TRACE_MODELS))
def test_a_window_of_one_is_the_unsmoothed_fit(model):
    # the CLI's default --window 1 fits exactly what no window fits
    t, y = next(_planted_series())
    assert fit_model(model, t, y, 0.9, 0.999, 1) == fit_model(model, t, y, 0.9, 0.999, None)


@pytest.mark.parametrize("model", list(TRACE_MODELS))
@pytest.mark.parametrize("window", [None, 25])
def test_a_constant_series_flags_the_fit_degenerate(model, window):
    # a zero series fits exactly, so r_squared is 1.0 and says nothing
    t = np.arange(1, 401, dtype=float)
    fit = fit_model(model, t, np.zeros_like(t), 0.9, 0.999, window)
    assert fit.degenerate
    assert "the series is constant, so r_squared says nothing" in fit.notes
    assert fit.r_squared == 1.0
    assert all(value == 0.0 for name, value in fit.coeffs.items() if name != "hyperbolic_shift")


def test_windowed_fit_recovers_raw_coefficients():
    # smoothing y and every basis column alike keeps the coefficients on
    # the raw-step model, even for the decaying column
    t = np.arange(300, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = 0.6 * beta1 ** t + 0.02 * np.sqrt(1 - beta2) * t + 0.3
    fit = fit_m_norm(t, y, beta1, beta2, window=7)
    assert fit.coeffs["decay_amp"] == pytest.approx(0.6, abs=1e-6)
    assert fit.coeffs["slope"] == pytest.approx(0.02, abs=1e-6)
    assert fit.coeffs["offset"] == pytest.approx(0.3, abs=1e-6)
    assert any("window-7" in n for n in fit.notes)


def test_windowed_dot_dtheta_recovers_raw_coefficients():
    t = np.arange(1, 401, dtype=float)
    beta1, beta2 = 0.9, 0.999
    y = -2.0 * beta1 ** t / t + 0.3 + 1.5 / (t + 3.0)
    fit = fit_dot_dtheta(t, y, beta1, beta2, window=11)
    assert fit.coeffs["decay_amp"] == pytest.approx(2.0, abs=1e-5)
    assert fit.coeffs["level"] == pytest.approx(0.3, abs=1e-5)
    assert fit.coeffs["hyperbolic_amp"] == pytest.approx(1.5, abs=1e-5)
    assert fit.coeffs["hyperbolic_shift"] == 3.0


def test_window_longer_than_series_rejected():
    t = np.arange(10, dtype=float)
    with pytest.raises(ValueError):
        fit_g_norm(t, np.ones_like(t), 0.999, window=11)
    with pytest.raises(ValueError):
        fit_dot_dtheta(t + 1, np.ones_like(t), 0.9, 0.999, window=11)


@pytest.mark.parametrize("window", [0, -3])
def test_window_below_one_rejected(window):
    # a window below 1 is an error, not a request for no smoothing
    t = np.arange(10, dtype=float)
    with pytest.raises(ValueError, match="window must be >= 1"):
        fit_g_norm(t, np.ones_like(t), 0.999, window=window)
    with pytest.raises(ValueError, match="window must be >= 1"):
        fit_dot_dtheta(t + 1, np.ones_like(t), 0.9, 0.999, window=window)


def test_degenerate_column_dropped_at_beta2_one():
    t = np.arange(100, dtype=float)
    y = np.full_like(t, 2.5)
    fit = fit_g_norm(t, y, 1.0)
    assert fit.degenerate
    assert fit.coeffs["slope"] == 0.0
    assert fit.coeffs["offset"] == pytest.approx(2.5)
    assert any("degenerate" in n for n in fit.notes)


def test_fewer_steps_than_coefficients_leave_the_fit_rank_deficient():
    # two steps cannot pin v_norm's three coefficients, though no column vanishes
    fit = fit_v_norm([0.0, 1.0], [1.0, 2.0], 0.999)
    assert fit.degenerate
    assert fit.notes == ("design matrix is rank deficient; minimum-norm solution",)


def test_dot_dtheta_at_beta2_one_has_no_slope():
    t = np.arange(1, 200, dtype=float)
    y = 0.4 + 1.0 / t
    fit = fit_dot_dtheta(t, y, 0.9, 1.0)
    assert "slope" not in fit.coeffs
    assert fit.degenerate


def test_series_validation():
    with pytest.raises(ValueError):
        fit_g_norm([], [], 0.999)
    with pytest.raises(ValueError):
        fit_g_norm([1.0, 2.0], [1.0], 0.999)
    with pytest.raises(ValueError):
        fit_g_norm([1.0, np.nan], [1.0, 2.0], 0.999)
    with pytest.raises(ValueError):
        fit_m_norm([1.0, 2.0], [1.0, 2.0], beta1=1.0, beta2=0.999)
    with pytest.raises(ValueError):
        fit_g_norm([1.0, 2.0], [1.0, 2.0], beta2=1.5)
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        fit_model("nope", [1.0, 2.0], [1.0, 2.0], 0.9, 0.999)
    unknown = FitResult(model="nope", coeffs={}, r_squared=1.0, residual_norm=0.0,
                        beta1=0.9, beta2=0.999)
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        evaluate_fit(unknown, [1.0, 2.0])


def test_a_missing_beta_is_out_of_range():
    # None is rejected with the range message, not a comparison TypeError
    t = np.arange(1, 20, dtype=float)
    with pytest.raises(ValueError, match=r"beta1 must lie in \[0, 1\), got None"):
        fit_model("m_norm", t, np.ones_like(t), None, 0.999)
    with pytest.raises(ValueError, match=r"beta2 must lie in \[0, 1\], got None"):
        fit_g_norm(t, np.ones_like(t), None)


# planted series of each model, at beta1 = 0.9 and beta2 = 0.999
ROUND_TRIP_SERIES = {
    "g_norm": lambda t: 1.5 + 0.01 * np.sqrt(1 - 0.999) * t,
    "m_norm": lambda t: 0.6 * 0.9 ** t + 0.02 * np.sqrt(1 - 0.999) * t + 0.3,
    "v_norm": lambda t: 0.5 + 0.003 * t + 2.0 * (1 - 0.999) * t ** 2,
    "dot_m": lambda t: 1.2 * 0.9 ** t + 0.05 * np.sqrt(1 - 0.999) * t - 0.2,
    "dot_dtheta": lambda t: -1.0 * 0.9 ** t / t + 0.2 + 0.8 / (t + 5.0),
}


@pytest.mark.parametrize("model", list(ROUND_TRIP_SERIES))
def test_evaluate_fit_round_trip(model):
    t = np.arange(1, 301, dtype=float)
    y = ROUND_TRIP_SERIES[model](t)
    fit = FITTERS[model](t, y, 0.9, 0.999, None)
    np.testing.assert_allclose(evaluate_fit(fit, t), y, atol=1e-8)
    # unsmoothed, the evaluation is the prediction the fit scored
    assert fit.residual_norm == float(np.linalg.norm(y - evaluate_fit(fit, t)))


def _alignment_fit(decay_amp, level, hyp, shift, beta1=0.9):
    return FitResult(
        model="dot_dtheta",
        coeffs={
            "decay_amp": decay_amp,
            "level": level,
            "hyperbolic_amp": hyp,
            "hyperbolic_shift": shift,
        },
        r_squared=1.0,
        residual_norm=0.0,
        beta1=beta1,
        beta2=0.999,
    )


def test_predict_loss_curve_telescopes():
    fit = _alignment_fit(0.0, 2.0, 0.0, 0.0)
    pred = predict_loss_curve(fit, l0=10.0, T=5)
    # each step adds the previous step's fitted alignment; step 0 adds none
    np.testing.assert_allclose(pred, [10.0, 10.0, 12.0, 14.0, 16.0])
    fit2 = _alignment_fit(3.0, 0.1, 0.5, 2.0)
    pred2 = predict_loss_curve(fit2, l0=1.0, T=50)
    increments = evaluate_fit(fit2, np.arange(1, 50, dtype=float))
    manual = 1.0 + np.concatenate([[0.0, 0.0], np.cumsum(increments)[:-1]])
    np.testing.assert_allclose(pred2, manual)


def test_predict_loss_curve_validation():
    with pytest.raises(ValueError):
        predict_loss_curve(_alignment_fit(1, 1, 1, 0), l0=0.0, T=0)
    t = np.arange(10, dtype=float)
    g_fit = fit_g_norm(t, np.ones_like(t), 0.999)
    with pytest.raises(ValueError):
        predict_loss_curve(g_fit, l0=0.0, T=5)


# ---------------------------------------------------------------- similarity


def test_nshape_delta_endpoints():
    m = np.array([1.0, -2.0])
    v_prev = np.array([4.0, 9.0])
    g_sq = np.array([0.25, 16.0])
    np.testing.assert_allclose(nshape_delta(m, v_prev, g_sq, 1.0), -m / np.sqrt(v_prev))
    np.testing.assert_allclose(nshape_delta(m, v_prev, g_sq, 0.0), -m / np.sqrt(g_sq))


def test_nshape_delta_validation():
    with pytest.raises(ValueError):
        nshape_delta([1.0], [1.0, 2.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        nshape_delta([1.0], [-1.0], [1.0], 0.5)
    with pytest.raises(ZeroDivisionError):
        nshape_delta([1.0], [0.0], [1.0], 1.0)


def test_demo_vectors_alignment_values():
    grad = np.array(DEMO_TRACKED_GRAD)
    d0 = nshape_delta(DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED, 0.0)
    assert float(grad @ d0) == pytest.approx(-385.0, abs=1e-9)

    def cos_at(beta2):
        d = nshape_delta(DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED, beta2)
        return float(grad @ d / (np.linalg.norm(grad) * np.linalg.norm(d)))

    assert cos_at(0.0) == pytest.approx(-0.641146, abs=1e-5)
    assert cos_at(0.5) == pytest.approx(0.346005, abs=1e-5)
    assert cos_at(1.0) == pytest.approx(-0.292341, abs=1e-5)


def test_nshape_sweep_demo_is_n_shaped():
    betas, cosines = nshape_sweep(
        DEMO_TRACKED_GRAD, DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED
    )
    assert len(betas) == 101
    assert cosines[0] < 0 and cosines[-1] < 0
    assert cosines.max() > 0
    interior = cosines.argmax()
    assert 0 < interior < 100


def test_nshape_sweep_skips_zero_denominators():
    betas, cosines = nshape_sweep([1.0], [1.0], [1.0], [0.0])
    # beta2 = 0 leaves the denominator empty and is skipped
    assert 0.0 not in betas
    assert len(betas) == 100
    assert len(cosines) == 100
