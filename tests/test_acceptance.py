"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test is written against the behavior alone and prints nothing on
success; pytest -v gives the per-claim pass/fail line. The fixed-order
suppression test (02) encodes the claimed bound literally and currently
fails: under a frozen order this testbed settles into a period-2 epoch
cycle whose boundary drops sit at roughly half the shuffle scale, well
above the claimed one-fifth. The bound is asserted anyway rather than
loosened; the analysis lives with the reviewer notes, not in the package.
"""

import numpy as np
import pytest

from sawtoothlab.analysis import (
    DEMO_GRAD_SQUARED,
    DEMO_MOMENTUM,
    DEMO_SECOND_MOMENT_PREV,
    DEMO_TRACKED_GRAD,
    esp_metrics,
    evaluate_fit,
    fit_dot_dtheta,
    fit_dot_m,
    fit_g_norm,
    fit_m_norm,
    fit_v_norm,
    nshape_delta,
    nshape_sweep,
    predict_loss_curve,
)
from sawtoothlab.optim import AdamConfig, OptimizerState, adam_step, rmsprop_step
from sawtoothlab.problem import Batch, batch_grad, batch_loss, generate_quadratic
from sawtoothlab.schedule import EpochSchedule, boundary_overlap_mc
from sawtoothlab.traceio import read_trace_csv, write_trace_csv
from sawtoothlab.trainer import (
    TRACE_COLUMNS,
    RunConfig,
    oscillation_amplitude,
    run,
    run_toy,
)

from conftest import REDUCED, REFERENCE

BAND = range(2, 9)  # epochs whose rises and drops are scored


def _band_metrics(result):
    by_epoch = {m.epoch: m for m in esp_metrics(result.trace)}
    return [by_epoch[e] for e in BAND]


@pytest.fixture(scope="module")
def shuffle_mean_drop(reference_run):
    drops = [m.drop for m in _band_metrics(reference_run.result)]
    return float(np.mean(drops))


def _policy_run(policy):
    return run(RunConfig(policy=policy, probe=False, **REFERENCE))


@pytest.fixture(scope="module")
def fixed_run():
    return _policy_run("fixed")


@pytest.fixture(scope="module")
def replacement_run():
    return _policy_run("replacement")


@pytest.fixture(scope="module")
def reverse_run():
    return _policy_run("reverse")


def test_01_sawtooth_under_fresh_shuffling(reference_run, reduced_run):
    for m in _band_metrics(reference_run.result):
        assert m.rise > 0, f"epoch {m.epoch} rise {m.rise:.4f} not positive"
        assert m.drop > 0, f"epoch {m.epoch} drop {m.drop:.4f} not positive"
    assert reference_run.seconds < 120, f"run took {reference_run.seconds:.1f}s"
    for m in _band_metrics(reduced_run.result):
        assert m.rise > 0, f"reduced epoch {m.epoch} rise {m.rise:.4f} not positive"
        assert m.drop > 0, f"reduced epoch {m.epoch} drop {m.drop:.4f} not positive"
    assert reduced_run.seconds < 10, f"reduced run took {reduced_run.seconds:.1f}s"


def test_02_frozen_order_suppresses_sawtooth(fixed_run, shuffle_mean_drop):
    mean_abs = float(np.mean([abs(m.drop) for m in _band_metrics(fixed_run)]))
    ratio = mean_abs / shuffle_mean_drop
    assert ratio < 0.2, (
        f"frozen-order mean |drop| {mean_abs:.4f} is {ratio:.3f} of the "
        f"shuffle mean drop {shuffle_mean_drop:.4f}, not under 0.2"
    )


def test_03_replacement_sampling_suppresses_sawtooth(replacement_run, shuffle_mean_drop):
    mean_abs = float(np.mean([abs(m.drop) for m in _band_metrics(replacement_run)]))
    ratio = mean_abs / shuffle_mean_drop
    assert ratio < 0.2, (
        f"replacement mean |drop| {mean_abs:.4f} is {ratio:.3f} of the "
        f"shuffle mean drop {shuffle_mean_drop:.4f}, not under 0.2"
    )


def test_04_reversed_order_amplifies_sawtooth(reverse_run, shuffle_mean_drop):
    # the reversed schedule flips the sawtooth phase, so the boundary move
    # is scored by magnitude; the 1.5x multiplier is the documented reading
    # of "significantly larger"
    mean_abs = float(np.mean([abs(m.drop) for m in _band_metrics(reverse_run)]))
    ratio = mean_abs / shuffle_mean_drop
    assert ratio >= 1.5, (
        f"reversed-order mean |drop| {mean_abs:.4f} is only {ratio:.3f} of the "
        f"shuffle mean drop {shuffle_mean_drop:.4f}"
    )


def test_05_smaller_beta2_exacerbates_amplitude():
    amplitudes = {}
    for beta2 in (0.999, 0.95, 0.9):
        result = run(RunConfig(beta2=beta2, probe=False, **REDUCED))
        amps = [m.amplitude for m in _band_metrics(result)]
        amplitudes[beta2] = float(np.mean(amps))
    assert amplitudes[0.999] <= amplitudes[0.95] <= amplitudes[0.9], (
        f"normalized amplitude not monotone as beta2 falls: {amplitudes}"
    )


def test_06_low_beta2_diverges_and_epsilon_stabilizes(reference_run):
    diverged = run(RunConfig(beta2=0.7, probe=False, **REFERENCE))
    assert diverged.diverged, "beta2=0.7 run was expected to be flagged diverged"
    rescued = run(RunConfig(beta2=0.7, epsilon=1e-5, probe=False, **REFERENCE))
    assert not rescued.diverged
    assert len(rescued.epoch_mean_loss) == REFERENCE["num_epochs"]
    assert np.isfinite(rescued.trace.batch_loss).all()
    baseline = reference_run.result.final_mean_loss
    assert rescued.final_mean_loss > baseline, (
        f"stabilized run final loss {rescued.final_mean_loss:.4f} did not stay "
        f"above the baseline {baseline:.4f}"
    )


def test_07_rmsprop_shows_subtle_late_epoch_rise():
    result = run(
        RunConfig(optimizer="rmsprop", probe=False, **{**REFERENCE, "num_epochs": 10})
    )
    assert not result.diverged
    by_epoch = {m.epoch: m for m in esp_metrics(result.trace)}
    last = by_epoch[10]
    ratio = last.rise / last.loss_start
    assert 0.02 <= ratio <= 0.30, (
        f"epoch-10 relative rise {ratio:.4f} outside [0.02, 0.30]"
    )


def test_08_toy_sequencing_ordering_is_strict():
    amp_fixed = oscillation_amplitude(run_toy("fixed", 0.0).trace)
    amp_reversed = oscillation_amplitude(run_toy("reversed", 0.0).trace)
    amp_adaptive = oscillation_amplitude(run_toy("reversed", 0.9).trace)
    assert amp_fixed < amp_reversed < amp_adaptive, (
        f"amplitudes not strictly ordered: fixed={amp_fixed:.6f}, "
        f"reversed={amp_reversed:.6f}, reversed+momentum={amp_adaptive:.6f}"
    )


def test_09_similarity_sign_pattern_and_endpoint():
    grad = np.array(DEMO_TRACKED_GRAD)

    def cos_at(beta2):
        d = nshape_delta(DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED, beta2)
        return float(grad @ d / (np.linalg.norm(grad) * np.linalg.norm(d)))

    assert cos_at(0.0) < 0
    assert cos_at(0.5) > 0
    assert cos_at(1.0) < 0
    delta0 = nshape_delta(DEMO_MOMENTUM, DEMO_SECOND_MOMENT_PREV, DEMO_GRAD_SQUARED, 0.0)
    dot0 = float(grad @ delta0)
    assert abs(dot0 - (-385.0)) <= 1e-9, f"endpoint dot product {dot0!r}"


def test_10_boundary_overlap_matches_closed_form():
    mean, se = boundary_overlap_mc(10000, 100, trials=100000)
    assert abs(mean - 1.0) <= 3.0 * se, (
        f"overlap {mean:.5f} +/- {se:.5f} is {abs(mean - 1.0) / se:.2f} "
        "standard errors from 1.0"
    )


def test_11_property_suite():
    # gradients match central differences
    problem = generate_quadratic(3, 50, 20)
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    batch = Batch(np.arange(0, 50, 7))
    g = batch_grad(problem, batch, x)
    h = 1e-5
    for j in range(20):
        e = np.zeros(20)
        e[j] = h
        fd = (batch_loss(problem, batch, x + e) - batch_loss(problem, batch, x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    # every fitter recovers planted coefficients to 1e-6
    t = np.arange(1, 301, dtype=float)
    b1, b2 = 0.9, 0.999
    checks = [
        (fit_g_norm(t, 1.7 + 0.04 * np.sqrt(1 - b2) * t, b2),
         {"offset": 1.7, "slope": 0.04}),
        (fit_m_norm(t, 0.6 * b1 ** t + 0.02 * np.sqrt(1 - b2) * t + 0.3, b1, b2),
         {"decay_amp": 0.6, "slope": 0.02, "offset": 0.3}),
        (fit_v_norm(t, 0.5 + 0.003 * t + 2.0 * (1 - b2) * t ** 2, b2),
         {"offset": 0.5, "slope": 0.003, "quad": 2.0}),
        (fit_dot_m(t, 1.2 * b1 ** t + 0.05 * np.sqrt(1 - b2) * t - 0.2, b1, b2),
         {"decay_amp": 1.2, "slope": 0.05, "offset": -0.2}),
        (fit_dot_dtheta(t, -2.0 * b1 ** t / t + 0.3 + 1.5 / (t + 3.0), b1, b2),
         {"decay_amp": 2.0, "level": 0.3, "hyperbolic_amp": 1.5, "hyperbolic_shift": 3.0}),
    ]
    for fit, expected in checks:
        for name, value in expected.items():
            assert fit.coeffs[name] == pytest.approx(value, abs=1e-6), (
                f"{fit.model}.{name}"
            )

    # the momentum-free, uncorrected run of the main optimizer IS the
    # squared-gradient normalizer, bit for bit
    cfg = AdamConfig(lr=0.05, beta1=0.0, beta2=0.99, epsilon=1e-8, bias_correction=False)
    s1, s2 = OptimizerState.fresh(5), OptimizerState.fresh(5)
    rng = np.random.default_rng(8)
    for _ in range(200):
        grad = rng.normal(size=5)
        d1 = adam_step(s1, cfg, grad)
        d2 = rmsprop_step(s2, cfg, grad)
        np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1.v, s2.v)

    # permutation completeness and reverse involution
    sched = EpochSchedule("shuffle", 31, 1, seed=2)
    order = np.concatenate([b.indices for b in sched.peek_epoch_batches()])
    np.testing.assert_array_equal(np.sort(order), np.arange(31))
    rev = EpochSchedule("reverse", 31, 1, seed=2)
    epochs = []
    for _ in range(3):
        epochs.append(np.concatenate([b.indices for b in rev.peek_epoch_batches()]))
        for _ in range(31):
            rev.next_batch()
    np.testing.assert_array_equal(epochs[1], epochs[0][::-1])
    np.testing.assert_array_equal(epochs[2], epochs[0])

    # written traces read back bit-identically
    small = run(RunConfig(num_functions=40, dim=20, problem_seed=2, seed=2,
                          num_epochs=2, tracked_batch=3))
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(small.trace, path)
        back = read_trace_csv(path)
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                getattr(back, name), getattr(small.trace, name), err_msg=name
            )

    # the predicted loss curve telescopes the fitted alignment exactly
    fit = checks[-1][0]
    T = 200
    pred = predict_loss_curve(fit, l0=5.0, T=T)
    increments = evaluate_fit(fit, np.arange(1, T, dtype=float))
    manual = np.full(T, 5.0)
    manual[2:] += np.cumsum(increments)[:-1]
    np.testing.assert_allclose(pred, manual, atol=1e-9)


def test_12_fitted_trace_models_take_documented_shapes(reference_run):
    trace = reference_run.result.trace
    cfg = reference_run.result.config
    window = 250

    rows4 = trace.epoch_rows(4)
    t4 = trace.step[rows4].astype(float)
    g_fit = fit_g_norm(t4, trace.g_norm[rows4], cfg.beta2, window=window)
    assert g_fit.coeffs["slope"] > 0, f"gradient-norm slope {g_fit.coeffs['slope']:.6g}"
    assert g_fit.r_squared > 0.5, f"gradient-norm fit r2 {g_fit.r_squared:.3f}"

    m_fit = fit_m_norm(t4, trace.m_norm[rows4], cfg.beta1, cfg.beta2, window=window)
    assert m_fit.coeffs["decay_amp"] > 0, (
        f"momentum-norm boundary spike {m_fit.coeffs['decay_amp']:.6g}"
    )
    assert m_fit.r_squared > 0.5, f"momentum-norm fit r2 {m_fit.r_squared:.3f}"

    rows5 = trace.epoch_rows(5)
    t5 = trace.step[rows5].astype(float)
    keep = t5 >= 1.0
    d_fit = fit_dot_dtheta(
        t5[keep], trace.dot_dtheta[rows5][keep], cfg.beta1, cfg.beta2, window=window
    )
    start = float(evaluate_fit(d_fit, np.array([1.0]))[0])
    end = float(evaluate_fit(d_fit, np.array([float(t5[keep].max())]))[0])
    assert start < 0, f"alignment model at t=1 is {start:.6g}, expected negative"
    assert end > 0, f"alignment model at the last step is {end:.6g}, expected positive"
    assert d_fit.coeffs["level"] >= 0, "long-run level must be nonnegative"
    assert d_fit.r_squared > 0.5, f"alignment fit r2 {d_fit.r_squared:.3f}"
