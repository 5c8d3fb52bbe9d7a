import numpy as np
import pytest

from scenes import critical_config, single_target_scene, symbol_trials
from ofdmsar.echo import build_channel_matrix, synthesize_echo
from ofdmsar.errors import ConfigurationError, InvalidParameterError
from ofdmsar.tf_filter import (FILTER_KINDS, FilterSpec, apply_tf_filter,
                               channel_mse_analytic, filter_gains)
from ofdmsar.waveform import chi_stats, gen_symbol_grid, make_qam


def test_gain_formulas_elementwise():
    s = np.array([1 + 1j, -3 + 0.5j, 0.25j])
    rf = filter_gains(s, FilterSpec("rf"))
    mf = filter_gains(s, FilterSpec("mf"))
    wf = filter_gains(s, FilterSpec("wf", snr_in_linear=4.0))
    assert np.allclose(rf, 1.0 / s)
    assert np.allclose(mf, np.conj(s))
    assert np.allclose(wf, np.conj(s) / (np.abs(s) ** 2 + 0.25))


def test_filter_spec_takes_each_kind_by_its_one_name():
    # a kind is one of FILTER_KINDS exactly as spelled, not case-folded
    for kind in ("RF", "Mf", "WF", "wiener", ""):
        with pytest.raises(ConfigurationError, match="unknown filter kind"):
            FilterSpec(kind, snr_in_linear=1.0)
    assert FilterSpec("rf").kind == "rf"


def test_gains_zero_on_inactive_cells():
    cfg = critical_config(8, 8)
    mask = np.zeros((8, 8), dtype=bool)
    mask[::2, ::2] = True
    grid = gen_symbol_grid(cfg, make_qam("qam16"), seed=1, mask=mask)
    for kind in FILTER_KINDS:
        spec = FilterSpec(kind, snr_in_linear=2.0 if kind == "wf" else None)
        g = filter_gains(grid, spec)
        assert np.all(g[~mask] == 0)
        assert np.all(g[mask] != 0)
        assert np.all(np.isfinite(g))


def test_filtered_spectrum_real_nonnegative():
    # chi = s * g is real and >= 0 for every alphabet point and filter
    for order in (4, 16, 64, 256):
        s = make_qam(order).points
        for spec in (FilterSpec("rf"), FilterSpec("mf"),
                     FilterSpec("wf", snr_in_linear=3.0)):
            chi = s * filter_gains(s, spec)
            assert np.max(np.abs(chi.imag)) < 1e-14
            assert np.all(chi.real >= 0)


def test_reciprocal_recovers_channel_exactly():
    cfg = critical_config(16, 16)
    scene = single_target_scene(cfg)
    symbols = gen_symbol_grid(cfg, make_qam("qam256"), seed=2)
    echo = synthesize_echo(scene, cfg, symbols)
    yhat = apply_tf_filter(echo, symbols, FilterSpec("rf"))
    h = build_channel_matrix(scene, cfg)
    assert np.max(np.abs(yhat - h)) < 1e-12


def test_matched_filter_scales_by_symbol_power():
    cfg = critical_config(8, 8)
    scene = single_target_scene(cfg)
    symbols = gen_symbol_grid(cfg, make_qam("qam16"), seed=3)
    echo = synthesize_echo(scene, cfg, symbols)
    yhat = apply_tf_filter(echo, symbols, FilterSpec("mf"))
    h = build_channel_matrix(scene, cfg)
    assert np.allclose(yhat, h * np.abs(symbols) ** 2)


def test_apply_tf_filter_shape_mismatch():
    cfg = critical_config(8, 8)
    symbols = gen_symbol_grid(cfg, make_qam("qpsk"), seed=0)
    with pytest.raises(InvalidParameterError):
        apply_tf_filter(np.zeros((8, 9), dtype=complex), symbols,
                        FilterSpec("rf"))


@pytest.mark.parametrize("kind", FILTER_KINDS)
@pytest.mark.parametrize("n", [16, 128])
def test_apply_tf_filter_multiplies_gains_by_echo(n, kind):
    # one operand order on both sides of numpy's 256 KiB temporary-elision
    # threshold, which 128x128 grids pass: a complex product's round-off
    # depends on the order
    cfg = critical_config(n, n)
    symbols = gen_symbol_grid(cfg, make_qam("qam16"), seed=0)
    rng = np.random.default_rng(1)
    echo = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    spec = FilterSpec(kind, snr_in_linear=10.0)
    expected = np.multiply(filter_gains(symbols, spec), echo)
    assert np.array_equal(apply_tf_filter(echo, symbols, spec), expected)


def test_channel_mse_analytic_matches_monte_carlo():
    # E||yhat - H||^2 within 3% of the closed form, all three filters
    snr_db = 5.0
    snr = 10 ** (snr_db / 10)
    cfg = critical_config(16, 16).with_noise(1.0 / snr, snr_in_linear=snr)
    scene = single_target_scene(cfg)
    h = build_channel_matrix(scene, cfg)
    con = make_qam("qam64")
    trials = 400
    grid = symbol_trials(cfg, con, 11, trials)
    rng_noise = np.random.default_rng(12)
    noise = np.sqrt(cfg.noise_var / 2) * (
        rng_noise.standard_normal((trials, 16, 16))
        + 1j * rng_noise.standard_normal((trials, 16, 16)))
    for kind in FILTER_KINDS:
        spec = FilterSpec(kind, snr_in_linear=snr if kind == "wf" else None)
        total = 0.0
        for t in range(trials):
            s = grid[t]
            g = filter_gains(s, spec)
            yhat = (h * s + noise[t]) * g
            total += np.sum(np.abs(yhat - h) ** 2)
        rcs_var = sum(t.rcs_var for t in scene.targets)
        predicted = channel_mse_analytic(cfg, chi_stats(con, spec), rcs_var,
                                         cfg.noise_var)
        assert total / trials == pytest.approx(predicted, rel=0.03)


def test_channel_mse_analytic_noiseless_reciprocal_is_zero():
    cfg = critical_config(8, 8)
    stats = chi_stats(make_qam("qam256"), FilterSpec("rf"))
    assert channel_mse_analytic(cfg, stats, 1.0, 0.0) == 0.0
    with pytest.raises(InvalidParameterError):
        channel_mse_analytic(cfg, stats, -1.0, 0.0)


def test_wiener_gain_limits():
    s = make_qam("qam64").points
    hi = filter_gains(s, FilterSpec("wf", snr_in_linear=1e12))
    assert np.allclose(hi, 1.0 / s, rtol=1e-6)
    lo = filter_gains(s, FilterSpec("wf", snr_in_linear=1e-9))
    assert np.allclose(lo, 1e-9 * np.conj(s), rtol=1e-6)
