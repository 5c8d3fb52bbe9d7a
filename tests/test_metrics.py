import math

import numpy as np
import pytest

from scenes import critical_config, single_target_scene, target_at_bins
from ofdmsar.errors import InvalidParameterError, MeasurementError
from ofdmsar.metrics import (SINC_3DB_WIDTH_BINS, MetricsReport,
                             analytic_point_metrics, doppler_support,
                             ideal_reference_image, identity_residual, islr,
                             measure_mainlobe_width, nmse,
                             pedestal_level, pel, snr_out, target_bin,
                             theoretical_resolutions)
from ofdmsar.rd_imaging import range_compress
from ofdmsar.scene import Scene
from ofdmsar.tf_filter import FilterSpec
from ofdmsar.waveform import FilterStats, chi_stats, make_qam


def test_theoretical_resolutions():
    cfg = critical_config(64, 64)
    r_bar = 40 * cfg.range_pitch_m
    rho_r, rho_a = theoretical_resolutions(cfg, r_bar)
    assert rho_r == cfg.range_pitch_m
    v = cfg.platform.speed_mps
    assert rho_a == pytest.approx(
        v / (2 * cfg.azimuth_rate_at(r_bar) * cfg.aperture_time_s), rel=1e-12)


def test_target_bin_rounds_and_wraps():
    cfg = critical_config(16, 16)
    assert target_bin(target_at_bins(cfg, 8, 3), cfg) == (8, 3)
    assert target_bin(target_at_bins(cfg, 19.4, 17.6), cfg) == (3, 2)


def test_ideal_reference_image_single_target():
    cfg = critical_config(32, 32)
    scene = single_target_scene(cfg, k_bin=10, m_bin=20)
    ideal = ideal_reference_image(scene, cfg)
    t = scene.targets[0]
    r_bar = t.mean_range_m(cfg.platform)
    alpha = np.exp(-4j * np.pi * r_bar / cfg.wavelength_m)
    # on-grid target: exact sqrt(NM) alpha at its bin, zero elsewhere
    assert ideal[10, 20] == pytest.approx(32 * alpha, rel=1e-9)
    off = np.abs(ideal.copy())
    off[10, 20] = 0.0
    assert np.max(off) < 1e-9
    with pytest.raises(InvalidParameterError):
        ideal_reference_image(scene, cfg, amplitudes=np.ones(2, dtype=complex))


@pytest.mark.parametrize("k_bin", [10.5, 10.25, 9.75, 31.6, 40.3])
def test_ideal_range_factor_is_the_range_compressed_ramp(k_bin):
    # off the bin grid, the ideal image's range profile is what range
    # compression makes of the target's subcarrier ramp
    # exp(-j 2 pi n k_q / N): the N-point Dirichlet kernel, not a sinc,
    # also next to the grid's edge (31.6) and past it (40.3 is bin 8.3)
    cfg = critical_config(32, 32)
    target = target_at_bins(cfg, k_bin, 20)
    scene = Scene(targets=(target,),
                  extent=(target.x_m - 100, target.x_m + 100,
                          target.y_m - 100, target.y_m + 100))
    n = cfg.n_subcarriers
    k_q = target.mean_range_m(cfg.platform) / cfg.range_pitch_m
    alpha = np.exp(-4j * np.pi * target.mean_range_m(cfg.platform)
                   / cfg.wavelength_m)
    ramp = np.exp(-2j * np.pi * np.arange(n) * k_q / n)[:, None]
    compressed = range_compress(np.repeat(ramp, 32, axis=1), cfg)[:, 0]
    column = ideal_reference_image(scene, cfg)[:, 20]
    # the on-bin azimuth factor is sinc(0) = 1, and sqrt(M) scales it
    np.testing.assert_allclose(column, math.sqrt(32) * alpha * compressed,
                               rtol=0, atol=1e-12 * math.sqrt(32 * 32))
    offset = (np.arange(n) - k_q + n / 2) % n - n / 2
    assert np.max(np.abs(column / (32 * alpha) - np.sinc(offset))) > 0.01


def test_sinc_width_constant():
    # the -3 dB width of sinc(x) is 0.886 bins; measure it on a dense grid
    x = np.linspace(-8, 8, 4097)
    profile = np.abs(np.sinc(x))
    level = 1 / math.sqrt(2)
    above = profile >= level
    width = (np.max(x[above]) - np.min(x[above]))
    assert width == pytest.approx(SINC_3DB_WIDTH_BINS, abs=0.01)
    assert SINC_3DB_WIDTH_BINS == pytest.approx(0.8858929, abs=1e-6)


def test_measure_mainlobe_width_pure_tone():
    # the DFT of a rectangular window is a Dirichlet kernel whose -3 dB
    # width matches the sinc constant
    n = 256
    k0 = 77
    spectrum = np.abs(np.fft.fft(np.exp(2j * np.pi * k0 * np.arange(n) / n)))
    width = measure_mainlobe_width(spectrum, interpolate=32, peak_bin=k0)
    assert width == pytest.approx(SINC_3DB_WIDTH_BINS, rel=0.01)


def test_measure_mainlobe_width_off_grid_peak():
    # complex samples with centered spectral content interpolate exactly
    # even when the peak sits between bins
    n = 256
    k0 = 77.37
    freqs = np.arange(n) - n // 2
    k_axis = np.arange(n)
    profile = np.exp(2j * np.pi * np.outer(freqs, k_axis - k0) / n).sum(axis=0)
    width = measure_mainlobe_width(profile, interpolate=32, peak_bin=77)
    assert width == pytest.approx(SINC_3DB_WIDTH_BINS, rel=0.02)


def test_measure_mainlobe_width_anchored_to_known_bin():
    # two exact replicas: the measurement takes the lobe at the stated bin
    n = 256
    k = np.arange(n)
    lobe = np.abs(np.sinc((k - 64 + n / 2) % n - n / 2))
    profile = lobe + np.roll(lobe, 128)
    width = measure_mainlobe_width(profile, peak_bin=64)
    assert width == pytest.approx(SINC_3DB_WIDTH_BINS, rel=0.05)
    assert measure_mainlobe_width(profile, peak_bin=192) == \
        pytest.approx(width, rel=1e-6)
    with pytest.raises(InvalidParameterError):
        measure_mainlobe_width(profile, peak_bin=500)


def test_measure_mainlobe_width_errors():
    with pytest.raises(InvalidParameterError):
        measure_mainlobe_width(np.ones((4, 4)), peak_bin=0)
    with pytest.raises(InvalidParameterError):
        measure_mainlobe_width(np.ones(3), peak_bin=0)
    with pytest.raises(InvalidParameterError):
        measure_mainlobe_width(np.ones(16), interpolate=0, peak_bin=0)
    with pytest.raises(MeasurementError):
        measure_mainlobe_width(np.zeros(16), peak_bin=8)
    with pytest.raises(MeasurementError, match="too flat"):
        measure_mainlobe_width(np.ones(16), peak_bin=8)


def test_islr_synthetic():
    power = np.zeros((8, 8))
    power[4, 4] = 10.0
    power[0, 0] = 1.0
    power[7, 3] = 1.0
    assert islr(power.sum(), power[3:6, 3:6]) == pytest.approx(0.2)
    # a single-bin mainlobe
    power[4, 5] = 2.0
    assert islr(power.sum(), power[4, 4]) == pytest.approx(0.4)


def test_islr_validation():
    with pytest.raises(InvalidParameterError):
        islr(-1.0, np.ones((3, 3)))
    with pytest.raises(InvalidParameterError):
        islr(9.0, -np.ones((3, 3)))
    with pytest.raises(InvalidParameterError):
        islr(float("nan"), 1.0)
    with pytest.raises(MeasurementError):
        islr(1.0, np.zeros((3, 3)))


def test_pel_synthetic():
    cfg = critical_config(8, 8)
    cells = 64
    # ideal peaks: zero loss
    assert pel([math.sqrt(cells)] * 3, cfg) == pytest.approx(0.0, abs=1e-12)
    # uniform 10% amplitude deficit: NM * 0.01
    assert pel([0.9 * math.sqrt(cells)], cfg) == pytest.approx(0.64, rel=1e-9)
    # complex ratio: NM * |1 - ratio|^2
    peaks = [math.sqrt(cells) * (0.95 + 0.1j)]
    assert pel(peaks, cfg) == pytest.approx(cells * abs(1 - 0.95 - 0.1j) ** 2,
                                            rel=1e-9)


def test_snr_out_synthetic():
    stats = FilterStats(chi_mean=1.0, chi_var=0.0, gain_sq_mean=2.0)
    assert snr_out(100.0, stats, sigma_alpha_var=0.5, noise_var=0.25) == \
        pytest.approx(0.5 * 100 / (0.25 * 2.0))
    assert snr_out(100.0, stats, 1.0, 0.0) == math.inf
    with pytest.raises(InvalidParameterError):
        snr_out(-1.0, stats, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        snr_out(1.0, stats, 0.0, 1.0)


def test_mse_and_nmse():
    assert nmse(40.0, peak_sq_mean=16.0, sigma_alpha_var=0.5) == \
        pytest.approx(5.0)
    with pytest.raises(InvalidParameterError):
        nmse(1.0, 0.0, 1.0)


def test_identity_residual_exact_and_gap():
    assert identity_residual(0.3, 6.4, 16.0, 10.0, 0.8) == pytest.approx(0.0)
    assert identity_residual(0.3, 6.4, 16.0, math.inf, 0.7) == pytest.approx(0.0)
    assert identity_residual(0.3, 6.4, 16.0, math.inf, 0.35) == \
        pytest.approx(1.0)
    assert identity_residual(0.0, 0.0, 16.0, math.inf, 0.0) == 0.0


def test_analytic_metrics_satisfy_identity_symbolically():
    # for arbitrary (E[chi], Var[chi], noise weight) the closed forms obey
    # NMSE = ISLR + PEL/E[R^2] + 1/SNR_out to machine precision
    cfg = critical_config(16, 16)
    for e_chi, v_chi, gain, s_var, n_var in [
        (1.0, 0.0, 3.4, 1.0, 0.0),
        (1.0, 0.0, 3.4, 1.0, 0.5),
        (1.0, 0.395, 1.0, 2.0, 0.1),
        (0.84, 0.025, 1.06, 1.0, 1.0),
        (0.5, 0.2, 0.7, 0.3, 10.0),
    ]:
        stats = FilterStats(chi_mean=e_chi, chi_var=v_chi, gain_sq_mean=gain)
        m = analytic_point_metrics(cfg, stats, s_var, n_var)
        residual = identity_residual(m["islr"], m["pel"], m["e_r_sq"],
                                     m["snr_out"], m["nmse"])
        if m["nmse"] > 0:
            assert residual < 1e-12
        assert m["mse"] == pytest.approx(
            16 * 16 * s_var * (v_chi + (e_chi - 1) ** 2
                               + n_var * gain / s_var), rel=1e-12)


def test_analytic_metrics_ideal_filter_is_perfect():
    cfg = critical_config(16, 16)
    stats = FilterStats(chi_mean=1.0, chi_var=0.0, gain_sq_mean=1.0)
    m = analytic_point_metrics(cfg, stats, 1.0, 0.0)
    assert m["nmse"] == 0.0
    assert m["islr"] == 0.0
    assert m["pel"] == 0.0
    assert m["snr_out"] == math.inf
    assert m["e_r_sq"] == 16 * 16


def test_analytic_nmse_calibrated_gain_invariant():
    # calibrated NMSE depends only on (Var[chi] scaled, noise), not on the
    # deterministic amplitude deficit (1 - E[chi])^2
    cfg = critical_config(16, 16)
    cells = 256
    lossy = FilterStats(chi_mean=0.5, chi_var=0.0, gain_sq_mean=1.0)
    m = analytic_point_metrics(cfg, lossy, 1.0, 0.0)
    assert m["nmse_calibrated"] == pytest.approx(0.0, abs=1e-15)
    assert m["nmse"] > 0.4  # uncalibrated sees the amplitude deficit
    noisy = FilterStats(chi_mean=0.5, chi_var=0.1, gain_sq_mean=1.0)
    m2 = analytic_point_metrics(cfg, noisy, 1.0, 0.0)
    assert m2["nmse_calibrated"] == pytest.approx(
        cells * 0.1 / (cells * 0.25 + 0.1), rel=1e-12)


def test_pedestal_level():
    stats = FilterStats(chi_mean=0.9, chi_var=0.05, gain_sq_mean=2.0)
    assert pedestal_level(stats, sigma_alpha_total=3.0, noise_var=0.5) == \
        pytest.approx(3.0 * 0.05 + 0.5 * 2.0)


def test_doppler_support_rect():
    freqs = (np.arange(64) - 32) * 2.0  # 2 Hz pitch
    power = np.zeros(64)
    power[20:45] = 1.0  # freqs -24 .. 24
    sup = doppler_support(power, freqs)
    assert sup.lo_hz == -24.0
    assert sup.hi_hz == 24.0
    assert sup.width_hz == pytest.approx(50.0)
    assert sup.two_sided_hz == pytest.approx(48.0)
    # threshold excludes low shoulders
    power[10:20] = 0.1
    sup2 = doppler_support(power, freqs, threshold_ratio=0.25)
    assert sup2.lo_hz == -24.0
    with pytest.raises(MeasurementError):
        doppler_support(np.zeros(64), freqs)
    with pytest.raises(InvalidParameterError):
        doppler_support(power, freqs[:-1])


def test_metrics_report_round_trip():
    report = MetricsReport(
        rho_r_m=1.5, rho_a_m=0.5, measured_rho_r_m=1.52,
        measured_rho_a_m=0.97, islr_db=-9.2, pel=0.1, snr_out_db=20.0,
        nmse=0.05, identity_residual=0.001, trials=300, filter="wf",
        mode="data_aided")
    d = report.to_json_dict()
    assert d["nmse"] == 0.05
    assert d["filter"] == "wf"
    assert len(d) == 12
    with pytest.raises(InvalidParameterError):
        MetricsReport(rho_r_m=1.5, rho_a_m=0.5, measured_rho_r_m=1.5,
                      measured_rho_a_m=1.0, islr_db=-9.0, pel=0.0,
                      snr_out_db=10.0, nmse=-0.1, identity_residual=0.0,
                      trials=1, filter="rf", mode="data_aided")


def test_chi_stats_feed_analytic_metrics():
    # end-to-end consistency: real constellation moments through the
    # closed forms keep the identity exact
    cfg = critical_config(16, 16)
    con = make_qam("qam256")
    for spec in (FilterSpec("rf"), FilterSpec("mf"),
                 FilterSpec("wf", snr_in_linear=10 ** 0.5)):
        stats = chi_stats(con, spec)
        m = analytic_point_metrics(cfg, stats, 1.0, 10 ** -0.5)
        residual = identity_residual(m["islr"], m["pel"], m["e_r_sq"],
                                     m["snr_out"], m["nmse"])
        assert residual < 1e-12
