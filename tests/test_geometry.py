import math

import numpy as np
import pytest

from oracles import envelope_to_phase_rate_ratio, slant_range
from ofdmsar.errors import GeometryError, InvalidParameterError
from ofdmsar.geometry import PlatformGeometry, mean_range, range_deviation
from ofdmsar.waveform import nr_config

NR_PLATFORM = PlatformGeometry(height_m=1000.0, speed_mps=50.0)


def first_order(x_m, y_m, m, cfg):
    """The parabolic expansion Rbar + dR of the slant range."""
    r_bar, d_r = range_deviation(x_m, y_m, m, cfg)
    return r_bar + d_r


def test_slant_range_reference_target():
    # x = 300 m, y = 100 m, H = 1000 m: mean range 1044.03 m; both forms
    # agree exactly at the closest-approach symbol index
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    r_bar = mean_range(300.0, cfg.platform)
    assert r_bar == pytest.approx(1044.03, abs=0.01)
    m_closest = 100.0 / (cfg.platform.speed_mps * cfg.total_symbol_s)
    exact = slant_range(300.0, 100.0, np.array([m_closest]), cfg)
    first = first_order(300.0, 100.0, np.array([m_closest]), cfg)
    assert exact[0] == pytest.approx(r_bar, rel=1e-12)
    assert first[0] == pytest.approx(r_bar, rel=1e-12)


def test_slant_range_zero_offset():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    r_bar = mean_range(300.0, cfg.platform)
    for form in (slant_range, first_order):
        got = form(300.0, 0.0, np.array([0]), cfg)
        assert got[0] == pytest.approx(r_bar, rel=1e-14)


def test_slant_range_first_order_accuracy_at_edges():
    # mid-aperture scatterer: worst-case azimuth offset v*T_a/2 = 50 m
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    edges = np.array([0, cfg.n_symbols - 1])
    exact = slant_range(300.0, 50.0, edges, cfg)
    first = first_order(300.0, 50.0, edges, cfg)
    assert np.max(np.abs(exact - first)) < 1e-3


def test_slant_range_first_order_upper_bounds_exact():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    m = np.arange(0, cfg.n_symbols, 997)
    exact = slant_range(300.0, 37.0, m, cfg)
    first = first_order(300.0, 37.0, m, cfg)
    assert np.all(first >= exact - 1e-12)
    assert np.all(first >= mean_range(300.0, cfg.platform) - 1e-12)


def test_slant_range_symmetry_about_closest_approach():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    v_t = cfg.platform.speed_mps * cfg.total_symbol_s
    m_q = 9600
    offsets = np.array([100, 2500, 7000])
    left = slant_range(300.0, m_q * v_t, m_q - offsets, cfg)
    right = slant_range(300.0, m_q * v_t, m_q + offsets, cfg)
    assert np.allclose(left, right, rtol=1e-14)


def test_envelope_phase_rate_ratio_reference_value():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=3276, aperture_time_s=2.0)
    ratio = envelope_to_phase_rate_ratio(cfg, 300.0, 100.0)
    assert ratio > 100
    # frozen direct evaluation of the closed form
    r_bar = mean_range(300.0, cfg.platform)
    expected = (2 * math.pi * cfg.n_symbols * 50.0 * cfg.total_symbol_s
                * (math.sqrt(2 * cfg.range_pitch_m * r_bar) + 100.0)
                / (cfg.wavelength_m * r_bar))
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_envelope_phase_rate_ratio_scales_with_symbol_count():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    cfg2 = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=4.0)
    assert cfg2.n_symbols == 2 * cfg.n_symbols
    assert envelope_to_phase_rate_ratio(cfg2, 300.0, 100.0) == pytest.approx(
        2 * envelope_to_phase_rate_ratio(cfg, 300.0, 100.0), rel=1e-12)


def test_envelope_phase_rate_ratio_broadside():
    cfg = nr_config(NR_PLATFORM, n_subcarriers=256, aperture_time_s=2.0)
    r_bar = mean_range(300.0, cfg.platform)
    expected = (2 * math.pi * cfg.n_symbols * 50.0 * cfg.total_symbol_s
                * math.sqrt(2 * cfg.range_pitch_m * r_bar)
                / (cfg.wavelength_m * r_bar))
    assert envelope_to_phase_rate_ratio(cfg, 300.0, 0.0) == pytest.approx(
        expected, rel=1e-12)


def test_platform_validation():
    with pytest.raises(GeometryError):
        PlatformGeometry(height_m=0.0, speed_mps=50.0)
    with pytest.raises(InvalidParameterError):
        PlatformGeometry(height_m=1000.0, speed_mps=-1.0)
    with pytest.raises(InvalidParameterError):
        PlatformGeometry(height_m=1000.0, speed_mps=math.nan)
    with pytest.raises(GeometryError):
        PlatformGeometry(height_m=math.inf, speed_mps=50.0)
