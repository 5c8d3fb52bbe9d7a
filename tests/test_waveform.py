import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ofdmsar
from scenes import raw_indices
from ofdmsar.errors import ConfigurationError, InvalidParameterError
from ofdmsar.geometry import PlatformGeometry
from ofdmsar.pipeline import pilot_comb_mask
from ofdmsar.tf_filter import FilterSpec
from ofdmsar.waveform import (SPEED_OF_LIGHT, SYMBOL_STREAM, RadarConfig,
                              SrsConfig, _philox, chi_stats, gen_symbol_grid,
                              gen_symbol_indices, make_qam, nr_config)

PLATFORM = PlatformGeometry(height_m=1000.0, speed_mps=50.0)


def brute_force_moments(order):
    """Independent enumeration of the square-QAM modulus moments."""
    side = int(round(math.sqrt(order)))
    levels = np.arange(-side + 1, side, 2, dtype=float)
    re, im = np.meshgrid(levels, levels)
    power = (re**2 + im**2).ravel()
    power = power / power.mean()
    return power.mean(), (power**2).mean(), (1.0 / power).mean()


def fourth_moment(con):
    """E|s|^4 over the alphabet."""
    return float(np.mean(np.abs(con.points) ** 4))


def inverse_power(con):
    """E[1/|s|^2], the inversion noise-enhancement factor."""
    return float(np.mean(1.0 / np.abs(con.points) ** 2))


# Constellations -----------------------------------------------------------

@pytest.mark.parametrize("name,order", [
    ("qpsk", 4), ("qam16", 16), ("qam64", 64), ("qam256", 256),
])
def test_qam_unit_power_and_order(name, order):
    con = make_qam(name)
    assert con.order == order
    assert con.mean_power == pytest.approx(1.0, abs=1e-12)
    assert make_qam(order).name == name


def test_qam_moments_match_enumeration():
    for order in (4, 16, 64, 256):
        con = make_qam(order)
        mean, fourth, inverse = brute_force_moments(order)
        assert con.mean_power == pytest.approx(mean, rel=1e-12)
        assert fourth_moment(con) == pytest.approx(fourth, rel=1e-12)
        assert inverse_power(con) == pytest.approx(inverse, rel=1e-12)


def test_qam_moment_values():
    # frozen closed-form values of the modulus moments
    q16 = make_qam("qam16")
    assert fourth_moment(q16) == pytest.approx(1.32, rel=1e-9)
    assert inverse_power(q16) == pytest.approx(1.8888889, rel=1e-6)
    q64 = make_qam("qam64")
    assert fourth_moment(q64) == pytest.approx(1.3809524, rel=1e-6)
    assert inverse_power(q64) == pytest.approx(2.6854167, rel=1e-6)
    q256 = make_qam("qam256")
    assert fourth_moment(q256) == pytest.approx(1.3952941, rel=1e-6)
    assert inverse_power(q256) == pytest.approx(3.4371300, rel=1e-6)
    qpsk = make_qam("qpsk")
    assert fourth_moment(qpsk) == pytest.approx(1.0, abs=1e-12)
    assert inverse_power(qpsk) == pytest.approx(1.0, abs=1e-12)


def test_qam_rejects_unsupported_order():
    with pytest.raises(InvalidParameterError):
        make_qam(3)
    with pytest.raises(InvalidParameterError):
        make_qam("qam512")
    # a name is taken exactly as spelled, not case-folded
    for name in ("QPSK", "QAM16", "Qam64"):
        with pytest.raises(InvalidParameterError,
                           match="unknown constellation"):
            make_qam(name)


# Filter spectrum statistics ------------------------------------------------

def test_chi_stats_reciprocal_is_exact_one():
    for order in (4, 16, 64, 256):
        stats = chi_stats(make_qam(order), FilterSpec("rf"))
        assert stats.chi_mean == 1.0
        assert stats.chi_var == 0.0
        assert stats.gain_sq_mean == pytest.approx(
            inverse_power(make_qam(order)), rel=1e-12)
        assert stats.chi_err_sq_mean == 0.0


def test_chi_stats_matched_qpsk_trivial():
    stats = chi_stats(make_qam("qpsk"), FilterSpec("mf"))
    assert stats.chi_mean == pytest.approx(1.0, abs=1e-12)
    assert stats.chi_var == pytest.approx(0.0, abs=1e-12)
    assert stats.gain_sq_mean == pytest.approx(1.0, abs=1e-12)


def test_chi_stats_matched_256():
    con = make_qam("qam256")
    stats = chi_stats(con, FilterSpec("mf"))
    assert stats.chi_mean == pytest.approx(1.0, abs=1e-12)
    assert stats.chi_var == pytest.approx(fourth_moment(con) - 1.0, rel=1e-12)
    assert stats.gain_sq_mean == pytest.approx(1.0, abs=1e-12)


def test_chi_stats_matched_mean_is_exactly_one():
    # E[chi] = E[|g|^2] = E|s|^2 is 1 by construction; the float mean of
    # |s|^2 reads a round-off off it for QAM64 and QAM256
    for order in (4, 16, 64, 256):
        con = make_qam(order)
        stats = chi_stats(con, FilterSpec("mf"))
        assert stats.chi_mean == stats.gain_sq_mean == 1.0
        x = np.abs(con.points) ** 2
        assert stats.chi_var == np.mean((x - 1.0) ** 2)


def test_chi_stats_wiener_frozen_and_monte_carlo():
    con = make_qam("qam256")
    spec = FilterSpec("wf", snr_in_linear=10.0)
    stats = chi_stats(con, spec)
    # independent enumeration with the Wiener closed form
    x = np.abs(con.points) ** 2
    chi = x / (x + 0.1)
    assert stats.chi_mean == pytest.approx(chi.mean(), rel=1e-12)
    assert stats.chi_var == pytest.approx(chi.var(), rel=1e-12)
    assert stats.gain_sq_mean == pytest.approx(
        (x / (x + 0.1) ** 2).mean(), rel=1e-12)
    # frozen values
    assert stats.chi_mean == pytest.approx(0.8442233, abs=1e-6)
    assert stats.chi_var == pytest.approx(0.0252137, abs=1e-6)
    assert stats.gain_sq_mean == pytest.approx(1.0629656, abs=1e-6)
    # Monte-Carlo agreement within 1%
    rng = np.random.default_rng(7)
    draws = rng.choice(con.points, size=200_000)
    xs = np.abs(draws) ** 2
    mc_chi = xs / (xs + 0.1)
    assert stats.chi_mean == pytest.approx(mc_chi.mean(), rel=0.01)
    assert stats.gain_sq_mean == pytest.approx(
        (xs / (xs + 0.1) ** 2).mean(), rel=0.01)


def test_chi_mean_never_exceeds_one():
    for order in (4, 16, 64, 256):
        con = make_qam(order)
        for spec in (FilterSpec("rf"), FilterSpec("mf"),
                     FilterSpec("wf", snr_in_linear=0.5),
                     FilterSpec("wf", snr_in_linear=100.0)):
            stats = chi_stats(con, spec)
            assert stats.chi_mean <= 1.0 + 1e-12
            assert stats.chi_var >= 0.0
            assert stats.gain_sq_mean > 0.0


def test_reciprocal_noise_enhancement_at_least_one():
    # Jensen: E[1/|s|^2] >= 1/E[|s|^2] = 1
    for order in (4, 16, 64, 256):
        stats = chi_stats(make_qam(order), FilterSpec("rf"))
        assert stats.gain_sq_mean >= 1.0


def test_wiener_limits():
    con = make_qam("qam64")
    # high SNR: Wiener -> reciprocal (chi -> 1)
    hi = chi_stats(con, FilterSpec("wf", snr_in_linear=1e9))
    assert abs(hi.chi_mean - 1.0) < 1e-3
    assert abs(hi.chi_var) < 1e-3
    assert hi.gain_sq_mean == pytest.approx(inverse_power(con), rel=1e-3)
    # low SNR: Wiener -> snr * matched (g -> snr * conj(s))
    snr = 1e-6
    lo = chi_stats(con, FilterSpec("wf", snr_in_linear=snr))
    mf = chi_stats(con, FilterSpec("mf"))
    assert lo.chi_mean == pytest.approx(snr * mf.chi_mean, rel=1e-3)
    assert lo.gain_sq_mean == pytest.approx(snr**2 * mf.gain_sq_mean, rel=1e-3)


def test_chi_stats_wiener_requires_snr():
    with pytest.raises(ConfigurationError):
        FilterSpec("wf")
    with pytest.raises(ConfigurationError):
        FilterSpec("wf", snr_in_linear=-2.0)
    with pytest.raises(ConfigurationError):
        FilterSpec("zf")


# Radar configuration -------------------------------------------------------

def test_nr_config_derived_quantities():
    cfg = nr_config(PLATFORM)
    assert cfg.n_subcarriers == 3276
    assert cfg.symbol_duration_s == pytest.approx(1 / 30e3, rel=1e-12)
    assert cfg.total_symbol_s == pytest.approx(1.25 / 30e3, rel=1e-12)
    assert cfg.n_symbols == 48000
    assert cfg.occupied_bandwidth_hz == pytest.approx(98.28e6, rel=1e-12)
    assert cfg.range_pitch_m == pytest.approx(1.525, abs=0.001)
    assert cfg.wavelength_m == pytest.approx(0.085655, abs=1e-6)
    assert cfg.azimuth_pitch_m == pytest.approx(50 * 1.25 / 30e3, rel=1e-12)


def test_radar_config_needs_half_a_symbol_of_aperture():
    # the aperture is rounded to whole sent symbols
    cfg = nr_config(PLATFORM)
    t_sent = cfg.symbol_duration_s + cfg.cp_duration_s
    assert replace(cfg, aperture_time_s=0.6 * t_sent).n_symbols == 1
    with pytest.raises(ConfigurationError, match="shorter than one OFDM"):
        replace(cfg, aperture_time_s=0.4 * t_sent)


def test_speed_of_light_is_exact_si_value():
    assert SPEED_OF_LIGHT == 299_792_458.0


def test_cli_import_needs_numpy_only():
    # top-level packages the import adds, less the standard library and
    # private runtime helpers, must be numpy and the package itself
    src = Path(ofdmsar.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ofdmsar.cli\n"
        "added = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
        "added -= set(sys.stdlib_module_names)\n"
        "extra = {n for n in added if not n.startswith('_')}\n"
        "assert extra <= {'numpy', 'ofdmsar'}, sorted(extra)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_azimuth_rate_and_bandwidth():
    cfg = nr_config(PLATFORM, n_subcarriers=256)
    r_bar = math.hypot(300.0, 1000.0)
    ka = cfg.azimuth_rate_at(r_bar)
    assert ka == pytest.approx(2 * 50.0**2 / (cfg.wavelength_m * r_bar),
                               rel=1e-12)
    assert ka == pytest.approx(55.91, abs=0.01)
    assert cfg.azimuth_bandwidth_at(r_bar) == pytest.approx(2 * ka, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        cfg.azimuth_rate_at(0.0)


def test_config_rejects_overfull_band():
    with pytest.raises(ConfigurationError):
        nr_config(PLATFORM, n_subcarriers=4000)  # 120 MHz > 100 MHz


def test_config_rejects_nonpositive_parameters():
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, fc_hz=0.0)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, subcarrier_spacing_hz=-30e3)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, n_subcarriers=0)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, fc_hz=math.nan)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, aperture_time_s=math.inf)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, noise_var=math.nan)
    with pytest.raises(InvalidParameterError):
        nr_config(PLATFORM, snr_in_linear=math.nan)
    with pytest.raises(InvalidParameterError):
        RadarConfig(fc_hz=3.5e9, bandwidth_hz=100e6,
                    subcarrier_spacing_hz=30e3, cp_duration_s=0.25 / 30e3,
                    aperture_time_s=2.0, n_subcarriers=256,
                    platform=PLATFORM, noise_var=-1.0)


def test_decimated_grid():
    cfg = nr_config(PLATFORM, n_subcarriers=256)
    dec = cfg.decimated(10)
    assert dec.n_symbols == 4800
    assert dec.total_symbol_s == pytest.approx(10 * cfg.total_symbol_s,
                                               rel=1e-12)
    assert dec.subcarrier_spacing_hz == cfg.subcarrier_spacing_hz
    assert dec.range_pitch_m == cfg.range_pitch_m
    assert dec.azimuth_pitch_m == pytest.approx(10 * cfg.azimuth_pitch_m,
                                                rel=1e-12)
    # the decimated grid keeps the physical cyclic prefix and aperture
    assert dec.cp_duration_s == cfg.cp_duration_s
    assert dec.aperture_time_s == cfg.aperture_time_s
    assert dec.symbol_duration_s == cfg.symbol_duration_s
    assert dec.azimuth_bandwidth_at(1000.0) == pytest.approx(
        cfg.azimuth_bandwidth_at(1000.0), rel=1e-12)
    assert cfg.decimated(1) is cfg
    with pytest.raises(InvalidParameterError):
        cfg.decimated(0)
    with pytest.raises(ConfigurationError):
        cfg.decimated(48001)
    with pytest.raises(InvalidParameterError):
        replace(cfg, decimation=0)


def test_decimations_compose():
    cfg = nr_config(PLATFORM, n_subcarriers=64,
                    aperture_time_s=600 * 1.25 / 30e3)
    for a, b in ((2, 3), (4, 70), (7, 1), (1, 5)):
        assert cfg.decimated(a).decimated(b) == cfg.decimated(a * b)
    # 600 // 280 // 3 keeps no symbol, however it is reached
    with pytest.raises(ConfigurationError):
        cfg.decimated(280).decimated(3)


def test_with_noise():
    cfg = nr_config(PLATFORM, n_subcarriers=256)
    noisy = cfg.with_noise(0.5, snr_in_linear=2.0)
    assert noisy.noise_var == 0.5
    assert noisy.snr_in_linear == 2.0
    assert cfg.noise_var == 0.0


# Symbol grids ---------------------------------------------------------------

def small_cfg(n=32, m=40):
    return nr_config(PLATFORM, n_subcarriers=n,
                     aperture_time_s=m * 1.25 / 30e3)


def test_gen_symbol_grid_deterministic():
    cfg = small_cfg()
    con = make_qam("qam16")
    a = gen_symbol_grid(cfg, con, seed=11)
    b = gen_symbol_grid(cfg, con, seed=11)
    d = gen_symbol_grid(cfg, con, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, d)
    assert a.shape == (32, 40)
    assert np.isin(a, con.points).all()


def test_gen_symbol_grid_mean_power():
    cfg = small_cfg(n=256, m=256)
    grid = gen_symbol_grid(cfg, make_qam("qam256"), seed=3)
    assert np.mean(np.abs(grid) ** 2) == pytest.approx(1.0, abs=0.01)


def test_gen_symbol_grid_respects_mask():
    cfg = small_cfg()
    mask = np.zeros((32, 40), dtype=bool)
    mask[4::8, ::5] = True
    grid = gen_symbol_grid(cfg, make_qam("qpsk"), seed=5, mask=mask)
    assert np.all(grid[~mask] == 0)
    assert np.all(grid[mask] != 0)
    with pytest.raises(ConfigurationError):
        gen_symbol_grid(cfg, make_qam("qpsk"), seed=5,
                        mask=np.ones((32, 41), dtype=bool))


def drawn_trials(cfg, con, seed, trials, mask=None, out=None):
    """trials successive index draws on one generator of the seed's
    symbol stream, one trial per call, each into out[t] when out is given,
    stacked."""
    rng = _philox(seed, SYMBOL_STREAM)
    return np.stack([gen_symbol_indices(cfg, con, seed, mask=mask, rng=rng,
                                        out=None if out is None else out[t])
                     for t in range(trials)])


def test_gen_symbol_grid_batch_matches_single():
    # trial 0 of one generator's successive draws is the seed's single
    # grid, and the trials after it are independent draws
    cfg = small_cfg()
    con = make_qam("qam64")
    single = gen_symbol_grid(cfg, con, seed=9)
    batch = np.take(con.table, drawn_trials(cfg, con, 9, 4))
    assert batch.shape == (4, 32, 40)
    assert np.array_equal(batch[0], single)
    assert not np.array_equal(batch[1], batch[2])


def test_gen_symbol_grid_chunks_continue_one_stream():
    # successive index draws from one generator equal the stream drawn in
    # one call bit for bit, also when a trial holds an odd number of cells,
    # and also drawn into one buffer trial by trial; the symbols of trial 0
    # gather that draw
    cfg = small_cfg(n=3, m=5)
    con = make_qam("qam16")
    mask = np.ones((3, 5), dtype=bool)
    mask[1, ::2] = False
    whole = raw_indices(con, 4, (5, 3, 5), mask)
    assert np.array_equal(drawn_trials(cfg, con, 4, 5, mask), whole)
    buffer = np.empty((5, 3, 5), dtype=con.index_dtype)
    drawn_trials(cfg, con, 4, 5, mask, out=buffer)
    assert np.array_equal(buffer, whole)
    symbols = gen_symbol_grid(cfg, con, seed=4, mask=mask)
    assert symbols.tobytes() == np.take(con.table, buffer[0]).tobytes()


@pytest.mark.parametrize("name", ["qpsk", "qam256"])
@pytest.mark.parametrize("trials", [None, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_gen_symbol_grid_into_a_buffer(name, trials, masked):
    # indices drawn into out equal the allocating call's, and the indices
    # of the whole stream taken in one call with the sentinel on the masked
    # cells, bit for bit: the seed's one draw (trials None), or three
    # trials drawn one per call on one generator; the symbols are
    # points[indices], 0 when masked
    cfg = small_cfg()
    con = make_qam(name)
    mask = None
    if masked:
        mask = np.zeros((32, 40), dtype=bool)
        mask[1::4, :] = True  # a comb of every fourth subcarrier
    shape = (32, 40) if trials is None else (trials, 32, 40)
    reference = raw_indices(con, 6, shape, mask)
    out = np.full(shape, np.iinfo(con.index_dtype).max, dtype=con.index_dtype)
    if trials is None:
        allocated = gen_symbol_indices(cfg, con, seed=6, mask=mask)
        indices = gen_symbol_indices(cfg, con, seed=6, mask=mask, out=out)
        assert indices is out
    else:
        allocated = drawn_trials(cfg, con, 6, trials, mask)
        rng = _philox(6, SYMBOL_STREAM)
        for grid in out:
            indices = gen_symbol_indices(cfg, con, seed=6, mask=mask, rng=rng,
                                         out=grid)
            assert indices is grid
    assert np.array_equal(out, allocated)
    assert np.array_equal(out, reference)
    symbols = con.points[np.minimum(reference, con.order - 1)]
    if masked:
        symbols[..., ~mask] = 0.0
    first = symbols if trials is None else symbols[0]
    assert np.array_equal(gen_symbol_grid(cfg, con, seed=6, mask=mask), first)


@pytest.mark.parametrize("name", ["qpsk", "qam16", "qam64", "qam256"])
@pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("masked", [False, True])
def test_gen_symbol_grid_gathers_the_index_draw(name, trials, masked):
    # the symbols are the points followed by 0 at the drawn indices, the
    # sentinel index `order` on the masked cells, bit for bit, in each of
    # the trials drawn one per call on one generator; the indices take the
    # alphabet's smallest unsigned type that holds the sentinel
    cfg = small_cfg()
    con = make_qam(name)
    mask = None
    if masked:
        mask = np.zeros((32, 40), dtype=bool)
        mask[1::4, :] = True
    indices = drawn_trials(cfg, con, 8, trials, mask)
    assert indices.shape == (trials, 32, 40)
    assert indices.dtype == np.min_scalar_type(con.order)
    assert con.table.tobytes() == np.append(con.points, 0.0).tobytes()
    symbols = gen_symbol_grid(cfg, con, seed=8, mask=mask)
    assert symbols.tobytes() == np.take(con.table, indices[0]).tobytes()
    for grid in indices:
        points = np.take(con.table, grid)
        assert (points[grid < con.order]
                == con.points[grid[grid < con.order]]).all()
        assert (points[grid == con.order] == 0).all()
    active = np.ones((32, 40), dtype=bool) if mask is None else mask
    assert (indices[:, ~active] == con.order).all()
    assert (indices[:, active] < con.order).all()


def test_symbol_grid_shape_validation():
    # a mask must match the configured (N, M) grid, for the seed's draw
    # or a trial drawn on a generator
    cfg = small_cfg(n=3, m=4)
    con = make_qam("qpsk")
    for rng in (None, _philox(0, SYMBOL_STREAM)):
        with pytest.raises(ConfigurationError, match="mask shape"):
            gen_symbol_indices(cfg, con, seed=0, rng=rng,
                               mask=np.ones((4, 4), dtype=bool))
        indices = gen_symbol_indices(cfg, con, seed=0, rng=rng,
                                     mask=np.ones((3, 4), dtype=bool))
        assert indices.shape == (3, 4)
    with pytest.raises(ConfigurationError, match="mask shape"):
        gen_symbol_grid(cfg, con, seed=0, mask=np.ones((4, 4), dtype=bool))
    grid = gen_symbol_grid(cfg, con, seed=0, mask=np.ones((3, 4), dtype=bool))
    assert grid.shape == (3, 4)


# Sounding reference combs ----------------------------------------------------

def test_srs_default_comb_has_72_tones():
    srs = SrsConfig()
    tones = srs.tone_indices()
    assert tones.size == 72
    assert tones[0] == 1667
    assert tones[-1] == 1667 + 71 * 4
    assert srs.span_subcarriers == 288
    assert srs.period_symbols == 280


def test_srs_mask_positions_and_prf():
    # 600 symbols at a 280-symbol period keep 600 // 280 = 2 pilot symbols
    cfg = nr_config(PLATFORM, n_subcarriers=64,
                    aperture_time_s=600 * 1.25 / 30e3)
    srs = SrsConfig(periodicity_slots=20, symbols_per_slot=14,
                    comb_spacing=4, n_resource_blocks=2, start_subcarrier=8)
    cfg_pilot = cfg.decimated(srs.period_symbols)
    mask = pilot_comb_mask(cfg_pilot, srs)
    assert mask.shape == (64, 2)
    assert 1 / cfg_pilot.total_symbol_s == pytest.approx(85.714286, abs=1e-4)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    assert np.array_equal(rows, 8 + 4 * np.arange(6))
    assert np.array_equal(cols, np.array([0, 1]))
    assert mask.sum() == 6 * 2


def test_srs_mask_prf_scales_with_periodicity():
    cfg = nr_config(PLATFORM, n_subcarriers=64,
                    aperture_time_s=600 * 1.25 / 30e3)
    srs = SrsConfig(periodicity_slots=2, symbols_per_slot=14,
                    comb_spacing=4, n_resource_blocks=2, start_subcarrier=8)
    assert 1 / cfg.decimated(srs.period_symbols).total_symbol_s == (
        pytest.approx(857.14286, abs=1e-3))


def test_srs_mask_rejects_overflowing_comb():
    cfg = nr_config(PLATFORM, n_subcarriers=64,
                    aperture_time_s=600 * 1.25 / 30e3)
    srs = SrsConfig(n_resource_blocks=24, start_subcarrier=0)
    with pytest.raises(ConfigurationError):
        pilot_comb_mask(cfg.decimated(srs.period_symbols), srs)
    with pytest.raises(ConfigurationError):
        SrsConfig(comb_spacing=0)
    with pytest.raises(ConfigurationError):
        SrsConfig(start_subcarrier=-1)
