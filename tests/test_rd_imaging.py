import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenes import critical_config, single_target_scene
from ofdmsar import rd_imaging
from ofdmsar.echo import build_channel_matrix
from ofdmsar.errors import InvalidParameterError
from ofdmsar.pipeline import run_point_ensemble
from ofdmsar.rd_imaging import (KA_MODES, RCMC_METHODS, _doppler_bins,
                                _shift_transfer, azimuth_compress,
                                azimuth_fft, focus_image, focus_stages,
                                focusing_operator, range_compress, rcm_shift,
                                rcmc, spa_spectrum)
from ofdmsar.tf_filter import FilterSpec
from ofdmsar.waveform import make_qam


def unit_tf_grid(cfg, fill=1.0):
    data = np.full((cfg.n_subcarriers, cfg.n_symbols), fill, dtype=complex)
    return data


def shift_column(col, shift, method, halfwidth=8):
    """out[k] = col[k + shift] through the RCMC range-spectrum multiplier."""
    transfer = _shift_transfer(col.size, np.array([shift]), method, halfwidth)
    return np.fft.ifft(np.fft.fft(col) * transfer[:, 0])


# Grid shapes and axes --------------------------------------------------------

def test_stage_functions_check_shape():
    cfg = critical_config(8, 8)
    for shape in ((8, 9), (9, 8), (8,), (2, 8, 8)):
        bad = np.zeros(shape, dtype=complex)
        for stage in (lambda x: range_compress(x, cfg),
                      lambda x: azimuth_fft(x, cfg),
                      lambda x: rcmc(x, cfg, 100.0),
                      lambda x: azimuth_compress(x, cfg, 100.0),
                      lambda x: focus_image(x, cfg, 100.0),
                      lambda x: focus_stages(x, cfg, 100.0)):
            with pytest.raises(InvalidParameterError, match="grid shape"):
                stage(bad)
    rc = range_compress(unit_tf_grid(cfg), cfg)
    assert isinstance(rc, np.ndarray) and rc.shape == (8, 8)


def test_doppler_axis_metadata():
    cfg = critical_config(8, 6)
    rd = azimuth_fft(range_compress(unit_tf_grid(cfg), cfg), cfg)
    bins = _doppler_bins(cfg)
    assert np.array_equal(bins, np.arange(6) - 3)
    # zero Doppler sits at column M // 2: a constant grid lands there alone
    assert bins[3] == 0 and np.flatnonzero(np.abs(rd[0]) > 1e-12).tolist() == [3]
    assert (bins * cfg.doppler_pitch_hz)[3] == 0.0
    assert cfg.doppler_pitch_hz == pytest.approx(1 / (6 * cfg.total_symbol_s))


# Unitary transforms ----------------------------------------------------------

def test_range_compression_tone():
    # subcarrier ramp exp(-2j pi n k0 / N) focuses on range bin k0 with
    # amplitude sqrt(N)
    cfg = critical_config(16, 4)
    k0 = 5
    n = np.arange(16)
    data = np.exp(-2j * np.pi * n * k0 / 16)[:, None] * np.ones(4)
    rc = range_compress(data, cfg)
    assert abs(rc[k0, 0]) == pytest.approx(np.sqrt(16), rel=1e-12)
    off = np.delete(np.abs(rc[:, 0]), k0)
    assert np.max(off) < 1e-12


def test_azimuth_fft_tone_centered():
    # symbol ramp exp(2j pi m p0 / M) lands on column M//2 + p0
    cfg = critical_config(4, 16)
    p0 = 3
    m = np.arange(16)
    rc = np.ones(4)[:, None] * np.exp(2j * np.pi * m * p0 / 16)
    rd = azimuth_fft(rc, cfg)
    assert abs(rd[0, 8 + p0]) == pytest.approx(np.sqrt(16), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 70), m=st.integers(2, 70),
       ref_frac=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_transforms_are_unitary(n, m, ref_frac, seed):
    # every stage conserves energy for any grid size, odd sizes included;
    # RCMC by its exact phase-ramp method, azimuth compression in both modes
    cfg = critical_config(n, m)
    r_bar = ref_frac * n * cfg.range_pitch_m
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    energy = np.sum(np.abs(data) ** 2)
    rc = range_compress(data, cfg)
    assert np.sum(np.abs(rc) ** 2) == pytest.approx(energy, rel=1e-12)
    rd = azimuth_fft(rc, cfg)
    assert np.sum(np.abs(rd) ** 2) == pytest.approx(energy, rel=1e-12)
    corrected = rcmc(rd, cfg, r_bar, method="phase_ramp")
    assert np.sum(np.abs(corrected) ** 2) == pytest.approx(energy, rel=1e-12)
    for ka_mode in KA_MODES:
        ac = azimuth_compress(corrected, cfg, r_bar, ka_mode)
        assert np.sum(np.abs(ac) ** 2) == pytest.approx(energy, rel=1e-12)


# Migration correction --------------------------------------------------------

def test_rcm_shift_quadratic_even():
    cfg = critical_config(64, 64)
    r_ref = 32 * cfg.range_pitch_m
    p = np.array([-8, -2, 0, 2, 8], dtype=float)
    shifts = rcm_shift(p, cfg, r_ref)
    assert shifts[2] == 0.0
    assert shifts[0] == pytest.approx(shifts[4], rel=1e-12)
    assert shifts[1] == pytest.approx(shifts[3], rel=1e-12)
    assert shifts[4] == pytest.approx(16 * shifts[3], rel=1e-12)
    k_a = cfg.azimuth_rate_at(r_ref)
    expected = (50.0 ** 2 * 64.0 / (2 * r_ref
                * (k_a * 64 * cfg.total_symbol_s) ** 2 * cfg.range_pitch_m))
    v = cfg.platform.speed_mps
    expected = (v ** 2 * 64.0
                / (2 * r_ref * (k_a * 64 * cfg.total_symbol_s) ** 2
                   * cfg.range_pitch_m))
    assert shifts[4] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        rcm_shift(p, cfg, 0.0)


def test_rcmc_integer_shift_is_exact_roll():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    # no reference range gives an exact integer shift, so apply the
    # per-column multiplier to synthetic integer shifts directly
    col = data[:, 0]
    for shift in (1.0, 3.0, -2.0):
        expected = np.roll(col, -int(shift))
        assert np.allclose(shift_column(col, shift, "phase_ramp"), expected,
                           atol=1e-12)
        assert np.allclose(shift_column(col, shift, "windowed_sinc"),
                           expected, atol=1e-3)


def test_rcmc_methods_agree_on_smooth_column():
    # a column whose subcarrier content sits near band centre of the
    # one-sided basis: windowed sinc approximates the exact cyclic shift
    cfg = critical_config(64, 8)
    n = np.arange(64)
    col = np.zeros(64, dtype=complex)
    for freq, amp in ((30, 1.0), (32, 0.5), (34, 0.25)):
        col += amp * np.exp(2j * np.pi * freq * n / 64)
    for shift in (0.25, 1.7, -0.4):
        exact = shift_column(col, shift, "phase_ramp")
        approx = shift_column(col, shift, "windowed_sinc", 8)
        assert np.max(np.abs(exact - approx)) < 1e-3


def test_rcmc_fractional_shift_tracks_ridge():
    # a range column as range compression actually produces it: a Dirichlet
    # ridge from flat one-sided subcarrier content, peaked off-grid
    n = 64
    k = np.arange(n)

    def ridge(pos):
        return np.exp(2j * np.pi * np.arange(n)[None, :] * (k[:, None] - pos)
                      / n).sum(axis=1) / np.sqrt(n)

    pos = 20.37
    col = ridge(pos)
    for shift in (0.644, -1.28, 2.015):
        expected = ridge(pos - shift)
        out_ramp = shift_column(col, shift, "phase_ramp")
        assert np.allclose(out_ramp, expected, atol=1e-12)
        # the flat full-band spectrum is the sinc kernel's worst case: the
        # band-edge rolloff leaks a few percent into the peak's neighbours,
        # shrinking as the kernel grows, without moving the peak itself
        peak = np.abs(expected).max()
        for halfwidth, tol in ((8, 0.08), (16, 0.04)):
            out_sinc = shift_column(col, shift, "windowed_sinc", halfwidth)
            assert np.argmax(np.abs(out_sinc)) == np.argmax(np.abs(expected))
            assert np.max(np.abs(out_sinc - expected)) < tol * peak


@pytest.mark.parametrize("n", [63, 64])
def test_rcmc_sinc_commutes_with_range_roll(n):
    # the windowed sinc is circulant along range for any N, odd included
    cfg = critical_config(n, 16)
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    r_ref = (n // 4) * cfg.range_pitch_m

    def corrected(values):
        return rcmc(values, cfg, r_ref, method="windowed_sinc")

    for roll in (1, 5, -2):
        rolled = corrected(np.roll(data, roll, axis=0))
        expected = np.roll(corrected(data), roll, axis=0)
        assert np.allclose(rolled, expected, rtol=0, atol=1e-12)


def test_rcmc_validation():
    cfg = critical_config(8, 8)
    rd = azimuth_fft(range_compress(unit_tf_grid(cfg), cfg), cfg)
    with pytest.raises(InvalidParameterError):
        rcmc(rd, cfg, r_bar_ref_m=100.0, method="nearest")
    with pytest.raises(InvalidParameterError):
        rcmc(rd, cfg, r_bar_ref_m=100.0, halfwidth=0)


# Focused point response -------------------------------------------------------

def test_point_target_focuses_to_sqrt_nm():
    # at critical azimuth sampling the focused peak is sqrt(N*M) exactly
    # (quadratic Gauss sum), at the target's (k_q, m_q) bin
    cfg = critical_config(64, 64, k_ref=16)
    scene = single_target_scene(cfg, k_bin=16, m_bin=32)
    h = build_channel_matrix(scene, cfg)
    r_bar = scene.targets[0].mean_range_m(cfg.platform)
    img = focus_image(h, cfg, r_bar_ref_m=r_bar, rcmc_method="phase_ramp")
    peak = np.abs(img)
    k_hat, m_hat = np.unravel_index(np.argmax(peak), peak.shape)
    assert (k_hat, m_hat) == (16, 32)
    assert peak[16, 32] == pytest.approx(np.sqrt(64 * 64), rel=1e-3)
    assert img.shape == (64, 64)


def test_focus_stages_collects_every_stage():
    cfg = critical_config(16, 16)
    scene = single_target_scene(cfg)
    h = build_channel_matrix(scene, cfg)
    r_bar = scene.targets[0].mean_range_m(cfg.platform)
    stages = focus_stages(h, cfg, r_bar)
    assert sorted(stages) == ["ac", "rc", "rcmc", "rd", "tf"]
    assert stages["tf"] is h
    # each stage is its staged function applied to the one before
    assert np.array_equal(stages["rc"], range_compress(h, cfg))
    assert np.array_equal(stages["rd"], azimuth_fft(stages["rc"], cfg))
    assert np.array_equal(stages["rcmc"], rcmc(stages["rd"], cfg, r_bar))
    assert np.array_equal(stages["ac"],
                          azimuth_compress(stages["rcmc"], cfg, r_bar))
    assert rel_err(stages["ac"], focus_image(h, cfg, r_bar)) <= 1e-12
    with pytest.raises(InvalidParameterError):
        focus_image(h, cfg, None)  # no reference range


def test_azimuth_compress_needs_reference():
    cfg = critical_config(8, 8)
    grid = np.zeros((8, 8), dtype=complex)
    with pytest.raises(InvalidParameterError, match="r_bar_ref_m"):
        azimuth_compress(grid, cfg)
    with pytest.raises(InvalidParameterError):
        azimuth_compress(grid, cfg, 100.0, ka_mode="adaptive")
    # per-range-bin K_a needs no reference range
    assert azimuth_compress(grid, cfg, ka_mode="per_range_bin").shape == (8, 8)


def test_per_range_bin_compression_matches_reference_at_ref_bin():
    cfg = critical_config(64, 64, k_ref=16)
    scene = single_target_scene(cfg, k_bin=16, m_bin=32)
    h = build_channel_matrix(scene, cfg)
    r_bar = scene.targets[0].mean_range_m(cfg.platform)
    ref = focus_image(h, cfg, r_bar_ref_m=r_bar, rcmc_method="phase_ramp",
                      ka_mode="reference")
    per = focus_image(h, cfg, r_bar_ref_m=r_bar, rcmc_method="phase_ramp",
                      ka_mode="per_range_bin")
    # the reference range sits exactly on bin 16, so row 16 matches
    assert np.allclose(per[16], ref[16], atol=1e-9)


# Folded focusing operator ----------------------------------------------------

def staged_chain(grid, cfg, r_bar, method, ka_mode):
    return focus_stages(grid, cfg, r_bar, method, ka_mode)["ac"]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 70), m=st.integers(2, 70),
       method=st.sampled_from(RCMC_METHODS), ka_mode=st.sampled_from(KA_MODES),
       ref_frac=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_operator_equals_staged_chain(n, m, method, ka_mode, ref_frac, seed):
    cfg = critical_config(n, m)
    r_bar = ref_frac * n * cfg.range_pitch_m
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((2, 2, 3, n, m))
    x, y = draws[0] + 1j * draws[1]  # two (3, N, M) stacks
    focus = focusing_operator(cfg, r_bar, method, ka_mode)
    image = focus(x[0])
    assert rel_err(image, staged_chain(x[0], cfg, r_bar, method, ka_mode)) <= 1e-12
    a, b = 0.7 - 1.3j, -2.1 + 0.4j
    assert rel_err(focus(a * x[0] + b * y[0]),
                   a * image + b * focus(y[0])) <= 1e-12
    stack = focus(x)
    assert stack.shape == x.shape
    for t in range(x.shape[0]):
        assert rel_err(stack[t], focus(x[t])) <= 1e-12


@pytest.mark.parametrize("method", RCMC_METHODS)
@pytest.mark.parametrize("ka_mode", KA_MODES)
@pytest.mark.parametrize("shape", [(24, 40), (3, 24, 40)])
def test_operator_writes_into_out_bit_for_bit(method, ka_mode, shape):
    # all three passes run in the caller's buffer, or in the input itself,
    # and give the bits of a fresh result
    cfg = critical_config(*shape[-2:])
    focus = focusing_operator(cfg, 0.6 * shape[-2] * cfg.range_pitch_m,
                              method, ka_mode)
    draws = np.random.default_rng(7).standard_normal((2,) + shape)
    x = draws[0] + 1j * draws[1]
    kept = x.tobytes()
    expected = focus(x).tobytes()
    assert x.tobytes() == kept  # a fresh result leaves x as it was
    buf = np.empty_like(x)
    assert focus(x, out=buf) is buf
    assert buf.tobytes() == expected
    assert x.tobytes() == kept
    assert focus(x, out=x) is x
    assert x.tobytes() == expected


@pytest.mark.parametrize("method", RCMC_METHODS)
@pytest.mark.parametrize("ka_mode", KA_MODES)
def test_operator_build_peaks_under_three_grids(method, ka_mode):
    # the operator keeps H and, per range bin, A: at most two (N, M) grids.
    # The matched phase is scaled and both multipliers are ifftshifted in
    # place, so the build peaks under three grids, with the bits of the
    # out-of-place build.  A first untraced build fills the caches; the
    # 1024x171 grid is the NR pilot sweep's
    n, m = 1024, 171
    cfg = critical_config(n, m)
    r_bar = 0.6 * n * cfg.range_pitch_m
    focusing_operator(cfg, r_bar, method, ka_mode)
    tracemalloc.start()
    try:
        focus = focusing_operator(cfg, r_bar, method, ka_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * m * 16, peak / (n * m * 16)
    transfer = rd_imaging._rcmc_transfer(cfg, r_bar, method,
                                         rd_imaging.RCMC_HALFWIDTH)
    phase = rd_imaging._matched_phase(cfg, ka_mode, r_bar) * (
        rd_imaging._SPA_RESIDUAL * np.sqrt(n))
    assert focus.range_multiplier.tobytes() == np.fft.ifftshift(
        transfer, axes=-1).tobytes()
    assert focus.azimuth_multiplier.tobytes() == np.fft.ifftshift(
        phase, axes=-1).tobytes()


def test_ensemble_builds_rcmc_transfer_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _shift_transfer(*args)

    monkeypatch.setattr(rd_imaging, "_shift_transfer", counting)
    cfg = critical_config(16, 16, k_ref=8).with_noise(0.1)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    run_point_ensemble(scene, cfg, make_qam("qpsk"), FilterSpec("mf"),
                       trials=5, seed=3)
    assert len(calls) == 1


# Stationary-phase helpers ----------------------------------------------------

def test_spa_matches_fft_for_slow_chirp():
    # |SPA| within 10% of |FFT| over the central 80% of the Doppler support
    m_count = 1024
    a = np.pi * 200 / m_count ** 2  # time-bandwidth product 200
    b = 0.3
    m = np.arange(m_count)
    signal = np.exp(1j * (a * m ** 2 + b * m))
    spectrum = np.fft.fftshift(np.fft.fft(signal))
    bins = np.arange(m_count) - m_count // 2
    envelope = np.ones(m_count)
    # the support spans the instantaneous-frequency sweep [b, 2aM + b]
    p_lo = b * m_count / (2 * np.pi)
    p_hi = (2 * a * m_count + b) * m_count / (2 * np.pi)
    width = p_hi - p_lo
    checked = 0
    for p, actual in zip(bins, spectrum):
        if not p_lo + 0.1 * width <= p <= p_hi - 0.1 * width:
            continue
        res = spa_spectrum(envelope, a, b, m_count, p)
        assert res.in_support
        checked += 1
        assert abs(res.value) == pytest.approx(abs(actual), rel=0.1)
    assert checked > 100


def test_spa_out_of_support_is_zero():
    res = spa_spectrum(np.ones(64), a=0.01, b=0.0, m_count=64, p=-30)
    assert res.value == 0
    assert not res.in_support


def test_spa_short_or_zero_envelope_does_not_warn():
    # an envelope under 4 samples has no interior to compare, and an
    # all-zero one no peak to scale by
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = spa_spectrum(np.ones(3), a=0.5, b=0.0, m_count=3, p=0)
        zero = spa_spectrum(np.zeros(64), a=0.01, b=0.0, m_count=64, p=2)
    assert short.in_support and zero.in_support
    assert zero.value == 0


def test_spa_validation_and_warning():
    with pytest.raises(InvalidParameterError):
        spa_spectrum(np.ones(64), a=0.0, b=0.0, m_count=64, p=0)
    with pytest.raises(InvalidParameterError):
        spa_spectrum(np.ones((8, 8)), a=0.1, b=0.0, m_count=64, p=0)
    # an envelope that varies as fast as the phase triggers a warning
    m = np.arange(256)
    fast = 1.0 + 0.9 * np.sin(2 * np.pi * m / 4)
    with pytest.warns(RuntimeWarning):
        spa_spectrum(fast, a=1e-5, b=0.0, m_count=256, p=0)
