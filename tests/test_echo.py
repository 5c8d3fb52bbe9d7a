from dataclasses import replace

import numpy as np
import pytest

from scenes import critical_config, single_target_scene, target_at_bins
from ofdmsar.echo import (build_channel_matrix, check_cp_margin, draw_noise,
                          grid_from_bytes, grid_to_bytes, synthesize_echo)
from ofdmsar.errors import (ConfigurationError, InvalidParameterError,
                            SceneError, StageError)
from ofdmsar.scene import PointTarget, make_point_scene
from ofdmsar.waveform import (NOISE_STREAM, SPEED_OF_LIGHT as c, _philox,
                              gen_symbol_grid, make_qam)


def test_channel_single_cell_hand_computed():
    # one deterministic scatterer: evaluate the three phase factors by hand
    cfg = critical_config(8, 8)
    scene = single_target_scene(cfg, k_bin=3, m_bin=2)
    target = scene.targets[0]
    h = build_channel_matrix(scene, cfg)
    n, m = 5, 6
    r_bar = np.hypot(target.x_m, cfg.platform.height_m)
    offset = cfg.platform.speed_mps * m * cfg.total_symbol_s - target.y_m
    d_r = offset**2 / (2 * r_bar)
    phase = (-4 * np.pi / c) * (
        n * cfg.subcarrier_spacing_hz * (d_r + r_bar)
        + cfg.fc_hz * d_r
        + cfg.fc_hz * r_bar)
    assert h[n, m] == pytest.approx(np.exp(1j * phase), abs=1e-9)
    assert np.allclose(np.abs(h), 1.0)


def test_channel_superposition():
    cfg = critical_config(16, 16)
    s1 = single_target_scene(cfg, k_bin=4, m_bin=8)
    s2 = single_target_scene(cfg, k_bin=9, m_bin=3)
    both = make_point_scene(list(s1.targets) + list(s2.targets))
    assert np.allclose(build_channel_matrix(both, cfg),
                       build_channel_matrix(s1, cfg) + build_channel_matrix(s2, cfg))


def test_channel_amplitude_override_and_validation():
    cfg = critical_config(8, 8)
    scene = single_target_scene(cfg)
    h1 = build_channel_matrix(scene, cfg)
    h2 = build_channel_matrix(scene, cfg, amplitudes=np.array([2.0 + 0j]))
    assert np.allclose(h2, 2.0 * h1)
    with pytest.raises(InvalidParameterError):
        build_channel_matrix(scene, cfg, amplitudes=np.zeros(3, dtype=complex))
    with pytest.raises(SceneError):
        build_channel_matrix(make_point_scene([]), cfg)


def test_echo_equals_channel_times_symbols():
    # the multiplicative model holds to machine precision
    cfg = critical_config(16, 16)
    scene = single_target_scene(cfg)
    symbols = gen_symbol_grid(cfg, make_qam("qam64"), seed=4)
    echo = synthesize_echo(scene, cfg, symbols)
    h = build_channel_matrix(scene, cfg)
    assert np.max(np.abs(echo - h * symbols)) == 0.0


def test_echo_mean_channel_power():
    # E|H_{n,m}|^2 = sum_q sigma^2_alpha for random-amplitude targets
    cfg = critical_config(8, 8)
    t1 = target_at_bins(cfg, 2, 3)
    t2 = target_at_bins(cfg, 5, 6)
    scene = make_point_scene([
        replace(t1, rcs_var=2.0, amplitude_mode="random"),
        replace(t2, rcs_var=0.5, amplitude_mode="random"),
    ])
    rng = np.random.default_rng(1)
    acc = 0.0
    trials = 400
    for _ in range(trials):
        amps = scene.draw_amplitudes(rng, 1)[0]
        h = build_channel_matrix(scene, cfg, amplitudes=amps)
        acc += np.mean(np.abs(h) ** 2)
    assert acc / trials == pytest.approx(sum(t.rcs_var for t in scene.targets), rel=0.15)


def test_echo_adds_configured_noise():
    cfg = critical_config(16, 16).with_noise(0.25)
    scene = single_target_scene(cfg)
    symbols = gen_symbol_grid(cfg, make_qam("qpsk"), seed=4)
    echo = synthesize_echo(scene, cfg, symbols, seed=7)
    h = build_channel_matrix(scene, cfg)
    z = echo - h * symbols
    assert np.mean(np.abs(z) ** 2) == pytest.approx(0.25, rel=0.15)
    again = synthesize_echo(scene, cfg, symbols, seed=7)
    other = synthesize_echo(scene, cfg, symbols, seed=8)
    assert np.array_equal(echo, again)
    assert not np.array_equal(echo, other)


def test_draw_noise_statistics_and_batching():
    cfg = critical_config(32, 32).with_noise(2.0)
    batch = draw_noise(cfg, noise_seed=3, n_trials=4)
    assert batch.shape == (4, 32, 32)
    assert np.mean(np.abs(batch) ** 2) == pytest.approx(2.0, rel=0.1)
    single = draw_noise(cfg, noise_seed=3, n_trials=1)
    assert np.array_equal(batch[0], single[0])
    silent = draw_noise(critical_config(4, 4), noise_seed=3)
    assert np.all(silent == 0)


def test_unit_noise_scales_to_every_noise_variance():
    # one unit draw serves every SNR of a sweep: scaling it reproduces the
    # CN(0, noise_var) draw from the same seed bit for bit
    unit = draw_noise(critical_config(8, 8), noise_seed=3, n_trials=2,
                      unit=True)
    assert np.mean(np.abs(unit) ** 2) == pytest.approx(2.0, rel=0.3)
    for noise_var in (1e-3, 0.5, 7.0):
        cfg = critical_config(8, 8).with_noise(noise_var)
        scaled = draw_noise(cfg, noise_seed=3, n_trials=2)
        for t in range(2):
            assert np.array_equal(np.sqrt(noise_var / 2.0) * unit[t],
                                  scaled[t])


def test_noise_chunks_continue_one_stream():
    # the unit draw is the complex view of interleaved normal pairs, and
    # successive draws from one generator equal one batch bit for bit
    cfg = critical_config(4, 4).with_noise(0.3)
    parts = _philox(3, NOISE_STREAM).standard_normal((5, 4, 4, 2))
    unit = draw_noise(cfg, noise_seed=3, n_trials=5, unit=True)
    assert np.array_equal(unit, parts[..., 0] + 1j * parts[..., 1])
    for scale in (True, False):
        whole = draw_noise(cfg, noise_seed=3, n_trials=5, unit=scale)
        rng = _philox(3, NOISE_STREAM)
        chunks = [draw_noise(cfg, noise_seed=3, n_trials=size, unit=scale,
                             rng=rng) for size in (2, 2, 1)]
        assert np.array_equal(np.concatenate(chunks), whole)


def test_cp_margin_names_offending_target():
    # 8.33 us cyclic prefix admits round trips out to ~1250 m slant range
    from ofdmsar.geometry import PlatformGeometry
    from ofdmsar.pipeline import run_point_ensemble
    from ofdmsar.tf_filter import FilterSpec
    from ofdmsar.waveform import nr_config
    platform = PlatformGeometry(height_m=1000.0, speed_mps=50.0)
    cfg = nr_config(platform, n_subcarriers=16,
                    aperture_time_s=16 * 1.25 / 30e3)
    near = make_point_scene([PointTarget(300.0, 0.0)])
    check_cp_margin(near, cfg)  # fine
    far = make_point_scene([PointTarget(2000.0, 0.0)])
    with pytest.raises(ConfigurationError) as err:
        check_cp_margin(far, cfg)
    assert "target 0" in str(err.value)
    assert "cyclic prefix" in str(err.value)
    symbols = gen_symbol_grid(cfg, make_qam("qpsk"), seed=0)
    with pytest.raises(ConfigurationError):
        synthesize_echo(far, cfg, symbols)
    # the metrics path rejects it too, before any draw
    with pytest.raises(ConfigurationError, match="cyclic prefix"):
        run_point_ensemble(far, cfg, make_qam("qpsk"), FilterSpec(kind="rf"),
                           trials=1, seed=0)


def test_echo_grid_shape_validation():
    cfg = critical_config(8, 8)
    scene = single_target_scene(cfg)
    for shape in ((8, 9), (9, 8), (8,), (2, 8, 8)):
        with pytest.raises(ConfigurationError, match="symbol grid shape"):
            synthesize_echo(scene, cfg, np.ones(shape, dtype=complex))
    other = critical_config(16, 16)
    symbols = gen_symbol_grid(other, make_qam("qpsk"), seed=0)
    with pytest.raises(ConfigurationError):
        synthesize_echo(scene, cfg, symbols)
    echo = synthesize_echo(scene, cfg, np.ones((8, 8), dtype=complex))
    assert isinstance(echo, np.ndarray) and echo.shape == (8, 8)


# Binary grid serialization --------------------------------------------------

def test_grid_bytes_round_trip():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    for stage in ("tf", "rc", "rd", "rcmc", "ac"):
        blob = grid_to_bytes(data, stage)
        assert blob[:4] == b"OSAR"
        assert len(blob) == 32 + 16 * 35
        back, got_stage = grid_from_bytes(blob)
        assert got_stage == stage
        assert np.array_equal(back, data)


def test_grid_bytes_round_trip_every_bit_without_a_copy():
    # the pairs are read as a complex view of the blob, so signed zeros,
    # infinities and NaN payloads come back as written, and parsing
    # allocates no grid; a blob in a bytearray gives a writable grid
    data = np.array([[0.0, -0.0, complex(-0.0, -0.0), 1.5 - 2j],
                     [complex(np.inf, -np.inf), complex(3.0, np.inf),
                      complex(np.nan, 1.0), complex(-np.inf, -0.0)]])
    blob = grid_to_bytes(data, "rd")
    back, _ = grid_from_bytes(blob)
    assert back.tobytes() == data.tobytes()
    assert back.base is not None and not back.flags.writeable
    assert grid_from_bytes(bytearray(blob))[0].flags.writeable


def test_grid_bytes_validation():
    data = np.zeros((2, 2), dtype=complex)
    with pytest.raises(StageError):
        grid_to_bytes(data, "cooked")
    with pytest.raises(InvalidParameterError):
        grid_to_bytes(np.zeros(4, dtype=complex))
    blob = grid_to_bytes(data, "rc")
    with pytest.raises(InvalidParameterError):
        grid_from_bytes(blob[:10])
    with pytest.raises(InvalidParameterError):
        grid_from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(InvalidParameterError):
        grid_from_bytes(blob + b"\x00")
    bad_version = blob[:4] + b"\x02\x00\x00\x00" + blob[8:]
    with pytest.raises(InvalidParameterError):
        grid_from_bytes(bad_version)
    bad_stage = blob[:16] + b"\x09" + blob[17:]
    with pytest.raises(StageError):
        grid_from_bytes(bad_stage)
