import importlib.util
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenes import (amplitude_trials, critical_config, index_trials,
                    noise_trials, raw_indices, raw_unit_noise,
                    single_target_scene, symbol_trials, target_at_bins)
from ofdmsar import pipeline
from ofdmsar.cli import (OutputSelection, ScenarioConfig, _sweep_points,
                         run_scenario)
from ofdmsar.echo import build_channel_matrix, grid_to_bytes
from ofdmsar.errors import InvalidParameterError, MeasurementError
from ofdmsar.pipeline import (pilot_comb_mask, point_target_report,
                              run_point_ensemble, run_sweep_ensemble)
from ofdmsar.rd_imaging import FocusingOperator, focus_image
from ofdmsar.scene import Scene
from ofdmsar.tf_filter import FilterSpec, apply_tf_filter, filter_gains
from ofdmsar.waveform import (_BLOCK_BYTES, RCS_STREAM, SrsConfig, _philox,
                              chi_stats, gen_symbol_grid, gen_symbol_indices,
                              make_qam)

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep_peak.py"
_spec = importlib.util.spec_from_file_location("sweep_peak", TOOL)
sweep_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_peak)
sweep_peak_grids = sweep_peak.sweep_peak_grids

PER_TRIAL = ("noiseless_peaks", "noisy_peaks", "reference_peaks", "mse",
             "mse_calibrated")
ARRAYS = PER_TRIAL + ("noisy_power_sum", "noisy_mainlobe_power",
                      "noisy_range_power", "noisy_azimuth_power",
                      "noiseless_range_power", "noiseless_azimuth_power")
# a pilot comb of period one: its decimated grid is the grid itself
COMB = SrsConfig(periodicity_slots=1, symbols_per_slot=1, comb_spacing=4,
                 n_resource_blocks=1, start_subcarrier=2)


def sweep_points(cfg):
    points = []
    for snr_db in (-5.0, 5.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    points.append((cfg, FilterSpec("mf")))  # noiseless
    return points


def random_target_scene(cfg):
    """(scene, its reference alone): a deterministic reference at the
    grid's centre bin and a random-amplitude target 2.5 range bins away."""
    k, m = cfg.n_subcarriers // 2, cfg.n_symbols // 2
    ref = target_at_bins(cfg, k, m)
    rnd = replace(target_at_bins(cfg, k + 2.5, m), amplitude_mode="random")
    extent = (ref.x_m - 100, rnd.x_m + 100, ref.y_m - 100, ref.y_m + 100)
    return (Scene(targets=(ref, rnd), extent=extent),
            Scene(targets=(ref,), extent=extent))


def comb_mask(cfg):
    return pilot_comb_mask(cfg, COMB)


def power_cuts(noisy_power, clean_power, peak_bin):
    """An EnsembleResult's power fields, read from whole mean |.|^2 images."""
    k, m = peak_bin
    n_bins, m_bins = noisy_power.shape
    hw = pipeline.MAINLOBE_HALFWIDTH_BINS
    lobe = np.ix_(np.arange(k - hw, k + hw + 1) % n_bins,
                  np.arange(m - hw, m + hw + 1) % m_bins)
    return {"noisy_power_sum": np.sum(noisy_power),
            "noisy_mainlobe_power": noisy_power[lobe],
            "noisy_range_power": noisy_power[:, m],
            "noisy_azimuth_power": noisy_power[k],
            "noiseless_range_power": clean_power[:, m],
            "noiseless_azimuth_power": clean_power[k]}


def record_range_doppler(monkeypatch, record):
    """Calls record(x, out) on every range_doppler pass, the one focusing
    step a sweep runs."""
    real = FocusingOperator.range_doppler

    def recorded(self, x, out=None):
        record(x, out)
        return real(self, x, out=out)
    monkeypatch.setattr(FocusingOperator, "range_doppler", recorded)


def draw_cell_bytes(constellation, noisy):
    """Bytes per (N, M) cell of one trial's draws: its symbol index and, in
    a noisy sweep, its complex unit noise."""
    return constellation.index_dtype.itemsize + 16 * noisy


@pytest.mark.parametrize("masked", [False, True])
def test_sweep_equals_single_point_runs(masked):
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    mask = comb_mask(cfg) if masked else None
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    swept = list(run_sweep_ensemble(scene, points, qpsk, trials=3, seed=5,
                                    mask=mask))
    assert len(swept) == len(points)
    for (cfg_n, spec), result in zip(points, swept):
        alone = run_point_ensemble(scene, cfg_n, qpsk, spec, trials=3,
                                   seed=5, mask=mask)
        assert result.cfg == cfg_n and result.filter_spec == spec
        assert result.mode == ("pilot_only" if masked else "data_aided")
        assert result.peak_bin == alone.peak_bin
        assert result.alpha_ref == alone.alpha_ref
        for name in ARRAYS:
            assert np.array_equal(getattr(result, name),
                                  getattr(alone, name)), (spec.kind, name)


@pytest.mark.parametrize("chunk", [2, None])
@pytest.mark.parametrize("name, masked, per_trial", [("qpsk", True, 1),
                                                     ("qam16", False, 7)])
def test_sweep_focuses_each_distinct_response_once(name, masked, per_trial,
                                                   chunk, monkeypatch):
    # rf/mf/wf x 2 SNRs.  QPSK: every gain is a real multiple of conj(s),
    # so one noise grid per trial and one clean image per sweep serve all
    # six points.  QAM16: rf's clean image once per sweep; one rf and one
    # mf noise grid and one mf clean grid per trial serve both SNRs; wf
    # focuses both per SNR.  Focusing every point's two images takes 12.
    # The reference image, the channel's own, is one pass per sweep: it is
    # F(channel * act) itself without the comb, and one more with it
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    calls = []
    record_range_doppler(monkeypatch, lambda x, out: calls.append(x.shape))
    if chunk is not None:
        # the 5 trials' draws exceed about 2 trials' budget, so the worker
        # draws them
        monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", chunk * 16 * 16 * 16)
    points = []
    for snr in (1.0, 10.0):
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    trials = 5
    mask = comb_mask(cfg) if masked else None
    results = list(run_sweep_ensemble(scene, points, make_qam(name), trials,
                                      seed=5, mask=mask))
    assert len(results) == len(points)
    assert len(calls) == per_trial * trials + 1 + masked
    assert set(calls) == {(16, 16)}


def chi_grid(symbols, spec, constellation):
    """chi = s * g on every cell, 0 on the inactive ones, as the sweep
    models it: one real number on every active cell where the alphabet and
    the filter make it one (rf's s / s = 1, and rho / level on a
    constant-modulus alphabet), which s * g reaches only to round-off.  So
    a residual that is 0 in exact arithmetic is 0 here too."""
    reads = pipeline._focus_reads(constellation, spec)
    if reads.signal is None:
        return (symbols != 0) * reads.chi
    return symbols * filter_gains(symbols, spec)


def recomputed(scene, cfg, spec, constellation, trials, seed, mask, result,
               rcmc_method="windowed_sinc", ka_mode="reference"):
    """Each trial's images focused on their own, as the filtered-echo
    model defines them, reduced like an EnsembleResult against the
    reference image, the focused channel of the trial's scene.  Each
    residual is summed as F(channel * (chi - c)) + noise, for c = 1 and
    c = E[chi], which does not cancel where the clean image is near the
    reference."""
    symbols = symbol_trials(cfg, constellation, seed, trials, mask)
    unit = noise_trials(cfg, seed, trials, unit=True)
    amps = amplitude_trials(scene, seed, trials)
    scale = np.sqrt(cfg.noise_var / 2.0)
    e_chi = chi_stats(constellation, spec).chi_mean
    k_q, m_q = result.peak_bin
    out = {name: [] for name in PER_TRIAL + ("noisy", "clean")}

    def focus(x):
        return focus_image(x, cfg, result.r_bar_ref_m, rcmc_method, ka_mode)
    for t in range(trials):
        channel = build_channel_matrix(scene, cfg, amps[t])
        chi = chi_grid(symbols[t], spec, constellation)
        gains = filter_gains(symbols[t], spec)
        clean = focus(channel * symbols[t] * gains)
        noise = focus(scale * unit[t] * gains)
        noisy = clean + noise
        out["noiseless_peaks"].append(clean[k_q, m_q] / result.alpha_ref)
        out["noisy_peaks"].append(noisy[k_q, m_q] / result.alpha_ref)
        out["reference_peaks"].append(
            focus(channel)[k_q, m_q] / result.alpha_ref)
        out["mse"].append(np.sum(np.abs(focus(channel * (chi - 1.0))
                                        + noise) ** 2))
        out["mse_calibrated"].append(np.sum(
            np.abs(focus(channel * (chi - e_chi)) + noise) ** 2)
            / e_chi ** 2)
        out["clean"].append(np.abs(clean) ** 2)
        out["noisy"].append(np.abs(noisy) ** 2)
    cuts = power_cuts(np.mean(out.pop("noisy"), axis=0),
                      np.mean(out.pop("clean"), axis=0), result.peak_bin)
    return {**{name: np.array(value) for name, value in out.items()}, **cuts}


@pytest.mark.parametrize("name, masked, random, shape, options", [
    pytest.param("qpsk", True, False, (16, 16), {}, id="qpsk-True-False"),
    pytest.param("qam16", False, False, (16, 16), {}, id="qam16-False-False"),
    pytest.param("qpsk", False, True, (16, 16), {}, id="qpsk-False-True"),
    # A with one row per range bin, on a grid with N != M
    pytest.param("qam16", False, True, (16, 24), {"ka_mode": "per_range_bin"},
                 id="per_range_bin"),
    pytest.param("qam64", False, False, (24, 16),
                 {"rcmc_method": "phase_ramp"}, id="phase_ramp"),
    # QAM256 indices are uint16, the comb's sentinel being 256
    pytest.param("qam256", True, False, (16, 16), {}, id="qam256-comb"),
    # each trial drawn on the worker, one ahead
    pytest.param("qam16", True, True, (16, 16), {"budget": 1},
                 id="multi-chunk")])
def test_shared_focusing_moves_results_by_round_off_only(
        name, masked, random, shape, options, monkeypatch):
    options = dict(options)
    if "budget" in options:
        monkeypatch.setattr(pipeline, "_PREFETCH_BYTES",
                            options.pop("budget"))
    cfg = critical_config(*shape, k_ref=8)
    scene = (random_target_scene(cfg)[0] if random else
             single_target_scene(cfg, k_bin=8, m_bin=8))
    mask = comb_mask(cfg) if masked else None
    qam = make_qam(name)
    points = sweep_points(cfg)
    swept = run_sweep_ensemble(scene, points, qam, trials=2, seed=5,
                               mask=mask, **options)
    for (cfg_n, spec), result in zip(points, swept):
        expected = recomputed(scene, cfg_n, spec, qam, 2, 5, mask, result,
                              **options)
        for array in ARRAYS:
            want = expected[array]
            error = np.max(np.abs(getattr(result, array) - want))
            assert error <= 1e-12 * np.max(np.abs(want)), (spec, array)


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_mse_is_never_negative_and_stays_accurate(name):
    # under rf (chi = 1) the image is its reference, the channel's own
    # image: against an image energy of 256 the MSE is exactly 0
    # noiseless and the noise's alone at 300 dB.  An MSE taken as
    # ||noisy||^2 - 2 Re<reference, noisy> + ||reference||^2 keeps only
    # the round-off of that energy, and can go negative where the image
    # matches its reference to round-off
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    snr = 1e30
    points = [(cfg, FilterSpec("rf")),
              (cfg.with_noise(1.0 / snr, snr_in_linear=snr),
               FilterSpec("rf", snr_in_linear=snr))]
    qam = make_qam(name)
    swept = run_sweep_ensemble(scene, points, qam, trials=3, seed=5)
    for (cfg_n, spec), result in zip(points, swept):
        point_target_report(result)
        expected = recomputed(scene, cfg_n, spec, qam, 3, 5, None, result)
        for array in ("mse", "mse_calibrated"):
            got, want = getattr(result, array), expected[array]
            assert (got >= 0).all(), (spec, array)
            error = np.max(np.abs(got - want))
            assert error <= 1e-12 * np.max(np.abs(want)), (spec, array)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_per_grid_reductions_stay_accurate_near_the_floor(name, masked):
    # a point's sums combine per-grid sums of squares and the noise's cross
    # terms with scalars.  On a critical phase_ramp 64x64 grid a point's
    # deterministic residual chi S - c R against the reference R, the
    # channel's own image, is 0 under rf and under mf on QPSK, falls as
    # 1 / SNR^2 under wf, and stays far above the noise under mf on QAM16
    # and under the comb, whose image misses most of the target's energy.
    # From 30 to 280 dB the noise energy falls far below those last two,
    # and towards 0 where the residual is 0 or tends to it: there a
    # residual taken as the difference of two focused grids S - R keeps
    # the round-off of ||S||, and a cross term split as chi <S, Z> - <R, Z>
    # that of ||R|| ||Z||, rather than the residual's.  Each MSE and total
    # stays non-negative and within 1e-13 of the |.|^2 sums over the
    # focused images, F(channel * (chi - c)) + noise for each MSE, for
    # every filter and the noiseless point; a sum that is 0 must be 0
    cfg = critical_config(64, 64, k_ref=32)
    scene = single_target_scene(cfg, k_bin=32, m_bin=32)
    mask = comb_mask(cfg) if masked else None
    qam = make_qam(name)
    points = [(cfg, FilterSpec("mf"))]
    for snr_db in (30.0, 100.0, 200.0, 280.0):
        snr = 10.0 ** (snr_db / 10.0)
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    swept = run_sweep_ensemble(scene, points, qam, trials=3, seed=5,
                               mask=mask, rcmc_method="phase_ramp")
    for (cfg_n, spec), result in zip(points, swept):
        expected = recomputed(scene, cfg_n, spec, qam, 3, 5, mask, result,
                              rcmc_method="phase_ramp")
        for array in ("mse", "mse_calibrated", "noisy_power_sum"):
            got, want = getattr(result, array), expected[array]
            assert np.all(got >= 0), (spec, array)
            error = np.abs(got - want)
            assert np.all(error <= 1e-13 * want), (
                spec, cfg_n.noise_var, array, error / want)


def test_per_trial_reductions_do_not_grow_with_the_points(monkeypatch):
    # QPSK reads one noise grid Z per trial and F(channel * act), which is
    # the reference R itself, so every point is a scalar combination of
    # |Z|^2 and Re <R, Z>: 3 points and 33 make the same full-grid sums and
    # inner products per trial.  Their sweep-constant sums are made once,
    # before any draw
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    # _inner(a, a) is a sum of squares, _inner(a, b) an inner product
    calls = []
    real = pipeline._inner

    def recorded(a, b):
        calls.append("square" if a is b else "inner")
        return real(a, b)
    monkeypatch.setattr(pipeline, "_inner", recorded)

    def per_trial(snrs_db):
        points = []
        for snr_db in snrs_db:
            snr = 10.0 ** (snr_db / 10.0)
            cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
            points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                       for kind in ("rf", "mf", "wf")]
        counts = []
        for trials in (2, 4):
            calls.clear()
            run_sweep_ensemble(scene, points, make_qam("qpsk"), trials,
                               seed=5)
            counts.append({h: calls.count(h) for h in ("square", "inner")})
        return {h: (counts[1][h] - counts[0][h]) / 2 for h in counts[0]}
    few = per_trial([10.0])
    many = per_trial(np.linspace(-10.0, 40.0, 11))
    assert few == many == {"square": 1, "inner": 1}


def test_qam256_matched_filter_is_its_own_calibration():
    # mf's E[chi] is exactly 1, so its calibrated MSE is its MSE, bit for
    # bit: both read its signal grid's own sum of squares
    cfg = critical_config(32, 32).with_noise(0.5, snr_in_linear=2.0)
    scene = single_target_scene(cfg, k_bin=16, m_bin=16)
    result = run_point_ensemble(scene, cfg, make_qam("qam256"),
                                FilterSpec("mf"), 3, seed=5)
    assert result.stats.chi_mean == 1.0
    assert result.mse_calibrated.tobytes() == result.mse.tobytes()


def test_sweep_rejects_points_that_change_the_geometry():
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qpsk = make_qam("qpsk")
    spec = FilterSpec("mf")
    other = replace(cfg, fc_hz=3.6e9)
    with pytest.raises(InvalidParameterError, match="differ only in noise_var"):
        run_sweep_ensemble(scene, [(cfg, spec), (other, spec)], qpsk,
                           trials=1, seed=0)
    with pytest.raises(InvalidParameterError, match="at least one point"):
        run_sweep_ensemble(scene, [], qpsk, trials=1, seed=0)
    with pytest.raises(InvalidParameterError, match="trials must be >= 1"):
        run_sweep_ensemble(scene, [(cfg, spec)], qpsk, trials=0, seed=0)


def test_sweep_rejects_a_static_platform():
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    static = replace(cfg, platform=replace(cfg.platform, speed_mps=0.0))
    with pytest.raises(InvalidParameterError, match="static platform"):
        run_point_ensemble(scene, static, make_qam("qpsk"), FilterSpec("mf"),
                           trials=1, seed=0)


def test_sweep_rejects_an_undersampled_azimuth_chirp(monkeypatch):
    # K_a grows with fc; the 16x16 critical geometry has K_a T^2 = 1/16 at
    # 3.5 GHz.  Just above the bound the sweep draws nothing; just below it
    # runs
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    draws = []
    real = pipeline.gen_symbol_indices

    def recording(*args, **kwargs):
        draws.append(kwargs["out"].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "gen_symbol_indices", recording)
    fc_bound = 3.5e9 * pipeline.MAX_DOPPLER_STEP * 16
    above = replace(cfg, fc_hz=fc_bound * (1 + 1e-9))
    with pytest.raises(InvalidParameterError, match="undersamples"):
        run_point_ensemble(scene, above, make_qam("qpsk"), FilterSpec("mf"),
                           trials=1, seed=0)
    assert draws == []
    below = replace(cfg, fc_hz=fc_bound * (1 - 1e-9))
    run_point_ensemble(scene, below, make_qam("qpsk"), FilterSpec("mf"),
                       trials=1, seed=0)
    assert draws == [(16, 16)]


def test_report_needs_the_mainlobe_inside_the_image():
    # the sweep reduces a mainlobe that wraps around the image edge; the
    # report rejects it
    cfg = critical_config(16, 16, k_ref=8)
    result = run_point_ensemble(single_target_scene(cfg, k_bin=8, m_bin=0),
                                cfg, make_qam("qpsk"), FilterSpec("mf"),
                                trials=1, seed=0)
    assert result.noisy_mainlobe_power.shape == (3, 3)
    with pytest.raises(MeasurementError, match=(
            r"mainlobe region around \(8, 0\) with halfwidth 1 exceeds "
            r"the \(16, 16\) image")):
        point_target_report(result)


def test_report_rejects_an_output_snr_beyond_float_range():
    cfg = critical_config(16, 16, k_ref=8).with_noise(5e-324,
                                                      snr_in_linear=1e300)
    result = run_point_ensemble(single_target_scene(cfg, k_bin=8, m_bin=8),
                                cfg, make_qam("qpsk"), FilterSpec("mf"),
                                trials=1, seed=0)
    with pytest.raises(MeasurementError, match="outside the float64 range"):
        point_target_report(result)


def assert_sweep_does_not_depend_on_chunk_size(monkeypatch, constellation,
                                               points, mask=None):
    # each stream is drawn one trial per call, on the main thread or, past
    # the prefetch budget, on the worker, and the sequential Philox draws
    # equal the seed's stream drawn in one call for all the trials bit for
    # bit, the random targets' amplitudes included
    cfg = points[0][0]
    noisy = any(cfg_n.noise_var > 0 for cfg_n, _ in points)
    trials = 15
    drawn = {"symbols": [], "noise": [], "amplitudes": []}

    def recording(stream, draw):
        def recorded(*args, **kwargs):
            result = draw(*args, **kwargs)
            drawn[stream].append(np.array(result))
            return result
        return recorded
    monkeypatch.setattr(pipeline, "gen_symbol_indices",
                        recording("symbols", pipeline.gen_symbol_indices))
    monkeypatch.setattr(pipeline, "draw_noise",
                        recording("noise", pipeline.draw_noise))
    monkeypatch.setattr(Scene, "draw_amplitudes",
                        recording("amplitudes", Scene.draw_amplitudes))
    batch = {"symbols": raw_indices(constellation, 5, (trials, 16, 16), mask),
             "noise": raw_unit_noise(5, (trials, 16, 16))}
    for scene in (single_target_scene(cfg, k_bin=8, m_bin=8),
                  random_target_scene(cfg)[0]):
        random = scene.q > 1
        drawn["amplitudes"].clear()
        # the reference target's sqrt(rcs_var) = 1, and the random one's
        # CN(0, 1) draws
        amplitudes = np.ones((trials, scene.q), dtype=complex)
        if random:
            pairs = _philox(5, RCS_STREAM).standard_normal((trials, 2))
            amplitudes[:, 1] = np.sqrt(0.5) * (pairs[:, 0] + 1j * pairs[:, 1])
        cell = draw_cell_bytes(constellation, noisy)
        for budget in (trials * cell * 16 * 16, 0):  # this thread, the worker
            monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", budget)
            for stream in drawn:
                drawn[stream].clear()
            run_sweep_ensemble(scene, points, constellation, trials, seed=5,
                               mask=mask)
            assert [len(drawn[s]) for s in drawn] == [
                trials, trials if noisy else 0, trials if random else 0]
            assert np.array_equal(drawn["symbols"], batch["symbols"])
            if noisy:
                assert np.array_equal(drawn["noise"], batch["noise"])
            if random:
                assert np.array_equal(drawn["amplitudes"], amplitudes)


@pytest.mark.parametrize("masked", [False, True])
def test_sweep_does_not_depend_on_chunk_size(masked, monkeypatch):
    # every point reads one mf noise grid, and F(channel * act)
    cfg = critical_config(16, 16, k_ref=8)
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qpsk"), sweep_points(cfg),
        comb_mask(cfg) if masked else None)


def test_qam16_sweep_does_not_depend_on_chunk_size(monkeypatch):
    # not constant-modulus: points read per-gain grids, some shared (rf and
    # mf noise, mf signal, and rf's F(channel * act))
    cfg = critical_config(16, 16, k_ref=8)
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qam16"), sweep_points(cfg))


def test_noiseless_sweep_does_not_depend_on_chunk_size(monkeypatch):
    cfg = critical_config(16, 16, k_ref=8)
    points = [(cfg, FilterSpec(kind, snr_in_linear=10.0))
              for kind in ("rf", "mf", "wf")]
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qpsk"), points)


@pytest.mark.parametrize("case", ["noisy", "noiseless", "comb", "random"])
def test_worker_draws_keep_the_main_thread_bits(case, monkeypatch):
    # past the prefetch budget the worker draws each trial while the one
    # before it is focused; every result equals that of the sweep drawn on
    # this thread bit for bit.  QAM16 rf/mf/wf reads per-gain grids; the
    # random target's amplitudes are drawn on this thread either way
    cfg = critical_config(16, 16, k_ref=8)
    scene = (random_target_scene(cfg)[0] if case == "random"
             else single_target_scene(cfg, k_bin=8, m_bin=8))
    points = ([(cfg, FilterSpec(kind, snr_in_linear=10.0))
               for kind in ("rf", "mf", "wf")] if case == "noiseless"
              else sweep_points(cfg))
    mask = comb_mask(cfg) if case == "comb" else None
    threads = []
    real = pipeline.gen_symbol_indices

    def recording(*args, **kwargs):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "gen_symbol_indices", recording)
    runs = []
    for budget, main in ((1 << 30, True), (0, False)):
        monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", budget)
        threads.clear()
        runs.append(run_sweep_ensemble(scene, points, make_qam("qam16"), 7,
                                       seed=5, mask=mask))
        assert threads == [main] * 7
    for ref, result in zip(*runs):
        assert result.peak_bin == ref.peak_bin
        assert result.alpha_ref == ref.alpha_ref
        for name in ARRAYS:
            assert np.array_equal(getattr(result, name),
                                  getattr(ref, name)), name


def multi_chunk_sweep(monkeypatch, trials=6, noisy=True):
    """A 16x16 QPSK sweep whose draws exceed the prefetch budget, so the
    worker draws each trial while the one before it is focused."""
    monkeypatch.setattr(pipeline, "_PREFETCH_BYTES",
                        draw_cell_bytes(make_qam("qpsk"), noisy) * 16 * 16)
    cfg = critical_config(16, 16, k_ref=8)
    points = sweep_points(cfg) if noisy else [(cfg, FilterSpec("mf"))]
    return run_sweep_ensemble(single_target_scene(cfg, k_bin=8, m_bin=8),
                              points, make_qam("qpsk"), trials, seed=5)


def test_closed_sweep_leaves_no_worker_thread(monkeypatch):
    # a sweep past the prefetch budget draws on a worker, with or without
    # noise, and joins it before it returns
    before = threading.active_count()
    seen = []
    real = pipeline.gen_symbol_indices

    def counting(*args, **kwargs):
        seen.append(threading.active_count())
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "gen_symbol_indices", counting)
    for noisy, points in ((True, 10), (False, 1)):
        seen.clear()
        assert len(multi_chunk_sweep(monkeypatch, noisy=noisy)) == points
        assert max(seen) == before + 1  # the worker, while it draws
        assert threading.active_count() == before


def assert_failing_draw_reaches_the_caller(monkeypatch, name):
    real = getattr(pipeline, name)
    fills = []

    def failing(*args, **kwargs):
        fills.append(threading.current_thread() is threading.main_thread())
        if len(fills) == 2:
            raise RuntimeError(f"{name} failed")
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, name, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{name} failed"):
        list(multi_chunk_sweep(monkeypatch))
    assert fills and not any(fills)  # every draw ran on the worker
    assert threading.active_count() == before


def test_failing_noise_fill_reaches_the_caller(monkeypatch):
    assert_failing_draw_reaches_the_caller(monkeypatch, "draw_noise")


def test_failing_symbol_draw_reaches_the_caller(monkeypatch):
    assert_failing_draw_reaches_the_caller(monkeypatch, "gen_symbol_indices")


def test_concurrent_multi_chunk_sweeps_keep_their_bits(monkeypatch):
    # three sweeps, each drawing on its own worker one trial ahead, on more
    # threads than cores with a short switch interval: a trial that read a
    # buffer while its worker refilled it would change bits
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qam16 = make_qam("qam16")
    points = sweep_points(cfg)
    reference = list(run_sweep_ensemble(scene, points, qam16, 12, seed=5))
    monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", 3 * 16 * 16 * 16)
    outputs = [None] * 3

    def run(k):
        outputs[k] = list(run_sweep_ensemble(scene, points, qam16, 12,
                                             seed=5))
    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results in outputs:
        assert results is not None and len(results) == len(points)
        for ref, result in zip(reference, results):
            for name in ARRAYS:
                assert np.array_equal(getattr(result, name),
                                      getattr(ref, name)), name


def test_ensemble_needs_a_deterministic_reference():
    cfg = critical_config(16, 16, k_ref=8)
    scene = random_target_scene(cfg)[0]
    only_random = replace(scene, targets=scene.targets[1:])
    with pytest.raises(InvalidParameterError, match="deterministic reference"):
        run_point_ensemble(only_random, cfg, make_qam("qpsk"),
                           FilterSpec("mf"), trials=1, seed=0)


def test_random_targets_are_redrawn_per_trial():
    # the random target's range sidelobe reaches the reference peak; with
    # CN(0, rcs_var) amplitudes redrawn per trial it averages to zero, so
    # under the rf filter (chi = 1) the mean noiseless peak is the
    # reference's alone.  A fixed sqrt(rcs_var) amplitude biases it by 1.4.
    cfg = critical_config(16, 16, k_ref=8)
    scene, alone = random_target_scene(cfg)
    result = run_point_ensemble(scene, cfg, make_qam("qpsk"),
                                FilterSpec("rf"), trials=400, seed=3)
    image = focus_image(build_channel_matrix(alone, cfg), cfg,
                        result.r_bar_ref_m)
    expected = image[result.peak_bin] / result.alpha_ref
    peaks = result.noiseless_peaks
    std_err = np.std(peaks) / np.sqrt(peaks.size)
    assert np.std(peaks) > 0.1
    assert abs(np.mean(peaks) - expected) < 4 * std_err


def assert_rf_nmse_measures_the_filter(k_bin, m_bin):
    """A reciprocal filter at 60 dB leaves nearly nothing for NMSE to
    measure, wherever the target sits: the reference is the chain's own
    image of the scene, so an off-bin target's focused response, in range
    or azimuth, is the reference's too."""
    snr = 1e6
    cfg = critical_config(64, 64, k_ref=40).with_noise(1.0 / snr,
                                                       snr_in_linear=snr)
    target = target_at_bins(cfg, k_bin, m_bin)
    scene = Scene(targets=(target,),
                  extent=(target.x_m - 100, target.x_m + 100,
                          target.y_m - 100, target.y_m + 100))
    result = run_point_ensemble(scene, cfg, make_qam("qam16"),
                                FilterSpec("rf"), trials=2, seed=0)
    assert result.nmse < 1e-2, result.nmse


@pytest.mark.parametrize("k_bin", [40.0, 40.5, 40.25, 39.75])
def test_off_bin_range_target_nmse_measures_the_filter(k_bin):
    # an analytic reference with a sinc range factor read 4.86 half a bin
    # off and 1.21 a quarter bin off
    assert_rf_nmse_measures_the_filter(k_bin, 32)


@pytest.mark.parametrize("k_bin, m_bin", [(40, 32.5), (40.5, 32.5),
                                          (37, 20.5)])
def test_off_bin_azimuth_target_nmse_measures_the_filter(k_bin, m_bin):
    # a sampled azimuth chirp between two bins does not focus to a shifted
    # kernel: an analytic reference with a sinc azimuth factor read 0.275,
    # 0.669 and 0.876 here
    assert_rf_nmse_measures_the_filter(k_bin, m_bin)


@pytest.mark.parametrize("kind", ["rf", "mf", "wf"])
@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("masked", [False, True])
def test_cli_stage_grid_is_the_ensembles_trial_zero(masked, n, kind,
                                                    tmp_path):
    # the CLI draws the first point's trial 0 again, in one grid with the
    # operand order of the single-trial chain; its tf dump must be the
    # ensemble's trial 0, rebuilt here by that chain from the first of the
    # trials drawn one per call on each of the ensemble's streams, bit for
    # bit.
    # 128x128 grids pass numpy's 256 KiB temporary-elision threshold, past
    # which the operand order of the filter's product sets the bits
    cfg = critical_config(n, n)
    scene, _ = random_target_scene(cfg)
    scenario = ScenarioConfig(
        radar=cfg, scene=scene, filters=(kind,),
        srs=COMB if masked else None, snr_db=(5.0, 20.0), trials=3, seed=5,
        constellation="qam16", rcmc_method="windowed_sinc",
        ka_mode="reference",
        outputs=OutputSelection(images=(), grids=("tf",)))
    out = run_scenario(scenario, tmp_path)

    (cfg_5db, spec), *_ = _sweep_points(scenario)[1]
    symbols = symbol_trials(cfg, make_qam("qam16"), 5, 3,
                            comb_mask(cfg) if masked else None)[0]
    unit = noise_trials(cfg, 5, 3, unit=True)[0]
    amps = amplitude_trials(scene, 5, 3)[0]
    echo = (build_channel_matrix(scene, cfg, amps) * symbols
            + np.sqrt(cfg_5db.noise_var / 2.0) * unit)
    tf = apply_tf_filter(echo, symbols, spec)
    assert (out / "grid_tf.bin").read_bytes() == grid_to_bytes(tf, "tf")


def test_ensemble_memory_is_bounded_by_the_chunk_budget():
    # 64 trials of 128x128 grids make a 16 MiB (T, N, M) complex noise
    # stack and a 2 MiB uint16 index stack, at 18 bytes per cell past the
    # prefetch budget, so the worker draws them one trial ahead into two
    # pairs of buffers and the sweep holds two trials' draws
    cfg = critical_config(128, 128, k_ref=64).with_noise(0.5, snr_in_linear=2)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    assert 64 * 18 * 128 * 128 > pipeline._PREFETCH_BYTES
    tracemalloc.start()
    try:
        run_point_ensemble(scene, cfg, make_qam("qam256"), FilterSpec("mf"),
                           trials=64, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # half of one whole-ensemble stack


def qam16_sweep_points(cfg):
    points = []
    for snr in (1.0, 10.0):
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    return points


def test_sweep_focuses_into_buffers_it_allocates_once(monkeypatch):
    # QAM16 rf/mf/wf x 2 SNRs reads 8 distinct canonical grids: rf's
    # F(channel * act), the rf and mf noise grids, the mf signal grid, and
    # each wf point's signal and noise grids.  Without a comb
    # F(channel * act) is the reference R = range_doppler(channel), the one
    # pass into a new grid, once per sweep, or once per trial with the
    # random target.  Every trial takes the other 7 to the range-Doppler
    # domain in place, one group of points at a time: each signal grid in
    # one signal buffer and each noise grid in one noise buffer, both
    # allocated once, but the last noise grid, the second wf point's, which
    # is focused in the trial's own unit noise, read by no grid after it.
    # So the passes write 2 buffers and the unit-noise buffers of the
    # draws, one on this thread and two, alternately, on the worker, at any
    # trial count, and no result array shares memory with one
    cfg = critical_config(16, 16, k_ref=8)
    calls = []
    record_range_doppler(monkeypatch, lambda x, out: calls.append((x, out)))
    draws = []
    real = pipeline.draw_noise

    def recording(*args, **kwargs):
        draws.append(kwargs["out"])
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "draw_noise", recording)
    for scene in (single_target_scene(cfg, k_bin=8, m_bin=8),
                  random_target_scene(cfg)[0]):
        random = scene.q > 1
        # drawn on the worker into two pairs, and on this thread into one
        for budget, pairs in ((0, 2), (1 << 30, 1)):
            monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", budget)
            for trials in (6, 12):
                calls.clear()
                draws.clear()
                results = run_sweep_ensemble(
                    scene, qam16_sweep_points(cfg), make_qam("qam16"),
                    trials, seed=5)
                buffers = [out for _, out in calls if out is not None]
                assert len(calls) - len(buffers) == (trials if random else 1)
                assert len(buffers) == 7 * trials
                assert len(draws) == trials
                assert len({d.ctypes.data for d in draws}) == pairs
                # in pass order: rf's noise grid, then mf's and each wf
                # point's signal and noise grids
                own = [buffers[7 * t:7 * t + 6] for t in range(trials)]
                signal = {out.ctypes.data for passes in own
                          for out in passes[1::2]}
                noise = {out.ctypes.data for passes in own
                         for out in passes[::2]}
                assert len(signal) == len(noise) == 1
                assert not signal & noise
                assert not any(np.shares_memory(out, d) for passes in own
                               for out in passes for d in draws)
                # each trial's last pass is its last noise grid, in its
                # own unit noise
                for t in range(trials):
                    assert np.shares_memory(buffers[7 * t + 6], draws[t])
                assert len({out.ctypes.data for out in buffers}) == 2 + pairs
                for result in results:
                    for name in ARRAYS:
                        assert not any(
                            np.shares_memory(getattr(result, name), buf)
                            for buf in buffers), name


def test_worker_draws_symbols_into_two_buffers_allocated_once(monkeypatch):
    # a noisy QAM16 sweep holds 17 bytes per cell of a trial's draws (a
    # uint8 index and the complex unit noise); past a budget of 8 trials'
    # draws the worker draws every trial's indices into one of two index
    # grids, alternately, so it allocates no index grid, and the grids do
    # not grow with the trial count
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    calls = []
    real = pipeline.gen_symbol_indices

    def recording(*args, **kwargs):
        calls.append((threading.current_thread() is threading.main_thread(),
                      kwargs.get("out")))
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "gen_symbol_indices", recording)
    cell = draw_cell_bytes(make_qam("qam16"), noisy=True)
    assert cell == 17
    monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", 8 * cell * 16 * 16)
    addresses = []
    for trials in (13, 25):  # more than the budget's 8 trials
        calls.clear()
        results = list(run_sweep_ensemble(scene, qam16_sweep_points(cfg),
                                          make_qam("qam16"), trials, seed=5))
        assert [out.shape for _, out in calls] == [(16, 16)] * trials
        assert all(out.dtype == np.uint8 for _, out in calls)
        assert not any(main for main, _ in calls)
        assert not any(out.flags.owndata for _, out in calls)
        bases = [out.ctypes.data for _, out in calls]
        assert bases[0] != bases[1]
        assert bases == [bases[t % 2] for t in range(trials)]
        addresses.append(set(bases))
        for result in results:
            for name in ARRAYS:
                assert not any(np.shares_memory(getattr(result, name), out)
                               for _, out in calls), name
    assert len(addresses[0]) == len(addresses[1]) == 2


@pytest.mark.parametrize("prefetched", [False, True])
@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_in_place_reductions_keep_the_out_of_place_bits(name, prefetched,
                                                        monkeypatch):
    # each trial's peaks, mse and mse_calibrated, and the mean power cuts,
    # rebuilt by the per-grid range-Doppler formulas with a fresh grid for
    # every gather, product, focus pass and reduction, equal the sweep's
    # bit for bit: a point's noisy grid chi S + sigma Z is never formed,
    # its sums being chi^2 |S|^2 and chi^2 |S - k R|^2 (k = c / chi, for
    # c = 1 and c = E[chi]) plus the noise's cross terms Re <G, Z> and
    # Re <R, Z>, where S is focused and held as G = S - base * R and each
    # |S - k R|^2 is that of a formed grid.  The two MSEs and the total power also
    # stay within 1e-13 of the |.|^2 sums over the focused images they
    # stand for, the range cuts within 1e-13 of those of whole mean |.|^2
    # images, and the azimuth cuts and the mainlobe equal theirs.  128x160
    # grids pass numpy's 256 KiB temporary-elision threshold, past which
    # numpy reuses the fresh chain's temporaries in place too, and N != M
    # weighs the range-Doppler sums by N / M.  The random target gives the
    # channel generic values, whose products round differently in another
    # operand order; the reference target alone makes the sweep take
    # F(channel) once and read it in every trial
    if prefetched:  # the worker draws each trial one ahead
        monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", 128 * 160 * 16)
    n, m = 128, 160
    cfg = critical_config(n, m, k_ref=64)
    qam = make_qam(name)
    points = sweep_points(cfg)
    trials = 3
    indices = index_trials(cfg, qam, 5, trials)
    unit = noise_trials(cfg, 5, trials, unit=True)
    hw = pipeline.MAINLOBE_HALFWIDTH_BINS
    for scene in random_target_scene(cfg):
        results = list(run_sweep_ensemble(scene, points, qam, trials,
                                          seed=5))
        operator = pipeline.focusing_operator(cfg, results[0].r_bar_ref_m)
        a = operator.azimuth_multiplier
        k_q, m_q = results[0].peak_bin
        rows = np.arange(k_q - hw, k_q + hw + 1) % n
        a_rows = np.broadcast_to(a, (n, m))[rows]
        weights = a * (np.exp(2j * np.pi * (np.arange(m) * m_q % m) / m)
                       / m)
        lobe = np.arange(m_q - hw, m_q + hw + 1) % m

        def cuts(y):
            """The image rows k_q - hw .. k_q + hw and column m_q of y."""
            image_rows = np.fft.ifft(y[rows] * a_rows, axis=-1)
            return image_rows, np.einsum("...p,...p->...", y, weights)

        def image(y):
            return np.fft.ifft(y * a, axis=-1)

        def power_sum(y):
            values = y.view(float).ravel()
            return float(np.einsum("i,i->", values, values))

        def inner(y, z):
            """Re <y, z> over the float64 views, in the sweep's order."""
            return float(np.einsum("i,i->", y.view(float).ravel(),
                                   z.view(float).ravel()))
        sums = [{"clean_range": np.zeros(n), "clean_azimuth": np.zeros(m),
                 "noisy_range": np.zeros(n), "noisy_azimuth": np.zeros(m),
                 "noisy_lobe": np.zeros((3, 3)), "totals": [],
                 "clean_images": np.zeros((n, m)),
                 "noisy_images": np.zeros((n, m)), "image_totals": []}
                for _ in points]
        amps = amplitude_trials(scene, 5, trials)
        for t in range(trials):
            channel = build_channel_matrix(scene, cfg, amps[t])
            reference = operator.range_doppler(channel)
            reference_image = image(reference)
            reference_rows, reference_col = cuts(reference)
            reference_power = power_sum(reference)
            # every operand is named: numpy swaps a product's operands when
            # it writes into a temporary, and the complex product's
            # round-off depends on their order
            for (cfg_n, spec), result, acc in zip(points, results, sums):
                reads = pipeline._focus_reads(qam, spec)
                e_chi = result.stats.chi_mean
                scales = (1.0 / reads.chi, e_chi / reads.chi)
                if reads.signal is None:
                    # F(channel * act) is R: base 1, and G = S - R is 0
                    base = 1.0
                    clean_rows, clean_col = reference_rows, reference_col
                    clean_image = reference_image
                    power = reference_power
                    residuals = [(1.0 - k) ** 2 * reference_power
                                 for k in scales]
                    held = None
                else:
                    # S is held as G = S - R where E[chi] > 1/2 (base 1),
                    # else as G = S (base 0)
                    base = float(chi_stats(qam, reads.signal).chi_mean > 0.5)
                    gain = filter_gains(qam.table, reads.signal)
                    chi_table = qam.table * gain
                    shifted_table = chi_table - base
                    shifted = shifted_table[indices[t]]
                    held = operator.range_doppler(shifted * channel)
                    held_rows, held_col = cuts(held)
                    held_power = power_sum(held)
                    residuals = []
                    for k in scales:
                        scaled_reference = (base - k) * reference
                        residual = scaled_reference + held
                        residuals.append(power_sum(residual))
                    if base:
                        clean_rows = reference_rows + held_rows
                        clean_col = reference_col + held_col
                        clean_image = reference_image + image(held)
                        power = (reference_power
                                 + 2.0 * inner(held, reference) + held_power)
                    else:
                        clean_rows, clean_col = held_rows, held_col
                        clean_image = image(held)
                        power = held_power
                # the focused images, combined as the image-domain chain did
                if reads.chi != 1.0:
                    clean_rows = reads.chi * clean_rows
                    clean_col = reads.chi * clean_col
                    clean_image = reads.chi * clean_image
                noisy_rows, noisy_col = clean_rows, clean_col
                noisy_image = clean_image
                chi_sq = reads.chi * reads.chi
                total = chi_sq * power
                mse, mse_calibrated = (chi_sq * r for r in residuals)
                if cfg_n.noise_var > 0:
                    gain_table = filter_gains(qam.table, reads.noise)
                    gains = gain_table[indices[t]]
                    noise = operator.range_doppler(unit[t] * gains)
                    noise_rows, noise_col = cuts(noise)
                    sigma = np.sqrt(cfg_n.noise_var / 2.0) * reads.scale
                    noisy_rows = sigma * noise_rows + clean_rows
                    noisy_col = sigma * noise_col + clean_col
                    noisy_image = sigma * image(noise)
                    noisy_image += clean_image
                    sz = 0.0 if held is None else inner(held, noise)
                    rz = inner(reference, noise)
                    noise_power = sigma * sigma * power_sum(noise)
                    total += (2.0 * reads.chi * sigma * (sz + base * rz)
                              + noise_power)
                    mse += (2.0 * sigma * (reads.chi * sz
                                           + (reads.chi * base - 1.0) * rz)
                            + noise_power)
                    mse_calibrated += (
                        2.0 * sigma * (reads.chi * sz
                                       + (reads.chi * base - e_chi) * rz)
                        + noise_power)
                assert (result.reference_peaks[t]
                        == reference_rows[hw, m_q] / result.alpha_ref)
                assert (result.noiseless_peaks[t]
                        == clean_rows[hw, m_q] / result.alpha_ref)
                assert (result.noisy_peaks[t]
                        == noisy_rows[hw, m_q] / result.alpha_ref)
                acc["clean_range"] += np.abs(clean_col) ** 2
                acc["clean_azimuth"] += np.abs(clean_rows[hw]) ** 2
                acc["noisy_range"] += np.abs(noisy_col) ** 2
                acc["noisy_azimuth"] += np.abs(noisy_rows[hw]) ** 2
                acc["noisy_lobe"] += np.abs(noisy_rows[:, lobe]) ** 2
                acc["totals"].append(n / m * total)
                assert result.mse[t] == n / m * mse
                assert (result.mse_calibrated[t]
                        == n / m * mse_calibrated / e_chi ** 2)
                acc["clean_images"] += np.abs(clean_image) ** 2
                acc["noisy_images"] += np.abs(noisy_image) ** 2
                acc["image_totals"].append(
                    float(np.sum(np.abs(noisy_image) ** 2)))
                summed = (
                    float(np.sum(np.abs(noisy_image - reference_image) ** 2)),
                    float(np.sum(
                        np.abs(noisy_image / e_chi - reference_image) ** 2)))
                for value, old in zip(
                        (result.mse[t], result.mse_calibrated[t]), summed):
                    assert abs(value - old) <= 1e-13 * old
        for result, acc in zip(results, sums):
            exact = {"noisy_power_sum": sum(acc["totals"]) / trials,
                     "noisy_mainlobe_power": acc["noisy_lobe"] / trials,
                     "noisy_range_power": acc["noisy_range"] / trials,
                     "noisy_azimuth_power": acc["noisy_azimuth"] / trials,
                     "noiseless_range_power": acc["clean_range"] / trials,
                     "noiseless_azimuth_power": acc["clean_azimuth"] / trials}
            for name, want in exact.items():
                assert np.array_equal(getattr(result, name), want), name
            whole = power_cuts(acc["noisy_images"] / trials,
                               acc["clean_images"] / trials, result.peak_bin)
            whole["noisy_power_sum"] = sum(acc["image_totals"]) / trials
            # the rows are the image's own bits; the column and the total
            # are sums in another order
            for name, want in whole.items():
                if name in ("noisy_mainlobe_power", "noisy_azimuth_power",
                            "noiseless_azimuth_power"):
                    assert np.array_equal(getattr(result, name), want), name
                error = np.max(np.abs(getattr(result, name) - want))
                assert error <= 1e-13 * np.max(np.abs(want)), name


@pytest.mark.parametrize("name", ["qpsk", "qam16", "qam64", "qam256"])
@pytest.mark.parametrize("masked", [False, True])
def test_gain_tables_gather_the_filter_gains_bit_for_bit(name, masked):
    # a sweep gathers each spec's gains g and chi = s * g from tables over
    # the alphabet and the sentinel.  numpy's complex division may round
    # one small table differently from a large grid: the gathered tables
    # must equal filter_gains on the 128x160 symbol grid and s times it
    # bit for bit, every filter at several SNRs, with and without the
    # comb.  With a comb, QAM256's sentinel 256 needs uint16 indices, and
    # every table holds 0 there
    cfg = critical_config(128, 160, k_ref=64)
    qam = make_qam(name)
    mask = comb_mask(cfg) if masked else None
    indices = gen_symbol_indices(cfg, qam, 5, mask=mask)
    symbols = gen_symbol_grid(cfg, qam, 5, mask=mask)
    assert indices.dtype == (np.uint16 if name == "qam256" else np.uint8)
    assert (indices[~mask] == qam.order).all() if masked else (
        indices < qam.order).all()
    specs = [FilterSpec("rf"), FilterSpec("mf")] + [
        FilterSpec("wf", snr_in_linear=10.0 ** (snr_db / 10.0))
        for snr_db in (-20.0, -5.0, 0.0, 5.0, 20.0, 60.0)]
    for spec in specs:
        gain_table = filter_gains(qam.table, spec)
        chi_table = qam.table * gain_table
        assert gain_table[qam.order] == 0 and chi_table[qam.order] == 0
        gains = filter_gains(symbols, spec)
        assert np.take(gain_table, indices).tobytes() == gains.tobytes(), (
            spec)
        chi = symbols * gains
        assert np.take(chi_table, indices).tobytes() == chi.tobytes(), spec


def test_one_chunk_sweep_memory_does_not_grow_with_the_trials():
    # 12 noisy QPSK trials of 128x128 fit the prefetch budget, so the sweep
    # draws them one trial at a time on this thread, into one index grid
    # and one unit-noise grid: its peak is the same at 2 trials and at 12.
    # A sweep that held every trial's draws would hold 10 more unit-noise
    # grids at 12
    cfg = critical_config(128, 128, k_ref=64)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    qpsk = make_qam("qpsk")
    assert 12 * 17 * 128 * 128 <= pipeline._PREFETCH_BYTES
    few, many = (sweep_peak_grids(scene, sweep_points(cfg), qpsk, trials)
                 for trials in (2, 12))
    assert abs(many - few) <= 0.25, (few, many)


def test_prefetched_sweep_peaks_under_nine_grids():
    # 64 trials of a 128x128 QAM16 rf/mf/wf sweep at two SNRs exceed the
    # prefetch budget at 17 bytes per cell (a uint8 index and the complex
    # unit noise), so the worker draws each trial one ahead.  The sweep
    # focuses its 7 per-trial canonical grids into one signal buffer and
    # one noise buffer (the last one in a trial's unit noise), and holds
    # them, R (which is F(channel * act)), the channel and two trials'
    # draws, or with a random target one trial's channel and reference:
    # under 9 grids, its per-point reductions included (8.2 with either
    # scene).  A sweep that held one buffer per canonical grid peaked at
    # 13.5 grids, and one that drew chunks of trials at 45, and at 76 with
    # the random target
    cfg = critical_config(128, 128, k_ref=64)
    assert 64 * 17 * 128 * 128 > pipeline._PREFETCH_BYTES
    for scene in random_target_scene(cfg):
        peak = sweep_peak_grids(scene, qam16_sweep_points(cfg),
                                make_qam("qam16"), 64)
        assert peak < 9.0, (scene.q, peak)


def test_sweep_memory_does_not_grow_with_the_snrs():
    # QAM16 rf/mf/wf on 128x128 cells at 6 SNRs reads 13 canonical grids
    # per trial, 2 more per wf SNR, against 5 at one SNR, but focuses them
    # one group of points at a time into the same signal and noise
    # buffers: its peak is within half a grid of the one-SNR sweep's (7.3
    # against 6.9 grids; 20.7 against 10.0 with one buffer per grid)
    cfg = critical_config(128, 128, k_ref=64)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)

    def peak(snrs_db):
        points = []
        for snr_db in snrs_db:
            snr = 10.0 ** (snr_db / 10.0)
            cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
            points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                       for kind in ("rf", "mf", "wf")]
        return sweep_peak_grids(scene, points, make_qam("qam16"), 2)
    one, six = peak([0.0]), peak([0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
    assert six <= one + 0.5, (one, six)


def test_per_range_bin_comb_sweep_holds_at_most_seven_grids():
    # a pilot-only sweep like the CLI's NR one: QPSK under a comb,
    # phase_ramp RCMC and per_range_bin K_a, rf/mf/wf at 3 SNRs.  Its RCMC
    # multiplier H and its azimuth multiplier A are (N, M) grids; besides
    # them it holds R and F(channel * act), after the channel, which no
    # trial reads, is dropped; each trial focuses its one noise grid in its
    # unit noise, where trial 0 forms F(channel * act)'s residuals.  It
    # forms no (N, M) weight grid for the range cut: 5.6 grids at the peak
    # (6.6 while it held the channel and a noise grid of its own)
    cfg = critical_config(256, 128, k_ref=64)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    peak = sweep_peak_grids(scene, sweep_points(cfg), make_qam("qpsk"), 2,
                            mask=comb_mask(cfg), rcmc_method="phase_ramp",
                            ka_mode="per_range_bin")
    assert peak <= 5.85, peak


def test_comb_sweep_forms_its_residuals_in_its_spent_noise_grid(
        monkeypatch):
    # QPSK rf/mf/wf under a comb on 256x128 cells: every point reads
    # F(channel * act), held as S, and the one mf noise grid, the trial's
    # own unit noise.  F(channel * act) forms its |S - k R|^2 there once
    # its noise grid is spent, so no trial allocates a grid, with or
    # without the random target that rebuilds it every trial
    cfg = critical_config(256, 128)
    scene, deterministic = random_target_scene(cfg)
    points, qpsk, mask = sweep_points(cfg), make_qam("qpsk"), comb_mask(cfg)
    calls = []
    real_empty_like = np.empty_like

    def empty_like(*args, **kwargs):
        calls.append(args)
        return real_empty_like(*args, **kwargs)
    monkeypatch.setattr(np, "empty_like", empty_like)
    for target in (scene, deterministic):
        for _ in range(2):
            run_sweep_ensemble(target, points, qpsk, 4, seed=5, mask=mask)
    monkeypatch.undo()
    assert calls == []

    # each trial of the deterministic twin makes one sum of squares, |Z|^2
    # of its noise grid: R's, F(channel * act)'s and F(channel * act)'s
    # residuals are taken once, at its first trial.  With the random target
    # every trial takes them all again
    squares = [0]
    real_inner = pipeline._inner

    def inner(a, b):
        squares[0] += a is b
        return real_inner(a, b)
    monkeypatch.setattr(pipeline, "_inner", inner)

    def count(target, trials):
        squares[0] = 0
        run_sweep_ensemble(target, points, qpsk, trials, seed=5, mask=mask)
        return squares[0]
    once = count(deterministic, 1)
    assert once > 3 and count(scene, 1) == once
    assert count(deterministic, 4) == once + 3
    assert count(scene, 4) == 4 * once


def test_worker_draws_hold_no_more_than_the_second_pair():
    # 12 noisy QPSK trials of 128x128 fit the prefetch budget; with the
    # budget at 0 the worker draws them one trial ahead into a second pair
    # of draw buffers (a uint8 index grid and a unit-noise grid).  The
    # worker's int64 index block is held while the main thread holds its
    # own row-block temporaries, so it is a quarter of theirs: the
    # prefetched sweep peaks within 0.25 grid of the main thread's peak
    # plus that second pair (1.6 grids above the main thread's with the
    # index block at half a grid)
    cfg = critical_config(128, 128, k_ref=64)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    qpsk = make_qam("qpsk")
    pair = draw_cell_bytes(qpsk, noisy=True) / 16
    assert 12 * 17 * 128 * 128 <= pipeline._PREFETCH_BYTES
    main = sweep_peak_grids(scene, sweep_points(cfg), qpsk, 12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_PREFETCH_BYTES", 0)
        worker = sweep_peak_grids(scene, sweep_points(cfg), qpsk, 12)
    assert worker <= main + pair + 0.25, (main, worker)


@pytest.mark.parametrize("kind", ["mf", "wf"])
def test_single_point_sweep_reuses_its_draws_for_the_noise(kind,
                                                           monkeypatch):
    # one QAM256 point at 5 dB and at 0 dB on 256x256 cells, the
    # benchmark's large ensemble in shape, drawn on the worker.  Its signal
    # grid is held as S - R (mf, wf at 5 dB) or as S (wf at 0 dB, where
    # E[chi] < 1/2) for the whole trial, so each trial focuses its noise
    # grid in its own unit noise and forms its |S - k R|^2 there once the
    # noise's cross terms are taken, and the sweep allocates neither a
    # noise grid nor a scratch grid.  Besides H, R, the channel and the
    # signal grid it holds two draw pairs and row-block temporaries of at
    # most an eighth of a grid: 6.5 grids (8.6 with a noise grid and a
    # scratch grid of its own, and 7.5 at 0 dB while a grid held as S
    # formed its residuals in a scratch grid before its noise grid)
    monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", 0)
    cfg = critical_config(256, 256, k_ref=128)
    scene = single_target_scene(cfg, k_bin=128, m_bin=128)
    qam256 = make_qam("qam256")
    assert 256 * 256 * 16 >= 8 * _BLOCK_BYTES
    for snr_db in (5.0, 0.0):
        snr = 10.0 ** (snr_db / 10.0)
        point = (cfg.with_noise(1.0 / snr, snr_in_linear=snr),
                 FilterSpec(kind, snr_in_linear=snr))
        held_as_s = chi_stats(qam256, point[1]).chi_mean < 0.5
        assert held_as_s == (kind == "wf" and snr_db == 0.0)
        peak = sweep_peak_grids(scene, [point], qam256, 4)
        assert peak <= 7.1, (snr_db, peak)


@pytest.mark.parametrize("masked", [False, True])
def test_per_range_bin_range_cut_matches_the_image_column(masked):
    # with one azimuth row per range bin the range cut is summed from Y,
    # A and the column's phase row as three factors; it stays within 1e-13
    # of the column of the whole mean |.|^2 images, noisy and noiseless
    cfg = critical_config(64, 48, k_ref=32)
    scene = random_target_scene(cfg)[0]
    mask = comb_mask(cfg) if masked else None
    qam = make_qam("qam16")
    points = sweep_points(cfg)
    swept = run_sweep_ensemble(scene, points, qam, trials=3, seed=5,
                               mask=mask, ka_mode="per_range_bin")
    for (cfg_n, spec), result in zip(points, swept):
        expected = recomputed(scene, cfg_n, spec, qam, 3, 5, mask, result,
                              ka_mode="per_range_bin")
        for name in ("noisy_range_power", "noiseless_range_power"):
            want = expected[name]
            error = np.max(np.abs(getattr(result, name) - want))
            assert error <= 1e-13 * np.max(want), (spec, name, error)
