import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import critical_config, single_target_scene, target_at_bins
from ofdmsar import pipeline
from ofdmsar.echo import build_channel_matrix, draw_noise, synthesize_echo
from ofdmsar.errors import InvalidParameterError
from ofdmsar.pipeline import (pilot_comb_mask, run_point_ensemble,
                              run_sweep_ensemble)
from ofdmsar.metrics import ideal_reference_image
from ofdmsar.rd_imaging import focus_image
from ofdmsar.scene import Scene
from ofdmsar.tf_filter import FilterSpec, apply_tf_filter, filter_gains
from ofdmsar.waveform import (RCS_STREAM, SrsConfig, _philox, chi_stats,
                              gen_symbol_grid, make_qam)

ARRAYS = ("noiseless_peaks", "noisy_peaks", "mse", "mse_calibrated",
          "mean_noisy_power", "mean_noiseless_power", "first_tf")


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
    srs = SrsConfig(periodicity_slots=1, symbols_per_slot=1, comb_spacing=4,
                    n_resource_blocks=1, start_subcarrier=2)
    return pilot_comb_mask(cfg, srs)


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
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    calls = []
    real = pipeline.focusing_operator

    def counting(*args, **kwargs):
        focus = real(*args, **kwargs)

        def counted(x):
            calls.append(x.shape)
            return focus(x)
        return counted
    monkeypatch.setattr(pipeline, "focusing_operator", counting)
    if chunk is not None:
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", chunk * 16 * 16 * 16)
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
    assert len(calls) == per_trial * trials + 1
    assert set(calls) == {(16, 16)}


def recomputed(scene, cfg, spec, constellation, trials, seed, mask, result):
    """Each trial's images focused on their own, as the filtered-echo
    model defines them, reduced like an EnsembleResult."""
    symbols = gen_symbol_grid(cfg, constellation, seed, mask=mask,
                              trials=trials)
    unit = draw_noise(cfg, seed, n_trials=trials, unit=True)
    rng = (_philox(seed, RCS_STREAM)
           if any(t.amplitude_mode == "random" for t in scene.targets)
           else None)
    amps = scene.draw_amplitudes(rng, trials)
    scale = np.sqrt(cfg.noise_var / 2.0)
    e_chi = chi_stats(constellation, spec).chi_mean
    k_q, m_q = result.peak_bin
    out = {name: [] for name in ARRAYS}
    for t in range(trials):
        channel = build_channel_matrix(scene, cfg, amps[t])
        ideal = ideal_reference_image(scene, cfg, amps[t])
        gains = filter_gains(symbols[t], spec)
        clean = focus_image(channel * symbols[t] * gains, cfg,
                            result.r_bar_ref_m)
        noisy = clean + focus_image(scale * unit[t] * gains, cfg,
                                    result.r_bar_ref_m)
        out["noiseless_peaks"].append(clean[k_q, m_q] / result.alpha_ref)
        out["noisy_peaks"].append(noisy[k_q, m_q] / result.alpha_ref)
        out["mse"].append(np.sum(np.abs(noisy - ideal) ** 2))
        out["mse_calibrated"].append(
            np.sum(np.abs(noisy / e_chi - ideal) ** 2))
        out["mean_noiseless_power"].append(np.abs(clean) ** 2)
        out["mean_noisy_power"].append(np.abs(noisy) ** 2)
        if t == 0:
            out["first_tf"] = (channel * symbols[0] + scale * unit[0]) * gains
    return {name: (value if name == "first_tf" else
                   np.mean(value, axis=0) if name.startswith("mean")
                   else np.array(value))
            for name, value in out.items()}


@pytest.mark.parametrize("name, masked, random", [("qpsk", True, False),
                                                  ("qam16", False, False),
                                                  ("qpsk", False, True)])
def test_shared_focusing_moves_results_by_round_off_only(name, masked,
                                                         random):
    cfg = critical_config(16, 16, k_ref=8)
    scene = (random_target_scene(cfg)[0] if random else
             single_target_scene(cfg, k_bin=8, m_bin=8))
    mask = comb_mask(cfg) if masked else None
    qam = make_qam(name)
    points = sweep_points(cfg)
    swept = run_sweep_ensemble(scene, points, qam, trials=2, seed=5,
                               mask=mask)
    for (cfg_n, spec), result in zip(points, swept):
        expected = recomputed(scene, cfg_n, spec, qam, 2, 5, mask, result)
        for array in ARRAYS:
            want = expected[array]
            error = np.max(np.abs(getattr(result, array) - want))
            assert error <= 1e-12 * np.max(np.abs(want)), (spec, array)


def test_sweep_rejects_points_that_change_the_geometry():
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qpsk = make_qam("qpsk")
    spec = FilterSpec("mf")
    other = replace(cfg, fc_hz=3.6e9)
    with pytest.raises(InvalidParameterError, match="differ only in noise_var"):
        next(run_sweep_ensemble(scene, [(cfg, spec), (other, spec)], qpsk,
                                trials=1, seed=0))
    with pytest.raises(InvalidParameterError, match="at least one point"):
        next(run_sweep_ensemble(scene, [], qpsk, trials=1, seed=0))


@pytest.mark.parametrize("masked", [False, True])
def test_sweep_does_not_depend_on_chunk_size(masked, monkeypatch):
    # chunked sequential Philox draws equal the one-shot batch bit for bit,
    # the random targets' amplitudes included
    cfg = critical_config(16, 16, k_ref=8)
    mask = comb_mask(cfg) if masked else None
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    trials = 15
    for scene in (single_target_scene(cfg, k_bin=8, m_bin=8),
                  random_target_scene(cfg)[0]):
        runs = []
        for chunk in (1, 7, trials):
            monkeypatch.setattr(pipeline, "_CHUNK_BYTES",
                                chunk * 16 * 16 * 16)
            assert pipeline._chunk_trials(trials, 16, 16) == chunk
            runs.append(list(run_sweep_ensemble(scene, points, qpsk, trials,
                                                seed=5, mask=mask)))
        for results in runs[1:]:
            assert len(results) == len(points)
            for ref, result in zip(runs[0], results):
                assert result.peak_bin == ref.peak_bin
                assert result.alpha_ref == ref.alpha_ref
                for name in ARRAYS:
                    assert np.array_equal(getattr(result, name),
                                          getattr(ref, name)), name


def test_sweep_frees_each_result_before_building_the_next(monkeypatch):
    # in a one-chunk sweep each point's result is built when the sweep
    # reaches it; the generator must not keep the previous one alive then
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    refs = []
    real = pipeline.apply_tf_filter

    def checking(*args):
        assert all(ref() is None for ref in refs), len(refs)
        return real(*args)
    monkeypatch.setattr(pipeline, "apply_tf_filter", checking)
    arrays = []
    for result in run_sweep_ensemble(scene, points, qpsk, trials=3, seed=5):
        refs.append(weakref.ref(result))
        arrays.append({name: getattr(result, name).copy() for name in ARRAYS})
        del result
    assert len(refs) == len(points)
    monkeypatch.setattr(pipeline, "apply_tf_filter", real)
    for (cfg_n, spec), kept in zip(points, arrays):
        alone = run_point_ensemble(scene, cfg_n, qpsk, spec, trials=3, seed=5)
        for name in ARRAYS:
            assert np.array_equal(kept[name], getattr(alone, name)), name


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


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("masked", [False, True])
def test_first_tf_is_the_echo_of_trial_zero(n, masked):
    # one filtered realization of the chain, drawn by the library's
    # single-trial functions on the ensemble's seed, bit for bit; 128x128
    # grids pass numpy's 256 KiB temporary-elision threshold
    cfg = critical_config(n, n)
    scene, _ = random_target_scene(cfg)
    mask = comb_mask(cfg) if masked else None
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    symbols = gen_symbol_grid(cfg, qpsk, 5, mask=mask)
    swept = run_sweep_ensemble(scene, points, qpsk, trials=2, seed=5,
                               mask=mask)
    for (cfg_n, spec), result in zip(points, swept):
        echo = synthesize_echo(scene, cfg_n, symbols, noise_seed=5,
                               rcs_seed=5)
        assert np.array_equal(result.first_tf,
                              apply_tf_filter(echo, symbols, spec)), spec


def test_ensemble_memory_is_bounded_by_the_chunk_budget(monkeypatch):
    # 64 trials of 128x128 grids make 16 MiB (T, N, M) complex stacks; a
    # 1 MiB budget streams them four trials at a time
    cfg = critical_config(128, 128, k_ref=64).with_noise(0.5, snr_in_linear=2)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        run_point_ensemble(scene, cfg, make_qam("qam256"), FilterSpec("mf"),
                           trials=64, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # half of one whole-ensemble stack


def test_sweep_holds_one_budget_of_shared_grids(monkeypatch):
    # QAM16 rf/mf/wf x 2 SNRs reads three grids per trial from several
    # points (rf and mf noise, mf signal).  With a budget of four grids
    # and three chunks, the shared grids of a block fit the budget, so at
    # any focus call at most four of them are alive besides rf's
    # F(channel * act), a point's own two and the last trial's clean
    # image.  Focused for a whole chunk of four trials they are twelve.
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 4 * 16 * 16 * 16)
    images = []  # a weak reference to every focused grid
    most = []
    real = pipeline.focusing_operator

    def tracking(*args, **kwargs):
        focus = real(*args, **kwargs)

        def tracked(x):
            most.append(sum(ref() is not None for ref in images))
            image = focus(x)
            images.append(weakref.ref(image))
            return image
        return tracked
    monkeypatch.setattr(pipeline, "focusing_operator", tracking)
    points = []
    for snr in (1.0, 10.0):
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    for result in run_sweep_ensemble(scene, points, make_qam("qam16"),
                                     trials=12, seed=5):
        del result
    assert max(most) <= 4 + 4
