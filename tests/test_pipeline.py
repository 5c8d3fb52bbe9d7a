import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from scenes import critical_config, single_target_scene, target_at_bins
from ofdmsar import pipeline
from ofdmsar.cli import (OutputSelection, ScenarioConfig, _snr_point,
                         run_scenario)
from ofdmsar.echo import build_channel_matrix, draw_noise, grid_to_bytes
from ofdmsar.errors import InvalidParameterError
from ofdmsar.pipeline import (pilot_comb_mask, point_target_report,
                              run_point_ensemble, run_sweep_ensemble)
from ofdmsar.metrics import ideal_reference_image
from ofdmsar.rd_imaging import focus_image
from ofdmsar.scene import Scene
from ofdmsar.tf_filter import FilterSpec, apply_tf_filter, filter_gains
from ofdmsar.waveform import (RCS_STREAM, SrsConfig, _philox, chi_stats,
                              gen_symbol_grid, make_qam)

ARRAYS = ("noiseless_peaks", "noisy_peaks", "mse", "mse_calibrated",
          "mean_noisy_power", "mean_noiseless_power")
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

        def counted(x, out=None):
            calls.append(x.shape)
            return focus(x, out=out)
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
    return {name: (np.mean(value, axis=0) if name.startswith("mean")
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


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_mse_is_never_negative_and_stays_accurate(name):
    # under rf (chi = 1) the on-grid target focuses to its ideal image up
    # to an MSE of 2e-5 against an image energy of 256, noiseless and at
    # 300 dB.  An MSE taken as ||noisy||^2 - 2 Re<ideal, noisy> + ||ideal||^2
    # keeps only the round-off of that energy (4e-10 relative here), and
    # can go negative where the image matches its ideal to round-off
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


def assert_sweep_does_not_depend_on_chunk_size(monkeypatch, constellation,
                                               points, shared, mask=None):
    # chunked sequential Philox draws equal the one-shot batch bit for bit,
    # the random targets' amplitudes included.  All 15 trials fit a budget
    # of 15 grids, so it runs one chunk.  A sweep of several chunks fits
    # per trial its draws, the next chunk's symbols and, in a noisy sweep,
    # its noise (both drawn meanwhile on a worker thread) and its shared
    # grids in the budget: shared[0] of them with the deterministic scene,
    # shared[1] with the random-target scene, whose F(channel * act)
    # changes per trial.  So a budget of 14 grids gives chunks of
    # 14 // (2 + noisy + shared) trials.
    cfg = points[0][0]
    noisy = any(cfg_n.noise_var > 0 for cfg_n, _ in points)
    trials = 15
    drawn = {"symbols": [], "noise": []}

    def recording(stream, draw):
        def recorded(*args, **kwargs):
            drawn[stream].append(kwargs.get("trials", kwargs.get("n_trials")))
            return draw(*args, **kwargs)
        return recorded
    monkeypatch.setattr(pipeline, "gen_symbol_grid",
                        recording("symbols", pipeline.gen_symbol_grid))
    monkeypatch.setattr(pipeline, "draw_noise",
                        recording("noise", pipeline.draw_noise))
    for scene, n_shared in zip((single_target_scene(cfg, k_bin=8, m_bin=8),
                                random_target_scene(cfg)[0]), shared):
        runs = []
        for budget, chunk in ((1, 1), (14, 14 // (2 + noisy + n_shared)),
                              (trials, trials)):
            assert chunk > 1 or budget == 1
            monkeypatch.setattr(pipeline, "_CHUNK_BYTES",
                                budget * 16 * 16 * 16)
            drawn["symbols"].clear()
            drawn["noise"].clear()
            runs.append(list(run_sweep_ensemble(scene, points, constellation,
                                                trials, seed=5, mask=mask)))
            sizes = [min(chunk, trials - start)
                     for start in range(0, trials, chunk)]
            assert drawn == {"symbols": sizes, "noise": sizes if noisy else []}
        for results in runs[1:]:
            assert len(results) == len(points)
            for ref, result in zip(runs[0], results):
                assert result.peak_bin == ref.peak_bin
                assert result.alpha_ref == ref.alpha_ref
                for name in ARRAYS:
                    assert np.array_equal(getattr(result, name),
                                          getattr(ref, name)), name


@pytest.mark.parametrize("masked", [False, True])
def test_sweep_does_not_depend_on_chunk_size(masked, monkeypatch):
    # every point reads one mf noise grid, and F(channel * act)
    cfg = critical_config(16, 16, k_ref=8)
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qpsk"), sweep_points(cfg), (1, 2),
        comb_mask(cfg) if masked else None)


def test_qam16_sweep_does_not_depend_on_chunk_size(monkeypatch):
    # not constant-modulus: points read per-gain grids, some shared (rf and
    # mf noise, mf signal, and rf's F(channel * act))
    cfg = critical_config(16, 16, k_ref=8)
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qam16"), sweep_points(cfg), (3, 4))


def test_noiseless_sweep_does_not_depend_on_chunk_size(monkeypatch):
    cfg = critical_config(16, 16, k_ref=8)
    points = [(cfg, FilterSpec(kind, snr_in_linear=10.0))
              for kind in ("rf", "mf", "wf")]
    assert_sweep_does_not_depend_on_chunk_size(
        monkeypatch, make_qam("qpsk"), points, (0, 1))


def multi_chunk_sweep(monkeypatch, trials=6, noisy=True):
    """A 16x16 sweep generator that streams several chunks: one trial per
    chunk for the noisy sweep, two for the noiseless point."""
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 4 * 16 * 16 * 16)
    cfg = critical_config(16, 16, k_ref=8)
    points = sweep_points(cfg) if noisy else [(cfg, FilterSpec("mf"))]
    return run_sweep_ensemble(single_target_scene(cfg, k_bin=8, m_bin=8),
                              points, make_qam("qpsk"), trials, seed=5)


def test_closed_sweep_leaves_no_worker_thread(monkeypatch):
    # a sweep of several chunks draws on a worker, with or without noise
    before = threading.active_count()
    for noisy, points in ((True, 10), (False, 1)):
        sweep = multi_chunk_sweep(monkeypatch, noisy=noisy)
        next(sweep)
        assert threading.active_count() == before + 1  # the idle worker
        sweep.close()
        assert threading.active_count() == before
        assert len(list(multi_chunk_sweep(monkeypatch, noisy=noisy))) == points
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
    assert_failing_draw_reaches_the_caller(monkeypatch, "gen_symbol_grid")


def test_concurrent_multi_chunk_sweeps_keep_their_bits(monkeypatch):
    # three sweeps of one trial per chunk, each with its own noise
    # worker, on more threads than cores with a short switch interval: a
    # chunk that read a buffer while its worker refilled it would change
    # bits
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qam16 = make_qam("qam16")
    points = sweep_points(cfg)
    reference = list(run_sweep_ensemble(scene, points, qam16, 12, seed=5))
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 7 * 16 * 16 * 16)
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


def test_sweep_frees_each_result_before_building_the_next(monkeypatch):
    # in a one-chunk sweep each point's result is built when the sweep
    # reaches it; the generator must not keep the previous one alive then
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    refs = []
    real = pipeline.chi_stats

    def checking(*args):
        assert all(ref() is None for ref in refs), len(refs)
        return real(*args)
    monkeypatch.setattr(pipeline, "chi_stats", checking)
    arrays = []
    for result in run_sweep_ensemble(scene, points, qpsk, trials=3, seed=5):
        refs.append(weakref.ref(result))
        arrays.append({name: getattr(result, name).copy() for name in ARRAYS})
        del result
    assert len(refs) == len(points)
    monkeypatch.setattr(pipeline, "chi_stats", real)
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


@pytest.mark.parametrize("kind", ["rf", "mf", "wf"])
@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("masked", [False, True])
def test_cli_stage_grid_is_the_ensembles_trial_zero(masked, n, kind,
                                                    tmp_path):
    # the CLI draws the first point's trial 0 again with the single-trial
    # chain; its tf dump must be the ensemble's trial 0, rebuilt here from
    # the ensemble's own streams (each drawn for all trials), bit for bit.
    # 128x128 grids pass numpy's 256 KiB temporary-elision threshold, past
    # which the operand order of the filter's product sets the bits
    cfg = critical_config(n, n)
    scene, _ = random_target_scene(cfg)
    scenario = ScenarioConfig(
        radar=cfg, scene=scene, filters=(kind,),
        srs=COMB if masked else None, snr_db=(5.0, 20.0), trials=3, seed=5,
        constellation="qam16", rcmc_method="windowed_sinc",
        ka_mode="reference", azimuth_downsample=1,
        outputs=OutputSelection(images=(), grids=("tf",)))
    out = run_scenario(scenario, tmp_path)

    snr, noise_var = _snr_point(5.0, scenario, "$.snr_in_db")
    symbols = gen_symbol_grid(cfg, make_qam("qam16"), 5,
                              mask=comb_mask(cfg) if masked else None,
                              trials=3)[0]
    unit = draw_noise(cfg, 5, n_trials=3, unit=True)[0]
    amps = scene.draw_amplitudes(_philox(5, RCS_STREAM), 3)[0]
    echo = (build_channel_matrix(scene, cfg, amps) * symbols
            + np.sqrt(noise_var / 2.0) * unit)
    tf = apply_tf_filter(echo, symbols, FilterSpec(kind, snr_in_linear=snr))
    assert (out / "grid_tf.bin").read_bytes() == grid_to_bytes(tf, "tf")


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


def qam16_sweep_points(cfg):
    points = []
    for snr in (1.0, 10.0):
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    return points


def test_sweep_holds_one_budget_of_shared_grids(monkeypatch):
    # QAM16 rf/mf/wf x 2 SNRs reads three grids per trial from several
    # points (rf and mf noise, mf signal).  A sweep of several chunks
    # focuses them for every trial of its chunk, and sizes the chunk so
    # that its draws, the next chunk's symbols and noise and these three
    # grids fit the budget: 6 grids per trial.  So at any focus call at
    # most 3 per trial of the chunk are alive besides rf's F(channel * act)
    # and the signal and noise buffers that both wf points' own grids
    # reuse; each point's clean image is a scratch grid, not a focused
    # one.  Budgets of 10 and 20 grids give chunks of 1 and 3 trials.
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    grid_bytes = 16 * 16 * 16
    images = []  # a weak reference to every focused grid
    most = []
    drawn = []
    real = pipeline.focusing_operator
    real_draw = pipeline.gen_symbol_grid

    def tracking(*args, **kwargs):
        focus = real(*args, **kwargs)

        def tracked(x, out=None):
            # distinct grids alive: a buffer focused again counts once
            most.append(len({ref().ctypes.data for ref in images
                             if ref() is not None}))
            image = focus(x, out=out)
            images.append(weakref.ref(image))
            return image
        return tracked

    def recording(*args, **kwargs):
        drawn.append(kwargs["trials"])
        return real_draw(*args, **kwargs)
    monkeypatch.setattr(pipeline, "focusing_operator", tracking)
    monkeypatch.setattr(pipeline, "gen_symbol_grid", recording)
    for budget, trials, chunk in ((10, 12, 1), (20, 24, 3)):
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", budget * grid_bytes)
        most.clear()
        drawn.clear()
        for result in run_sweep_ensemble(scene, qam16_sweep_points(cfg),
                                         make_qam("qam16"), trials=trials,
                                         seed=5):
            del result
        # the largest chunk whose 6 grids per trial fit the budget
        assert 6 * chunk * grid_bytes <= pipeline._CHUNK_BYTES
        assert 6 * (chunk + 1) * grid_bytes > pipeline._CHUNK_BYTES
        assert drawn == [chunk] * (trials // chunk), (budget, trials)
        assert max(most) <= 3 * chunk + 3, (budget, trials)


def test_sweep_focuses_into_buffers_it_allocates_once(monkeypatch):
    # a QAM16 sweep of several chunks focuses every per-trial grid into a
    # buffer it allocated beforehand: one for each of the three shared
    # grids and the signal and noise buffers that both wf points reuse.
    # Only F(channel * act), once per sweep, is a fresh grid.  The buffers
    # do not grow with the trial count, and no result array shares memory
    # with one
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    outs = []
    real = pipeline.focusing_operator

    def recording(*args, **kwargs):
        focus = real(*args, **kwargs)

        def recorded(x, out=None):
            outs.append(out)
            return focus(x, out=out)
        return recorded
    monkeypatch.setattr(pipeline, "focusing_operator", recording)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 4 * 16 * 16 * 16)
    counts = []
    for trials in (6, 12):  # chunks of 1 trial
        outs.clear()
        results = list(run_sweep_ensemble(scene, qam16_sweep_points(cfg),
                                          make_qam("qam16"), trials, seed=5))
        assert len(outs) == 7 * trials + 1
        assert sum(out is None for out in outs) == 1
        buffers = [out for out in outs if out is not None]
        counts.append((len({id(out) for out in buffers}),
                       len({out.ctypes.data for out in buffers})))
        for result in results:
            for name in ARRAYS:
                assert not any(np.shares_memory(getattr(result, name), buf)
                               for buf in buffers), name
    assert counts[0] == counts[1] and counts[0][1] == 5


def test_worker_draws_symbols_into_two_buffers_allocated_once(monkeypatch):
    # a noisy QAM16 sweep holds 6 grids per trial of a chunk (its draws,
    # the next chunk's symbols and noise, three shared grids), so a budget
    # of 12 streams chunks of 2 trials.  The worker draws every chunk's
    # symbols into one of two buffers, alternately, so it allocates no
    # symbol stack, and the buffers do not grow with the trial count
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    calls = []
    real = pipeline.gen_symbol_grid

    def recording(*args, **kwargs):
        calls.append((threading.current_thread() is threading.main_thread(),
                      kwargs.get("out")))
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "gen_symbol_grid", recording)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 12 * 16 * 16 * 16)
    addresses = []
    for trials in (13, 25):  # more than the budget's 12 grids
        calls.clear()
        results = list(run_sweep_ensemble(scene, qam16_sweep_points(cfg),
                                          make_qam("qam16"), trials, seed=5))
        assert [out.shape for _, out in calls] == [
            (min(2, trials - start), 16, 16) for start in range(0, trials, 2)]
        assert not any(main for main, _ in calls)
        assert not any(out.flags.owndata for _, out in calls)
        bases = [out.ctypes.data for _, out in calls]
        assert bases[0] != bases[1]
        assert bases == [bases[c % 2] for c in range(len(bases))]
        addresses.append(set(bases))
        for result in results:
            for name in ARRAYS:
                assert not any(np.shares_memory(getattr(result, name), out)
                               for _, out in calls), name
    assert len(addresses[0]) == len(addresses[1]) == 2


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_in_place_reductions_keep_the_out_of_place_bits(name, chunked,
                                                        monkeypatch):
    # each trial's mse, mse_calibrated and noisy peak, rebuilt with a fresh
    # grid for every product, focused image and reduction, equal the
    # sweep's bit for bit; the two MSEs also stay within 1e-13 of the
    # |.|^2 sums they replace.  128x128 grids pass numpy's 256 KiB
    # temporary-elision threshold, past which numpy reuses the fresh
    # chain's temporaries in place too.  The random target gives the
    # channel generic values, whose products round differently in another
    # operand order
    if chunked:
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 128 * 128 * 16)
    cfg = critical_config(128, 128, k_ref=64)
    scene = random_target_scene(cfg)[0]
    qam = make_qam(name)
    points = sweep_points(cfg)
    trials = 3
    results = list(run_sweep_ensemble(scene, points, qam, trials, seed=5))
    focus = pipeline.focusing_operator(cfg, results[0].r_bar_ref_m)
    symbols = gen_symbol_grid(cfg, qam, 5, trials=trials)
    unit = draw_noise(cfg, 5, n_trials=trials, unit=True)
    amps = scene.draw_amplitudes(_philox(5, RCS_STREAM), trials)
    k_q, m_q = results[0].peak_bin
    for t in range(trials):
        channel = build_channel_matrix(scene, cfg, amps[t])
        ideal = ideal_reference_image(scene, cfg, amps[t])
        # every operand is named: numpy swaps a product's operands when it
        # writes into a temporary, and the complex product's round-off
        # depends on their order
        for (cfg_n, spec), result in zip(points, results):
            reads = pipeline._focus_reads(qam, spec)
            if reads.signal is None:
                clean = focus(channel)
            else:
                gains = filter_gains(symbols[t], reads.signal)
                clean = focus(channel * symbols[t] * gains)
            if reads.chi != 1.0:
                clean = reads.chi * clean
            noisy = clean
            if cfg_n.noise_var > 0:
                gains = filter_gains(symbols[t], reads.noise)
                noise = focus(unit[t] * gains)
                noisy = np.sqrt(cfg_n.noise_var / 2.0) * reads.scale * noise
                noisy += clean
            e_chi = result.stats.chi_mean
            assert result.noisy_peaks[t] == noisy[k_q, m_q] / result.alpha_ref
            residual = noisy - ideal
            values = residual.view(float).ravel()
            assert result.mse[t] == float(np.einsum("i,i->", values, values))
            scaled_ideal = e_chi * ideal
            residual = noisy - scaled_ideal
            values = residual.view(float).ravel()
            assert result.mse_calibrated[t] == float(
                np.einsum("i,i->", values, values)) / e_chi ** 2
            summed = (float(np.sum(np.abs(noisy - ideal) ** 2)),
                      float(np.sum(np.abs(noisy / e_chi - ideal) ** 2)))
            for value, old in zip((result.mse[t], result.mse_calibrated[t]),
                                  summed):
                assert abs(value - old) <= 1e-13 * old


def test_multi_chunk_sweep_memory_is_bounded_by_the_chunk_budget():
    # 64 trials of 128x128 grids span several chunks of the default
    # budget.  The chunk's draws, the next chunk's noise and its three
    # shared grids share that budget, so the sweep peaks below two budgets,
    # its per-point reductions and working grids included
    cfg = critical_config(128, 128, k_ref=64)
    scene = single_target_scene(cfg, k_bin=64, m_bin=64)
    tracemalloc.start()
    try:
        for result in run_sweep_ensemble(scene, qam16_sweep_points(cfg),
                                         make_qam("qam16"), trials=64,
                                         seed=1):
            del result
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * pipeline._CHUNK_BYTES
