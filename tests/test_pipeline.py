from dataclasses import replace

import numpy as np
import pytest

from conftest import critical_config, single_target_scene
from ofdmsar.errors import InvalidParameterError
from ofdmsar.pipeline import (pilot_comb_mask, run_point_ensemble,
                              run_sweep_ensemble)
from ofdmsar.tf_filter import FilterSpec
from ofdmsar.waveform import SrsConfig, make_qam

ARRAYS = ("noiseless_peaks", "noisy_peaks", "mse", "mse_calibrated",
          "mean_noisy_power", "mean_noiseless_power")


def sweep_points(cfg):
    points = []
    for snr_db in (-5.0, 5.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
        points += [(cfg_n, FilterSpec(kind, snr_in_linear=snr))
                   for kind in ("rf", "mf", "wf")]
    points.append((cfg, FilterSpec("mf")))  # noiseless
    return points


@pytest.mark.parametrize("masked", [False, True])
def test_sweep_equals_single_point_runs(masked):
    cfg = critical_config(16, 16, k_ref=8)
    scene = single_target_scene(cfg, k_bin=8, m_bin=8)
    mask = None
    if masked:
        srs = SrsConfig(periodicity_slots=1, symbols_per_slot=1,
                        comb_spacing=4, n_resource_blocks=1,
                        start_subcarrier=2)
        mask = pilot_comb_mask(cfg, srs)
    qpsk = make_qam("qpsk")
    points = sweep_points(cfg)
    swept = list(run_sweep_ensemble(scene, points, qpsk, trials=3, seed=5,
                                    mask=mask))
    assert len(swept) == len(points)
    for (cfg_n, spec), result in zip(points, swept):
        alone = run_point_ensemble(scene, cfg_n, qpsk, spec, trials=3,
                                   seed=5, mask=mask)
        assert result.cfg == cfg_n and result.filter_spec == spec
        assert result.peak_bin == alone.peak_bin
        assert result.alpha_ref == alone.alpha_ref
        for name in ARRAYS:
            assert np.array_equal(getattr(result, name),
                                  getattr(alone, name)), (spec.kind, name)


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
