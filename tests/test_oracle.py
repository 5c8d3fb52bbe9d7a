from dataclasses import replace

import numpy as np
import pytest

from scenes import critical_config, single_target_scene, target_at_bins
from ofdmsar.echo import build_channel_matrix, synthesize_echo
from ofdmsar.errors import (CapacityError, InvalidParameterError,
                            SingularSystemError)
from ofdmsar.oracle import ls_reconstruct, rd_vs_ls_compare
from ofdmsar.scene import PointTarget, make_point_scene
from ofdmsar.tf_filter import FilterSpec
from ofdmsar.waveform import gen_symbol_grid, make_qam


def toy_scene_and_echo(cfg, targets, seed=0):
    scene = make_point_scene(targets)
    symbols = gen_symbol_grid(cfg, make_qam("qam16"), seed=seed)
    echo = synthesize_echo(scene, cfg, symbols)
    return scene, symbols, echo


def ls_residual(echo, grid, amplitudes, symbols, cfg):
    """||y - A alpha||: the echo's misfit by the grid targets at amplitudes."""
    scene = make_point_scene([PointTarget(x, y) for x, y in grid])
    model = build_channel_matrix(scene, cfg, amplitudes)
    return float(np.linalg.norm(echo - model * symbols))


def test_ls_exact_recovery_on_true_grid():
    cfg = critical_config(16, 16)
    t1 = target_at_bins(cfg, 4, 5)
    t2 = target_at_bins(cfg, 9, 12)
    scene, symbols, echo = toy_scene_and_echo(
        cfg, [t1, replace(t2, rcs_var=0.25)])
    amps = ls_reconstruct(echo, [(t.x_m, t.y_m) for t in scene.targets],
                          symbols, cfg)
    # the least-squares amplitudes recover the raw d_q exactly
    assert abs(amps[0] - 1.0) < 1e-9
    assert abs(amps[1] - 0.5) < 1e-9


def test_ls_residual_zero_on_true_grid_and_monotone():
    cfg = critical_config(16, 16)
    t1 = target_at_bins(cfg, 4, 5)
    t2 = target_at_bins(cfg, 9, 12)
    scene, symbols, echo = toy_scene_and_echo(
        cfg, [t1, t2])
    # grid containing only one true target leaves residual; adding the
    # second must not increase it, and the full grid explains everything
    grid1 = [(t1.x_m, t1.y_m)]
    amps1 = ls_reconstruct(echo, grid1, symbols, cfg)
    r1 = ls_residual(echo, grid1, amps1, symbols, cfg)
    grid2 = grid1 + [(t2.x_m, t2.y_m)]
    amps2 = ls_reconstruct(echo, grid2, symbols, cfg)
    r2 = ls_residual(echo, grid2, amps2, symbols, cfg)
    assert r1 > 1.0
    assert r2 <= r1 + 1e-9
    assert r2 < 1e-8


def test_ls_duplicate_candidate_raises_then_ridge_rescues():
    cfg = critical_config(16, 16)
    t1 = target_at_bins(cfg, 4, 5)
    scene, symbols, echo = toy_scene_and_echo(cfg, [t1])
    dup = [(t1.x_m, t1.y_m), (t1.x_m, t1.y_m)]
    with pytest.raises(SingularSystemError) as err:
        ls_reconstruct(echo, dup, symbols, cfg)
    assert "ridge" in str(err.value)
    amps = ls_reconstruct(echo, dup, symbols, cfg, ridge=1e-6)
    # the duplicated column splits the unit amplitude between the two
    assert np.sum(amps.real) == pytest.approx(1.0, abs=1e-4)


def test_ls_capacity_caps():
    cfg = critical_config(16, 16)
    t1 = target_at_bins(cfg, 4, 5)
    scene, symbols, echo = toy_scene_and_echo(cfg, [t1])
    big_grid = [(t1.x_m + i * 0.01, t1.y_m) for i in range(257)]
    with pytest.raises(CapacityError):
        ls_reconstruct(echo, big_grid, symbols, cfg)
    large = critical_config(512, 256)  # 131072 cells > 65536
    symbols_large = gen_symbol_grid(large, make_qam("qpsk"), seed=0)
    with pytest.raises(CapacityError):
        ls_reconstruct(np.zeros((512, 256), dtype=complex),
                       [(t1.x_m, t1.y_m)], symbols_large, large)


def test_ls_validation():
    cfg = critical_config(16, 16)
    t1 = target_at_bins(cfg, 4, 5)
    scene, symbols, echo = toy_scene_and_echo(cfg, [t1])
    with pytest.raises(InvalidParameterError):
        ls_reconstruct(echo, [], symbols, cfg)
    with pytest.raises(InvalidParameterError):
        ls_reconstruct(echo, [(t1.x_m, t1.y_m)], symbols, cfg, ridge=-1.0)
    with pytest.raises(InvalidParameterError):
        ls_reconstruct(np.zeros((16, 17), dtype=complex),
                       [(t1.x_m, t1.y_m)], symbols, cfg)


def test_rd_vs_ls_single_target():
    cfg = critical_config(32, 32)
    scene = single_target_scene(cfg, k_bin=16, m_bin=16)
    result = rd_vs_ls_compare(scene, cfg, make_qam("qam16"),
                              FilterSpec("rf"), seed=0)
    assert result.max_gap < 0.05
    assert result.chain_amplitudes.shape == (1,)
    assert result.ls_amplitudes[0] == pytest.approx(1.0, abs=1e-9)


def test_rd_vs_ls_three_targets_same_range():
    # three azimuth-separated targets on one range bin: the chain matches
    # the least-squares amplitudes within 5% per target
    cfg = critical_config(32, 32, k_ref=16)
    t1 = target_at_bins(cfg, 16, 10)
    t2 = target_at_bins(cfg, 16, 16)
    t3 = target_at_bins(cfg, 16, 22)
    scene = make_point_scene([t1, t2, t3])
    result = rd_vs_ls_compare(scene, cfg, make_qam("qam16"),
                              FilterSpec("rf"), seed=1)
    assert result.max_gap < 0.05
    assert result.ls_amplitudes == pytest.approx(np.ones(3), abs=1e-6)


def test_rd_vs_ls_requires_noiseless():
    cfg = critical_config(32, 32).with_noise(0.1)
    scene = single_target_scene(cfg)
    with pytest.raises(InvalidParameterError):
        rd_vs_ls_compare(scene, cfg, make_qam("qam16"), FilterSpec("rf"))
