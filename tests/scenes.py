"""Scenario builders shared by the test modules.

Most imaging tests run on a small critically sampled geometry: the
platform speed is chosen so that the azimuth chirp rate at a reference
range bin satisfies K_a * T_sym^2 * M = 1 exactly, which makes an on-grid
point target focus to a single pixel and gives every measurement a clean
analytic expectation.
"""

import math

import numpy as np

from ofdmsar.echo import draw_noise
from ofdmsar.geometry import PlatformGeometry
from ofdmsar.scene import PointTarget, Scene
from ofdmsar.waveform import (NOISE_STREAM, RCS_STREAM, SYMBOL_STREAM,
                              SPEED_OF_LIGHT as c, RadarConfig, _philox,
                              gen_symbol_indices)


def critical_config(n, m, t_sym=0.013, height_m=500.0, df_hz=60e3,
                    fc_hz=3.5e9, k_ref=None, **overrides):
    """A config whose azimuth sampling is critical at range bin k_ref."""
    k_ref = n // 2 if k_ref is None else k_ref
    rho_r = c / (2 * n * df_hz)
    r_bar = k_ref * rho_r
    wavelength = c / fc_hz
    speed = math.sqrt(wavelength * r_bar / (2 * t_sym**2 * m))
    platform = PlatformGeometry(height_m=height_m, speed_mps=speed)
    return RadarConfig(fc_hz=fc_hz, bandwidth_hz=2e8,
                       subcarrier_spacing_hz=df_hz,
                       cp_duration_s=t_sym - 1 / df_hz,
                       aperture_time_s=m * t_sym, n_subcarriers=n,
                       platform=platform, **overrides)


def target_at_bins(cfg, k_bin, m_bin):
    """A point target that lands exactly on integer image bins."""
    r_bar = k_bin * cfg.range_pitch_m
    height = cfg.platform.height_m
    if r_bar <= height:
        raise ValueError(f"range bin {k_bin} is inside the nadir circle")
    x = math.sqrt(r_bar**2 - height**2)
    y = m_bin * cfg.platform.speed_mps * cfg.total_symbol_s
    return PointTarget(x_m=x, y_m=y)


def single_target_scene(cfg, k_bin=None, m_bin=None):
    k_bin = cfg.n_subcarriers // 2 if k_bin is None else k_bin
    m_bin = cfg.n_symbols // 2 if m_bin is None else m_bin
    target = target_at_bins(cfg, k_bin, m_bin)
    return Scene(targets=(target,),
                 extent=(target.x_m - 100, target.x_m + 100,
                         target.y_m - 100, target.y_m + 100))


# An ensemble's first trials on a seed, each drawn by its own call on one
# generator per stream, in trial order, as the sweep draws them, and
# stacked on a leading trial axis.

def index_trials(cfg, constellation, seed, trials, mask=None):
    """(trials, N, M) symbol indices."""
    rng = _philox(seed, SYMBOL_STREAM)
    return np.stack([gen_symbol_indices(cfg, constellation, seed, mask=mask,
                                        rng=rng) for _ in range(trials)])


def symbol_trials(cfg, constellation, seed, trials, mask=None):
    """(trials, N, M) symbols: the table at index_trials' indices."""
    return np.take(constellation.table,
                   index_trials(cfg, constellation, seed, trials, mask))


def noise_trials(cfg, seed, trials, unit=False):
    """(trials, N, M) noise grids, CN(0, noise_var) or with unit CN(0, 2)."""
    rng = _philox(seed, NOISE_STREAM)
    return np.stack([draw_noise(cfg, seed, unit=unit, rng=rng)
                     for _ in range(trials)])


def raw_indices(constellation, seed, shape, mask=None):
    """The seed's symbol stream drawn in one call of the given shape, with
    the sentinel index on the masked cells."""
    indices = _philox(seed, SYMBOL_STREAM).integers(0, constellation.order,
                                                    size=shape)
    if mask is not None:
        indices[..., ~mask] = constellation.order
    return indices


def raw_unit_noise(seed, shape):
    """The seed's unit noise stream drawn in one call: CN(0, 2) cells of
    the given shape."""
    pairs = _philox(seed, NOISE_STREAM).standard_normal(tuple(shape) + (2,))
    return pairs[..., 0] + 1j * pairs[..., 1]


def amplitude_trials(scene, seed, trials):
    """(trials, Q) raw target amplitudes."""
    rng = _philox(seed, RCS_STREAM)
    return np.stack([scene.draw_amplitudes(rng) for _ in range(trials)])
