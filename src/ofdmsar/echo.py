"""Temporal-frequency-domain echo synthesis.

For a scene of Q point scatterers the noiseless received grid is

    y_{n,m} = sum_q alpha_q s_{n,m}
              * exp(-j (4 pi / c) n df (dR_{q,m} + Rbar_q))
              * exp(-j (4 pi / c) fc dR_{q,m})

with alpha_q = d_q exp(-j (4 pi / c) fc Rbar_q), dR_{q,m} the first-order
slant-range deviation (v m T_sym - y_q)^2 / (2 Rbar_q) of
geometry.range_deviation, and z ~ CN(0, s^2) added elementwise.
Equivalently y = H .* s with H the channel matrix of build_channel_matrix,
which this module guarantees to machine precision.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, StageError
from .geometry import range_deviation
from .scene import Scene
from .waveform import (NOISE_STREAM, RCS_STREAM, SPEED_OF_LIGHT, RadarConfig,
                       _philox, _row_blocks)

_FOUR_PI_OVER_C = 4.0 * np.pi / SPEED_OF_LIGHT


def check_cp_margin(scene: Scene, cfg: RadarConfig):
    """Enforce T_cp > max round-trip delay (no inter-symbol interference)
    over the symbols of cfg's grid, against its physical cyclic prefix.

    The range deviation grows with (v m T - y)^2, which is convex in the
    symbol index m, so its maximum lies at the first or the last symbol;
    the sent grid therefore bounds every grid decimated from it."""
    m_idx = np.array([0.0, cfg.n_symbols - 1.0])
    for i, target in enumerate(scene.targets):
        r_bar, d_r = range_deviation(target.x_m, target.y_m, m_idx, cfg)
        delay = 2.0 * (r_bar + float(d_r.max())) / SPEED_OF_LIGHT
        if delay >= cfg.cp_duration_s:
            raise ConfigurationError(
                f"target {i} at ({target.x_m}, {target.y_m}) m has round-trip "
                f"delay {delay * 1e6:.3f} us >= cyclic prefix "
                f"{cfg.cp_duration_s * 1e6:.3f} us")


def build_channel_matrix(scene: Scene, cfg: RadarConfig,
                         amplitudes: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of per-target rank-structured channel matrices.

    H = sum_q alpha_q * outer(b_q, c_q) .* E_q with
      b_n = exp(-j (4 pi / c) n df Rbar_q)        (range term),
      c_m = exp(-j (4 pi / c) fc dR_{q,m})        (azimuth term),
      E_{n,m} = exp(-j (4 pi / c) n df dR_{q,m})  (coupling / migration term),
    and alpha_q = d_q exp(-j (4 pi / c) fc Rbar_q).  amplitudes overrides
    the raw d_q (defaults to each target's deterministic sqrt(rcs_var)).
    """
    amplitudes = scene.amplitude_vector(amplitudes)
    n_idx = np.arange(cfg.n_subcarriers, dtype=float)
    m_idx = np.arange(cfg.n_symbols, dtype=float)
    h = np.zeros((cfg.n_subcarriers, cfg.n_symbols), dtype=complex)
    # about 64 bytes of temporaries per cell: the float outer product and
    # four complex products
    blocks = _row_blocks(h.shape, 64)
    for d_q, target in zip(amplitudes, scene.targets):
        r_bar, d_r = range_deviation(target.x_m, target.y_m, m_idx, cfg)
        alpha = d_q * np.exp(-1j * _FOUR_PI_OVER_C * cfg.fc_hz * r_bar)
        b = np.exp(-1j * _FOUR_PI_OVER_C * cfg.subcarrier_spacing_hz * r_bar * n_idx)
        c_row = np.exp(-1j * _FOUR_PI_OVER_C * cfg.fc_hz * d_r)
        # a row block at a time, each cell by the same operations in the
        # same operand order, so that no temporary is a whole grid
        for rows in blocks:
            coupling = np.exp(-1j * _FOUR_PI_OVER_C * cfg.subcarrier_spacing_hz
                              * np.outer(n_idx[rows], d_r))
            h[rows] += alpha * (b[rows, None] * c_row[None, :]) * coupling
    return h


def draw_noise(cfg: RadarConfig, noise_seed: int, n_trials: int = 1,
               unit: bool = False,
               rng: Optional[np.random.Generator] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """i.i.d. CN(0, noise_var) grids, shape (n_trials, N, M); with unit=True
    CN(0, 2) grids, of which the CN(0, noise_var) draw of the same seed is
    exactly sqrt(noise_var / 2) times.  A generator passed as rng replaces
    the seed's and is advanced, so successive calls of c1, c2, ... trials
    on one generator equal one call of their sum.  out, a C-contiguous
    float64 (n_trials, N, M, 2) array, takes the unit draw's (re, im)
    pairs; with unit=True the grids returned are a view of it, so the call
    allocates no grid."""
    shape = (n_trials, cfg.n_subcarriers, cfg.n_symbols)
    if cfg.noise_var == 0.0 and not unit:
        return np.zeros(shape, dtype=complex)
    if rng is None:
        rng = _philox(noise_seed, NOISE_STREAM)
    # interleaved (re, im) normal pairs are already complex128 in memory
    pairs = rng.standard_normal(shape + (2,), out=out)
    noise = pairs.view(np.complex128)[..., 0]
    return noise if unit else np.sqrt(cfg.noise_var / 2.0) * noise


def synthesize_echo(scene: Scene, cfg: RadarConfig, symbols: np.ndarray,
                    seed: int = 0) -> np.ndarray:
    """One received (N, M) grid realization for scene, symbols and seed.

    Deterministic given (symbols, seed): random target amplitudes and the
    additive CN(0, noise_var) grid each come from their own counter-based
    stream of the seed, the streams whose first draws are an ensemble's
    trial 0 on that seed.
    """
    expected = (cfg.n_subcarriers, cfg.n_symbols)
    if symbols.shape != expected:
        raise ConfigurationError(
            f"symbol grid shape {symbols.shape} != configured {expected}")
    check_cp_margin(scene, cfg)
    amps = scene.draw_amplitudes(_philox(seed, RCS_STREAM), 1)[0]
    noiseless = build_channel_matrix(scene, cfg, amplitudes=amps) * symbols
    return noiseless + draw_noise(cfg, seed, 1)[0]


# Binary grid serialization ------------------------------------------------
#
# 32-byte header: magic "OSAR", u32 version, u32 N, u32 M, u8 stage code,
# 15 pad bytes; then N*M interleaved little-endian float64 (re, im) pairs,
# subcarrier-major.

GRID_MAGIC = b"OSAR"
GRID_VERSION = 1
STAGE_CODES = {"tf": 0, "rc": 1, "rd": 2, "rcmc": 3, "ac": 4}
_STAGE_NAMES = {v: k for k, v in STAGE_CODES.items()}
_HEADER = struct.Struct("<4sIIIB15x")


def grid_to_bytes(data: np.ndarray, stage: str = "tf") -> bytes:
    if stage not in STAGE_CODES:
        raise StageError(f"unknown stage {stage!r}; expected one of {sorted(STAGE_CODES)}")
    if data.ndim != 2:
        raise InvalidParameterError(f"grid must be 2-D, got shape {data.shape}")
    n, m = data.shape
    header = _HEADER.pack(GRID_MAGIC, GRID_VERSION, n, m, STAGE_CODES[stage])
    # little-endian complex128 is the interleaved (re, im) float64 pairs; a
    # C-contiguous complex128 grid on a little-endian host is not copied
    pairs = np.ascontiguousarray(data, dtype="<c16")
    return b"".join((header, pairs))


def grid_from_bytes(blob: bytes) -> tuple[np.ndarray, str]:
    """The (grid, stage) that grid_to_bytes wrote, bit for bit.  The grid
    is a complex view of the blob's pairs, not a copy: read-only when the
    blob is bytes."""
    if len(blob) < _HEADER.size:
        raise InvalidParameterError(
            f"grid blob shorter than {_HEADER.size}-byte header")
    magic, version, n, m, stage_code = _HEADER.unpack_from(blob)
    if magic != GRID_MAGIC:
        raise InvalidParameterError(f"bad grid magic {magic!r}")
    if version != GRID_VERSION:
        raise InvalidParameterError(f"unsupported grid version {version}")
    if stage_code not in _STAGE_NAMES:
        raise StageError(f"unknown stage code {stage_code}")
    need = _HEADER.size + 16 * n * m
    if len(blob) != need:
        raise InvalidParameterError(
            f"grid blob length {len(blob)} != expected {need}")
    grid = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    return grid.reshape(n, m), _STAGE_NAMES[stage_code]
