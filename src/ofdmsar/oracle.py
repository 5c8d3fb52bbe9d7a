"""Brute-force desk-scale references for the fast imaging chain.

ls_reconstruct solves the linear observation model directly: each
candidate ground position contributes one column vec(H_q * S) (its unit
channel response modulated by the transmitted symbols), and the complex
amplitudes come from the (optionally ridge-regularized) normal equations.
This is tractable only at toy sizes but is exact, so it serves as an
independent oracle: on negligible-migration scenes the focused image peak
|y_ac|/sqrt(NM) should approximate the least-squares amplitude |alpha|.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .echo import build_channel_matrix, synthesize_echo
from .errors import CapacityError, InvalidParameterError, SingularSystemError
from .metrics import target_bin
from .rd_imaging import focus_image
from .scene import PointTarget, Scene
from .tf_filter import FilterSpec, apply_tf_filter
from .waveform import Constellation, RadarConfig, gen_symbol_grid

MAX_GRID_POINTS = 256
MAX_CELLS = 65536


def _design_matrix(grid: Sequence[tuple[float, float]], symbols: np.ndarray,
                   cfg: RadarConfig) -> np.ndarray:
    columns = []
    for x, y in grid:
        target = PointTarget(x_m=float(x), y_m=float(y))
        scene = Scene(targets=(target,),
                      extent=(x - 1.0, x + 1.0, y - 1.0, y + 1.0))
        h_q = build_channel_matrix(scene, cfg)
        columns.append((h_q * symbols).ravel())
    return np.column_stack(columns)


def ls_reconstruct(echo: np.ndarray, grid: Sequence[tuple[float, float]],
                   symbols: np.ndarray, cfg: RadarConfig,
                   ridge: float = 0.0) -> np.ndarray:
    """Least-squares amplitudes over candidate positions.

    Solves (A^H A + ridge I) alpha = A^H y for the stacked observation
    y = vec(echo), A's columns being the per-candidate responses
    vec(H_q * S).  ridge=0 is the pure least-squares solution.
    """
    y, s = np.asarray(echo), np.asarray(symbols)
    if y.shape != s.shape:
        raise InvalidParameterError(
            f"echo shape {y.shape} != symbol grid shape {s.shape}")
    if ridge < 0:
        raise InvalidParameterError(f"ridge must be >= 0, got {ridge}")
    if len(grid) == 0:
        raise InvalidParameterError("candidate grid is empty")
    if len(grid) > MAX_GRID_POINTS:
        raise CapacityError(
            f"{len(grid)} candidate points exceed the oracle cap of "
            f"{MAX_GRID_POINTS}")
    cells = cfg.n_subcarriers * cfg.n_symbols
    if cells > MAX_CELLS:
        raise CapacityError(
            f"grid of {cells} cells exceeds the oracle cap of {MAX_CELLS}")

    a = _design_matrix(grid, s, cfg)
    gram = a.conj().T @ a
    if ridge > 0:
        gram = gram + ridge * np.eye(len(grid))
    rhs = a.conj().T @ y.ravel()
    # detect rank deficiency before solving: a repeated candidate or an
    # unobservable point makes the normal matrix singular
    rank = np.linalg.matrix_rank(gram)
    if rank < len(grid):
        raise SingularSystemError(
            f"normal matrix is rank-deficient ({rank} < {len(grid)}); "
            "remove duplicate candidates or set ridge > 0")
    return np.linalg.solve(gram, rhs)


class CompareResult(NamedTuple):
    max_gap: float
    chain_amplitudes: np.ndarray
    ls_amplitudes: np.ndarray


def rd_vs_ls_compare(scene: Scene, cfg: RadarConfig,
                     constellation: Constellation, filter_spec: FilterSpec,
                     seed: int = 0) -> CompareResult:
    """Max relative amplitude gap between the fast chain and direct LS.

    Runs one noiseless draw through filter + focusing, reads
    |image|/sqrt(NM) at each target bin, and compares against the
    least-squares |alpha| on the grid of true target positions.  Intended
    for on-grid targets with negligible range migration.
    """
    if cfg.noise_var != 0.0:
        raise InvalidParameterError("oracle comparison requires noise_var=0")
    symbols = gen_symbol_grid(cfg, constellation, seed)
    echo = synthesize_echo(scene, cfg, symbols)
    filtered = apply_tf_filter(echo, symbols, filter_spec)
    r_bar_ref = float(np.mean([t.mean_range_m(cfg.platform)
                               for t in scene.targets]))
    image = focus_image(filtered, cfg, r_bar_ref)

    root_cells = np.sqrt(cfg.n_subcarriers * cfg.n_symbols)
    chain_amps = np.array([abs(image[target_bin(t, cfg)]) / root_cells
                           for t in scene.targets])

    grid = [(t.x_m, t.y_m) for t in scene.targets]
    ls_amps = np.abs(ls_reconstruct(echo, grid, symbols, cfg))
    gap = float(np.max(np.abs(chain_amps - ls_amps) / ls_amps))
    return CompareResult(max_gap=gap, chain_amplitudes=chain_amps,
                         ls_amplitudes=ls_amps)
