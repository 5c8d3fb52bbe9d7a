"""Independent references the tests check the imaging chain against.

None of these runs on a run's path (parse, sweep, focus, report): each
is an analysis oracle that the chain is compared with.

  slant_range / envelope_to_phase_rate_ratio
      the exact slant range that geometry.range_deviation approximates to
      first order, and the stationary-phase validity ratio of a geometry
  spa_spectrum
      the stationary-phase approximation of a chirp's DFT, which the
      azimuth compression applies implicitly
  doppler_support
      the occupied Doppler extent of a range-Doppler power row
  ls_reconstruct / rd_vs_ls_compare
      brute-force least-squares amplitudes at toy sizes: on
      negligible-migration scenes the focused image peak |y_ac|/sqrt(NM)
      should approximate the least-squares amplitude |alpha|
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from ofdmsar.echo import build_channel_matrix, synthesize_echo
from ofdmsar.errors import (CapacityError, InvalidParameterError,
                            MeasurementError, OfdmSarError)
from ofdmsar.geometry import mean_range
from ofdmsar.metrics import target_bin
from ofdmsar.rd_imaging import focus_image
from ofdmsar.scene import PointTarget, Scene
from ofdmsar.tf_filter import FilterSpec, apply_tf_filter
from ofdmsar.waveform import Constellation, RadarConfig, gen_symbol_grid

# Two-sided -3 dB width of sinc(x), in units of its first-null spacing
# (|sinc(w/2)| = 1/sqrt(2) at w = 0.885893).
SINC_3DB_WIDTH_BINS = 0.8858929413789287


class SingularSystemError(OfdmSarError, RuntimeError):
    """A linear system is singular or numerically rank deficient."""


# Geometry -----------------------------------------------------------------

def slant_range(x_m, y_m, m, cfg: "RadarConfig"):
    """Exact slant range from the platform at symbol index m to ground point
    (x, y), sqrt(Rbar^2 + (v m T_sym - y)^2) in meters, scalar or array
    matching m: the reference for range_deviation's first-order form."""
    r_bar = mean_range(x_m, cfg.platform)
    offset = cfg.platform.speed_mps * np.asarray(m, dtype=float) * cfg.total_symbol_s - y_m
    return np.sqrt(r_bar * r_bar + offset * offset)


def envelope_to_phase_rate_ratio(cfg: "RadarConfig", x_m: float, y_m: float) -> float:
    """How much slower the azimuth envelope varies than the azimuth phase.

    The range-compressed envelope of a scatterer drifts by one resolution
    cell over many symbols while its phase turns over few; their rate ratio
    is 2 pi M v T_sym (sqrt(2 rho_r R) + y) / (lambda R).  Values well above
    unity justify treating the envelope as locally constant in the
    stationary-phase evaluation of the azimuth spectrum.
    """
    r_bar = mean_range(x_m, cfg.platform)
    rho_r = cfg.range_pitch_m
    num = 2 * math.pi * cfg.n_symbols * cfg.platform.speed_mps * cfg.total_symbol_s
    num *= math.sqrt(2 * rho_r * r_bar) + y_m
    return num / (cfg.wavelength_m * r_bar)


# Stationary phase ---------------------------------------------------------

class SpaResult(NamedTuple):
    value: complex
    m_tilde: float
    in_support: bool


def spa_spectrum(envelope: np.ndarray, a: float, b: float, m_count: int,
                 p) -> SpaResult:
    """Stationary-phase approximation of the length-M DFT of a chirp.

    The signal is u_m = w_m exp(j (a m^2 + b m)) for m = 0..M-1 with
    envelope w given per sample.  The DFT sum at signed bin p has total
    phase a m^2 + (b - 2 pi p / M) m, stationary at
    m_tilde = (2 pi p / M - b) / (2 a); the approximation is

        U_p ~= w(m_tilde) e^{j Phi(m_tilde)} sqrt(2 pi/|2a|) e^{j sgn(a) pi/4}.

    Out-of-support stationary points return value 0 with in_support False.
    """
    envelope = np.asarray(envelope, dtype=float)
    if envelope.ndim != 1 or envelope.size != m_count:
        raise InvalidParameterError(
            f"envelope must be a length-{m_count} vector, got shape {envelope.shape}")
    if a == 0:
        raise InvalidParameterError(
            "degenerate phase: quadratic coefficient a must be nonzero")
    _warn_if_fast_envelope(envelope, a)
    p = float(p)
    m_tilde = (2.0 * np.pi * p / m_count - b) / (2.0 * a)
    in_support = 0.0 <= m_tilde < m_count
    if not in_support:
        return SpaResult(0.0 + 0.0j, m_tilde, False)
    w = float(np.interp(m_tilde, np.arange(m_count), envelope))
    total_phase = (a * m_tilde ** 2 + b * m_tilde
                   - 2.0 * np.pi * p * m_tilde / m_count)
    value = (w * np.exp(1j * total_phase)
             * np.sqrt(2.0 * np.pi / abs(2.0 * a))
             * np.exp(1j * np.sign(a) * np.pi / 4.0))
    return SpaResult(complex(value), m_tilde, True)


def _warn_if_fast_envelope(envelope: np.ndarray, a: float):
    """Warn when the envelope varies comparably fast to the chirp phase.

    The interior envelope variation per sample is compared against the
    phase-rate scale |2a| * M/4 (typical |Phi'| deviation from the
    stationary point); boundary jumps of a finite window are ignored.
    """
    if envelope.size < 4:
        return
    interior = np.abs(np.diff(envelope[1:-1]))
    peak = np.max(np.abs(envelope))
    if peak == 0:
        return
    env_rate = float(interior.max()) / peak
    if env_rate == 0.0:
        return
    phase_rate = abs(2.0 * a) * envelope.size / 4.0
    ratio = phase_rate / env_rate
    if ratio <= 10.0:
        warnings.warn(
            f"envelope varies too fast for the stationary-phase approximation "
            f"(rate ratio {ratio:.2f} <= 10)", RuntimeWarning, stacklevel=3)


# Spectral support ---------------------------------------------------------

class SupportMeasure(NamedTuple):
    width_hz: float
    two_sided_hz: float
    lo_hz: float
    hi_hz: float


def doppler_support(power_row: np.ndarray, freqs_hz: np.ndarray,
                    threshold_ratio: float = 0.25) -> SupportMeasure:
    """Occupied Doppler extent of a power profile.

    Occupied bins have power >= threshold_ratio * max.  width_hz is the
    contiguous extent (hi - lo plus one bin); two_sided_hz is twice the
    largest occupied |frequency| (the symmetric band +/- max|f| needed to
    cover the signal).
    """
    power_row = np.asarray(power_row, dtype=float)
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    if power_row.shape != freqs_hz.shape:
        raise InvalidParameterError("power and frequency axes differ in shape")
    peak = power_row.max()
    if peak <= 0:
        raise MeasurementError("power profile is empty")
    occupied = np.nonzero(power_row >= threshold_ratio * peak)[0]
    lo, hi = freqs_hz[occupied[0]], freqs_hz[occupied[-1]]
    pitch = abs(freqs_hz[1] - freqs_hz[0]) if freqs_hz.size > 1 else 0.0
    width = hi - lo + pitch
    return SupportMeasure(width_hz=float(width),
                          two_sided_hz=float(2.0 * max(abs(lo), abs(hi))),
                          lo_hz=float(lo), hi_hz=float(hi))


# Least squares ------------------------------------------------------------
#
# ls_reconstruct solves the linear observation model directly: each
# candidate ground position contributes one column vec(H_q * S) (its unit
# channel response modulated by the transmitted symbols), and the complex
# amplitudes come from the (optionally ridge-regularized) normal equations.
# This is tractable only at toy sizes but is exact.

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
