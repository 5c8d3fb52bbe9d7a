"""Modified range-Doppler focusing chain on plain (N, M) complex arrays.

Stages, in fixed order, starting from a filtered temporal-frequency grid:

  tf   -> rc    range compression: unitary inverse DFT over subcarriers
  rc   -> rd    azimuth FFT: unitary forward DFT over symbols, centered
  rd   -> rcmc  range cell migration correction: one range-spectrum
                multiply per Doppler column (the windowed sinc in its
                circulant form)
  rcmc -> ac    azimuth compression: quadratic phase match + inverse DFT

Every stage is diagonal in some Fourier domain, so focusing_operator
folds the chain into one precomputed operator: range compression's
inverse DFT cancels the forward DFT that starts RCMC and the Doppler
centering shifts move into the multipliers, leaving

  ifft(A * ifft(fft(x, symbols) * H, range), symbols)

with H the RCMC range-spectrum multiplier and A the azimuth matched phase
times e^{j pi/4} sqrt(N), both ifftshifted to the FFT's Doppler order.
A is one row for reference K_a (then the chain is ifft2(fft(x) * H A))
and one row per output range bin in per_range_bin mode.  Its
range_doppler method stops before the outer multiply by A and IFFT,
which scale sums of squares by the constant N / M.  focus_image
returns the operator's result; stage_grids runs the staged functions,
which build their multipliers with the same helpers, in place in one
grid and yields each stage in turn.

Conventions: Doppler bins use the signed/centered index p = bin - M//2
(zero Doppler at bin M//2 of the stored array, the values of
_doppler_bins(cfg), in steps of cfg.doppler_pitch_hz); range bin k has
pitch c/(2 N df); azimuth output bin m is the symbol index of closest
approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidParameterError
from .waveform import RadarConfig, _row_blocks


def _check_shape(data: np.ndarray, cfg: RadarConfig):
    expected = (cfg.n_subcarriers, cfg.n_symbols)
    if np.shape(data) != expected:
        raise InvalidParameterError(
            f"grid shape {np.shape(data)} != configured {expected}")


def _doppler_bins(cfg: RadarConfig) -> np.ndarray:
    """Signed Doppler index p per stored column of the rd/rcmc stages."""
    m = cfg.n_symbols
    return np.arange(m) - m // 2


def _roll_symbols(grid: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(grid, shift, axis=1) in place, one row block at a time."""
    for rows in _row_blocks(grid.shape, 16):
        grid[rows] = np.roll(grid[rows], shift, axis=1)
    return grid


# Each staged function below takes out=, a complex128 grid of x's shape
# that takes the result and may be x itself; the bits do not depend on
# where the result is written.

def range_compress(x: np.ndarray, cfg: RadarConfig,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-symbol unitary inverse DFT over subcarriers.

    A scatterer at mean range Rbar contributes the subcarrier phase ramp
    exp(-j 2 pi n Rbar/(N rho_r)), which the inverse DFT collapses onto
    range bin k = Rbar/rho_r with peak gain sqrt(N).
    """
    _check_shape(x, cfg)
    grid = np.fft.ifft(x, axis=0, out=out)
    grid *= np.sqrt(cfg.n_subcarriers)
    return grid


def azimuth_fft(x: np.ndarray, cfg: RadarConfig,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-range unitary forward DFT over symbols, zero Doppler centered."""
    _check_shape(x, cfg)
    grid = np.fft.fft(x, axis=1, out=out)
    grid /= np.sqrt(cfg.n_symbols)
    return _roll_symbols(grid, cfg.n_symbols // 2)  # fftshift


def rcm_shift(p, cfg: RadarConfig, r_bar_ref_m: float):
    """Migration of the range peak at Doppler bin p, in fractional bins.

    delta_k = v^2 p^2 / (2 Rbar (K_a M T)^2 rho_r), evaluated at the
    reference range; even in p and quadratic in it.  A K_a M T whose
    square overflows float64 gives the limit of no migration.
    """
    if not r_bar_ref_m > 0:
        raise InvalidParameterError(f"reference range must be > 0, got {r_bar_ref_m}")
    k_a = cfg.azimuth_rate_at(r_bar_ref_m)
    v = cfg.platform.speed_mps
    with np.errstate(over="ignore"):  # numpy's power gives inf, Python's raises
        scale_sq = np.float64(k_a * cfg.n_symbols * cfg.total_symbol_s) ** 2
    denom = 2.0 * r_bar_ref_m * scale_sq * cfg.range_pitch_m
    return v ** 2 * np.asarray(p, dtype=float) ** 2 / denom


RCMC_METHODS = ("windowed_sinc", "phase_ramp")
RCMC_HALFWIDTH = 8  # windowed-sinc taps on each side of the shifted sample


def _shift_transfer(n: int, shifts: np.ndarray, method: str,
                    halfwidth: int) -> np.ndarray:
    """Range-spectrum multiplier H (N x M) with out[k, p] = in[k + shifts[p], p].

    Both methods shift each Doppler column circularly along range, so each
    is diagonal in the range-frequency domain: out = ifft(fft(in) * H).

    phase_ramp: the exact shift, a linear phase ramp over the native
    one-sided subcarrier indices 0..N-1 (the basis range compression
    synthesizes from); unitary for grid content of any shape.

    windowed_sinc: the circulant form of a windowed-sinc interpolator.
    Range columns ride a near-Nyquist carrier that a sinc kernel cannot
    interpolate directly, so each tap at lag l = floor(shift) + tap is
    demodulated by (-1)^l and the result remodulated by e^{j pi shift};
    the taps, summed at lag mod N, form the circulant vector c_p, and
    H[:, p] = N ifft(c_p).
    """
    if method == "phase_ramp":
        ramp = 2j * np.pi * np.outer(np.arange(n), shifts / n)
        return np.exp(ramp, out=ramp)
    whole = np.floor(shifts)
    taps = np.arange(-halfwidth + 1, halfwidth + 1)[:, None]
    u = taps - (shifts - whole)
    kernel = np.sinc(u) * 0.5 * (1.0 + np.cos(np.pi * u / halfwidth))
    lags = whole.astype(np.int64) + taps
    signs = 1.0 - 2.0 * (lags % 2)
    columns = np.broadcast_to(np.arange(shifts.size), lags.shape)
    circulant = np.zeros((n, shifts.size), dtype=complex)
    np.add.at(circulant, (lags % n, columns),
              kernel * signs * np.exp(1j * np.pi * shifts))
    np.fft.ifft(circulant, axis=0, out=circulant)
    circulant *= n
    return circulant


def _rcmc_transfer(cfg: RadarConfig, r_bar_ref_m: float, method: str,
                   halfwidth: int) -> np.ndarray:
    """Validated RCMC multiplier H (N x M), columns in stored Doppler order."""
    if method not in RCMC_METHODS:
        raise InvalidParameterError(
            f"unknown RCMC method {method!r}; expected one of {RCMC_METHODS}")
    if halfwidth < 1:
        raise InvalidParameterError(f"halfwidth must be >= 1, got {halfwidth}")
    shifts = rcm_shift(_doppler_bins(cfg), cfg, r_bar_ref_m)
    return _shift_transfer(cfg.n_subcarriers, shifts, method, halfwidth)


def rcmc(x: np.ndarray, cfg: RadarConfig, r_bar_ref_m: float,
         method: str = "windowed_sinc", halfwidth: int = RCMC_HALFWIDTH,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Straighten migration trajectories in the range-Doppler domain.

    Each Doppler column p is advanced along range by its predicted
    migration: out[k, p] = in[k + delta_k(p), p], so a scatterer's energy
    returns to its zero-Doppler range bin for all p.  The shift is
    circulant along range, so RCMC is one range-spectrum multiply per
    Doppler column; the windowed sinc is applied in its circulant form.
    """
    _check_shape(x, cfg)
    transfer = _rcmc_transfer(cfg, r_bar_ref_m, method, halfwidth)
    grid = np.fft.fft(x, axis=0, out=out)
    grid *= transfer
    return np.fft.ifft(grid, axis=0, out=grid)


KA_MODES = ("reference", "per_range_bin")
# Constant phase that cancels the stationary-phase residual e^{-j pi/4}.
_SPA_RESIDUAL = np.exp(1j * np.pi / 4.0)


def _matched_phase(cfg: RadarConfig, ka_mode: str,
                   r_bar_ref_m: Optional[float]) -> np.ndarray:
    """Azimuth matched phase exp(-j pi p^2 / (M^2 T^2 K_a)), stored Doppler order.

    Shape (1, M) with K_a at the reference range, or (N, M) with K_a at
    each output range bin k * rho_r in per_range_bin mode.
    """
    if ka_mode not in KA_MODES:
        raise InvalidParameterError(
            f"unknown ka_mode {ka_mode!r}; expected one of {KA_MODES}")
    if not cfg.platform.speed_mps ** 2 > 0:  # v^2 underflows for tiny v
        raise InvalidParameterError("azimuth compression undefined for a static platform")
    p = _doppler_bins(cfg).astype(float)
    mt_sq = (cfg.n_symbols * cfg.total_symbol_s) ** 2
    if ka_mode == "reference":
        if r_bar_ref_m is None:
            raise InvalidParameterError(
                "reference-range azimuth compression needs r_bar_ref_m")
        inv_ka = 1.0 / cfg.azimuth_rate_at(r_bar_ref_m)
        return np.exp(-1j * np.pi * p ** 2 * inv_ka / mt_sq)[None, :]
    v = cfg.platform.speed_mps
    k = np.arange(cfg.n_subcarriers, dtype=float)
    inv_ka = cfg.wavelength_m * (k * cfg.range_pitch_m) / (2.0 * v ** 2)
    phase = -1j * np.pi * np.outer(inv_ka, p ** 2) / mt_sq
    return np.exp(phase, out=phase)


def azimuth_compress(x: np.ndarray, cfg: RadarConfig,
                     r_bar_ref_m: Optional[float] = None,
                     ka_mode: str = "reference",
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Match the quadratic Doppler phase and return to the azimuth domain.

    Multiplies each Doppler sample by exp(-j pi p^2 / (M^2 T^2 K_a)) plus
    the constant exp(+j pi/4) that cancels the stationary-phase residual,
    then applies the unitary inverse DFT per range row.  K_a is taken at
    the reference range, or per output range bin (k * rho_r) in
    per_range_bin mode, which needs no r_bar_ref_m.
    """
    _check_shape(x, cfg)
    # a named phase keeps numpy from multiplying into it as a temporary,
    # which would swap the operands and change the round-off
    phase = _matched_phase(cfg, ka_mode, r_bar_ref_m)
    grid = np.multiply(x, phase, out=out)
    del phase
    grid *= _SPA_RESIDUAL
    _roll_symbols(grid, -(cfg.n_symbols // 2))  # ifftshift
    grid = np.fft.ifft(grid, axis=1, out=grid)
    grid *= np.sqrt(cfg.n_symbols)
    return grid


@dataclass(frozen=True, eq=False)
class FocusingOperator:
    """The chain tf -> ac as one precomputed linear map on (..., N, M) grids.

    range_multiplier is the RCMC multiplier H and azimuth_multiplier the
    azimuth matched phase times e^{j pi/4} sqrt(N), both ifftshifted to the
    FFT's Doppler order; A = azimuth_multiplier has shape (1, M) for
    reference K_a and (N, M) per range bin, and |A|^2 = N on every entry.
    range_doppler(x) runs the first two passes, fft over symbols, times H
    and ifft over subcarriers; calling the operator runs them and then
    times A and ifft over symbols.  So the image is ifft_M(A * Y) with Y
    the range-Doppler form, and sum |image|^2 = (N / M) sum |Y|^2.  Either
    accepts one grid or a stack.  Called with out=buf, a complex128 array
    of x's shape, every pass writes into buf, which is returned and may be
    x itself; the bits do not depend on where the result is written.
    """

    range_multiplier: np.ndarray
    azimuth_multiplier: np.ndarray

    def range_doppler(self, tf_grid: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        # the first pass makes (or fills) the result; the rest run in place
        grid = np.fft.fft(tf_grid, axis=-1, out=out)
        grid *= self.range_multiplier
        return np.fft.ifft(grid, axis=-2, out=grid)

    def __call__(self, tf_grid: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        grid = self.range_doppler(tf_grid, out=out)
        grid *= self.azimuth_multiplier
        return np.fft.ifft(grid, axis=-1, out=grid)


def focusing_operator(cfg: RadarConfig, r_bar_ref_m: float,
                      rcmc_method: str = "windowed_sinc",
                      ka_mode: str = "reference") -> FocusingOperator:
    """The FocusingOperator of a run grid and reference range.

    Equal to range_compress -> azimuth_fft -> rcmc -> azimuth_compress up
    to round-off, at three FFT passes per grid instead of five; the RCMC
    multiplier and the matched phase are built once here, not per grid.
    """
    # the phase first, so that a static platform is reported as such; each
    # multiplier is scaled and ifftshifted in place
    phase = _matched_phase(cfg, ka_mode, r_bar_ref_m)
    phase *= _SPA_RESIDUAL * np.sqrt(cfg.n_subcarriers)
    transfer = _rcmc_transfer(cfg, r_bar_ref_m, rcmc_method, RCMC_HALFWIDTH)
    shift = -(cfg.n_symbols // 2)
    return FocusingOperator(_roll_symbols(transfer, shift),
                            _roll_symbols(phase, shift))


def focus_image(x: np.ndarray, cfg: RadarConfig, r_bar_ref_m: float,
                rcmc_method: str = "windowed_sinc",
                ka_mode: str = "reference") -> np.ndarray:
    """The focused (N, M) image of a tf grid: focusing_operator applied once."""
    _check_shape(x, cfg)
    return focusing_operator(cfg, r_bar_ref_m, rcmc_method, ka_mode)(x)


def stage_grids(x: np.ndarray, cfg: RadarConfig, r_bar_ref_m: float,
                rcmc_method: str = "windowed_sinc",
                ka_mode: str = "reference") -> Iterator[tuple[str, np.ndarray]]:
    """Yield ("tf", x), then ("rc" | "rd" | "rcmc" | "ac", x): each stage
    is made in place in x, a complex128 grid, by its staged function once
    the previous one is yielded.  So a consumer takes a .copy() of each
    stage it keeps, and one that stops early runs no later stage.  The
    last equals focus_image's up to round-off."""
    yield "tf", x
    yield "rc", range_compress(x, cfg, out=x)
    yield "rd", azimuth_fft(x, cfg, out=x)
    yield "rcmc", rcmc(x, cfg, r_bar_ref_m, rcmc_method, out=x)
    yield "ac", azimuth_compress(x, cfg, r_bar_ref_m, ka_mode, out=x)
