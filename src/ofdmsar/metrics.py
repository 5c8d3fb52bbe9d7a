"""Point-target imaging-quality metrics.

All metrics refer to the focused response of a known reference corner
reflector (unit deterministic amplitude unless stated otherwise):

  ISLR      sidelobe-to-mainlobe energy ratio of the ensemble image, from
            its total mean power and its mainlobe pixels' mean power; the
            reported islr_db takes the bins within +/-
            pipeline.MAINLOBE_HALFWIDTH_BINS of the peak as mainlobe
  PEL       NM * E[(1 - R(0,0)/sqrt(NM))^2] over noiseless trials
  SNR_out   sigma^2_alpha * E[R^2(0,0)] / (sigma^2 * E[|g|^2])
  NMSE      E||image - reference||^2 / (sigma^2_alpha * E[R^2(0,0)])

with E[R^2(0,0)] the ensemble mean squared peak of the reconstructed
(noisy) profile.  The reference is the focusing chain's own image of the
scene on the run grid: its channel focused with chi = 1 on every cell, no
pilot comb, no filter and no noise (pipeline.run_sweep_ensemble).  So NMSE
measures what the filter, the comb and the noise cost, wherever the
targets sit.  ideal_reference_image is the analytic kernel that the chain
focuses an on-bin target of a critical grid to; the closed forms below
assume it, and tests compare the chain against it.

Under that shared normalization, and with the peak bin alone as ISLR's
mainlobe, the decomposition

  NMSE = ISLR + PEL / E[R^2(0,0)] + 1 / SNR_out

is exact for a single target whose reference image is one pixel: an
on-bin target of a critical grid, whose kernel has nulls at every other
integer bin.  For any reference it holds with ISLR and PEL taken against
the reference image, as NMSE is: the energy of image - reference off the
peak pixel over the peak's, and the peak's loss against the reference's
peak (pipeline.point_target_report).  They are the single-bin ISLR and
the PEL above where the reference is one pixel of height sqrt(NM), and
identity_residual reports the relative gap for any scene: what is left
is the sampled noise at the peak against 1 / SNR_out.  A gain-calibrated
NMSE variant (image divided by E[chi]) is also provided: it is invariant
to the overall filter scale and is the right quantity for comparing
filters whose mean gains differ.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, MeasurementError
from .scene import PointTarget, Scene
from .waveform import FilterStats, RadarConfig

# Two-sided -3 dB width of sinc(x), in units of its first-null spacing
# (|sinc(w/2)| = 1/sqrt(2) at w = 0.885893).
SINC_3DB_WIDTH_BINS = 0.8858929413789287
# Shortest profile whose -3 dB width measure_mainlobe_width measures.
MIN_PROFILE_BINS = 4


@dataclass(frozen=True)
class MetricsReport:
    """Flat summary of one point-target ensemble (JSON-serializable)."""

    rho_r_m: float
    rho_a_m: float
    measured_rho_r_m: float
    measured_rho_a_m: float
    islr_db: float
    pel: float
    snr_out_db: float
    nmse: float
    identity_residual: float
    trials: int
    filter: str
    mode: str

    def __post_init__(self):
        if self.nmse < 0:
            raise InvalidParameterError(f"nmse must be >= 0, got {self.nmse}")

    def to_json_dict(self) -> dict:
        return asdict(self)


def theoretical_resolutions(cfg: RadarConfig, r_bar_ref_m: float) -> tuple[float, float]:
    """(rho_r, rho_a): c/(2 N df) and v/(2 K_a T_a) at the reference range."""
    rho_a = cfg.platform.speed_mps / (2.0 * cfg.azimuth_bandwidth_at(r_bar_ref_m))
    return cfg.range_pitch_m, rho_a


def target_bin(target: PointTarget, cfg: RadarConfig) -> tuple[int, int]:
    """The (range, azimuth) image bin nearest the target, wrapped cyclically:
    Rbar_q/rho_r and y_q/(v T) rounded."""
    k_q = int(round(target.mean_range_m(cfg.platform) / cfg.range_pitch_m))
    m_q = int(round(target.y_m
                    / (cfg.platform.speed_mps * cfg.total_symbol_s)))
    return k_q % cfg.n_subcarriers, m_q % cfg.n_symbols


def ideal_reference_image(scene: Scene, cfg: RadarConfig,
                          amplitudes: Optional[np.ndarray] = None) -> np.ndarray:
    """The (N, M) reference image sqrt(NM) sum_q alpha_q D(k-k_q) sinc(m-m_q).

    alpha_q carries each target's amplitude and its carrier range phase
    exp(-j 4 pi fc Rbar_q / c); k_q = Rbar_q/rho_r and m_q = y_q/(v T) are
    placed cyclically, at the nearest wrapped bin offset.  The range factor
    is what range compression makes of the target's subcarrier ramp, the
    N-point Dirichlet kernel D(x) = exp(j pi (N-1) x / N) sinc(x) /
    sinc(x / N), which is N-periodic, 1 at x = 0 and 0 at every other
    integer, as sinc is; off the bin grid it differs from sinc(x).
    """
    n, m = cfg.n_subcarriers, cfg.n_symbols
    data = np.zeros((n, m), dtype=complex)
    amplitudes = scene.amplitude_vector(amplitudes)
    v = cfg.platform.speed_mps
    k_axis = np.arange(n)[:, None]
    m_axis = np.arange(m)[None, :]
    for d_q, target in zip(amplitudes, scene.targets):
        r_bar = target.mean_range_m(cfg.platform)
        alpha = d_q * np.exp(-4j * np.pi * r_bar / cfg.wavelength_m)
        k_q = r_bar / cfg.range_pitch_m
        m_q = target.y_m / (v * cfg.total_symbol_s)
        dk = (k_axis - k_q + n / 2.0) % n - n / 2.0
        dm = (m_axis - m_q + m / 2.0) % m - m / 2.0
        dirichlet = (np.exp(1j * np.pi * (n - 1) / n * dk)
                     * (np.sinc(dk) / np.sinc(dk / n)))
        data += alpha * dirichlet * np.sinc(dm)
    data *= math.sqrt(n * m)
    return data


def _dft_upsample(profile: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited (zero-padded DFT) interpolation of a cyclic profile."""
    n = profile.size
    spec = np.fft.fft(profile)
    padded = np.zeros(n * factor, dtype=complex)
    half = n // 2
    padded[:half] = spec[:half]
    padded[-(n - half):] = spec[half:]
    if n % 2 == 0:
        # split the Nyquist coefficient symmetrically
        padded[half] = 0.5 * spec[half]
        padded[-half] = 0.5 * spec[half]
        padded[-(n - half)] = 0.0
        padded[n * factor - half] = 0.5 * spec[half]
    return np.fft.ifft(padded) * factor


def measure_mainlobe_width(profile: np.ndarray, interpolate: int = 16, *,
                           peak_bin: int) -> float:
    """Two-sided -3 dB (half-power) width of the lobe at peak_bin, in input
    bins.

    The profile (magnitude, or complex samples whose magnitude is taken
    after interpolation) is band-limited interpolated by the given factor;
    the peak is the largest interpolated sample within half a bin of
    peak_bin, so equal replicas elsewhere (comb-sampled grids) do not
    matter.  The profile is rolled so that peak is centered, and the two
    crossings of peak/sqrt(2) are located by linear interpolation.
    """
    profile = np.asarray(profile)
    if profile.ndim != 1 or profile.size < MIN_PROFILE_BINS:
        raise InvalidParameterError(
            f"profile must be a 1-D vector of length >= {MIN_PROFILE_BINS}")
    if interpolate < 1:
        raise InvalidParameterError(f"interpolate must be >= 1, got {interpolate}")
    if not 0 <= peak_bin < profile.size:
        raise InvalidParameterError(
            f"peak_bin {peak_bin} outside the {profile.size}-bin profile")
    up = np.abs(_dft_upsample(profile.astype(complex), interpolate))
    anchor = int(round(peak_bin * interpolate))
    offsets = np.arange(-(interpolate // 2), interpolate // 2 + 1)
    candidates = (anchor + offsets) % up.size
    peak_idx = int(candidates[np.argmax(up[candidates])])
    peak = up[peak_idx]
    if peak <= 0:
        raise MeasurementError("profile has no positive peak")
    centered = np.roll(up, up.size // 2 - peak_idx)
    center = up.size // 2
    level = peak / math.sqrt(2.0)

    def crossing(direction: int) -> float:
        i = center
        while 0 < i < centered.size - 1:
            j = i + direction
            if centered[j] <= level:
                # linear interpolation between samples i and j
                span = centered[i] - centered[j]
                frac = (centered[i] - level) / span if span > 0 else 0.0
                return i + direction * frac
            i = j
        raise MeasurementError("no -3 dB crossing found (profile too flat)")

    width_up = crossing(+1) - crossing(-1)
    return width_up / interpolate


def islr(total_power: float, mainlobe_power) -> float:
    """Sidelobe-to-mainlobe energy ratio of an ensemble-mean power image.

    total_power is E[sum |image|^2] over the whole image and mainlobe_power
    the E[|image|^2] of the mainlobe's pixels (one or an array of them), so
    the ratio is a ratio of expectations.
    """
    mainlobe_power = np.asarray(mainlobe_power, dtype=float)
    if not total_power >= 0 or np.any(mainlobe_power < 0):
        raise InvalidParameterError("powers must be non-negative")
    mainlobe = float(mainlobe_power.sum())
    if mainlobe <= 0:
        raise MeasurementError("mainlobe energy is zero")
    return (total_power - mainlobe) / mainlobe


def pel(noiseless_peaks: Sequence[complex], cfg: RadarConfig) -> float:
    """Peak energy loss NM * mean(|1 - R(0,0)/sqrt(NM)|^2).

    noiseless_peaks are the focused peak values per noiseless trial,
    normalized by the reference target amplitude (so an ideal run gives
    exactly sqrt(NM)).
    """
    peaks = np.asarray(noiseless_peaks, dtype=complex)
    cells = cfg.n_subcarriers * cfg.n_symbols
    ratios = peaks / math.sqrt(cells)
    return cells * float(np.mean(np.abs(1.0 - ratios) ** 2))


def snr_out(peak_sq_mean: float, stats: FilterStats, sigma_alpha_var: float,
            noise_var: float) -> float:
    """sigma^2_alpha * E[R^2(0,0)] / (sigma^2 * E[|g|^2]).

    peak_sq_mean is the empirical E[R^2(0,0)] of the amplitude-normalized
    reconstructed peak; the denominator is analytic from the filter
    statistics.  Returns inf when it is zero: a noiseless ensemble, or
    filter gains so small that the filtered noise power underflows.
    """
    if peak_sq_mean < 0 or sigma_alpha_var <= 0 or noise_var < 0:
        raise InvalidParameterError("invalid ensemble statistics")
    noise_power = noise_var * stats.gain_sq_mean
    if noise_power == 0.0:
        return math.inf
    return sigma_alpha_var * peak_sq_mean / noise_power


def nmse(mse_mean: float, peak_sq_mean: float, sigma_alpha_var: float) -> float:
    """E||image - reference||^2 over sigma^2_alpha * E[R^2(0,0)]."""
    if peak_sq_mean <= 0 or sigma_alpha_var <= 0:
        raise InvalidParameterError("normalization must be positive")
    return mse_mean / (sigma_alpha_var * peak_sq_mean)


def identity_residual(islr_value: float, pel_value: float, peak_sq_mean: float,
                      snr_out_value: float, nmse_value: float) -> float:
    """Relative gap of NMSE = ISLR + PEL/E[R^2(0,0)] + 1/SNR_out."""
    inv_snr = 0.0 if math.isinf(snr_out_value) else 1.0 / snr_out_value
    lhs = islr_value + pel_value / peak_sq_mean + inv_snr
    if nmse_value == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(lhs - nmse_value) / nmse_value


# Analytic closed forms ----------------------------------------------------

def analytic_point_metrics(cfg: RadarConfig, stats: FilterStats,
                           sigma_alpha_var: float, noise_var: float) -> dict:
    """Closed-form ensemble metrics for a single on-grid unit reference.

    Valid when the focusing chain is effectively unitary for the target
    (critical azimuth sampling, negligible residual migration).  Returns
    mse, e_r_sq (noisy E[R^2(0,0)] for the amplitude-normalized peak),
    islr, pel, snr_out, nmse and nmse_calibrated.
    """
    cells = cfg.n_subcarriers * cfg.n_symbols
    v_chi = stats.chi_var
    e_chi = stats.chi_mean
    w = noise_var * stats.gain_sq_mean / sigma_alpha_var
    a = cells * e_chi ** 2 + v_chi
    e_r_sq = a + w
    mse = cells * sigma_alpha_var * (stats.chi_err_sq_mean + w)
    nmse_val = mse / (sigma_alpha_var * e_r_sq)
    pel_val = cells * (1.0 - e_chi) ** 2 + v_chi
    islr_val = (cells * (e_chi ** 2 + v_chi + w) - e_r_sq) / e_r_sq
    snr = math.inf if w == 0.0 else e_r_sq / w
    nmse_cal = cells * (v_chi + w) / e_r_sq
    return {
        "mse": mse,
        "e_r_sq": e_r_sq,
        "islr": islr_val,
        "pel": pel_val,
        "snr_out": snr,
        "nmse": nmse_val,
        "nmse_calibrated": nmse_cal,
    }


def pedestal_level(stats: FilterStats, sigma_alpha_total: float,
                   noise_var: float) -> float:
    """Expected image power per bin away from all targets."""
    return sigma_alpha_total * stats.chi_var + noise_var * stats.gain_sq_mean


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
