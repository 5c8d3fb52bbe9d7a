"""Temporal-frequency-domain filtering: remove the data randomness.

Element-wise, with s the transmitted symbol and y the received sample,

    reciprocal (rf):  g = 1/s                       (zero-forcing inversion)
    matched   (mf):   g = conj(s)                   (max output SNR)
    wiener    (wf):   g = conj(s)/(|s|^2 + 1/SNR)   (LMMSE)

The filtered grid yhat = y * g estimates the imaging channel matrix up to
the multiplicative spectrum chi = s*g.  Inactive resource elements (pilot
combs) carry no observation and are defined to output exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .waveform import FilterStats, RadarConfig

FILTER_KINDS = ("rf", "mf", "wf")


@dataclass(frozen=True)
class FilterSpec:
    """Which filter to apply; Wiener additionally needs the true input SNR."""

    kind: str
    snr_in_linear: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ConfigurationError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}")
        if self.kind == "wf":
            if self.snr_in_linear is None:
                raise ConfigurationError("Wiener filter requires snr_in_linear")
            if self.snr_in_linear <= 0:
                raise ConfigurationError(
                    f"snr_in_linear must be > 0, got {self.snr_in_linear}")


def filter_gains(symbols: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """The element-wise gain grid g, exactly zero on the inactive resource
    elements, which are the zero symbols."""
    s = np.asarray(symbols)
    active = s != 0
    if spec.kind == "rf":
        g = np.divide(1.0, s, out=np.empty_like(s), where=active)
    else:
        # in place: the gains are the only full grid this allocates
        g = np.conj(s)
        if spec.kind == "wf":
            g /= np.abs(s) ** 2 + 1.0 / spec.snr_in_linear
    g[~active] = 0.0
    return g


def apply_tf_filter(echo: np.ndarray, symbols: np.ndarray,
                    spec: FilterSpec) -> np.ndarray:
    """Estimate the channel grid: yhat_{n,m} = y_{n,m} * g_{n,m}."""
    y, s = np.asarray(echo), np.asarray(symbols)
    if y.shape != s.shape:
        raise InvalidParameterError(
            f"echo shape {y.shape} != symbol grid shape {s.shape}")
    # gains * y, in place: the operand order numpy uses for y * gains once
    # the gains temporary passes its 256 KiB elision threshold, so the
    # bits do not depend on the grid size
    g = filter_gains(s, spec)
    return np.multiply(g, y, out=g)


def channel_mse_analytic(cfg: RadarConfig, stats: FilterStats,
                         sigma_alpha_total: float, noise_var: float) -> float:
    """Predicted E||yhat - H||^2 over symbols and noise.

    NM * (sum(sigma^2_alpha) * E[(chi-1)^2] + sigma^2 * E[|g|^2]); the first
    term is the data-randomness residual, the second the filtered noise.
    """
    if sigma_alpha_total < 0 or noise_var < 0:
        raise InvalidParameterError("variances must be >= 0")
    cells = cfg.n_subcarriers * cfg.n_symbols
    return cells * (sigma_alpha_total * stats.chi_err_sq_mean
                    + noise_var * stats.gain_sq_mean)
