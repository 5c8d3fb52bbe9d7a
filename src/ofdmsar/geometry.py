"""Broadside stripmap acquisition geometry.

The platform moves along the azimuth axis y at constant height and speed,
and every target is lit for the whole aperture (no antenna footprint is
modelled).  Scatterers are described by ground coordinates (x, y) with
closest-approach slant range sqrt(x^2 + height^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeometryError, InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .waveform import RadarConfig


@dataclass(frozen=True)
class PlatformGeometry:
    """Trajectory of the radar platform.

    Attributes
    ----------
    height_m : platform altitude above the ground plane, > 0
    speed_mps : along-track speed, >= 0 with a finite square
    """

    height_m: float
    speed_mps: float

    def __post_init__(self):
        if not 0 < self.height_m < math.inf:
            raise GeometryError(
                f"platform height must be finite and > 0, got {self.height_m}")
        if not 0 <= self.speed_mps < math.sqrt(np.finfo(float).max):
            raise InvalidParameterError(
                f"speed must be >= 0 with a finite square, got {self.speed_mps}")


def mean_range(x_m: float, geom: PlatformGeometry) -> float:
    """Closest-approach slant range sqrt(x^2 + height^2) of a ground point."""
    r_bar = math.hypot(x_m, geom.height_m)
    if r_bar <= 0:
        raise GeometryError("mean slant range must be > 0")
    return r_bar


def slant_range(x_m, y_m, m, cfg: "RadarConfig", mode: str = "exact"):
    """Slant range from the platform at symbol index m to ground point (x, y).

    Parameters
    ----------
    x_m, y_m : ground coordinates of the scatterer in meters
    m : symbol index or array of indices (platform at azimuth v*m*T_sym)
    cfg : radar configuration providing platform and symbol timing
    mode : "exact" for the full square root, "first_order" for the
        parabolic expansion around the closest-approach range

    Returns
    -------
    Slant range in meters, scalar or array matching m.
    """
    geom = cfg.platform
    r_bar = mean_range(x_m, geom)
    offset = geom.speed_mps * np.asarray(m, dtype=float) * cfg.total_symbol_s - y_m
    if mode == "exact":
        return np.sqrt(r_bar * r_bar + offset * offset)
    if mode == "first_order":
        return r_bar + offset * offset / (2.0 * r_bar)
    raise InvalidParameterError(f"unknown slant range mode {mode!r}")


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
