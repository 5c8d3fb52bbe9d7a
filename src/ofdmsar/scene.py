"""Imaging scenes: point scatterers with RCS statistics.

A scene is a non-empty list of point targets in ground coordinates (x across
track, y along track).  Each target is either a corner reflector with the
deterministic amplitude sqrt(rcs_var), or a Gaussian scatterer whose
complex amplitude is drawn per trial from CN(0, rcs_var).  A scene is
built from PointTargets (make_point_scene), or ingested from an 8-bit PGM
raster, one deterministic target per bright pixel (load_scene_pgm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, SceneError
from .geometry import PlatformGeometry, mean_range
from .pgm import parse_pgm

AMPLITUDE_MODES = ("deterministic", "random")
# Margin of the extent make_point_scene fits around its targets.
_MARGIN_M = 1.0


@dataclass(frozen=True)
class PointTarget:
    """One scatterer at ground position (x_m, y_m).

    rcs_var is the mean reflected power sigma^2_alpha.  In "deterministic"
    mode (corner reflector) the complex amplitude is sqrt(rcs_var); in
    "random" mode it is redrawn per trial from CN(0, rcs_var).
    """

    x_m: float
    y_m: float
    rcs_var: float = 1.0
    amplitude_mode: str = "deterministic"

    def __post_init__(self):
        if not 0 < self.rcs_var < math.inf:
            raise SceneError(f"rcs_var must be finite and > 0, got {self.rcs_var}")
        if self.amplitude_mode not in AMPLITUDE_MODES:
            raise SceneError(
                f"amplitude_mode must be one of {AMPLITUDE_MODES}, "
                f"got {self.amplitude_mode!r}")

    def mean_range_m(self, geom: PlatformGeometry) -> float:
        return mean_range(self.x_m, geom)


@dataclass(frozen=True)
class Scene:
    """An immutable, non-empty collection of point targets with a bounding
    extent."""

    targets: tuple[PointTarget, ...]
    extent: tuple[float, float, float, float]  # (x_min, x_max, y_min, y_max)

    def __post_init__(self):
        x_min, x_max, y_min, y_max = self.extent
        if not (x_min <= x_max and y_min <= y_max):
            raise SceneError(f"degenerate extent {self.extent}")
        if not self.targets:
            raise SceneError("a scene needs at least one target")
        for i, t in enumerate(self.targets):
            if not (x_min <= t.x_m <= x_max and y_min <= t.y_m <= y_max):
                raise SceneError(
                    f"target {i} at ({t.x_m}, {t.y_m}) outside extent {self.extent}")

    @property
    def q(self) -> int:
        return len(self.targets)

    def reference_target(self) -> PointTarget:
        """The first deterministic target: the one an ensemble focuses on
        and measures."""
        ref = next((t for t in self.targets
                    if t.amplitude_mode == "deterministic"), None)
        if ref is None:
            raise InvalidParameterError(
                "ensemble metrics need a deterministic reference target")
        return ref

    def amplitude_vector(self, amplitudes: Optional[np.ndarray] = None
                         ) -> np.ndarray:
        """Raw amplitudes d_q as a complex (Q,) vector: the given ones,
        shape-checked, or by default each target's sqrt(rcs_var)."""
        if amplitudes is None:
            return np.array([np.sqrt(t.rcs_var) for t in self.targets],
                            dtype=complex)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (self.q,):
            raise InvalidParameterError(
                f"amplitudes shape {amplitudes.shape} != (Q,) = ({self.q},)")
        return amplitudes

    def draw_amplitudes(self, rng: Optional[np.random.Generator]
                        ) -> np.ndarray:
        """One trial's raw amplitudes d_q, shape (Q,).

        Deterministic targets contribute sqrt(rcs_var); random targets are
        drawn CN(0, rcs_var), so successive calls on one generator draw
        trials 0, 1, ... of its stream.  rng may be None when the scene has
        no random targets.
        """
        amps = self.amplitude_vector()
        random_cols = [j for j, t in enumerate(self.targets)
                       if t.amplitude_mode == "random"]
        if random_cols:
            if rng is None:
                raise InvalidParameterError(
                    "scene has random-amplitude targets but no generator was given")
            scale = np.array([np.sqrt(self.targets[j].rcs_var / 2.0)
                              for j in random_cols])
            draws = rng.standard_normal((len(random_cols), 2))
            amps[random_cols] = scale * (draws[:, 0] + 1j * draws[:, 1])
        return amps


def _extent_around(targets: Sequence[PointTarget]) -> tuple[float, ...]:
    # no targets still gives an extent, so that Scene names the error
    xs = [t.x_m for t in targets] or [0.0]
    ys = [t.y_m for t in targets] or [0.0]
    return (min(xs) - _MARGIN_M, max(xs) + _MARGIN_M,
            min(ys) - _MARGIN_M, max(ys) + _MARGIN_M)


def make_point_scene(targets: Iterable[PointTarget], extent=None) -> Scene:
    """A Scene of the given targets; when extent is omitted it is fitted
    around them with a 1 m margin."""
    targets = tuple(targets)
    if extent is None:
        extent = _extent_around(targets)
    return Scene(targets=targets, extent=tuple(float(v) for v in extent))


# Raster ingestion --------------------------------------------------------

def pixel_to_ground(row, col, shape, extent):
    """Ground coordinates of a pixel center.

    Row 0 is the near-range edge (x_min) and column 0 the early-azimuth
    edge (y_min); the mapping is affine in (row + 1/2, col + 1/2).
    """
    height, width = shape
    x_min, x_max, y_min, y_max = extent
    x = x_min + (np.asarray(row) + 0.5) * (x_max - x_min) / height
    y = y_min + (np.asarray(col) + 0.5) * (y_max - y_min) / width
    return x, y


def load_scene_pgm(data: bytes, extent, threshold: int = 0,
                   rcs_scale: float = 1.0) -> Scene:
    """Turn bright raster pixels into deterministic point targets.

    Every pixel with value > threshold becomes one corner reflector at the
    pixel-center ground coordinate with amplitude (pixel/255) * rcs_scale.
    The image must be an 8-bit PGM (maxval 255), as parse_pgm reads, with
    at least one pixel above the threshold.
    """
    pixels = parse_pgm(data)
    if not (0 <= threshold <= 255):
        raise InvalidParameterError(f"threshold must be in [0, 255], got {threshold}")
    if rcs_scale <= 0:
        raise InvalidParameterError(f"rcs_scale must be > 0, got {rcs_scale}")
    rows, cols = np.nonzero(pixels > threshold)
    xs, ys = pixel_to_ground(rows, cols, pixels.shape, extent)
    targets = []
    for r, c, x, y in zip(rows, cols, xs, ys):
        amplitude = (float(pixels[r, c]) / 255.0) * rcs_scale
        targets.append(PointTarget(float(x), float(y), rcs_var=amplitude ** 2,
                                   amplitude_mode="deterministic"))
    return Scene(targets=tuple(targets),
                 extent=tuple(float(v) for v in extent))
