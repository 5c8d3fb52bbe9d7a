"""Imaging scenes: point scatterers with RCS statistics.

A scene is a flat list of point targets in ground coordinates (x across
track, y along track).  Each target is either a corner reflector with the
deterministic amplitude sqrt(rcs_var), or a Gaussian scatterer whose
complex amplitude is drawn per trial from CN(0, rcs_var).  Extended scenes
can be ingested from a PGM raster, one deterministic target per bright
pixel.
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
    """An immutable collection of point targets with a bounding extent."""

    targets: tuple[PointTarget, ...]
    extent: tuple[float, float, float, float]  # (x_min, x_max, y_min, y_max)

    def __post_init__(self):
        x_min, x_max, y_min, y_max = self.extent
        if not (x_min <= x_max and y_min <= y_max):
            raise SceneError(f"degenerate extent {self.extent}")
        for i, t in enumerate(self.targets):
            if not (x_min <= t.x_m <= x_max and y_min <= t.y_m <= y_max):
                raise SceneError(
                    f"target {i} at ({t.x_m}, {t.y_m}) outside extent {self.extent}")

    @property
    def q(self) -> int:
        return len(self.targets)

    @property
    def total_rcs_var(self) -> float:
        return float(sum(t.rcs_var for t in self.targets))

    def mean_ranges_m(self, geom: PlatformGeometry) -> np.ndarray:
        return np.array([t.mean_range_m(geom) for t in self.targets])

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

    def draw_amplitudes(self, rng: Optional[np.random.Generator],
                        n_trials: int = 1) -> np.ndarray:
        """Per-trial raw amplitudes d_q, shape (n_trials, Q).

        Deterministic targets contribute sqrt(rcs_var) in every trial;
        random targets are drawn CN(0, rcs_var).  rng may be None when the
        scene has no random targets.
        """
        amps = np.tile(self.amplitude_vector(), (n_trials, 1))
        random_cols = [j for j, t in enumerate(self.targets)
                       if t.amplitude_mode == "random"]
        if random_cols:
            if rng is None:
                raise InvalidParameterError(
                    "scene has random-amplitude targets but no generator was given")
            scale = np.array([np.sqrt(self.targets[j].rcs_var / 2.0)
                              for j in random_cols])
            draws = rng.standard_normal((n_trials, len(random_cols), 2))
            amps[:, random_cols] = scale * (draws[..., 0] + 1j * draws[..., 1])
        return amps


def _extent_around(targets: Sequence[PointTarget],
                   margin: float = 1.0) -> tuple[float, float, float, float]:
    xs = [t.x_m for t in targets] or [0.0]
    ys = [t.y_m for t in targets] or [0.0]
    return (min(xs) - margin, max(xs) + margin, min(ys) - margin, max(ys) + margin)


def make_point_scene(specs: Iterable, extent=None) -> Scene:
    """Build a Scene from target specs.

    Each spec is a PointTarget, an (x, y[, rcs_var[, mode]]) tuple, or a
    dict with keys x/y (or x_m/y_m) and optional rcs_var and mode (or
    amplitude_mode); naming a field twice is an error.  When extent is
    omitted it is fitted around the targets.
    """
    targets = []
    for spec in specs:
        if isinstance(spec, PointTarget):
            targets.append(spec)
        elif isinstance(spec, dict):
            d = dict(spec)
            for a, b in (("x", "x_m"), ("y", "y_m"), ("mode", "amplitude_mode")):
                if a in d and b in d:
                    raise SceneError(f"target spec gives both {a} and {b}")
            x = d.pop("x_m", d.pop("x", None))
            y = d.pop("y_m", d.pop("y", None))
            if x is None or y is None:
                raise SceneError(f"target spec missing x/y: {spec}")
            rcs_var = d.pop("rcs_var", 1.0)
            mode = d.pop("mode", d.pop("amplitude_mode", "deterministic"))
            if d:
                raise SceneError(f"unknown target spec fields {sorted(d)}")
            targets.append(PointTarget(float(x), float(y), float(rcs_var), mode))
        else:
            parts = tuple(spec)
            if len(parts) < 2 or len(parts) > 4:
                raise SceneError(f"target spec must have 2-4 entries, got {spec}")
            x, y = float(parts[0]), float(parts[1])
            rcs_var = float(parts[2]) if len(parts) > 2 else 1.0
            mode = parts[3] if len(parts) > 3 else "deterministic"
            targets.append(PointTarget(x, y, rcs_var, mode))
    if extent is None:
        extent = _extent_around(targets)
    return Scene(targets=tuple(targets), extent=tuple(float(v) for v in extent))


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


def ground_to_pixel(x, y, shape, extent):
    """Inverse of pixel_to_ground (returns fractional row/col)."""
    height, width = shape
    x_min, x_max, y_min, y_max = extent
    row = (np.asarray(x) - x_min) * height / (x_max - x_min) - 0.5
    col = (np.asarray(y) - y_min) * width / (y_max - y_min) - 0.5
    return row, col


def load_scene_pgm(data: bytes, extent, threshold: int = 0,
                   rcs_scale: float = 1.0) -> Scene:
    """Turn bright raster pixels into deterministic point targets.

    Every pixel with value > threshold becomes one corner reflector at the
    pixel-center ground coordinate with amplitude (pixel/255) * rcs_scale.
    The image must be an 8-bit PGM (maxval 255).
    """
    pixels, maxval = parse_pgm(data)
    if maxval != 255:
        raise SceneError(f"scene rasters must have maxval 255, got {maxval}")
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
