"""OFDM waveform configuration, QAM alphabets, and symbol-grid generation.

The transmitted frame is an N x M temporal-frequency grid: N subcarriers
spaced subcarrier_spacing_hz apart, and M OFDM symbols, every k-th of the
sent ones (RadarConfig).  Communication payloads fill every resource
element; sounding-reference transmissions occupy a sparse comb described
by SrsConfig.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .geometry import PlatformGeometry

if TYPE_CHECKING:  # pragma: no cover
    from .tf_filter import FilterSpec

_REL_TOL = 1e-9

# Speed of light in vacuum, m/s; exact by the SI definition of the metre.
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class RadarConfig:
    """Static parameters of one acquisition.

    The transmitter sends round(aperture_time_s / (1/df + cp_duration_s))
    OFDM symbols, each a useful part of 1/df plus the cyclic prefix.  The
    grid keeps every decimation-th of them: n_symbols = sent // decimation
    columns, total_symbol_s = decimation * (1/df + cp_duration_s) apart.
    cp_duration_s and aperture_time_s stay the physical values on any
    decimated grid, so the cyclic-prefix check reads the real prefix.
    """

    fc_hz: float
    bandwidth_hz: float
    subcarrier_spacing_hz: float
    cp_duration_s: float
    aperture_time_s: float
    n_subcarriers: int
    platform: PlatformGeometry
    decimation: int = 1
    snr_in_linear: Optional[float] = None
    noise_var: float = 0.0
    total_symbol_s: float = field(init=False)
    n_symbols: int = field(init=False)

    def __post_init__(self):
        for name in ("fc_hz", "bandwidth_hz", "subcarrier_spacing_hz",
                     "cp_duration_s", "aperture_time_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.n_subcarriers < 1:
            raise InvalidParameterError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")
        if not isinstance(self.decimation, numbers.Integral) or self.decimation < 1:
            raise InvalidParameterError(
                f"decimation must be an int >= 1, got {self.decimation!r}")
        if not 0 <= self.noise_var < math.inf:
            raise InvalidParameterError(
                f"noise_var must be finite and >= 0, got {self.noise_var}")
        if self.snr_in_linear is not None and not self.snr_in_linear > 0:
            raise InvalidParameterError(
                f"snr_in_linear must be > 0 when given, got {self.snr_in_linear}")

        t_sent = self.symbol_duration_s + self.cp_duration_s
        if not self.aperture_time_s / t_sent < math.inf:
            raise ConfigurationError("aperture_time_s / symbol time overflows")
        sent = round(self.aperture_time_s / t_sent)
        object.__setattr__(self, "total_symbol_s", t_sent * self.decimation)
        object.__setattr__(self, "n_symbols", sent // self.decimation)
        if sent < 1:
            raise ConfigurationError("aperture shorter than one OFDM symbol")
        if self.n_symbols < 1:
            raise ConfigurationError(
                f"decimation step {self.decimation} leaves no symbols out of {sent}")
        if 16 * self.n_subcarriers * self.n_symbols > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"the {self.n_subcarriers}x{self.n_symbols} grid of complex128 "
                f"cells exceeds the largest array numpy can address")

        occupied = self.n_subcarriers * self.subcarrier_spacing_hz
        if occupied > self.bandwidth_hz * (1 + _REL_TOL):
            raise ConfigurationError(
                f"occupied bandwidth N*df = {occupied:.6g} Hz exceeds "
                f"bandwidth_hz = {self.bandwidth_hz:.6g} Hz")

    # Derived quantities -------------------------------------------------

    @property
    def symbol_duration_s(self) -> float:
        """Useful part 1/df of an OFDM symbol, without the cyclic prefix."""
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.fc_hz

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def range_pitch_m(self) -> float:
        """Range-bin spacing c / (2 N df) of the compressed profile."""
        return SPEED_OF_LIGHT / (2.0 * self.occupied_bandwidth_hz)

    @property
    def azimuth_pitch_m(self) -> float:
        return self.platform.speed_mps * self.total_symbol_s

    @property
    def doppler_pitch_hz(self) -> float:
        return 1.0 / (self.n_symbols * self.total_symbol_s)

    def azimuth_rate_at(self, r_bar_m: float) -> float:
        """Doppler rate 2 v^2 / (lambda R) of a scatterer at range R, Hz/s."""
        if r_bar_m <= 0:
            raise InvalidParameterError(f"range must be > 0, got {r_bar_m}")
        rate = 2.0 * self.platform.speed_mps ** 2 / (self.wavelength_m * r_bar_m)
        if not 0 < rate < math.inf:
            raise InvalidParameterError(
                f"Doppler rate at range {r_bar_m} m is {rate}, not finite and > 0")
        return rate

    def azimuth_bandwidth_at(self, r_bar_m: float) -> float:
        """Doppler extent K_a * M * T swept over the span the grid holds, Hz."""
        return self.azimuth_rate_at(r_bar_m) * (self.n_symbols * self.total_symbol_s)

    # Transformations ----------------------------------------------------

    def decimated(self, step: int) -> "RadarConfig":
        """Configuration of the grid kept after taking every step-th symbol.

        The azimuth sample interval grows step-fold and the symbol count
        drops to n_symbols // step; the subcarriers, the cyclic prefix and
        the aperture time are unchanged.
        """
        return self if step == 1 else replace(self, decimation=self.decimation * step)

    def with_noise(self, noise_var: float,
                   snr_in_linear: Optional[float] = None) -> "RadarConfig":
        return replace(self, noise_var=noise_var, snr_in_linear=snr_in_linear)


def nr_config(platform: PlatformGeometry,
              n_subcarriers: int = 3276,
              aperture_time_s: float = 2.0,
              **overrides) -> RadarConfig:
    """A 100 MHz / 30 kHz new-radio style configuration.

    3.5 GHz carrier, 30 kHz subcarrier spacing, cyclic prefix of a quarter
    useful symbol (total symbol 41.667 us), and a 3276-subcarrier grid
    occupying 98.28 MHz of the 100 MHz channel.
    """
    spacing = overrides.pop("subcarrier_spacing_hz", 30e3)
    params = dict(
        fc_hz=3.5e9,
        bandwidth_hz=100e6,
        subcarrier_spacing_hz=spacing,
        cp_duration_s=0.25 / spacing,
        aperture_time_s=aperture_time_s,
        n_subcarriers=n_subcarriers,
        platform=platform,
    )
    params.update(overrides)
    return RadarConfig(**params)


# Constellations ---------------------------------------------------------

@dataclass(frozen=True)
class Constellation:
    """A unit-mean-power QAM alphabet with exact modulus moments."""

    name: str
    points: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def mean_power(self) -> float:
        """E|s|^2, equal to 1 by construction."""
        return float(np.mean(np.abs(self.points) ** 2))

    @property
    def table(self) -> np.ndarray:
        """The points followed by 0, the symbol of the sentinel index
        `order` that marks an inactive cell."""
        return np.append(self.points, 0.0)

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest unsigned integer type that holds the sentinel index
        `order`: uint8 up to QAM64, uint16 for QAM256."""
        return np.min_scalar_type(self.order)


_QAM_NAMES = {"qpsk": 4, "qam16": 16, "qam64": 64, "qam256": 256}


def make_qam(name_or_order) -> Constellation:
    """Build a square QAM constellation normalized to unit average power.

    Accepts an order in {4, 16, 64, 256} or a name in
    {"qpsk", "qam16", "qam64", "qam256"}.
    """
    if isinstance(name_or_order, str):
        if name_or_order not in _QAM_NAMES:
            raise InvalidParameterError(
                f"unknown constellation {name_or_order!r}; "
                f"expected one of {sorted(_QAM_NAMES)}")
        name, order = name_or_order, _QAM_NAMES[name_or_order]
    else:
        order = int(name_or_order)
        names = {v: k for k, v in _QAM_NAMES.items()}
        if order not in names:
            raise InvalidParameterError(
                f"unsupported QAM order {order}; expected one of {sorted(names)}")
        name = names[order]
    side = int(round(math.sqrt(order)))
    levels = np.arange(-side + 1, side, 2, dtype=float)
    re, im = np.meshgrid(levels, levels)
    points = (re + 1j * im).ravel()
    points /= math.sqrt(2.0 * (side * side - 1) / 3.0)
    return Constellation(name=name, points=points)


# Filter statistics --------------------------------------------------------

class FilterStats(NamedTuple):
    """Alphabet moments of the filtered spectrum chi = s*g and gain g."""

    chi_mean: float
    chi_var: float
    gain_sq_mean: float

    @property
    def chi_err_sq_mean(self) -> float:
        """E[(chi - 1)^2] = Var[chi] + (E[chi] - 1)^2."""
        return self.chi_var + (self.chi_mean - 1.0) ** 2


def chi_stats(constellation: Constellation, filt: "FilterSpec") -> FilterStats:
    """Exact moments (E[chi], Var[chi], E[|g|^2]) over the alphabet.

    chi = s*g is real and non-negative for all three filters:
    reciprocal g = 1/s gives chi = 1; matched g = conj(s) gives chi = |s|^2;
    Wiener g = conj(s)/(|s|^2 + 1/SNR_in) gives chi = |s|^2/(|s|^2 + 1/SNR_in).
    """
    x = np.abs(constellation.points) ** 2
    if filt.kind == "rf":
        return FilterStats(1.0, 0.0, float(np.mean(1.0 / x)))
    if filt.kind == "mf":
        # E[chi] = E[|g|^2] = E|s|^2, 1 by the alphabet's construction: the
        # float mean of |s|^2 is a round-off off it for QAM64 and QAM256
        return FilterStats(1.0, float(np.mean((x - 1.0) ** 2)), 1.0)
    gamma = 1.0 / filt.snr_in_linear  # wf, whose FilterSpec holds an SNR > 0
    chi = x / (x + gamma)
    gain_sq = x / (x + gamma) ** 2
    mean = float(np.mean(chi))
    var = float(np.mean((chi - mean) ** 2))
    return FilterStats(mean, var, float(np.mean(gain_sq)))


# Symbol grids -----------------------------------------------------------

def _philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator; one derived stream per purpose."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


# Bytes of the temporaries one row block of a whole-grid loop makes, so
# that no loop over row blocks holds a temporary near one (N, M) complex
# grid: a block of int64 indices is 16 Ki cells.
_BLOCK_BYTES = 1 << 17


@functools.lru_cache
def _row_blocks(shape: tuple, cell_bytes: int,
                block_bytes: int = _BLOCK_BYTES) -> tuple[slice, ...]:
    """Slices of consecutive rows of an (N, M) grid, each of one row or of
    at most block_bytes at cell_bytes bytes of temporaries per cell."""
    rows = max(1, block_bytes // (cell_bytes * shape[1]))
    return tuple(slice(lo, lo + rows) for lo in range(0, shape[0], rows))


def _gather(table: np.ndarray, indices: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """np.take(table, indices, out=out) over an (N, M) grid, one row block
    at a time: take casts its indices to intp, and for a whole grid that
    copy is half a complex grid."""
    for rows in _row_blocks(indices.shape, 8):
        # mode="clip" writes straight into out; the default buffers it
        np.take(table, indices[rows], out=out[rows], mode="clip")
    return out


SYMBOL_STREAM = 0
NOISE_STREAM = 1
RCS_STREAM = 2


def gen_symbol_indices(cfg: RadarConfig, constellation: Constellation,
                       seed: int, mask: Optional[np.ndarray] = None, *,
                       rng: Optional[np.random.Generator] = None,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw one trial's (N, M) grid of i.i.d. uniform alphabet indices.

    Index j < order stands for constellation.points[j]; the cells outside
    the mask hold the sentinel index `order`, whose entry in
    constellation.table is 0.  The indices come from a counter-based
    generator keyed by the seed, so the result does not depend on any
    evaluation schedule, and the seed's draw is trial 0 of an ensemble on
    it.  A generator passed as rng replaces the seed's and is advanced, so
    successive calls on one generator draw trials 0, 1, ... of its
    stream.  out, an (N, M) array of constellation.index_dtype, takes the
    indices and is returned.
    """
    shape = (cfg.n_subcarriers, cfg.n_symbols)
    if mask is not None and mask.shape != shape:
        raise ConfigurationError(f"mask shape {mask.shape} != grid shape {shape}")
    if rng is None:
        rng = _philox(seed, SYMBOL_STREAM)
    if out is None:
        out = np.empty(shape, dtype=constellation.index_dtype)
    # one row block of int64 indices at a time, which draws the same bits
    # as one call over the grid and holds no int64 grid.  The block is a
    # quarter of _BLOCK_BYTES: on a sweep's draw worker it is held while
    # the main thread holds its own row-block temporaries
    for rows in _row_blocks(shape, 8, _BLOCK_BYTES // 4):
        block = out[rows]
        block[...] = rng.integers(0, constellation.order, size=block.shape)
    if mask is not None:
        np.copyto(out, constellation.order, where=~mask)
    return out


def gen_symbol_grid(cfg: RadarConfig, constellation: Constellation, seed: int,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
    """The (N, M) symbols of gen_symbol_indices' draw, with the same
    arguments: constellation.table at the indices, so the zero cells are
    the inactive ones."""
    indices = gen_symbol_indices(cfg, constellation, seed, mask=mask)
    return np.take(constellation.table, indices)


# Sounding reference combs ------------------------------------------------

@dataclass(frozen=True)
class SrsConfig:
    """Placement of sounding-reference symbols on the grid.

    One OFDM symbol out of every periodicity_slots * symbols_per_slot
    carries pilots; within it, every comb_spacing-th subcarrier of a block
    of 12 * n_resource_blocks subcarriers starting at start_subcarrier is
    active.
    """

    periodicity_slots: int = 20
    symbols_per_slot: int = 14
    comb_spacing: int = 4
    n_resource_blocks: int = 24
    start_subcarrier: int = 1667

    def __post_init__(self):
        for name in ("periodicity_slots", "symbols_per_slot", "comb_spacing",
                     "n_resource_blocks"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.start_subcarrier < 0:
            raise ConfigurationError(
                f"start_subcarrier must be >= 0, got {self.start_subcarrier}")

    @property
    def span_subcarriers(self) -> int:
        return 12 * self.n_resource_blocks

    @property
    def period_symbols(self) -> int:
        return self.periodicity_slots * self.symbols_per_slot

    def check_fits(self, n_subcarriers: int):
        """Raise ConfigurationError unless the pilot block lies within the
        first n_subcarriers subcarriers."""
        end = self.start_subcarrier + self.span_subcarriers
        if end > n_subcarriers:
            raise ConfigurationError(
                f"pilot block [{self.start_subcarrier}, {end}) does not fit "
                f"in {n_subcarriers} subcarriers")

    def tone_indices(self) -> np.ndarray:
        """Subcarrier indices active in a pilot symbol."""
        return self.start_subcarrier + np.arange(0, self.span_subcarriers,
                                                 self.comb_spacing)

