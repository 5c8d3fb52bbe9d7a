"""Scenario runner: JSON config in, imaging artifacts out.

A scenario is a JSON document checked against one field table per object;
a bad key, type, NaN or Infinity is reported at its JSON path
("$.radar.fc_hz"), an out-of-range value at its object's path ("$.radar:
fc_hz must be finite and > 0, got -1.0").
Running it produces, in the output directory:

  metrics.json          one flat quality report per (snr, filter) point
  image_<stage>.pgm     dB-magnitude images of the requested chain stages
  grid_<stage>.bin      raw complex grid dumps of the requested stages
  profile_range.csv     peak range cut of the ensemble mean power image
  profile_azimuth.csv   peak azimuth cut of the same image
  nmse_sweep.csv        snr_db, filter, nmse, nmse_calibrated per point

Profiles and metrics come from the sweep's ensembles, one
run_sweep_ensemble call.  Stage images and grid dumps render the first
sweep point's trial 0, from pipeline.filtered_trial_zero (its docstring
states how it equals the ensemble's trial 0), as rd_imaging.stage_grids
runs the stages in place in that grid.  The CLI draws nothing and lays no
pilot comb itself: both calls take the scenario's SrsConfig.  Outputs are
a deterministic function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .echo import STAGE_CODES, check_cp_margin, grid_to_bytes
from .errors import (CapacityError, ConfigurationError, MeasurementError,
                     OfdmSarError)
from .geometry import PlatformGeometry
from .pgm import write_pgm
from .metrics import MIN_PROFILE_BINS, target_bin
from .pipeline import (MAINLOBE_HALFWIDTH_BINS, MAX_DOPPLER_STEP,
                       EnsembleResult, filtered_trial_zero,
                       point_target_report, run_sweep_ensemble)
from .rd_imaging import KA_MODES, RCMC_METHODS, stage_grids
from .scene import PointTarget, Scene, load_scene_pgm, make_point_scene
from .tf_filter import FILTER_KINDS, FilterSpec
from .waveform import (Constellation, RadarConfig, SrsConfig, chi_stats,
                       make_qam, _QAM_NAMES)

DEFAULT_DB_FLOOR = -40.0
DEFAULT_TRIALS = 64
DEFAULT_DATA_DOWNSAMPLE = 10
MODES = ("data_aided", "pilot_only")
_FILTER_CHOICES = FILTER_KINDS + ("all",)


class ConfigError(ConfigurationError):
    """Config validation failure carrying the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_finite(value: float, path: str):
    """json.loads accepts NaN and Infinity; no scenario number may be either."""
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")


_JSON_NAMES = {float: "number", int: "integer", str: "string", bool: "boolean",
               list: "array", dict: "object", type(None): "null"}


def _typed(obj: dict, path: str, key, kinds, default=None):
    """obj[key] (an int key is an array index), checked to be of a JSON
    type in kinds; an integer is accepted as a number."""
    if key not in obj:
        return default
    value = obj[key]
    path = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if float in kinds and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        raise ConfigError(path,
                          f"expected {' or '.join(map(_JSON_NAMES.get, kinds))}"
                          f", got {_JSON_NAMES[type(value)]}")
    if isinstance(value, float):
        _require_finite(value, path)
    return value


# The keys each scenario object may have, with the JSON type of each value.
_PLATFORM = dict.fromkeys(("height_m", "speed_mps"), float)
_RADAR = {**dict.fromkeys(("fc_hz", "bandwidth_hz", "subcarrier_spacing_hz",
                           "cp_duration_s", "aperture_time_s"), float),
          "n_subcarriers": int, "platform": dict}
_SRS = dict.fromkeys(("periodicity_slots", "symbols_per_slot", "comb_spacing",
                      "n_resource_blocks", "start_subcarrier"), int)
_POINT_SCENE = {"targets": list, "extent": list}
_PGM_SCENE = {"pgm_path": str, "extent": list, "threshold": int,
              "rcs_scale": float}
_TARGET = {**dict.fromkeys(("x", "y", "rcs_var"), float), "mode": str}
# The PointTarget field each target key sets, where the names differ.
_TARGET_FIELDS = {"x": "x_m", "y": "y_m", "mode": "amplitude_mode"}
_OUTPUTS = {"images": list, "grids": list, "db_floor": float}
_FILTER = {"kind": str}
_RCMC = {"method": str}
_TOP = {"radar": dict, "scene": dict, "snr_in_db": (float, list),
        "filter": dict, "mode": str, "srs": dict, "trials": int, "seed": int,
        "constellation": str, "rcmc": dict, "ka_mode": str,
        "azimuth_downsample": int, "outputs": dict}


def _fields(obj, path: str, kinds: dict, required: tuple = ()) -> dict:
    """The values of a JSON object's keys, checked against its field table:
    the first unknown key, then the first missing required one, is an
    error at its path."""
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected object, got {_JSON_NAMES[type(obj)]}")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return {key: _typed(obj, path, key, kind)
            for key, kind in kinds.items() if key in obj}


def _entries(array: list, path: str, kinds) -> list:
    """The entries of a JSON array, each checked as _typed checks a value."""
    entries = dict(enumerate(array))
    return [_typed(entries, path, i, kinds) for i in entries]


def _choice(obj: dict, path: str, key: str, choices, default):
    value = _typed(obj, path, key, str, default)
    if value not in choices:
        raise ConfigError(f"{path}.{key}",
                          f"expected one of {tuple(choices)}, got {value!r}")
    return value


@contextmanager
def _at(path: str):
    """Re-raise a library error from inside the block (a constructor's
    range check) as a ConfigError at path, the JSON path of its object."""
    try:
        yield
    except ConfigError:
        raise
    except OfdmSarError as exc:
        raise ConfigError(path, str(exc)) from None


def _at_least(low: int, value: int, path: str) -> int:
    if value < low:
        raise ConfigError(path, f"must be >= {low}, got {value}")
    return value


def _filters(kind: str) -> tuple[str, ...]:
    return FILTER_KINDS if kind == "all" else (kind,)


@dataclass(frozen=True)
class OutputSelection:
    images: tuple[str, ...] = ("ac",)
    grids: tuple[str, ...] = ()
    db_floor: float = DEFAULT_DB_FLOOR


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario.  radar is its run grid, the one the ensembles
    run on: every pilot symbol in pilot_only mode, else every
    azimuth_downsample-th data symbol of the sent grid."""

    radar: RadarConfig
    scene: Scene
    filters: tuple[str, ...]
    srs: Optional[SrsConfig]      # set in pilot_only mode only
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    constellation: str
    rcmc_method: str
    ka_mode: str
    outputs: OutputSelection

    @property
    def azimuth_sampling(self) -> float:
        """beta = K_a T^2 M of the run grid at the reference target (the
        first deterministic one): 1 at critical azimuth sampling."""
        cfg = self.radar
        ref = self.scene.reference_target()
        k_a = cfg.azimuth_rate_at(ref.mean_range_m(cfg.platform))
        return k_a * cfg.total_symbol_s ** 2 * cfg.n_symbols


# Magnitudes an ensemble computes with must stay this far inside float64's
# normal range, which leaves room for trial-to-trial fluctuation.
_HEADROOM = 1e6
_SAFE_RANGE = (np.finfo(float).tiny * _HEADROOM,
               np.finfo(float).max / _HEADROOM)


def _sweep_points(scenario: ScenarioConfig,
                  paths: Optional[list] = None) -> tuple[list, list]:
    """The scenario's (snr_db, filter) labels and its run_sweep_ensemble
    points, one (cfg, FilterSpec) per label, each SNR checked at its path
    (paths[i] for snr_db[i], "$.snr_in_db" by default).

    An SNR's linear value and noise variance must be finite and > 0.  So
    must, at each of its points, the magnitudes predicted from the
    filter's spectrum moments (chi_stats) for the run grid of N*M cells:
    past them the images and metrics of the ensemble underflow or
    overflow float64 (see _SAFE_RANGE)."""
    constellation = make_qam(scenario.constellation)
    cells = scenario.radar.n_subcarriers * scenario.radar.n_symbols
    low, high = _SAFE_RANGE
    labels, points = [], []
    for snr_db, path in zip(scenario.snr_db,
                            paths or ["$.snr_in_db"] * len(scenario.snr_db)):
        _require_finite(snr_db, path)
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        noise_var = constellation.mean_power / snr if snr > 0 else math.inf
        if not (0 < snr < math.inf and 0 < noise_var < math.inf):
            raise ConfigError(path, f"{snr_db} dB gives linear snr {snr} and "
                                    f"noise variance {noise_var}; both must "
                                    f"be finite and > 0")
        cfg = scenario.radar.with_noise(noise_var, snr_in_linear=snr)
        for kind in scenario.filters:
            spec = FilterSpec(kind, snr_in_linear=snr)
            with np.errstate(all="ignore"):
                stats = chi_stats(constellation, spec)
                signal = np.float64(stats.chi_mean) ** 2    # per cell
                noise = noise_var * np.float64(stats.gain_sq_mean)
                peak = cells * signal
                energy = scenario.trials * cells * (peak + noise)
                predicted = {"E[chi]": stats.chi_mean,
                             "E[|g|^2]": stats.gain_sq_mean,
                             "signal power per cell": signal,
                             "noise power per cell": noise,
                             "peak power": peak,
                             "output snr": peak / noise,
                             "noise-to-signal ratio": noise / signal,
                             "ensemble energy": energy,
                             "calibrated ensemble energy": energy / signal}
            for name, value in predicted.items():
                if not low < value < high:
                    raise ConfigError(
                        path, f"{snr_db} dB puts the {kind} filter's {name} "
                              f"at {value:.3g}, outside ({low:.3g}, "
                              f"{high:.3g})")
            labels.append((snr_db, kind))
            points.append((cfg, spec))
    return labels, points


def _with_snrs(scenario: ScenarioConfig, snr_db: list,
               paths: list) -> ScenarioConfig:
    """The scenario sweeping snr_db, each value's points checked
    (_sweep_points) at its path; repeated values are dropped with a
    warning at the first repeat's path."""
    _sweep_points(replace(scenario, snr_db=tuple(snr_db)), paths)
    unique = tuple(dict.fromkeys(snr_db))
    if len(unique) != len(snr_db):
        first = next(i for i, x in enumerate(snr_db) if x in snr_db[:i])
        warnings.warn(f"{paths[first]}: duplicate SNR entries removed",
                      UserWarning)
    return replace(scenario, snr_db=unique)


def _parse_scene(obj: dict, path: str, config_dir: Path) -> Scene:
    pgm = "pgm_path" in obj
    values = _fields(obj, path, _PGM_SCENE if pgm else _POINT_SCENE,
                     ("pgm_path", "extent") if pgm else ("targets",))
    extent = values.get("extent")
    if extent is not None:
        if len(extent) != 4:
            raise ConfigError(f"{path}.extent",
                              "expected [x_min, x_max, y_min, y_max]")
        extent = tuple(_entries(extent, f"{path}.extent", float))
    if pgm:
        full = config_dir / values["pgm_path"]   # an absolute path wins
        try:
            blob = full.read_bytes()
        except OSError as exc:
            raise ConfigError(f"{path}.pgm_path", f"cannot read {full}: {exc}")
        with _at(path):
            return load_scene_pgm(blob, extent,
                                  threshold=values.get("threshold", 0),
                                  rcs_scale=values.get("rcs_scale", 1.0))
    targets = []
    for i, entry in enumerate(values["targets"]):
        target_path = f"{path}.targets[{i}]"
        spec = _fields(entry, target_path, _TARGET, ("x", "y"))
        with _at(target_path):  # one at a time, so its errors name it
            targets.append(PointTarget(**{_TARGET_FIELDS.get(key, key): value
                                          for key, value in spec.items()}))
    with _at(path):
        return make_point_scene(targets, extent=extent)


def _parse_outputs(obj, path: str) -> OutputSelection:
    values = _fields(obj, path, _OUTPUTS)
    for key in [key for key in ("images", "grids") if key in values]:
        values[key] = tuple(_entries(values[key], f"{path}.{key}", str))
        for i, name in enumerate(values[key]):
            if name not in STAGE_CODES:
                raise ConfigError(f"{path}.{key}[{i}]", f"expected one of "
                                  f"{tuple(STAGE_CODES)}, got {name!r}")
    _check_db_floor(values.get("db_floor", DEFAULT_DB_FLOOR),
                    f"{path}.db_floor")
    return OutputSelection(**values)


def parse_config(text: str, config_dir: Optional[Path] = None) -> ScenarioConfig:
    """Parse and validate a scenario document; errors name the JSON path."""
    config_dir = config_dir or Path.cwd()
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}")
    top = _fields(root, "$", _TOP, ("radar", "scene", "snr_in_db"))
    radar = _fields(top["radar"], "$.radar", _RADAR, tuple(_RADAR))
    platform = _fields(radar["platform"], "$.radar.platform", _PLATFORM,
                       tuple(_PLATFORM))
    with _at("$.radar.platform"):
        radar["platform"] = PlatformGeometry(**platform)
    with _at("$.radar"):
        radar = RadarConfig(**radar)
    scene = _parse_scene(top["scene"], "$.scene", config_dir)

    pilot = _choice(top, "$", "mode", MODES, "data_aided") == "pilot_only"
    srs = None
    if pilot:
        if "srs" not in top:
            raise ConfigError("$.srs", "required when mode is pilot_only")
        if "azimuth_downsample" in top:
            raise ConfigError("$.azimuth_downsample",
                              "not applicable in pilot_only mode "
                              "(decimation follows the srs periodicity)")
        with _at("$.srs"):
            srs = SrsConfig(**_fields(top["srs"], "$.srs", _SRS))
    elif "srs" in top:
        raise ConfigError("$.srs", "only valid when mode is pilot_only")

    listed = isinstance(top["snr_in_db"], list)
    snr_db = (_entries(top["snr_in_db"], "$.snr_in_db", float) if listed
              else [top["snr_in_db"]])
    if not snr_db:
        raise ConfigError("$.snr_in_db", "expected a number or non-empty list")
    snr_paths = [f"$.snr_in_db[{i}]" if listed else "$.snr_in_db"
                 for i in range(len(snr_db))]

    kind = _choice(_fields(top.get("filter", {"kind": "all"}), "$.filter",
                           _FILTER, ("kind",)),
                   "$.filter", "kind", _FILTER_CHOICES, None)
    trials = _at_least(1, top.get("trials", DEFAULT_TRIALS), "$.trials")
    if 16 * trials > np.iinfo(np.intp).max:  # a point's per-trial peaks
        raise ConfigError("$.trials", f"{trials} trials of complex128 peaks "
                          "exceed the largest array numpy can address")
    # the run grid is decimated last, so that the fields before it report
    # their own errors first (ConfigErrors, which _at passes on)
    decimation = "$.srs" if pilot else "$.azimuth_downsample"
    with _at(decimation):
        scenario = ScenarioConfig(
            scene=scene, srs=srs, snr_db=(), filters=_filters(kind),
            trials=trials,
            seed=_at_least(0, top.get("seed", 0), "$.seed"),
            constellation=_choice(top, "$", "constellation", _QAM_NAMES,
                                  "qpsk" if pilot else "qam256"),
            rcmc_method=_choice(_fields(top.get("rcmc", {}), "$.rcmc", _RCMC),
                                "$.rcmc", "method", RCMC_METHODS,
                                "windowed_sinc"),
            ka_mode=_choice(top, "$", "ka_mode", KA_MODES, "reference"),
            outputs=_parse_outputs(top.get("outputs", {}), "$.outputs"),
            radar=radar.decimated(srs.period_symbols if pilot else top.get(
                "azimuth_downsample", DEFAULT_DATA_DOWNSAMPLE)))

    # the sent and run grids, and the reference target the ensembles
    # focus on
    run_radar = scenario.radar
    for cfg, path in ((radar, "$.radar"), (run_radar, decimation)):
        shape = (cfg.n_subcarriers, cfg.n_symbols)
        if min(shape) < MIN_PROFILE_BINS:
            raise ConfigError(path, f"the {shape[0]}x{shape[1]} grid has an "
                              f"axis under {MIN_PROFILE_BINS} bins, too few "
                              f"to measure a -3 dB width on")
    scenario = _with_snrs(scenario, snr_db, snr_paths)
    if pilot:
        with _at("$.srs"):
            srs.check_fits(run_radar.n_subcarriers)
    with _at("$.scene"):  # every sent symbol's margin, so every kept one's
        ref = scene.reference_target()
        check_cp_margin(scene, radar)
    with _at("$.radar"):
        beta = scenario.azimuth_sampling
    m = run_radar.n_symbols
    if beta > MAX_DOPPLER_STEP * m:
        # name the decimation if the sent grid, decimation times finer in
        # time, samples the chirp finely enough
        fine = beta / (m * run_radar.decimation ** 2) <= MAX_DOPPLER_STEP
        raise ConfigError(decimation if fine else "$.radar.fc_hz",
                          f"K_a T^2 M = {beta:.3g} exceeds "
                          f"{MAX_DOPPLER_STEP} M = {MAX_DOPPLER_STEP * m:.3g}"
                          f": the {run_radar.n_subcarriers}x{m} run grid "
                          f"undersamples the reference target's azimuth "
                          f"chirp (K_a grows with fc_hz and speed_mps^2)")
    # the chirp's span in Doppler bins, K_a T^2 M^2: up to 1.18 bins the
    # azimuth profile of a reference target between two bins can have no
    # -3 dB crossing, and from 1.2 on it has one (5 to 64 symbols; on 4,
    # one between 1.344 and 1.357 bins, half a bin off its bin, has none)
    if beta * m < 1.2:
        raise ConfigError("$.radar.aperture_time_s",
                          f"K_a T^2 M^2 = {beta * m:.3g} is under 1.2: the "
                          f"reference target's azimuth chirp spans too few "
                          f"Doppler bins of the {run_radar.n_subcarriers}x"
                          f"{m} run grid to measure a -3 dB width on (it "
                          f"grows with aperture_time_s^2, fc_hz and "
                          f"speed_mps^2)")
    k_q, m_q = target_bin(ref, run_radar)
    hw = MAINLOBE_HALFWIDTH_BINS
    if not (hw <= k_q < run_radar.n_subcarriers - hw
            and hw <= m_q < run_radar.n_symbols - hw):
        raise ConfigError("$.scene", f"the reference target's peak bin "
                          f"({k_q}, {m_q}) leaves no {hw}-bin ISLR mainlobe "
                          f"margin inside the {run_radar.n_subcarriers}x"
                          f"{run_radar.n_symbols} run grid")
    return scenario


def _check_db_floor(db_floor: float, path: str):
    """A dB floor must be < 0, and emit_pgm's 8-bit scale 255 * db_floor
    finite."""
    if db_floor >= 0:
        raise ConfigError(path, f"must be < 0, got {db_floor}")
    if not math.isfinite(255.0 * db_floor):
        raise ConfigError(path, f"255 * {db_floor} overflows the 8-bit scale")


def emit_pgm(image: np.ndarray, db_floor: float = DEFAULT_DB_FLOOR) -> bytes:
    """Render a complex or magnitude image as an 8-bit dB-scaled P5 PGM."""
    image = np.asarray(image)
    if image.size == 0:
        raise ConfigurationError("cannot render an empty image")
    _check_db_floor(db_floor, "db_floor")
    level = np.abs(image)
    peak = level.max()
    if peak == 0:
        peak = 1.0
    # a float grid whatever the image's dtype, each later step in place
    level = level / peak
    with np.errstate(divide="ignore"):
        np.log10(level, out=level)
    level *= 20.0
    level -= db_floor
    level *= 255.0
    level /= 0.0 - db_floor
    np.rint(level, out=level)
    return write_pgm(np.clip(level, 0, 255, out=level).astype(np.uint8))


def _profile_csv(values: np.ndarray, positions: np.ndarray,
                 position_label: str) -> str:
    peak = values.max() if values.max() > 0 else 1.0
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(values / peak)
    lines = [f"bin,{position_label},power_db"]
    for i, (pos, level) in enumerate(zip(positions, db)):
        lines.append(f"{i},{float(pos)!r},{float(level)!r}")
    return "\n".join(lines) + "\n"


def _render_stage_artifacts(scenario: ScenarioConfig, result: EnsembleResult,
                            constellation: Constellation,
                            out_dir: Path) -> None:
    """Stage images/grids of the result's trial 0, built again by
    pipeline.filtered_trial_zero and taken through rd_imaging.stage_grids
    in place in its grid.  Each stage's artifacts are written as soon as
    it exists, before the next stage overwrites it; the chain stops at the
    last requested stage, and nothing is drawn when no stage is
    requested."""
    outputs = scenario.outputs
    wanted = set(outputs.images) | set(outputs.grids)
    if not wanted:
        return
    grid = filtered_trial_zero(scenario.scene, result.cfg, constellation,
                               result.filter_spec, scenario.seed, scenario.srs)
    for stage, grid in stage_grids(grid, result.cfg, result.r_bar_ref_m,
                                   scenario.rcmc_method, scenario.ka_mode):
        if stage in outputs.images:
            (out_dir / f"image_{stage}.pgm").write_bytes(
                emit_pgm(grid, outputs.db_floor))
        if stage in outputs.grids:
            (out_dir / f"grid_{stage}.bin").write_bytes(
                grid_to_bytes(grid, stage=stage))
        wanted.discard(stage)
        if not wanted:
            return


def run_scenario(scenario: ScenarioConfig, out_dir: Path) -> Path:
    """Execute every (snr, filter) point and write all artifacts."""
    constellation = make_qam(scenario.constellation)
    labels, sweep = _sweep_points(scenario)
    try:
        results = run_sweep_ensemble(
            scenario.scene, sweep, constellation, scenario.trials,
            scenario.seed, srs=scenario.srs, rcmc_method=scenario.rcmc_method,
            ka_mode=scenario.ka_mode)
    except MeasurementError as exc:  # raised before any draw
        raise ConfigError("$.scene", f"the noiseless image cannot be "
                                      f"measured: {exc}") from None

    points = []
    sweep_rows = []
    for (snr_db, kind), result in zip(labels, results):
        point = f"sweep point ({snr_db} dB, {kind})"
        try:
            report = point_target_report(result).to_json_dict()
        except MeasurementError as exc:
            raise MeasurementError(f"{point}: {exc}") from None
        bad = [key for key, value in report.items()
               if isinstance(value, float) and not math.isfinite(value)]
        if bad:  # metrics.json is strict JSON
            raise MeasurementError(f"{point} has non-finite {', '.join(bad)}")
        report["snr_in_db"] = snr_db
        points.append(report)
        sweep_rows.append((snr_db, kind, result.nmse, result.nmse_calibrated))
    first_result = results[0]
    first_cfg = first_result.cfg

    out_dir = Path(out_dir)  # made once every point's report is checked
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(
        json.dumps({"points": points}, indent=2, allow_nan=False) + "\n")

    lines = ["snr_db,filter,nmse,nmse_calibrated"]
    lines += [f"{float(s)!r},{f},{float(n)!r},{float(c)!r}"
              for s, f, n, c in sweep_rows]
    (out_dir / "nmse_sweep.csv").write_text("\n".join(lines) + "\n")

    v = first_cfg.platform.speed_mps
    (out_dir / "profile_range.csv").write_text(_profile_csv(
        first_result.noisy_range_power,
        np.arange(first_cfg.n_subcarriers) * first_cfg.range_pitch_m,
        "range_m"))
    (out_dir / "profile_azimuth.csv").write_text(_profile_csv(
        first_result.noisy_azimuth_power,
        np.arange(first_cfg.n_symbols) * v * first_cfg.total_symbol_s,
        "azimuth_m"))

    _render_stage_artifacts(scenario, first_result, constellation, out_dir)
    return out_dir


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ofdmsar",
        description="Simulate OFDM-waveform radar imaging scenarios")
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out-dir", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--filter", choices=_FILTER_CHOICES,
                        help="override the filter selection")
    parser.add_argument("--snr-db", type=float, action="append",
                        help="override snr sweep (repeatable)")
    args = parser.parse_args(argv)

    scenario = None
    try:
        try:
            config_path = Path(args.config)
            scenario = parse_config(config_path.read_text(),
                                    config_dir=config_path.parent)
            if args.seed is not None:
                scenario = replace(scenario,
                                   seed=_at_least(0, args.seed, "--seed"))
            if args.filter is not None:
                scenario = replace(scenario, filters=_filters(args.filter))
            if args.snr_db or args.filter is not None:
                # the sweep's SNRs, checked against the filters that run
                snr_db = args.snr_db or list(scenario.snr_db)
                flag = "--snr-db" if args.snr_db else "--filter"
                scenario = _with_snrs(scenario, snr_db, [flag] * len(snr_db))
            out = run_scenario(scenario, Path(args.out_dir))
        except MemoryError:
            what = "the scenario"
            if scenario is not None:
                cfg = scenario.radar
                what = f"the {cfg.n_subcarriers}x{cfg.n_symbols} run grid"
            raise CapacityError(f"{what} does not fit in memory") from None
    except (OfdmSarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OfdmSarError) else 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
