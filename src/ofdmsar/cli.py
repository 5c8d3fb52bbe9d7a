"""Scenario runner: JSON config in, imaging artifacts out.

A scenario is a strictly validated JSON document (unknown keys and the
non-finite numbers NaN and Infinity are rejected; diagnostics name the
offending JSON path, e.g. "$.radar.fc_hz").
Running it produces, in the output directory:

  metrics.json          one flat quality report per (snr, filter) point
  image_<stage>.pgm     dB-magnitude images of the requested chain stages
  grid_<stage>.bin      raw complex grid dumps of the requested stages
  profile_range.csv     peak range cut of the ensemble mean power image
  profile_azimuth.csv   peak azimuth cut of the same image
  nmse_sweep.csv        snr_db, filter, nmse, nmse_calibrated per point

Stage images and grid dumps render the first sweep point's trial 0, the
filtered tf grid its ensemble keeps (EnsembleResult.first_tf); profiles
and metrics come from the full ensembles.  Only pipeline draws trials, so
the images and the metrics describe the same realizations.  Outputs are a
deterministic function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .echo import STAGE_CODES, grid_to_bytes
from .errors import (CapacityError, ConfigurationError, MeasurementError,
                     OfdmSarError)
from .geometry import PlatformGeometry
from .pgm import write_pgm
from .pipeline import (EnsembleResult, pilot_comb_mask, point_target_report,
                       run_sweep_ensemble)
from .rd_imaging import KA_MODES, RCMC_METHODS, focus_stages
from .scene import Scene, load_scene_pgm, make_point_scene
from .tf_filter import FILTER_KINDS, FilterSpec
from .waveform import RadarConfig, SrsConfig, chi_stats, make_qam, _QAM_NAMES

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


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required field")


def _require_finite(value: float, path: str):
    """json.loads accepts NaN and Infinity; no scenario number may be either."""
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")


def _typed(obj: dict, path: str, key: str, kinds, default=None):
    if key not in obj:
        return default
    value = obj[key]
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is not bool:
        raise ConfigError(f"{path}.{key}",
                          f"expected {getattr(kinds, '__name__', kinds)}, "
                          f"got {type(value).__name__}")
    if kinds is float:
        _require_finite(value, f"{path}.{key}")
    return value


@dataclass(frozen=True)
class OutputSelection:
    images: tuple[str, ...] = ("ac",)
    grids: tuple[str, ...] = ()
    db_floor: float = DEFAULT_DB_FLOOR


@dataclass(frozen=True)
class ScenarioConfig:
    radar: RadarConfig            # the full (undecimated) signaling grid
    scene: Scene
    filters: tuple[str, ...]
    mode: str
    srs: Optional[SrsConfig]
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    constellation: str
    rcmc_method: str
    ka_mode: str
    azimuth_downsample: int
    outputs: OutputSelection

    @property
    def run_radar(self) -> RadarConfig:
        """The grid the ensembles run on: every pilot symbol, or every
        azimuth_downsample-th data symbol."""
        step = (self.srs.period_symbols if self.mode == "pilot_only"
                else self.azimuth_downsample)
        return self.radar.decimated(step)


# Magnitudes an ensemble computes with must stay this far inside float64's
# normal range, which leaves room for trial-to-trial fluctuation.
_HEADROOM = 1e6
_SAFE_RANGE = (np.finfo(float).tiny * _HEADROOM,
               np.finfo(float).max / _HEADROOM)


def _snr_point(snr_db: float, scenario: ScenarioConfig,
               path: str) -> tuple[float, float]:
    """(linear SNR, noise variance) of one sweep SNR of the scenario.

    Both must be finite and > 0.  So must, for every selected filter, the
    magnitudes predicted from the spectrum moments (chi_stats) for the
    run grid of N*M cells: past them the images and metrics of the
    ensemble underflow or overflow float64 (see _SAFE_RANGE)."""
    _require_finite(snr_db, path)
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    constellation = make_qam(scenario.constellation)
    noise_var = constellation.mean_power / snr if snr > 0 else math.inf
    if not (0 < snr < math.inf and 0 < noise_var < math.inf):
        raise ConfigError(path, f"{snr_db} dB gives linear snr {snr} and "
                                f"noise variance {noise_var}; both must be "
                                f"finite and > 0")
    cfg = scenario.run_radar
    cells = cfg.n_subcarriers * cfg.n_symbols
    low, high = _SAFE_RANGE
    for kind in scenario.filters:
        with np.errstate(all="ignore"):
            stats = chi_stats(constellation,
                              FilterSpec(kind, snr_in_linear=snr))
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
                    path, f"{snr_db} dB puts the {kind} filter's {name} at "
                          f"{value:.3g}, outside ({low:.3g}, {high:.3g})")
    return snr, noise_var


def _parse_platform(obj, path: str) -> PlatformGeometry:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    _require_keys(obj, path, ("height_m", "speed_mps"),
                  ("elevation_angle_rad", "aperture_az_m", "aperture_el_m"))
    kwargs = {"height_m": _typed(obj, path, "height_m", float),
              "speed_mps": _typed(obj, path, "speed_mps", float)}
    for key in ("elevation_angle_rad", "aperture_az_m", "aperture_el_m"):
        if key in obj:
            kwargs[key] = _typed(obj, path, key, float)
    return PlatformGeometry(**kwargs)


def _parse_radar(obj, path: str) -> RadarConfig:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    required = ("fc_hz", "bandwidth_hz", "subcarrier_spacing_hz",
                "cp_duration_s", "aperture_time_s", "n_subcarriers",
                "platform")
    optional = ("symbol_duration_s", "total_symbol_s", "n_symbols")
    _require_keys(obj, path, required, optional)
    kwargs = {key: _typed(obj, path, key, float)
              for key in required[:5]}
    kwargs["n_subcarriers"] = _typed(obj, path, "n_subcarriers", int)
    kwargs["platform"] = _parse_platform(obj["platform"], f"{path}.platform")
    for key in optional[:2]:
        if key in obj:
            kwargs[key] = _typed(obj, path, key, float)
    if "n_symbols" in obj:
        kwargs["n_symbols"] = _typed(obj, path, "n_symbols", int)
    return RadarConfig(**kwargs)


def _parse_scene(obj, path: str, config_dir: Path) -> Scene:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    extent = None
    if "extent" in obj:
        raw = obj["extent"]
        if (not isinstance(raw, list) or len(raw) != 4
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in raw)):
            raise ConfigError(f"{path}.extent",
                              "expected [x_min, x_max, y_min, y_max]")
        for i, x in enumerate(raw):
            _require_finite(x, f"{path}.extent[{i}]")
        extent = tuple(float(x) for x in raw)
    if "pgm_path" in obj:
        _require_keys(obj, path, ("pgm_path", "extent"),
                      ("threshold", "rcs_scale"))
        pgm_path = _typed(obj, path, "pgm_path", str)
        full = Path(pgm_path)
        if not full.is_absolute():
            full = config_dir / full
        try:
            blob = full.read_bytes()
        except OSError as exc:
            raise ConfigError(f"{path}.pgm_path", f"cannot read {full}: {exc}")
        return load_scene_pgm(
            blob, extent,
            threshold=_typed(obj, path, "threshold", int, 0),
            rcs_scale=_typed(obj, path, "rcs_scale", float, 1.0))
    _require_keys(obj, path, ("targets",), ("extent",))
    raw_targets = obj["targets"]
    if not isinstance(raw_targets, list):
        raise ConfigError(f"{path}.targets", "expected a list of targets")
    for i, entry in enumerate(raw_targets):
        target_path = f"{path}.targets[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(target_path, "expected an object")
        _require_keys(entry, target_path, (), ("x", "y", "x_m", "y_m",
                                               "rcs_var", "mode",
                                               "amplitude_mode"))
        for key in entry:
            _typed(entry, target_path, key, str if "mode" in key else float)
    return make_point_scene(raw_targets, extent=extent)


def _parse_srs(obj, path: str) -> SrsConfig:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    fields = ("periodicity_slots", "symbols_per_slot", "comb_spacing",
              "n_resource_blocks", "start_subcarrier")
    _require_keys(obj, path, (), fields)
    kwargs = {key: _typed(obj, path, key, int) for key in fields if key in obj}
    return SrsConfig(**kwargs)


def _parse_outputs(obj, path: str) -> OutputSelection:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    _require_keys(obj, path, (), ("images", "grids", "db_floor"))
    stages = tuple(STAGE_CODES)

    def stage_list(key, default):
        if key not in obj:
            return default
        raw = obj[key]
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.{key}", "expected a list of stage names")
        for i, name in enumerate(raw):
            if name not in stages:
                raise ConfigError(f"{path}.{key}[{i}]",
                                  f"unknown stage {name!r}; expected one of {stages}")
        return tuple(raw)

    db_floor = _typed(obj, path, "db_floor", float, DEFAULT_DB_FLOOR)
    if db_floor >= 0:
        raise ConfigError(f"{path}.db_floor", f"must be < 0, got {db_floor}")
    return OutputSelection(images=stage_list("images", ("ac",)),
                           grids=stage_list("grids", ()), db_floor=db_floor)


def parse_config(text: str, config_dir: Optional[Path] = None) -> ScenarioConfig:
    """Parse and validate a scenario document; errors name the JSON path."""
    config_dir = config_dir or Path.cwd()
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}")
    if not isinstance(root, dict):
        raise ConfigError("$", "top level must be an object")
    top_required = ("radar", "scene", "snr_in_db")
    top_optional = ("filter", "mode", "srs", "trials", "seed", "constellation",
                    "rcmc", "ka_mode", "azimuth_downsample", "outputs")
    _require_keys(root, "$", top_required, top_optional)

    radar = _parse_radar(root["radar"], "$.radar")
    scene = _parse_scene(root["scene"], "$.scene", config_dir)

    mode = _typed(root, "$", "mode", str, "data_aided")
    if mode not in MODES:
        raise ConfigError("$.mode", f"expected one of {MODES}, got {mode!r}")

    srs = None
    if mode == "pilot_only":
        if "srs" not in root:
            raise ConfigError("$.srs", "required when mode is pilot_only")
        srs = _parse_srs(root["srs"], "$.srs")
        if "azimuth_downsample" in root:
            raise ConfigError("$.azimuth_downsample",
                              "not applicable in pilot_only mode "
                              "(decimation follows the srs periodicity)")
    elif "srs" in root:
        raise ConfigError("$.srs", "only valid when mode is pilot_only")

    filter_obj = root.get("filter", {"kind": "all"})
    if not isinstance(filter_obj, dict):
        raise ConfigError("$.filter", "expected an object")
    _require_keys(filter_obj, "$.filter", ("kind",), ())
    kind = _typed(filter_obj, "$.filter", "kind", str)
    if kind not in _FILTER_CHOICES:
        raise ConfigError("$.filter.kind",
                          f"expected one of {_FILTER_CHOICES}, got {kind!r}")
    filters = FILTER_KINDS if kind == "all" else (kind,)

    raw_snr = root["snr_in_db"]
    if isinstance(raw_snr, (int, float)) and not isinstance(raw_snr, bool):
        snr_list = [float(raw_snr)]
    elif isinstance(raw_snr, list) and raw_snr and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in raw_snr):
        snr_list = [float(x) for x in raw_snr]
    else:
        raise ConfigError("$.snr_in_db", "expected a number or non-empty list")
    deduped = list(dict.fromkeys(snr_list))
    if len(deduped) != len(snr_list):
        warnings.warn("duplicate snr_in_db entries removed", UserWarning)
    snr_db = tuple(deduped)

    trials = _typed(root, "$", "trials", int, DEFAULT_TRIALS)
    if trials < 1:
        raise ConfigError("$.trials", f"must be >= 1, got {trials}")
    seed = _typed(root, "$", "seed", int, 0)
    if seed < 0:
        raise ConfigError("$.seed", f"must be >= 0, got {seed}")

    default_constellation = "qpsk" if mode == "pilot_only" else "qam256"
    constellation = _typed(root, "$", "constellation", str,
                           default_constellation)
    if constellation not in _QAM_NAMES:
        raise ConfigError("$.constellation",
                          f"expected one of {tuple(_QAM_NAMES)}, "
                          f"got {constellation!r}")
    rcmc_obj = root.get("rcmc", {})
    if not isinstance(rcmc_obj, dict):
        raise ConfigError("$.rcmc", "expected an object")
    _require_keys(rcmc_obj, "$.rcmc", (), ("method",))
    rcmc_method = _typed(rcmc_obj, "$.rcmc", "method", str, "windowed_sinc")
    if rcmc_method not in RCMC_METHODS:
        raise ConfigError("$.rcmc.method",
                          f"expected one of {RCMC_METHODS}, got {rcmc_method!r}")

    ka_mode = _typed(root, "$", "ka_mode", str, "reference")
    if ka_mode not in KA_MODES:
        raise ConfigError("$.ka_mode",
                          f"expected one of {KA_MODES}, got {ka_mode!r}")

    downsample = _typed(root, "$", "azimuth_downsample", int,
                        DEFAULT_DATA_DOWNSAMPLE if mode == "data_aided" else 1)
    if downsample < 1:
        raise ConfigError("$.azimuth_downsample", "must be >= 1")

    outputs = _parse_outputs(root.get("outputs", {}), "$.outputs")
    scenario = ScenarioConfig(radar=radar, scene=scene, filters=filters,
                              mode=mode, srs=srs, snr_db=snr_db, trials=trials,
                              seed=seed, constellation=constellation,
                              rcmc_method=rcmc_method, ka_mode=ka_mode,
                              azimuth_downsample=downsample, outputs=outputs)
    for i, x in enumerate(snr_list):
        _snr_point(x, scenario, f"$.snr_in_db[{i}]"
                   if isinstance(raw_snr, list) else "$.snr_in_db")
    return scenario


def emit_pgm(image: np.ndarray, db_floor: float = DEFAULT_DB_FLOOR) -> bytes:
    """Render a complex or magnitude image as an 8-bit dB-scaled P5 PGM."""
    image = np.asarray(image)
    if image.size == 0:
        raise ConfigurationError("cannot render an empty image")
    if db_floor >= 0:
        raise ConfigurationError(f"db_floor must be < 0, got {db_floor}")
    magnitude = np.abs(image)
    peak = magnitude.max()
    if peak == 0:
        peak = 1.0
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(magnitude / peak)
    pixels = np.rint(255.0 * (db - db_floor) / (0.0 - db_floor))
    pixels = np.clip(pixels, 0, 255).astype(np.uint8)
    return write_pgm(pixels, maxval=255, binary=True)


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
                            out_dir: Path) -> None:
    """Stage images/grids (rd_imaging.focus_stages) of the result's trial 0."""
    wanted = set(scenario.outputs.images) | set(scenario.outputs.grids)
    stages = {"tf": result.first_tf}
    if wanted - {"tf"}:
        stages = focus_stages(result.first_tf, result.cfg, result.r_bar_ref_m,
                              scenario.rcmc_method, scenario.ka_mode)
    for stage in scenario.outputs.images:
        (out_dir / f"image_{stage}.pgm").write_bytes(
            emit_pgm(stages[stage], scenario.outputs.db_floor))
    for stage in scenario.outputs.grids:
        (out_dir / f"grid_{stage}.bin").write_bytes(
            grid_to_bytes(stages[stage], stage=stage))


def run_scenario(scenario: ScenarioConfig, out_dir: Path) -> Path:
    """Execute every (snr, filter) point and write all artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    constellation = make_qam(scenario.constellation)

    cfg_run = scenario.run_radar
    mask = (pilot_comb_mask(cfg_run, scenario.srs)
            if scenario.mode == "pilot_only" else None)

    labels = []
    sweep = []
    for snr_db in scenario.snr_db:
        snr, noise_var = _snr_point(snr_db, scenario, "$.snr_in_db")
        cfg = replace(cfg_run, snr_in_linear=snr, noise_var=noise_var)
        for kind in scenario.filters:
            labels.append((snr_db, kind))
            sweep.append((cfg, FilterSpec(kind=kind, snr_in_linear=snr)))
    results = run_sweep_ensemble(
        scenario.scene, sweep, constellation, scenario.trials, scenario.seed,
        mask=mask, rcmc_method=scenario.rcmc_method, ka_mode=scenario.ka_mode)

    points = []
    sweep_rows = []
    # the loop runs the generator to its end, which frees the shared draws
    # before the stage artifacts are rendered
    for result in results:
        snr_db, kind = labels[len(points)]
        report = point_target_report(result).to_json_dict()
        report["snr_in_db"] = snr_db
        points.append(report)
        sweep_rows.append((snr_db, kind, result.nmse, result.nmse_calibrated))
        if len(points) == 1:
            first_result = result
        del result  # free this point's grids while the next is computed
    first_cfg = first_result.cfg

    for report in points:  # metrics.json is strict JSON
        bad = [key for key, value in report.items()
               if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            raise MeasurementError(
                f"sweep point ({report['snr_in_db']} dB, {report['filter']}) "
                f"has non-finite {', '.join(bad)}")
    (out_dir / "metrics.json").write_text(
        json.dumps({"points": points}, indent=2, allow_nan=False) + "\n")

    lines = ["snr_db,filter,nmse,nmse_calibrated"]
    lines += [f"{float(s)!r},{f},{float(n)!r},{float(c)!r}"
              for s, f, n, c in sweep_rows]
    (out_dir / "nmse_sweep.csv").write_text("\n".join(lines) + "\n")

    k_q, m_q = first_result.peak_bin
    power = first_result.mean_noisy_power
    v = first_cfg.platform.speed_mps
    (out_dir / "profile_range.csv").write_text(_profile_csv(
        power[:, m_q],
        np.arange(first_cfg.n_subcarriers) * first_cfg.range_pitch_m,
        "range_m"))
    (out_dir / "profile_azimuth.csv").write_text(_profile_csv(
        power[k_q, :],
        np.arange(first_cfg.n_symbols) * v * first_cfg.total_symbol_s,
        "azimuth_m"))

    _render_stage_artifacts(scenario, first_result, out_dir)
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

    try:
        config_path = Path(args.config)
        scenario = parse_config(config_path.read_text(),
                                config_dir=config_path.parent)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed", f"must be >= 0, got {args.seed}")
            scenario = replace(scenario, seed=args.seed)
        if args.filter is not None:
            filters = (FILTER_KINDS if args.filter == "all"
                       else (args.filter,))
            scenario = replace(scenario, filters=filters)
        if args.snr_db:
            for x in args.snr_db:
                _snr_point(x, scenario, "--snr-db")
            scenario = replace(scenario,
                               snr_db=tuple(dict.fromkeys(args.snr_db)))
        try:
            out = run_scenario(scenario, Path(args.out_dir))
        except MemoryError:
            cfg = scenario.run_radar
            raise CapacityError(
                f"the {cfg.n_subcarriers}x{cfg.n_symbols} run grid does not "
                f"fit in memory") from None
    except OfdmSarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
