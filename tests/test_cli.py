import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scenes import critical_config, single_target_scene
from ofdmsar import cli, echo, pipeline, rd_imaging
from ofdmsar import metrics as metrics_module
from ofdmsar.cli import (ConfigError, DEFAULT_DB_FLOOR, _with_snrs, emit_pgm,
                         main, parse_config, run_scenario)
from ofdmsar.errors import ConfigurationError
from ofdmsar.geometry import PlatformGeometry
from ofdmsar.pgm import parse_pgm, write_pgm
from ofdmsar.rd_imaging import KA_MODES, RCMC_METHODS, stage_grids
from ofdmsar.scene import PointTarget, Scene
from ofdmsar.tf_filter import FilterSpec, apply_tf_filter
from ofdmsar.waveform import (RadarConfig, SrsConfig, SPEED_OF_LIGHT as c,
                              gen_symbol_grid, make_qam)

N, M = 16, 16
DF = 60e3
T_SYM = 0.013
RHO_R = c / (2 * N * DF)
R_BAR = 8 * RHO_R
X_TARGET = math.sqrt(R_BAR**2 - 500.0**2)
SPEED = math.sqrt((c / 3.5e9) * R_BAR / (2 * T_SYM**2 * M))
Y_TARGET = 8 * SPEED * T_SYM

BASE = {
    "radar": {
        "fc_hz": 3.5e9,
        "bandwidth_hz": 2e8,
        "subcarrier_spacing_hz": DF,
        "cp_duration_s": T_SYM - 1 / DF,
        "aperture_time_s": M * T_SYM,
        "n_subcarriers": N,
        "platform": {"height_m": 500.0, "speed_mps": SPEED},
    },
    "scene": {
        "targets": [{"x": X_TARGET, "y": Y_TARGET}],
        "extent": [X_TARGET - 100, X_TARGET + 100,
                   Y_TARGET - 100, Y_TARGET + 100],
    },
    "snr_in_db": 5.0,
    "filter": {"kind": "rf"},
    "trials": 4,
    "seed": 42,
    "azimuth_downsample": 1,
}


SRS = {"periodicity_slots": 2, "symbols_per_slot": 2, "comb_spacing": 4,
       "n_resource_blocks": 1, "start_subcarrier": 2}


def config_text(**overrides):
    """BASE with top-level keys replaced; a None value deletes the key."""
    doc = copy.deepcopy(BASE)
    doc.update(overrides)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def mutated(path, value):
    """BASE with the leaf at path (a tuple of keys) replaced by value."""
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (leaf, value, diagnostic path) of values the library rejects, reported
# at the path of the object it checked
LIBRARY_REJECTS = (
    (("radar", "fc_hz"), -1, "$.radar"),
    (("radar", "n_subcarriers"), 0, "$.radar"),
    (("radar", "platform", "height_m"), -5, "$.radar.platform"),
    (("scene", "targets", 0, "rcs_var"), -1, "$.scene.targets[0]"),
    (("scene", "targets", 0, "x"), X_TARGET + 150, "$.scene"),
    (("azimuth_downsample",), 1000, "$.azimuth_downsample"),
    # no run grid or reference target the ensembles could use
    (("scene", "targets", 0, "mode"), "random", "$.scene"),
    (("scene", "targets"), [], "$.scene"),
    (("radar", "platform", "speed_mps"), 0, "$.radar"),
    (("radar", "platform", "speed_mps"), 1e-320, "$.radar"),  # v^2 is 0
    (("radar", "platform", "speed_mps"), 1e308, "$.radar.platform"),
    (("radar", "fc_hz"), 1e-320, "$.radar"),  # infinite wavelength
    # N*M complex cells past the largest array numpy can address
    (("radar", "aperture_time_s"), 1e20, "$.radar"),
    # the platform ends the aperture far beyond the cyclic prefix's reach
    (("radar", "aperture_time_s"), 1e12, "$.scene"),
    # a run grid or reference peak the metrics cannot measure
    (("radar", "aperture_time_s"), 3 * T_SYM, "$.radar"),
    (("azimuth_downsample",), 5, "$.azimuth_downsample"),
    (("scene", "targets", 0, "y"), 0, "$.scene"),
    # an azimuth chirp undersampled past focusing (K_a T^2 M = 14.3)
    (("radar", "fc_hz"), 5e10, "$.radar.fc_hz"),
)


# Parsing ---------------------------------------------------------------------

def test_parse_defaults():
    # 64 symbols, so the default data decimation leaves a measurable grid;
    # a tenth of the speed keeps its 6 symbols' azimuth chirp sampled
    doc = copy.deepcopy(BASE)
    del doc["filter"], doc["trials"], doc["seed"], doc["azimuth_downsample"]
    doc["radar"]["aperture_time_s"] = 64 * T_SYM
    doc["radar"]["platform"]["speed_mps"] = SPEED / 10
    doc["scene"]["targets"][0]["y"] = 3 * SPEED * T_SYM
    scenario = parse_config(json.dumps(doc))
    assert scenario.filters == ("rf", "mf", "wf")
    assert scenario.srs is None  # data_aided
    assert scenario.trials == 64
    assert scenario.seed == 0
    assert scenario.constellation == "qam256"
    assert scenario.rcmc_method == "windowed_sinc"
    assert scenario.ka_mode == "reference"
    assert scenario.radar.decimation == 10  # the run grid
    assert scenario.outputs.images == ("ac",)
    assert scenario.outputs.grids == ()
    assert scenario.outputs.db_floor == DEFAULT_DB_FLOOR
    assert scenario.snr_db == (5.0,)
    assert scenario.radar.n_symbols == 6  # of 64 sent
    assert scenario.scene.q == 1


def test_parse_names_a_malformed_scene_entry():
    # an extent of three numbers, and a target that is not an object
    with pytest.raises(ConfigError, match=r"expected \[x_min") as err:
        parse_config(json.dumps(mutated(("scene", "extent"), [0.0, 1.0, 2.0])))
    assert err.value.path == "$.scene.extent"
    with pytest.raises(ConfigError, match="expected object, got") as err:
        parse_config(json.dumps(mutated(("scene", "targets", 0), [1.0, 2.0])))
    assert err.value.path == "$.scene.targets[0]"


def test_parse_paths_in_errors():
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(radar={**BASE["radar"], "fc_hz": "fast"}))
    assert err.value.path == "$.radar.fc_hz"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(bogus=1))
    assert err.value.path == "$.bogus"
    bad_platform = copy.deepcopy(BASE["radar"])
    del bad_platform["platform"]["height_m"]
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(radar=bad_platform))
    assert err.value.path == "$.radar.platform.height_m"
    # the platform has no antenna: a footprint field is an unknown one
    for key in ("elevation_angle_rad", "aperture_az_m", "aperture_el_m"):
        antenna = copy.deepcopy(BASE["radar"])
        antenna["platform"][key] = 0.1
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(radar=antenna))
        assert err.value.path == f"$.radar.platform.{key}"
    # the symbol timing and count are derived from spacing, cyclic prefix
    # and aperture: a scenario cannot give them, even at the derived value
    for key, value in (("symbol_duration_s", 1 / DF),
                       ("total_symbol_s", T_SYM), ("n_symbols", M)):
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(radar={**BASE["radar"], key: value}))
        assert err.value.path == f"$.radar.{key}"
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert err.value.path == "$"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(trials=0))
    assert err.value.path == "$.trials"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(seed=-1))
    assert err.value.path == "$.seed"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(outputs={"db_floor": 5.0}))
    assert err.value.path == "$.outputs.db_floor"
    for key, value in (("x", "near"), ("rcs", 1.0)):
        scene = copy.deepcopy(BASE["scene"])
        scene["targets"][0][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(scene=scene))
        assert err.value.path == f"$.scene.targets[0].{key}"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(filter={"kind": "zf"}))
    assert err.value.path == "$.filter.kind"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(outputs={"images": ["ac", "cooked"]}))
    assert err.value.path == "$.outputs.images[1]"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(rcmc={"halfwidth": 8}))
    assert err.value.path == "$.rcmc.halfwidth"
    missing = {k: v for k, v in BASE.items() if k != "snr_in_db"}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(missing))
    assert err.value.path == "$.snr_in_db"
    # json.loads accepts NaN and Infinity; the parser must not
    nan_speed = copy.deepcopy(BASE["radar"])
    nan_speed["platform"]["speed_mps"] = math.nan
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(radar=nan_speed))
    assert err.value.path == "$.radar.platform.speed_mps"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(snr_in_db=[5.0, math.nan]))
    assert err.value.path == "$.snr_in_db[1]"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(snr_in_db=-math.inf))
    assert err.value.path == "$.snr_in_db"
    # finite, but 10**400 overflows the linear SNR and 10**-400 makes it 0
    for snr_db in (4000, -4000):
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(snr_in_db=snr_db))
        assert err.value.path == "$.snr_in_db"
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(snr_in_db=[5, snr_db]))
        assert err.value.path == "$.snr_in_db[1]"
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(radar={**BASE["radar"], "fc_hz": math.inf}))
    assert err.value.path == "$.radar.fc_hz"
    inf_extent = copy.deepcopy(BASE["scene"])
    inf_extent["extent"][1] = math.inf
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(scene=inf_extent))
    assert err.value.path == "$.scene.extent[1]"
    for path, value, where in LIBRARY_REJECTS:
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(mutated(path, value)))
        assert err.value.path == where, (path, value)
    # a pilot block past the last subcarrier
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(mode="pilot_only", azimuth_downsample=None,
                                 srs={**SRS, "start_subcarrier": N - 4}))
    assert err.value.path == "$.srs"
    # a pilot period of 6 keeps 2 of the 16 symbols
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(mode="pilot_only", azimuth_downsample=None,
                                 srs={**SRS, "periodicity_slots": 3}))
    assert err.value.path == "$.srs"


def test_pilot_block_is_checked_without_building_the_comb(tmp_path, capsys):
    # a 1e12 s aperture is a comb of 1.9e13 pilot symbols; checking the
    # pilot block needs only the subcarrier count, so the cyclic-prefix
    # check names the scene instead of the scenario running out of memory
    doc = mutated(("radar", "aperture_time_s"), 1e12)
    del doc["azimuth_downsample"]
    doc.update(mode="pilot_only", srs=SRS)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == "$.scene"
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--out-dir",
                 str(tmp_path / "artifacts")]) == 2
    assert "error: $.scene: " in capsys.readouterr().err


def test_doppler_step_bound_admits_only_focusing_grids(tmp_path):
    # at the largest accepted K_a T^2 a reference target between two
    # azimuth bins still focuses, under either K_a mode and RCMC method
    fc_max = 3.5e9 * cli.MAX_DOPPLER_STEP * M * (1 - 1e-9)  # K_a T^2 = 1/M
    config = tmp_path / "scenario.json"
    for ka_mode in KA_MODES:
        for method in RCMC_METHODS:
            doc = mutated(("radar", "fc_hz"), fc_max)
            doc["scene"]["targets"][0]["y"] = 8.5 * SPEED * T_SYM
            doc.update(ka_mode=ka_mode, rcmc={"method": method}, trials=1,
                       outputs={"images": [], "grids": []})
            config.write_text(json.dumps(doc))
            assert main(["--config", str(config), "--out-dir",
                         str(tmp_path / f"{ka_mode}-{method}")]) == 0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(mutated(("radar", "fc_hz"), 1.01 * fc_max)))
    assert err.value.path == "$.radar.fc_hz"
    assert "K_a T^2 M = 7.27" in str(err.value)
    # a sent grid sampled finely enough, decimated past the bound, is
    # reported at the decimation: 64 sent symbols have K_a T^2 = 1/16, and
    # every 4th of them K_a T^2 = 1
    wide = {**BASE["radar"], "aperture_time_s": 64 * T_SYM}
    for overrides, path in (({"azimuth_downsample": 4},
                             "$.azimuth_downsample"),
                            ({"azimuth_downsample": None, "mode": "pilot_only",
                              "srs": SRS}, "$.srs")):
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(radar=wide, **overrides))
        assert err.value.path == path
        assert "K_a T^2 M = 16 " in str(err.value)
    assert parse_config(config_text(radar=wide, azimuth_downsample=2))


def test_field_tables_match_the_config_dataclasses():
    # a new config field cannot go unparsed unnoticed
    def init_fields(cls):
        return {f.name for f in dataclasses.fields(cls) if f.init}
    assert set(cli._PLATFORM) == init_fields(PlatformGeometry)
    # the noise is set per sweep point, and the decimation by the mode
    # (azimuth_downsample or the srs period)
    assert set(cli._RADAR) == init_fields(RadarConfig) - {
        "noise_var", "snr_in_linear", "decimation"}
    assert set(cli._SRS) == init_fields(SrsConfig)
    # every target key sets a PointTarget field, each field by one key
    assert sorted(cli._TARGET_FIELDS.get(key, key) for key in cli._TARGET) \
        == sorted(init_fields(PointTarget))
    assert set(cli._TARGET_FIELDS) <= set(cli._TARGET)


def test_parse_target_spelling():
    # a target has one spelling per key: x, y, rcs_var and mode set the
    # PointTarget's x_m, y_m, rcs_var and amplitude_mode, with rcs_var 1
    # and a deterministic amplitude by default
    def parsed(**target):
        scene = copy.deepcopy(BASE["scene"])
        scene["targets"] = [target, {"x": X_TARGET, "y": Y_TARGET}]
        return parse_config(config_text(scene=scene)).scene.targets[0]
    short = parsed(x=X_TARGET - 1, y=Y_TARGET, rcs_var=2, mode="random")
    assert short == PointTarget(X_TARGET - 1, Y_TARGET, 2.0, "random")
    assert parsed(x=X_TARGET - 1, y=Y_TARGET) == \
        PointTarget(X_TARGET - 1, Y_TARGET, 1.0, "deterministic")
    # the PointTarget field names are unknown keys, each named at its own
    # path, alone or next to the key that sets the field; x and y are
    # required at their own paths
    at_target = "$.scene.targets[0]"
    for target, path, message in (
            ({"x": 1.0, "y": 2.0, "x_m": 3.0}, f"{at_target}.x_m",
             "unknown field"),
            ({"x": 1.0, "y": 2.0, "y_m": 4.0}, f"{at_target}.y_m",
             "unknown field"),
            ({"x": 1.0, "y": 2.0, "mode": "random",
              "amplitude_mode": "random"}, f"{at_target}.amplitude_mode",
             "unknown field"),
            ({"x": 1.0, "y": 2.0, "amplitude_mode": "random"},
             f"{at_target}.amplitude_mode", "unknown field"),
            ({"x": 1.0}, f"{at_target}.y", "missing required field"),
            ({"y_m": 1.0}, f"{at_target}.y_m", "unknown field"),
            ({"x_m": 1.0, "y_m": 2.0}, f"{at_target}.x_m", "unknown field"),
            ({"y": 1.0}, f"{at_target}.x", "missing required field"),
            ({"x": 1.0, "y": 2.0, "bogus": 3}, f"{at_target}.bogus",
             "unknown field")):
        scene = copy.deepcopy(BASE["scene"])
        scene["targets"][0] = target
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(scene=scene))
        assert err.value.path == path, target
        assert message in str(err.value), target


def test_parse_snr_list_and_dedup_warning():
    scenario = parse_config(config_text(snr_in_db=[0, 5, 10]))
    assert scenario.snr_db == (0.0, 5.0, 10.0)
    # the warning names the first repeat's own path, the JSON entry's or
    # the flag's
    with pytest.warns(UserWarning, match=r"^\$\.snr_in_db\[2\]: duplicate"):
        scenario = parse_config(config_text(snr_in_db=[5, 10, 5, 10]))
    assert scenario.snr_db == (5.0, 10.0)
    with pytest.warns(UserWarning, match=r"^--snr-db: duplicate"):
        scenario = _with_snrs(scenario, [10.0, 10.0], ["--snr-db"] * 2)
    assert scenario.snr_db == (10.0,)
    with pytest.raises(ConfigError):
        parse_config(config_text(snr_in_db=[]))
    with pytest.raises(ConfigError):
        parse_config(config_text(snr_in_db=True))


def test_doppler_span_bound_admits_only_measurable_grids(tmp_path):
    # K_a T^2 M^2, the reference target's azimuth chirp in Doppler bins:
    # just above 1.2 every run grid of 4 to 8 symbols measures a -3 dB
    # azimuth width, the target on a bin or half-way between two
    config = tmp_path / "scenario.json"
    for m in (4, 5, 6, 7, 8):
        for bins in (m // 2, m // 2 + 0.5):
            doc = mutated(("radar", "fc_hz"), 3.5e9 * 16 * 1.2 * (1 + 1e-9)
                          / m ** 2)  # K_a T^2 = 1/16 at 3.5 GHz
            doc["radar"]["aperture_time_s"] = m * T_SYM
            doc["scene"]["targets"][0]["y"] = bins * SPEED * T_SYM
            doc.update(snr_in_db=20.0, trials=2,
                       outputs={"images": [], "grids": []})
            config.write_text(json.dumps(doc))
            assert main(["--config", str(config), "--out-dir",
                         str(tmp_path / f"{m}-{bins}")]) == 0, (m, bins)
            # just below it the grid is rejected before any draw
            doc["radar"]["fc_hz"] *= (1 - 1e-8)
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(doc))
            assert err.value.path == "$.radar.aperture_time_s"
            assert " is under 1.2: " in str(err.value)
    # 8 symbols with K_a T^2 = 0.01, the target half-way between two bins:
    # its profile has no -3 dB crossing, which the ensemble found only
    # after it ran
    doc = mutated(("radar", "aperture_time_s"), 8 * T_SYM)
    doc["radar"]["platform"]["speed_mps"] = 56.262977
    doc["scene"]["targets"] = [{"x": X_TARGET, "y": 2.559965}]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.path == "$.radar.aperture_time_s"
    assert "K_a T^2 M^2 = 0.64 is under 1.2" in str(err.value)


def test_parse_pilot_srs_rules():
    # half the speed keeps the 4 pilot symbols' azimuth chirp sampled, over
    # 4 Doppler bins (a quarter of it spans 1, too few to measure a -3 dB
    # width on)
    srs = SRS
    doc = copy.deepcopy(BASE)
    del doc["azimuth_downsample"]
    doc["radar"]["platform"]["speed_mps"] = SPEED / 2
    doc["scene"]["targets"][0]["y"] = 4 * SPEED * T_SYM
    doc["mode"] = "pilot_only"
    doc["srs"] = srs
    scenario = parse_config(json.dumps(doc))
    assert scenario.srs == SrsConfig(**srs)  # pilot_only
    assert scenario.srs.period_symbols == 4
    assert scenario.radar.decimation == 4  # the run grid keeps every pilot
    assert scenario.radar.n_symbols == 4
    assert scenario.constellation == "qpsk"
    # srs is mandatory in pilot mode
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(mode="pilot_only"))
    assert err.value.path == "$.srs"
    # decimation follows the pilot period, an explicit downsample is an error
    doc_bad = copy.deepcopy(doc)
    doc_bad["azimuth_downsample"] = 4
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc_bad))
    assert err.value.path == "$.azimuth_downsample"
    # and srs is meaningless in data-aided mode
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(srs=srs))
    assert err.value.path == "$.srs"


def test_srs_field_errors_keep_their_own_path():
    # the srs fields are read inside the block that re-raises a library
    # error at $.srs; a ConfigError from inside it keeps its own path
    doc = copy.deepcopy(BASE)
    del doc["azimuth_downsample"]
    doc["mode"] = "pilot_only"
    for key, value in (("bogus", 1), ("comb_spacing", 2.5)):
        doc["srs"] = {**SRS, key: value}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == f"$.srs.{key}"


def test_parse_scene_from_pgm(tmp_path):
    pixels = np.zeros((4, 4), dtype=np.uint8)
    pixels[2, 1] = 255
    (tmp_path / "scene.pgm").write_bytes(write_pgm(pixels))
    doc = copy.deepcopy(BASE)
    doc["scene"] = {
        "pgm_path": "scene.pgm",
        "extent": [X_TARGET - 2, X_TARGET + 2, Y_TARGET - 2, Y_TARGET + 2],
    }
    scenario = parse_config(json.dumps(doc), config_dir=tmp_path)
    assert scenario.scene.q == 1
    target = scenario.scene.targets[0]
    assert target.x_m == pytest.approx(X_TARGET + 0.5)
    assert target.y_m == pytest.approx(Y_TARGET - 0.5)
    doc["scene"]["pgm_path"] = "missing.pgm"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc), config_dir=tmp_path)
    assert err.value.path == "$.scene.pgm_path"


# PGM rendering ---------------------------------------------------------------

def test_emit_pgm_mapping():
    image = np.array([[1.0, 0.1, 0.0]])  # 0 dB, -20 dB, -inf
    data = emit_pgm(image, db_floor=-40.0)
    assert data.startswith(b"P5\n3 1\n255\n")
    pixels = parse_pgm(data)
    assert pixels[0, 0] == 255
    assert abs(int(pixels[0, 1]) - 128) <= 1
    assert pixels[0, 2] == 0


def test_emit_pgm_all_zero_and_floor():
    pixels = parse_pgm(emit_pgm(np.zeros((3, 3))))
    assert np.all(pixels == 0)
    # anything at or below the floor clamps to 0
    image = np.array([[1.0, 1e-6]])
    pixels = parse_pgm(emit_pgm(image, db_floor=-40.0))
    assert pixels[0, 1] == 0
    with pytest.raises(ConfigurationError):
        emit_pgm(np.empty((0, 3)))
    with pytest.raises(ConfigurationError):
        emit_pgm(image, db_floor=0.0)


def test_emit_pgm_complex_input():
    image = np.array([[3 + 4j, 0.5j]])
    pixels = parse_pgm(emit_pgm(image))
    assert pixels[0, 0] == 255  # |3+4j| = 5 is the peak
    expected = round(255 * (20 * math.log10(0.5 / 5) + 40) / 40)
    assert abs(int(pixels[0, 1]) - expected) <= 1


# Scenario execution ----------------------------------------------------------

def test_run_scenario_artifacts_and_rows(tmp_path):
    scenario = parse_config(config_text(
        snr_in_db=[0, 5], filter={"kind": "all"},
        outputs={"images": ["rc", "ac"], "grids": ["tf"]}))
    out = run_scenario(scenario, tmp_path / "out")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["grid_tf.bin", "image_ac.pgm", "image_rc.pgm",
                     "metrics.json", "nmse_sweep.csv", "profile_azimuth.csv",
                     "profile_range.csv"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["points"]) == 2 * 3  # snr x filter
    point = metrics["points"][0]
    assert point["filter"] == "rf"
    assert point["snr_in_db"] == 0
    assert point["trials"] == 4
    assert point["nmse"] > 0
    sweep = (out / "nmse_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "snr_db,filter,nmse,nmse_calibrated"
    assert len(sweep) == 1 + 6
    profile = (out / "profile_range.csv").read_text().strip().splitlines()
    assert profile[0] == "bin,range_m,power_db"
    assert len(profile) == 1 + N
    # the dumped grid parses back at the right stage and size
    data, stage = echo.grid_from_bytes((out / "grid_tf.bin").read_bytes())
    assert stage == "tf"
    assert data.shape == (N, M)


def test_sweep_builds_shared_inputs_once(tmp_path, monkeypatch):
    # every (snr, filter) point reuses one draw per trial, one channel and
    # one operator, wherever the name is looked up; the ensemble's 4
    # trials draw their symbol indices and noise one trial at a time, and
    # the stage artifacts draw trial 0's indices, noise and channel once
    # more, and nothing without a stage.  The reference image is the
    # operator's own image of the channel, so no analytic one is built
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    shared = ("build_channel_matrix", "focusing_operator", "gen_symbol_grid",
              "gen_symbol_indices", "draw_noise", "ideal_reference_image")
    for module in (cli, echo, metrics_module, pipeline):
        for name in shared:
            if hasattr(module, name):
                counting(module, name)
    stages = ["tf", "rc", "rd", "rcmc", "ac"]
    for outputs, draws in (({"images": stages, "grids": stages}, 2),
                           ({"images": []}, 1)):
        calls.clear()
        scenario = parse_config(config_text(
            snr_in_db=[0, 5], filter={"kind": "all"}, outputs=outputs))
        run_scenario(scenario, tmp_path / f"out{draws}")
        assert calls == {"build_channel_matrix": draws,
                         "gen_symbol_indices": 3 + draws,
                         "draw_noise": 3 + draws,
                         "focusing_operator": 1}, outputs


def test_artifacts_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # trials are drawn one at a time, on the main thread while a sweep's
    # draws fit the prefetch budget (18 bytes per cell of a noisy QAM256
    # trial: a uint16 index and the complex unit noise), else on a worker
    # thread one trial ahead; both write the same bytes.  The stage path
    # draws trial 0's noise once more, on the main thread
    stages = ["tf", "rc", "rd", "rcmc", "ac"]
    scenario = parse_config(config_text(
        snr_in_db=[0, 5], filter={"kind": "all"},
        outputs={"images": stages, "grids": stages}))
    draws = []
    real = pipeline.draw_noise

    def recording(*args, **kwargs):
        draws.append((threading.current_thread() is threading.main_thread(),
                      kwargs["out"].shape))
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "draw_noise", recording)
    outs = []
    for budget, main_thread in ((scenario.trials * 18 * N * M, True),
                                (scenario.trials * 18 * N * M - 1, False)):
        monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", budget)
        draws.clear()
        outs.append(run_scenario(scenario, tmp_path / f"main{main_thread}"))
        assert draws == ([(main_thread, (N, M, 2))] * scenario.trials
                         + [(True, (N, M, 2))])
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def sweep_entries(out_dir):
    points = json.loads((out_dir / "metrics.json").read_text())["points"]
    rows = (out_dir / "nmse_sweep.csv").read_text().strip().splitlines()[1:]
    return {(p["snr_in_db"], p["filter"]): (p, row)
            for p, row in zip(points, rows)}


def test_point_does_not_depend_on_rest_of_sweep(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(config_text(outputs={"images": [], "grids": []}))

    def run(name, *flags):
        out_dir = tmp_path / name
        assert main(["--config", str(config), "--out-dir", str(out_dir),
                     *flags]) == 0
        return sweep_entries(out_dir)

    alone = run("alone", "--snr-db", "20")
    both = run("both", "--snr-db", "0", "--snr-db", "20")
    assert both[(20.0, "rf")] == alone[(20.0, "rf")]
    wiener = run("wf", "--filter", "wf")
    every = run("all", "--filter", "all")
    assert every[(5.0, "wf")] == wiener[(5.0, "wf")]


def test_run_scenario_deterministic(tmp_path):
    scenario = parse_config(config_text(outputs={"images": ["ac"],
                                                 "grids": ["ac"]}))
    out1 = run_scenario(scenario, tmp_path / "a")
    out2 = run_scenario(scenario, tmp_path / "b")
    for name in ("metrics.json", "nmse_sweep.csv", "profile_range.csv",
                 "profile_azimuth.csv", "image_ac.pgm", "grid_ac.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_stage_artifacts_do_not_depend_on_trial_count(tmp_path):
    # the stage images and grids come from the first trial's draw, which
    # is the same whether the ensemble has one trial or several
    stages = ["tf", "rc", "rd", "rcmc", "ac"]
    outputs = {"images": stages, "grids": stages}
    out1 = run_scenario(parse_config(config_text(trials=1, outputs=outputs)),
                        tmp_path / "one")
    out3 = run_scenario(parse_config(config_text(trials=3, outputs=outputs)),
                        tmp_path / "three")
    for stage in stages:
        for name in (f"image_{stage}.pgm", f"grid_{stage}.bin"):
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name


def test_stage_artifacts_hold_at_most_two_stage_grids(tmp_path, monkeypatch):
    # every stage image and grid equals stage_grids' of the first point's
    # trial 0 byte for byte, while one stage grid is alive: trial 0 is
    # built in one grid and each stage runs in place in it once the
    # previous stage is written.  On 128x128 the whole stage path peaks
    # under 3.5 grids: trial 0 takes its channel and one scratch grid, a
    # stage its grid and the per-range-bin phase or the RCMC multiplier.
    # With a fresh grid per draw, filter and stage it peaked at 5
    n = 128
    cfg = critical_config(n, n)
    scene = single_target_scene(cfg)
    stages = ("tf", "rc", "rd", "rcmc", "ac")
    scenario = cli.ScenarioConfig(
        radar=cfg, scene=scene, filters=("wf",), srs=None, snr_db=(10.0,),
        trials=1, seed=5, constellation="qam16", rcmc_method="windowed_sinc",
        ka_mode="per_range_bin",
        outputs=cli.OutputSelection(images=stages, grids=stages))
    (cfg_n, spec), = cli._sweep_points(scenario)[1]
    qam = make_qam("qam16")
    result = pipeline.run_point_ensemble(scene, cfg_n, qam, spec, trials=1,
                                         seed=5, ka_mode="per_range_bin")

    built = []  # weak references to trial 0's grid and each stage's

    def recording(real):
        def wrapper(*args, **kwargs):
            grid = real(*args, **kwargs)
            assert not built or built[0]() is grid  # in place
            built.append(weakref.ref(grid))
            return grid
        return wrapper
    monkeypatch.setattr(cli, "filtered_trial_zero",
                        recording(cli.filtered_trial_zero))
    for name in ("range_compress", "azimuth_fft", "rcmc", "azimuth_compress"):
        monkeypatch.setattr(rd_imaging, name,
                            recording(getattr(rd_imaging, name)))
    tracemalloc.start()
    try:
        cli._render_stage_artifacts(scenario, result, qam, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(built) == len(stages)
    assert peak < 3.5 * n * n * 16

    symbols = gen_symbol_grid(cfg_n, qam, 5)
    tf = apply_tf_filter(echo.synthesize_echo(scene, cfg_n, symbols, 5),
                         symbols, spec)
    grids = {stage: grid.copy() for stage, grid in stage_grids(
        tf, cfg_n, result.r_bar_ref_m, "windowed_sinc", "per_range_bin")}
    for stage in stages:
        assert (tmp_path / f"image_{stage}.pgm").read_bytes() == emit_pgm(
            grids[stage], DEFAULT_DB_FLOOR), stage
        assert (tmp_path / f"grid_{stage}.bin").read_bytes() == (
            echo.grid_to_bytes(grids[stage], stage=stage)), stage


def test_run_scenario_pilot_smoke(tmp_path):
    # 64 symbols with a 4-symbol pilot period leave 16 pilot columns;
    # the speed makes the decimated grid critically sampled in azimuth
    m_full, period = 64, 4
    t_pilot = period * T_SYM
    speed = math.sqrt((c / 3.5e9) * R_BAR / (2 * t_pilot**2 * (m_full // period)))
    y_target = 8 * speed * t_pilot
    doc = copy.deepcopy(BASE)
    del doc["azimuth_downsample"]
    doc["radar"] = dict(BASE["radar"],
                        aperture_time_s=m_full * T_SYM,
                        platform={"height_m": 500.0, "speed_mps": speed})
    doc["scene"] = {
        "targets": [{"x": X_TARGET, "y": y_target}],
        "extent": [X_TARGET - 100, X_TARGET + 100,
                   y_target - 100, y_target + 100],
    }
    doc["mode"] = "pilot_only"
    doc["srs"] = {"periodicity_slots": 2, "symbols_per_slot": 2,
                  "comb_spacing": 4, "n_resource_blocks": 1,
                  "start_subcarrier": 2}
    doc["trials"] = 2
    out = run_scenario(parse_config(json.dumps(doc)), tmp_path / "pilot")
    metrics = json.loads((out / "metrics.json").read_text())
    assert all(p["mode"] == "pilot_only" for p in metrics["points"])
    # the pilot grid keeps one symbol per period
    profile = (out / "profile_azimuth.csv").read_text().strip().splitlines()
    assert len(profile) == 1 + m_full // period


# Entry point -----------------------------------------------------------------

def test_main_happy_path(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(config_text())
    out_dir = tmp_path / "artifacts"
    code = main(["--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "metrics.json").exists()
    assert str(out_dir) in capsys.readouterr().out


def nr_scenario(mode):
    """An NR-like scenario: 1024 subcarriers at 30 kHz with a quarter-symbol
    cyclic prefix, a 2 s aperture and one target at bins (150, 85) of the
    grid of one symbol per 20-slot SRS period.  pilot_only runs that grid
    under a comb-4 SRS with QPSK; data_aided runs QAM16 at the default
    decimation of 10 symbols."""
    df, height, speed = 30e3, 500.0, 30.0
    t_pilot = 20 * 14 * 1.25 / df
    r_bar = 150 * c / (2 * 1024 * df)
    x = math.sqrt(r_bar ** 2 - height ** 2)
    y = 85 * speed * t_pilot
    doc = {"radar": {"fc_hz": 3.5e9, "bandwidth_hz": 1e8,
                     "subcarrier_spacing_hz": df, "cp_duration_s": 0.25 / df,
                     "aperture_time_s": 2.0, "n_subcarriers": 1024,
                     "platform": {"height_m": height, "speed_mps": speed}},
           "scene": {"targets": [{"x": x, "y": y}],
                     "extent": [x - 100, x + 100, y - 100, y + 100]},
           "snr_in_db": [0.0, 20.0], "trials": 2, "mode": mode,
           "constellation": "qam16"}
    if mode == "pilot_only":
        doc.update(constellation="qpsk", srs={
            "periodicity_slots": 20, "symbols_per_slot": 14,
            "comb_spacing": 4, "n_resource_blocks": 24,
            "start_subcarrier": 100})
    return doc


@pytest.mark.parametrize("mode, beta", [("data_aided", 0.0239),
                                        ("pilot_only", 0.668)])
def test_main_is_silent_on_a_finely_sampled_azimuth_chirp(
        mode, beta, tmp_path, monkeypatch, capsys):
    # beta = K_a T^2 M at the reference target: the NR data-aided grid at
    # the default decimation (1024x4800) samples the azimuth chirp 40 times
    # finer than critically, the pilot grid (1024x171) about 1.5 times.
    # NMSE's reference is the run grid's own image of the scene, so
    # neither grid is a mismatch to warn of: main writes nothing to stderr
    # and runs the scenario it parsed
    doc = nr_scenario(mode)
    scenario = parse_config(json.dumps(doc))
    assert scenario.azimuth_sampling == pytest.approx(beta, rel=2e-3)
    ran = []
    monkeypatch.setattr(cli, "run_scenario",
                        lambda scenario, out_dir: ran.append(scenario) or out_dir)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert ran == [scenario]
    assert capsys.readouterr().err == ""


def test_main_overrides(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(config_text(snr_in_db=[0, 5]))
    out_dir = tmp_path / "artifacts"
    code = main(["--config", str(config), "--out-dir", str(out_dir),
                 "--filter", "mf", "--snr-db", "10", "--seed", "7"])
    assert code == 0
    rows = (out_dir / "nmse_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one (10 dB, mf) point
    assert rows[1].startswith("10.0,mf,")


def test_trials_past_what_numpy_can_address_fail_at_their_path(tmp_path,
                                                               capsys):
    # each point holds its trials' complex128 peaks in arrays of 16 bytes
    # a trial: past the largest array numpy can address the count is a
    # config error, not a traceback from the sweep's allocation
    assert parse_config(config_text(trials=2 ** 58)).trials == 2 ** 58
    config = tmp_path / "huge.json"
    out_dir = tmp_path / "artifacts"
    for trials in (2 ** 59, 10 ** 30):
        config.write_text(config_text(trials=trials))
        assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: $.trials: {trials} trials of complex128 "
                       f"peaks exceed the largest array numpy can address\n")
        assert not out_dir.exists()


def test_db_floor_past_the_8_bit_scale_fails_at_its_path(tmp_path, capsys):
    # emit_pgm scales each level by 255 and divides by -db_floor: a floor
    # whose 255 * db_floor overflows float64 is a config error, not an
    # overflow warning on stderr and an exit 0
    config = tmp_path / "scenario.json"
    out_dir = tmp_path / "artifacts"
    config.write_text(config_text(outputs={"db_floor": -1e306}))
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == ("error: $.outputs.db_floor: 255 * "
                                       "-1e+306 overflows the 8-bit scale\n")
    assert not out_dir.exists()
    with pytest.raises(ConfigurationError, match="db_floor"):
        emit_pgm(np.array([[1.0, 0.5]]), -1e306)
    # a floor just inside the scale still renders, with no warning
    config.write_text(config_text(outputs={"db_floor": -7e305,
                                           "images": ["tf", "ac"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    for stage in ("tf", "ac"):
        assert parse_pgm((out_dir / f"image_{stage}.pgm").read_bytes()).size


def test_main_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(config_text(trials=-1))
    assert main(["--config", str(config)]) == 2
    assert "$.trials" in capsys.readouterr().err
    # each fails before any ensemble runs: a negative seed has no random
    # stream, the image scale needs a floor below 0 dB, and the platform
    # has no antenna field
    out_dir = tmp_path / "artifacts"
    antenna = copy.deepcopy(BASE["radar"])
    antenna["platform"]["aperture_az_m"] = 0.1
    for text, args, path in ((config_text(), ["--seed", "-1"], "--seed"),
                             (config_text(outputs={"db_floor": 5.0}), [],
                              "$.outputs.db_floor"),
                             (config_text(radar=antenna), [],
                              "$.radar.platform.aperture_az_m")):
        config.write_text(text)
        assert main(["--config", str(config), "--out-dir", str(out_dir)]
                    + args) == 2
        assert path in capsys.readouterr().err
        assert not (out_dir / "metrics.json").exists()
    # the mode comes from the config only; argparse rejects a --mode flag
    config.write_text(config_text())
    with pytest.raises(SystemExit) as err:
        main(["--config", str(config), "--mode", "pilot_only"])
    assert err.value.code == 2


def test_main_rejects_out_of_range_values_before_any_ensemble(
        tmp_path, monkeypatch, capsys):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran")
    monkeypatch.setattr(cli, "run_sweep_ensemble", no_ensemble)
    config = tmp_path / "scenario.json"
    out_dir = tmp_path / "artifacts"
    for path, value, where in LIBRARY_REJECTS:
        config.write_text(json.dumps(mutated(path, value)))
        assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert f"error: {where}: " in capsys.readouterr().err, (path, value)
        assert not out_dir.exists()


def test_main_checks_the_sweep_against_overridden_filters(tmp_path, capsys):
    # -1700 dB is measurable under rf but puts the wf gains at 0: a --filter
    # override fails at its flag, before --out-dir is made
    config = tmp_path / "scenario.json"
    config.write_text(config_text(snr_in_db=[-1700], filter={"kind": "rf"}))
    out_dir = tmp_path / "artifacts"
    assert main(["--config", str(config), "--out-dir", str(out_dir),
                 "--filter", "wf"]) == 2
    assert "error: --filter: -1700.0 dB puts the wf filter's" in \
        capsys.readouterr().err
    assert not out_dir.exists()
    # with --snr-db given too, the SNRs are named at that flag
    assert main(["--config", str(config), "--out-dir", str(out_dir),
                 "--filter", "all", "--snr-db", "-1700"]) == 2
    assert "error: --snr-db: -1700.0 dB puts the wf filter's" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def test_run_scenario_checks_the_sweep_before_making_out_dir(tmp_path):
    # a library caller that swaps the filters skips main's checks: the
    # run's own SNR check names the sweep before out_dir is made
    scenario = parse_config(config_text(snr_in_db=[-1700],
                                        filter={"kind": "rf"}))
    out_dir = tmp_path / "artifacts"
    with pytest.raises(ConfigError, match="puts the wf filter's") as err:
        run_scenario(replace(scenario, filters=("wf",)), out_dir)
    assert err.value.path == "$.snr_in_db"
    assert not out_dir.exists()


def test_main_rejects_non_finite_numbers(tmp_path, capsys):
    radar = copy.deepcopy(BASE["radar"])
    radar["platform"]["speed_mps"] = math.nan
    config = tmp_path / "nan.json"
    config.write_text(config_text(radar=radar, trials=1,
                                  outputs={"images": [], "grids": []}))
    out_dir = tmp_path / "artifacts"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert "$.radar.platform.speed_mps" in capsys.readouterr().err
    assert not (out_dir / "metrics.json").exists()
    # the --snr-db override bypasses the JSON parser but not its SNR check
    config.write_text(config_text(trials=1))
    assert main(["--config", str(config), "--out-dir", str(out_dir),
                 "--snr-db", "nan"]) == 2
    assert "--snr-db" in capsys.readouterr().err
    assert not (out_dir / "metrics.json").exists()


def test_main_reports_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(scenario, out_dir):
        raise MemoryError
    monkeypatch.setattr(cli, "run_scenario", exhausted)
    config = tmp_path / "scenario.json"
    config.write_text(config_text())
    assert main(["--config", str(config),
                 "--out-dir", str(tmp_path / "artifacts")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{N}x{M} run grid" in err
    # running out while parsing is reported the same way
    monkeypatch.setattr(cli, "parse_config", lambda *args, **kwargs:
                        exhausted(None, None))
    assert main(["--config", str(config),
                 "--out-dir", str(tmp_path / "artifacts")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the scenario does not fit in memory\n"


def test_main_reports_out_of_memory_in_the_noise_worker(tmp_path, monkeypatch,
                                                       capsys):
    # past a budget of two grids the four trials' noise is drawn on the
    # worker thread, where it runs out
    threads = []

    def exhausted(*args, **kwargs):
        threads.append(threading.current_thread())
        raise MemoryError
    monkeypatch.setattr(pipeline, "_PREFETCH_BYTES", 2 * 16 * N * M)
    monkeypatch.setattr(pipeline, "draw_noise", exhausted)
    config = tmp_path / "scenario.json"
    config.write_text(config_text())
    assert main(["--config", str(config),
                 "--out-dir", str(tmp_path / "artifacts")]) == 2
    assert threads and threading.main_thread() not in threads
    err = capsys.readouterr().err
    assert err == f"error: the {N}x{M} run grid does not fit in memory\n"


def test_main_rejects_snr_beyond_float_range(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    config = tmp_path / "scenario.json"
    for snr_db in (4000, -4000):
        config.write_text(config_text(snr_in_db=snr_db, trials=1))
        assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert "$.snr_in_db" in capsys.readouterr().err
        config.write_text(config_text(trials=1))
        assert main(["--config", str(config), "--out-dir", str(out_dir),
                     "--snr-db", str(snr_db)]) == 2
        assert "--snr-db" in capsys.readouterr().err
        assert not (out_dir / "metrics.json").exists()


@settings(max_examples=25, deadline=None)
@given(snr_db=st.floats(allow_nan=False, allow_infinity=False))
def test_main_survives_any_finite_snr(snr_db):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(config_text(snr_in_db=[snr_db], trials=1,
                                      filter={"kind": "all"},
                                      outputs={"images": [], "grids": []}))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["--config", str(config),
                         "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2)
    if code == 2:
        assert "snr_in_db" in stderr.getvalue() or "--snr-db" in stderr.getvalue()


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items
            for leaf in _leaf_paths(child, path + (key,))]


_NESTED = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64),
    lambda inner: (st.lists(inner, max_size=2)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4)
_MUTANTS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(_NESTED, max_size=2),
    st.dictionaries(st.text(max_size=2), _NESTED, max_size=2),
    st.integers(-3, 64),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-320]))


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(_leaf_paths(BASE)), value=_MUTANTS)
# each of these once ended in an uncaught exception
@example(path=("radar", "fc_hz"), value=1e308)
@example(path=("radar", "fc_hz"), value=1e-320)
@example(path=("radar", "aperture_time_s"), value=1e308)
@example(path=("radar", "aperture_time_s"), value=1e20)
@example(path=("radar", "platform", "speed_mps"), value=0)
@example(path=("radar", "platform", "speed_mps"), value=1e-320)
@example(path=("radar", "platform", "speed_mps"), value=1e308)
@example(path=("scene", "targets", 0, "x"), value="x")
@example(path=("scene", "targets", 0, "y"), value={"a": [1]})
@example(path=("seed",), value=-1)
def test_main_survives_any_mutated_leaf(path, value):
    doc = mutated(path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings(), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["--config", str(config),
                         "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2)


def test_extreme_negative_snrs_fail_at_their_json_path(tmp_path, capsys):
    # the Wiener gains conj(s) / (|s|^2 + 1/snr) underflow long before the
    # linear snr does; every such SNR must be named at parse time, with no
    # float warning and no measurement error from the ensemble
    config = tmp_path / "scenario.json"
    out_dir = tmp_path / "out"
    for snr_db in range(-3100, -1499, 10):
        config.write_text(config_text(snr_in_db=[snr_db], trials=1,
                                      filter={"kind": "all"},
                                      outputs={"images": [], "grids": []}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(config), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        if code == 0:
            json.loads((out_dir / "metrics.json").read_text(),
                       parse_constant=pytest.fail)
        else:
            assert code == 2 and "$.snr_in_db[0]" in err, (snr_db, err)
            assert not (out_dir / "metrics.json").exists()
    assert code == 0  # -1500 dB is measurable


def test_non_finite_metric_fails_without_metrics_json(tmp_path, monkeypatch,
                                                      capsys):
    # metrics.json is strict JSON: a non-finite report value is a
    # measurement error naming the sweep point, not an Infinity token
    real = cli.point_target_report
    monkeypatch.setattr(cli, "point_target_report",
                        lambda result: replace(real(result),
                                               snr_out_db=math.inf))
    config = tmp_path / "scenario.json"
    config.write_text(config_text(trials=1))
    out_dir = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "(5.0 dB, rf)" in err and "snr_out_db" in err
    assert not (out_dir / "metrics.json").exists()


def test_unmeasurable_point_names_itself_and_makes_no_out_dir(tmp_path,
                                                             capsys):
    # 5 symbols with K_a T^2 = 0.42 and the target half-way between
    # azimuth bins 3 and 4: the chirp spans 10.5 Doppler bins, but QAM256
    # mf's azimuth profile, with its data pedestal, is too flat for a -3 dB
    # crossing, which the report finds only after the ensemble ran (the
    # scene's noiseless image F(channel), checked before the draws, has one)
    doc = mutated(("radar", "fc_hz"), 3.5e9 * 16 * 0.42)
    doc["radar"]["aperture_time_s"] = 5 * T_SYM
    doc["scene"]["targets"][0]["y"] = 3.5 * SPEED * T_SYM
    doc.update(snr_in_db=20.0, filter={"kind": "mf"}, constellation="qam256",
               trials=2, seed=0)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "error: sweep point (20.0 dB, mf): no -3 dB crossing" in err
    assert not out_dir.exists()


# (M, azimuth bin, K_a T^2) of one grid from each family whose QPSK
# noiseless image has no -3 dB azimuth crossing, though the parser's
# chirp bounds admit it
UNMEASURABLE_SCENES = ((4, 1.5, 0.42), (5, 3.5, 0.33), (6, 4.5, 0.04),
                       (7, 4.5, 0.39))


@pytest.mark.parametrize("m, azimuth_bin, ka_t2", UNMEASURABLE_SCENES)
def test_unmeasurable_scene_is_rejected_before_any_draw(
        tmp_path, monkeypatch, capsys, m, azimuth_bin, ka_t2):
    # every QPSK point's noiseless image is a multiple of the scene's
    # F(channel), built before the draws: where that has no -3 dB
    # crossing the sweep stops before it draws a symbol, at $.scene and
    # with the axis named, and makes no --out-dir
    drawn = []
    real = pipeline.gen_symbol_indices
    monkeypatch.setattr(pipeline, "gen_symbol_indices",
                        lambda *args, **kwargs: drawn.append(args)
                        or real(*args, **kwargs))
    doc = mutated(("radar", "fc_hz"), 3.5e9 * 16 * ka_t2)
    doc["radar"]["aperture_time_s"] = m * T_SYM
    doc["scene"]["targets"][0]["y"] = azimuth_bin * SPEED * T_SYM
    doc.update(snr_in_db=[-10.0, 20.0], filter={"kind": "all"},
               constellation="qpsk", trials=2, seed=0)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: $.scene: the noiseless image cannot be measured: "
                   "no -3 dB crossing found (profile too flat) on the "
                   "azimuth axis\n")
    assert not out_dir.exists()
    assert drawn == []


@pytest.mark.parametrize("override", [[], ["--filter", "all"]])
def test_the_checked_sweep_points_are_the_points_that_run(
        tmp_path, monkeypatch, override):
    # one builder makes the sweep's points and checks them: the FilterSpecs
    # whose spectrum moments the float-range check reads, at parse time,
    # after a --filter override and again in run_scenario, are the ones
    # the sweep runs
    checked, parsed, ran = [], [], []
    real_stats, real_parse = cli.chi_stats, cli.parse_config
    real_sweep = cli.run_sweep_ensemble
    monkeypatch.setattr(cli, "chi_stats", lambda constellation, spec:
                        checked.append(spec)
                        or real_stats(constellation, spec))

    def parse(*args, **kwargs):
        scenario = real_parse(*args, **kwargs)
        parsed.extend(checked)
        checked.clear()
        return scenario

    def sweep(scene, points, *args, **kwargs):
        ran.extend(spec for _, spec in points)
        return real_sweep(scene, points, *args, **kwargs)
    monkeypatch.setattr(cli, "parse_config", parse)
    monkeypatch.setattr(cli, "run_sweep_ensemble", sweep)
    config = tmp_path / "scenario.json"
    config.write_text(config_text(snr_in_db=[0.0, 20.0], trials=1))
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "out")]
                + override) == 0
    assert len(ran) == (6 if override else 2)
    assert parsed == [spec for spec in ran if spec.kind == "rf"]
    assert checked == ran * (2 if override else 1)


def test_main_rejects_target_beyond_cyclic_prefix(tmp_path, capsys):
    # 8.33 us cyclic prefix admits round trips out to ~1250 m slant range
    df = 30e3
    doc = copy.deepcopy(BASE)
    doc["radar"] = {"fc_hz": 3.5e9, "bandwidth_hz": 1e8,
                    "subcarrier_spacing_hz": df, "cp_duration_s": 0.25 / df,
                    "aperture_time_s": 16 * 1.25 / df, "n_subcarriers": 16,
                    "platform": {"height_m": 1000.0, "speed_mps": 50.0}}
    doc["scene"] = {"targets": [{"x": 2000.0, "y": 0.0}]}
    doc["outputs"] = {"images": [], "grids": []}
    config = tmp_path / "far.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "artifacts"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "cyclic prefix" in err and err.startswith("error: $.scene: ")
    assert not out_dir.exists()  # rejected at parse time


# A 30 kHz, 16-subcarrier grid: the 8.33 us cyclic prefix admits round
# trips out to ~1250 m, and range bin 5 lies at ~1561 m (10.4 us).  That is
# well within k symbols less one useful part (133 us at k = 4, 383 us at
# k = 10), so only a check against the physical prefix rejects it.
CP_DF = 30e3
CP_T_SYM = 1.25 / CP_DF
CP_R_BAR = 5 * c / (2 * 16 * CP_DF)


def cp_regression_doc(mode, step):
    """A scenario whose target outlasts the cyclic prefix, with its
    reference peak on a valid bin of the grid kept every step-th symbol."""
    speed, height = 50.0, 1000.0
    x = math.sqrt(CP_R_BAR ** 2 - height ** 2)
    y = 8 * speed * step * CP_T_SYM
    doc = {"radar": {"fc_hz": 3.5e9, "bandwidth_hz": 1e8,
                     "subcarrier_spacing_hz": CP_DF,
                     "cp_duration_s": 0.25 / CP_DF,
                     "aperture_time_s": 160 * CP_T_SYM, "n_subcarriers": 16,
                     "platform": {"height_m": height, "speed_mps": speed}},
           "scene": {"targets": [{"x": x, "y": y}]},
           "snr_in_db": 5.0, "filter": {"kind": "rf"}, "trials": 1,
           "mode": mode, "outputs": {"images": [], "grids": []}}
    if mode == "pilot_only":
        doc["srs"] = {**SRS, "periodicity_slots": step // 2}
    else:
        doc["azimuth_downsample"] = step
    return doc


@pytest.mark.parametrize("mode, step", [("data_aided", 1),
                                        ("data_aided", 10),
                                        ("pilot_only", 4)])
def test_cyclic_prefix_is_checked_on_the_sent_grid(tmp_path, capsys, mode,
                                                   step):
    delay = 2 * CP_R_BAR / c
    assert 0.25 / CP_DF < delay
    assert step == 1 or delay < step * CP_T_SYM - 1 / CP_DF
    config = tmp_path / "far.json"
    config.write_text(json.dumps(cp_regression_doc(mode, step)))
    out_dir = tmp_path / "artifacts"
    assert main(["--config", str(config), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.scene: ") and "cyclic prefix" in err
    assert "8.333 us" in err
    assert not out_dir.exists()


def test_pilot_ensemble_checks_the_physical_cyclic_prefix():
    doc = cp_regression_doc("pilot_only", 4)
    radar = dict(doc["radar"])
    cfg = RadarConfig(platform=PlatformGeometry(**radar.pop("platform")),
                      **radar)
    target = doc["scene"]["targets"][0]
    scene = Scene(targets=(PointTarget(x_m=target["x"], y_m=target["y"]),),
                  extent=(0.0, 1e4, 0.0, 1e4))
    srs = SrsConfig(**doc["srs"])
    with pytest.raises(ConfigurationError, match="cyclic prefix"):
        pipeline.run_point_ensemble(scene, cfg.decimated(srs.period_symbols),
                                    make_qam("qpsk"), FilterSpec("rf"),
                                    trials=1, seed=0, srs=srs)


def test_main_missing_file_exit_code(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err
