"""The checked-in scenarios run end to end through the CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ofdmsar.cli import main, parse_config
from ofdmsar.waveform import SPEED_OF_LIGHT

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_desk_raster_scenario_runs_twice_with_the_same_bytes(tmp_path,
                                                             capsys):
    # every bright pixel of the 16x8 raster is a target; main prints the
    # output directory and nothing on stderr.  NMSE measures each filter
    # against the chain's own image of the scene: rf's falls with the
    # noise, at least 5x per 10 dB, and mf's, whose gain |s|^2 varies with
    # the symbol, floors near 2.9 above it
    config = SCENARIOS / "desk_raster.json"
    scenario = parse_config(config.read_text(), config_dir=SCENARIOS)
    assert scenario.scene.q == 11
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["--config", str(config), "--out-dir", str(out)]) == 0
        assert capsys.readouterr() == (f"{out}\n", "")
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(runs[0]) == [
        "image_ac.pgm", "image_rc.pgm", "image_rcmc.pgm", "image_rd.pgm",
        "image_tf.pgm", "metrics.json", "nmse_sweep.csv",
        "profile_azimuth.csv", "profile_range.csv"]
    assert runs[0] == runs[1]
    nmse = {point: values[0]
            for point, values in nmse_rows(tmp_path / "first").items()}
    for snr_db in (10.0, 20.0):
        assert nmse[snr_db - 10.0, "rf"] >= 5.0 * nmse[snr_db, "rf"], snr_db
        assert nmse[snr_db, "mf"] > nmse[snr_db, "rf"], snr_db


def nmse_rows(out_dir):
    """{(snr_db, filter): (nmse, nmse_calibrated)} of a run's sweep."""
    lines = (out_dir / "nmse_sweep.csv").read_text().splitlines()[1:]
    rows = {}
    for line in lines:
        snr_db, kind, value, calibrated = line.split(",")
        rows[float(snr_db), kind] = (float(value), float(calibrated))
    return rows


def test_nr_pair_puts_the_target_on_a_bin_of_both_grids():
    # the headline pair shares its radar and scene: the target sits on
    # range bin 150 and on azimuth bin 84 of the 1024x171 pilot grid, which
    # is bin 56 of the 1024x114 data grid (decimation 420 against the
    # pilot period 280), so neither run measures an off-bin target
    docs = {name: json.loads((SCENARIOS / f"{name}.json").read_text())
            for name in ("nr_pilot_only", "nr_data_aided")}
    assert docs["nr_pilot_only"]["radar"] == docs["nr_data_aided"]["radar"]
    assert docs["nr_pilot_only"]["scene"] == docs["nr_data_aided"]["scene"]
    for name, bins, shape, beta in (
            ("nr_pilot_only", (150, 84), (1024, 171), 0.67),
            ("nr_data_aided", (150, 56), (1024, 114), 1.00)):
        scenario = parse_config(json.dumps(docs[name]))
        cfg = scenario.radar
        target = scenario.scene.targets[0]
        position = (target.mean_range_m(cfg.platform) / cfg.range_pitch_m,
                    target.y_m / (cfg.platform.speed_mps * cfg.total_symbol_s))
        assert (cfg.n_subcarriers, cfg.n_symbols) == shape
        assert np.allclose(position, bins, rtol=0, atol=1e-9), name
        assert scenario.azimuth_sampling == pytest.approx(beta, abs=0.01)
        assert len(scenario.snr_db) * len(scenario.filters) == 33


def test_scaled_nr_pair_data_aided_beats_pilot_only(tmp_path, capsys):
    # criterion 5 at the NR pair's shape, scaled to 256 subcarriers: a
    # 6-RB comb-4 SRS at subcarrier 16 on the 256x171 pilot grid (beta
    # 0.50) against QAM16 at decimation 560 on the 256x85 data grid (beta
    # 1.00), the target on range bin 50 and on data bin 42 = pilot bin 84,
    # 8 trials.  Data-aided NMSE, plain and calibrated, is below
    # pilot-only at every SNR and for every filter
    runs = {}
    for name in ("nr_pilot_only", "nr_data_aided"):
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        radar = doc["radar"]
        radar["n_subcarriers"] = 256
        df = radar["subcarrier_spacing_hz"]
        t_sym = 1.0 / df + radar["cp_duration_s"]
        r_bar = 50 * SPEED_OF_LIGHT / (2 * 256 * df)
        x = math.sqrt(r_bar ** 2 - radar["platform"]["height_m"] ** 2)
        y = 84 * radar["platform"]["speed_mps"] * 280 * t_sym
        doc["scene"] = {"targets": [{"x": x, "y": y}],
                        "extent": [x - 100, x + 100, y - 100, y + 100]}
        doc["trials"] = 8
        if "srs" in doc:
            doc["srs"].update(n_resource_blocks=6, start_subcarrier=16)
        else:
            doc["azimuth_downsample"] = 560
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["--config", str(config), "--out-dir", str(out)]) == 0
        assert capsys.readouterr() == (f"{out}\n", "")
        runs[name] = nmse_rows(out)
    pilot, data = runs["nr_pilot_only"], runs["nr_data_aided"]
    assert sorted(pilot) == sorted(data) and len(data) == 33
    for point, values in data.items():
        for value, baseline in zip(values, pilot[point]):
            assert value < baseline, (point, value, baseline)
