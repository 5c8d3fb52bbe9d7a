"""The checked-in scenarios run end to end through the CLI."""

from pathlib import Path

from ofdmsar.cli import main, parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_desk_raster_scenario_runs_twice_with_the_same_bytes(tmp_path,
                                                             capsys):
    # every bright pixel of the 16x8 raster is a target; the run grid is
    # near critical azimuth sampling (K_a T^2 M = 1.04), so main prints
    # the output directory and nothing on stderr
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
