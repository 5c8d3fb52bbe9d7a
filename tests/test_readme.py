"""The README's examples run as printed."""

import contextlib
import io
import re
from pathlib import Path

from ofdmsar.cli import main, parse_config, run_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language):
    """The one block of the README fenced as language."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README,
                        flags=re.M | re.S)
    assert len(blocks) == 1, language
    return blocks[0]


def test_library_example_prints_its_comment():
    code = fenced("python")
    printed = re.findall(r"^# (NMSE .*)$", code, flags=re.M)
    assert len(printed) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == printed[0] + "\n"


def test_scenario_example_runs(tmp_path):
    out = run_scenario(parse_config(fenced("json")), tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [
        "grid_ac.bin", "image_ac.pgm", "image_rd.pgm", "metrics.json",
        "nmse_sweep.csv", "profile_azimuth.csv", "profile_range.csv"]


def test_scenario_example_runs_silently_from_main(tmp_path, capsys):
    # main prints the output directory and nothing on stderr
    config = tmp_path / "scenario.json"
    config.write_text(fenced("json"))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out)]) == 0
    assert capsys.readouterr() == (f"{out}\n", "")
