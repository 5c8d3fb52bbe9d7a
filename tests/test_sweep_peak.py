"""tools/sweep_peak.py prints the tracemalloc peak of a scenario's sweep."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "sweep_peak", ROOT / "tools" / "sweep_peak.py")
sweep_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_peak)


def test_prints_the_scenarios_peak_in_run_grids(capsys):
    # the desk raster's 64x64 QAM16 sweep of 9 points reads 9 per-trial
    # canonical grids, focused into one signal and one noise buffer: it
    # holds fewer grids than that (8.9; 16.5 with one buffer per grid)
    scenario = ROOT / "scenarios" / "desk_raster.json"
    sweep_peak.main([str(scenario)])
    line, = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"(\d+\.\d\d) grids of 64x64 (.*)", line)
    assert match and match[2] == str(scenario), line
    assert float(match[1]) < 9.0
