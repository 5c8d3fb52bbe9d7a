"""tools/sweep_peak.py prints the tracemalloc peak of a scenario's sweep."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
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


def test_runs_from_a_plain_checkout_on_its_own_sources(tmp_path):
    # a copy of the checkout, its package uninstalled and off PYTHONPATH:
    # the tool imports the copy's src, which names itself on stderr
    checkout = tmp_path / "checkout"
    for part in ("src", "tools", "scenarios"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    init = checkout / "src" / "ofdmsar" / "__init__.py"
    init.write_text(init.read_text()
                    + "\nimport sys\nprint(__file__, file=sys.stderr)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "tools/sweep_peak.py", "scenarios/desk_raster.json"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    imported, = run.stderr.splitlines()
    assert Path(imported).resolve() == init.resolve()
    assert run.stdout.endswith(" grids of 64x64 scenarios/desk_raster.json\n")
