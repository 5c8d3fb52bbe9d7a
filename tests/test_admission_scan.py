"""tools/admission_scan.py counts the admitted grids whose report fails."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# two scans of one grid each: a QPSK sweep whose noiseless image has no
# -3 dB crossing is rejected before its draws, and a QAM256 mf point whose
# mean image, with its data pedestal, has none fails after its sweep
SCANS = """
import runpy
tool = runpy.run_path("tools/admission_scan.py")
tool["main"](["qpsk", "all", "-10", "20"], [(4, 1.5, 0.42)])
tool["main"](["qam256", "mf", "20"], [(5, 3.5, 0.42)])
"""


def test_runs_from_a_plain_checkout_on_its_own_sources(tmp_path):
    # a copy of the checkout, its package uninstalled and off PYTHONPATH:
    # the tool imports the copy's src, which names itself on stderr
    checkout = tmp_path / "checkout"
    for part in ("src", "tools"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    init = checkout / "src" / "ofdmsar" / "__init__.py"
    init.write_text(init.read_text()
                    + "\nimport sys\nprint(__file__, file=sys.stderr)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", SCANS], cwd=checkout,
                         env=env, capture_output=True, text=True, check=True)
    imported, = run.stderr.splitlines()
    assert Path(imported).resolve() == init.resolve()
    assert run.stdout.splitlines() == [
        "late failures: 0",
        "M = 5, azimuth bin 3.5, K_a T^2 = 0.42", "late failures: 1"]
