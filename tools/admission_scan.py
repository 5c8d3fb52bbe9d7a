"""Count the scenarios the parser admits whose report fails after the sweep.

    python tools/admission_scan.py qam256 all -10 20

runs the ofdmsar command line on 16xM grids, M = 4 to 8, in the geometry
of tests/test_cli.py: the reference target at every half-bin azimuth
position 1, 1.5, .., M - 1.5, K_a T^2 = 0.01 .. 0.45 in steps of 0.01 (set
through fc_hz), 2 trials at seed 0, with the given constellation, filter
(rf, mf, wf or all) and SNRs in dB.  It prints each grid that runs its ensemble and
then exits 2 naming a sweep point, then their count.  The program is
imported from the checkout's src, without an install or PYTHONPATH.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ofdmsar.cli import main as run_cli  # noqa: E402
from ofdmsar.waveform import SPEED_OF_LIGHT  # noqa: E402

N, DF, T_SYM, HEIGHT = 16, 60e3, 0.013, 500.0
R_BAR = 8 * SPEED_OF_LIGHT / (2 * N * DF)
# K_a T^2 = 1/16 at 3.5 GHz, so fc_hz = 3.5e9 * 16 * K_a T^2
SPEED = math.sqrt(SPEED_OF_LIGHT / 3.5e9 * R_BAR / (2 * T_SYM ** 2 * N))


def grids(symbols=range(4, 9)):
    """(M, azimuth bin, K_a T^2) of every scanned grid."""
    for m in symbols:
        for twice in range(2, 2 * m - 2):
            for step in range(1, 46):
                yield m, twice / 2, step / 100


def fails_late(m, azimuth_bin, ka_t2, constellation, kind, snr_db, workdir):
    doc = {"radar": {"fc_hz": 3.5e9 * 16 * ka_t2, "bandwidth_hz": 2e8,
                     "subcarrier_spacing_hz": DF,
                     "cp_duration_s": T_SYM - 1 / DF,
                     "aperture_time_s": m * T_SYM, "n_subcarriers": N,
                     "platform": {"height_m": HEIGHT, "speed_mps": SPEED}},
           "scene": {"targets": [{"x": math.sqrt(R_BAR ** 2 - HEIGHT ** 2),
                                  "y": azimuth_bin * SPEED * T_SYM}]},
           "snr_in_db": snr_db, "filter": {"kind": kind}, "trials": 2,
           "constellation": constellation, "azimuth_downsample": 1,
           "outputs": {"images": [], "grids": []}}
    config = Path(workdir) / "scenario.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        code = run_cli(["--config", str(config),
                        "--out-dir", str(Path(workdir) / "out")])
    return code == 2 and "error: sweep point" in err.getvalue()


def main(argv: list[str], scanned=None) -> int:
    constellation, kind, *snr_db = argv
    late = 0
    with tempfile.TemporaryDirectory() as workdir:
        for m, azimuth_bin, ka_t2 in scanned or grids():
            if fails_late(m, azimuth_bin, ka_t2, constellation, kind,
                          [float(x) for x in snr_db], workdir):
                print(f"M = {m}, azimuth bin {azimuth_bin}, "
                      f"K_a T^2 = {ka_t2:.2f}")
                late += 1
    print(f"late failures: {late}")
    return late


if __name__ == "__main__":
    main(sys.argv[1:])
