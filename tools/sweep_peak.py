"""Print the tracemalloc peak of a scenario's Monte-Carlo sweep.

    python tools/sweep_peak.py scenarios/nr_pilot_only.json

runs the scenario's run_sweep_ensemble call, every (SNR, filter) point at
the scenario's trials and seed, as the ofdmsar console script does before
it writes artifacts, and prints its peak in (N, M) complex grids of the
run grid.  The first run is untraced, so that imports and caches do not
count.  The program is imported from the checkout's src, without an
install or PYTHONPATH.
"""

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ofdmsar.cli import _sweep_points, parse_config  # noqa: E402
from ofdmsar.pipeline import pilot_comb_mask, run_sweep_ensemble  # noqa: E402
from ofdmsar.waveform import make_qam  # noqa: E402


def sweep_peak_grids(scene, points, constellation, trials, seed=5,
                     **options) -> float:
    """The tracemalloc peak of a sweep, in (N, M) complex grids, after an
    untraced run of it."""
    cfg = points[0][0]
    run_sweep_ensemble(scene, points, constellation, trials, seed, **options)
    tracemalloc.start()
    try:
        run_sweep_ensemble(scene, points, constellation, trials, seed,
                           **options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (cfg.n_subcarriers * cfg.n_symbols * 16)


def main(argv: list[str]) -> None:
    path = Path(argv[0])
    scenario = parse_config(path.read_text(), config_dir=path.parent)
    _, points = _sweep_points(scenario)
    cfg = scenario.radar
    mask = pilot_comb_mask(cfg, scenario.srs) if scenario.srs else None
    peak = sweep_peak_grids(
        scenario.scene, points, make_qam(scenario.constellation),
        scenario.trials, scenario.seed, mask=mask,
        rcmc_method=scenario.rcmc_method, ka_mode=scenario.ka_mode)
    print(f"{peak:.2f} grids of {cfg.n_subcarriers}x{cfg.n_symbols} "
          f"{path}")


if __name__ == "__main__":
    main(sys.argv[1:])
