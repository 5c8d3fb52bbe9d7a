"""Per-layer metrics from the traced run, and what each is expected to move.

Times are per measured operation (ms/op, calls/op) so runs of different
length compare directly.  ``ns_per_cell`` divides a function's inclusive
time by the grid cells it returned.  Every wrapped function reports
``calls`` and ``self_ms``; a function no longer called reports zeros.
"""

from __future__ import annotations

from collections import defaultdict

from spans import CELLS, END, ID, NAME, NBYTES, PARENT, START, TRIALS
from spans import self_times_ns, traced_names

NS_PER_CELL = ("rd_imaging.rcmc", "rd_imaging.range_compress",
               "rd_imaging.azimuth_fft", "rd_imaging.azimuth_compress",
               "waveform.gen_symbol_grid", "echo.draw_noise",
               "tf_filter.filter_gains")
TOTAL_MS = ("rd_imaging.focus_image", "pipeline.run_point_ensemble",
            "cli.run_scenario")
STACK_PRODUCERS = ("waveform.gen_symbol_grid", "echo.draw_noise")

_RCMC = "trials_per_s and op_s_p50 on ens-small and ens-large; not cli-pilot"
_FOCUS = "trials_per_s on ens-large"
_LOOP = "trials_per_s on ens-small"
_CELLS = "trials_per_s on ens-large"
_REPORT = "op_s_p50 on cli-pilot"
_ARTIFACT = "op_s_p50 and peak_rss_mb on cli-pilot"

# The end-to-end metric and workload each layer metric should move.
EXPECTED_MOVES = {
    "rd_imaging.rcmc.ns_per_cell": _RCMC,
    "rd_imaging.rcmc.share_of_focus": _RCMC,
    "rd_imaging.range_compress.ns_per_cell": _FOCUS,
    "rd_imaging.azimuth_fft.ns_per_cell": _FOCUS,
    "rd_imaging.azimuth_compress.ns_per_cell": _FOCUS,
    "rd_imaging.focus_image.calls": _FOCUS,
    "rd_imaging.focus_image.self_ms": _FOCUS,
    "rd_imaging.focus_image.total_ms": _FOCUS,
    "pipeline.focus_calls_per_trial": _LOOP,
    "pipeline.run_point_ensemble.self_ms": _LOOP,
    "pipeline.run_point_ensemble.total_ms": _LOOP,
    "waveform.gen_symbol_grid.ns_per_cell": _CELLS,
    "echo.draw_noise.ns_per_cell": _CELLS,
    "tf_filter.filter_gains.ns_per_cell": _CELLS,
    "pipeline.stack_bytes_computed": "peak_rss_mb on ens-large",
    "echo.build_channel_matrix.self_ms": _REPORT,
    "metrics.ideal_reference_image.self_ms": _REPORT,
    "metrics.measure_mainlobe_width.self_ms": _REPORT,
    "metrics.islr.self_ms": _REPORT,
    "pipeline.point_target_report.self_ms": _REPORT,
    "cli.parse_config.self_ms": _ARTIFACT,
    "cli.run_scenario.self_ms": _ARTIFACT,
    "cli.run_scenario.total_ms": _ARTIFACT,
    "cli.emit_pgm.self_ms": _ARTIFACT,
    "pgm.write_pgm.self_ms": _ARTIFACT,
    "echo.grid_to_bytes.self_ms": _ARTIFACT,
    "echo.synthesize_echo.self_ms": _ARTIFACT,
    "tf_filter.apply_tf_filter.self_ms": _ARTIFACT,
    "cli.artifact_bytes": _ARTIFACT,
    "cli.artifact_symbol_cells_ratio": _ARTIFACT,
    "trace.overhead_frac": "none: cost of tracing itself",
    "check.error_rate": "none: failed / attempted operations",
    "check.identity_residual_max": "none: accuracy guard",
    "check.nmse_vs_analytic": "none: accuracy guard (ens-* only)",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
        if name in TOTAL_MS:
            units[f"{name}.total_ms"] = "ms/op"
        if name in NS_PER_CELL:
            units[f"{name}.ns_per_cell"] = "ns/cell"
    units.update({
        "rd_imaging.rcmc.share_of_focus": "ratio",
        "pipeline.focus_calls_per_trial": "calls/trial",
        "pipeline.stack_bytes_computed": "bytes",
        "cli.artifact_bytes": "bytes/op",
        "cli.artifact_symbol_cells_ratio": "ratio",
        "trace.overhead_frac": "ratio",
        "check.error_rate": "ratio",
        "check.identity_residual_max": "ratio",
        "check.nmse_vs_analytic": "ratio",
    })
    return units


def expected_move(name: str) -> str:
    if name in EXPECTED_MOVES:
        return EXPECTED_MOVES[name]
    if name.endswith(".calls"):
        return "none: call count that explains the times beside it"
    return "op_s_p50 on the workloads that call it"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics computed from the spans of n_ops operations."""
    self_ns = self_times_ns(spans)
    names = {span[ID]: span[NAME] for span in spans}
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    cells = defaultdict(int)
    child = defaultdict(lambda: defaultdict(int))  # parent name -> child key
    stack_bytes = defaultdict(int)  # run_point_ensemble span id -> bytes
    for span, self_dur in zip(spans, self_ns):
        name, dur = span[NAME], span[END] - span[START]
        calls[name] += 1
        total[name] += dur
        own[name] += self_dur
        cells[name] += span[CELLS] or 0
        parent = names.get(span[PARENT])
        child[parent][name] += 1
        child[parent][name + ".cells"] += span[CELLS] or 0
        if parent == "pipeline.run_point_ensemble" and name in STACK_PRODUCERS:
            stack_bytes[span[PARENT]] += span[NBYTES] or 0
    trials = sum(span[TRIALS] or 0 for span in spans
                 if span[NAME] == "pipeline.run_point_ensemble")

    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_ms"] = own[name] / 1e6 / n_ops
        if name in TOTAL_MS:
            out[f"{name}.total_ms"] = total[name] / 1e6 / n_ops
        if name in NS_PER_CELL:
            out[f"{name}.ns_per_cell"] = _ratio(total[name], cells[name])
    scenario = child["cli.run_scenario"]
    out.update({
        "rd_imaging.rcmc.share_of_focus": _ratio(
            total["rd_imaging.rcmc"], total["rd_imaging.focus_image"]),
        "pipeline.focus_calls_per_trial": _ratio(
            child["pipeline.run_point_ensemble"]["rd_imaging.focus_image"],
            trials),
        "pipeline.stack_bytes_computed": float(max(stack_bytes.values(),
                                                   default=0)),
        "cli.artifact_symbol_cells_ratio": _ratio(
            scenario["waveform.gen_symbol_grid.cells"],
            scenario["echo.synthesize_echo.cells"]),
    })
    return out
