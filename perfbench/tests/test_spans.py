import numpy as np

import ofdmsar.tf_filter
from layers import span_metrics
from spans import Tracer, self_times_ns


def span(sid, parent, start, end, name="f", cells=None, nbytes=None,
         trials=None):
    return [sid, parent, name, start, end, cells, nbytes, trials]


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, None, 0, 100),   # root: children cover 10-40 and 50-90
        span(1, 0, 10, 40),      # child with its own child 15-25
        span(2, 1, 15, 25),
        span(3, 0, 50, 90),
        span(4, 0, 60, 70),      # overlaps sibling 3: not subtracted twice
        span(5, 0, 95, 120),     # runs past the parent: clipped at 100
    ]
    assert self_times_ns(spans) == [100 - 30 - 40 - 5, 30 - 10, 10, 40, 10, 25]


def test_self_time_of_leaf_is_its_duration():
    assert self_times_ns([span(7, None, 5, 9)]) == [4]


def test_span_metrics_per_operation_and_per_cell():
    spans = [
        span(1, None, 0, 900, "pipeline.run_point_ensemble", trials=2),
        span(2, 1, 0, 100, "waveform.gen_symbol_grid", cells=8, nbytes=128),
        span(3, 1, 100, 400, "rd_imaging.focus_image", cells=4),
        span(4, 3, 150, 350, "rd_imaging.rcmc", cells=4),
        span(5, 1, 400, 600, "rd_imaging.focus_image", cells=4),
        span(6, 5, 400, 500, "rd_imaging.rcmc", cells=4),
    ]
    out = span_metrics(spans, n_ops=2)
    assert out["rd_imaging.focus_image.calls"] == 1.0
    assert out["rd_imaging.focus_image.total_ms"] == 500 / 1e6 / 2
    assert out["rd_imaging.focus_image.self_ms"] == 200 / 1e6 / 2
    assert out["rd_imaging.rcmc.ns_per_cell"] == 300 / 8
    assert out["rd_imaging.rcmc.share_of_focus"] == 300 / 500
    assert out["pipeline.run_point_ensemble.self_ms"] == 300 / 1e6 / 2
    assert out["pipeline.focus_calls_per_trial"] == 1.0
    assert out["pipeline.stack_bytes_computed"] == 128
    assert out["cli.run_scenario.calls"] == 0.0  # never called: zero, no error


def test_tracer_wraps_the_attribute_each_caller_looks_up():
    original = ofdmsar.tf_filter.filter_gains
    symbols = np.ones((4, 4), dtype=complex)
    tracer = Tracer()
    tracer.install()
    try:
        assert ofdmsar.filter_gains is not original  # package re-export too
        ofdmsar.tf_filter.apply_tf_filter(symbols, symbols,
                                          ofdmsar.FilterSpec(kind="mf"))
    finally:
        tracer.uninstall()
    assert ofdmsar.tf_filter.filter_gains is original
    assert ofdmsar.filter_gains is original
    outer, inner = tracer.spans
    assert outer[2] == "tf_filter.apply_tf_filter" and outer[1] is None
    assert inner[2] == "tf_filter.filter_gains" and inner[1] == outer[0]
    assert inner[5] == 16 and inner[6] == 16 * 16


def test_adopt_renumbers_spans_from_another_process():
    tracer = Tracer()
    tracer.adopt([span(0, None, 0, 5, "cli.main")])
    tracer.adopt([span(0, None, 6, 9, "cli.main"), span(1, 0, 7, 8)])
    assert [s[:2] for s in tracer.spans] == [[0, None], [1, None], [2, 1]]
