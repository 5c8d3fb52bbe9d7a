from run import tail_value
from workloads import WORKLOADS, make_workload


def test_tail_is_the_nearest_rank_percentile():
    durations = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    assert tail_value(durations, 90) == 90.0
    assert tail_value(durations, 85) == 85.0
    assert tail_value([3.0, 1.0, 2.0], 100) == 3.0
    assert tail_value([float(i) for i in range(1, 26)], 60) == 15.0


def test_tail_percentile_is_fixed_per_workload(tmp_path):
    """The percentile is a property of the workload, not of the run length."""
    expected = {"ens-small": 80, "ens-large": 100, "cli-pilot": 100}
    assert {name: make_workload(name, tmp_path, tmp_path).tail_percentile
            for name in WORKLOADS} == expected


def test_ens_small_tail_leaves_ten_operations_beyond_it():
    # A 20 s seed-code ens-small run completes 63 to 90 operations.
    for n in range(50, 131):
        ordered = [float(i) for i in range(n)]
        value = tail_value(ordered, 80)
        assert sum(1 for d in ordered if d > value) >= 10


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json
    from pathlib import Path

    import layers
    from run import END_TO_END_UNITS
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.metric_units()
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
