"""The benchmark (perfbench/workloads.py) drives the package through its
public API; a change that breaks that use must fail here, not in a
benchmark run.  One operation of each cheap workload runs and passes the
benchmark's own output checks; ens-large only builds its inputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = 1


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling checks.py as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("checks", None)


@pytest.mark.parametrize("name", ["ens-small", "cli-pilot"])
def test_workload_operation_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.make_workload(name, ROOT / "src", tmp_path / "work")
    try:
        workload.setup(SEED)
        workload.start_phase()
        outcome = workload.check(0, workload.run(0, SEED))
    finally:
        workload.close()
    assert outcome.problems == []


def test_large_workload_builds_its_inputs(workloads, tmp_path):
    workload = workloads.make_workload("ens-large", ROOT / "src",
                                       tmp_path / "work")
    workload.setup(SEED)
    assert len(workload.points) == workload.cycle == 2
