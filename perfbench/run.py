"""ofdmsar benchmark: Monte-Carlo throughput, CLI wall time, per-layer cost.

    python3 perfbench/run.py --workload ens-small --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload cli-pilot --seed 1 --trace 1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One process drives the load in a closed loop: each
operation starts when the previous one has finished and been checked.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it spends half the time untraced and half traced and reports
the per-layer metrics (see layers.py) plus the tracing overhead.  The last
stdout line is a JSON object with correct/attempted/failed/metrics; the
numbers, the run manifest and any failures are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import REPEAT, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
WARMUP_SEED_OFFSET = 1_000_000
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ofdmsar; "
                "print(time.perf_counter() - t)")
END_TO_END_UNITS = {"trials_per_s": "trials/s", "op_s_p50": "s",
                    "op_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed and kept beside the end-to-end metrics, but not bounded: they are
# zero on correct code or move with the seed more than any bound allows.
FIGURE_UNITS = {"op_s_tail_percentile": "percentile", "operations": "count",
                "error_rate": "ratio", "identity_residual_max": "ratio",
                "nmse_vs_analytic": "ratio"}
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "NUMEXPR_", "VECLIB_",
                       "BLIS_", "GOTO_")


@dataclass
class Record:
    """One measured operation."""

    duration_s: float
    trials: int
    outcome: workloads.Outcome


@dataclass
class Phase:
    records: list = field(default_factory=list)

    @property
    def durations(self) -> list[float]:
        return [r.duration_s for r in self.records]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.outcome.problems)


def tail_value(durations: list[float], percentile: int) -> float:
    """Nearest-rank `percentile` of the operation times.

    The percentile is fixed per workload (Workload.tail_percentile), so
    the tail means the same on every commit however many operations a run
    completes.
    """
    ordered = sorted(durations)
    return ordered[math.ceil(percentile * len(ordered) / 100) - 1]


def run_one(wl, i: int, seed: int) -> Record:
    t0 = time.perf_counter()
    try:
        raw = wl.run(i, seed)
    except Exception as exc:  # an operation that raises counts as failed
        return Record(time.perf_counter() - t0, 0,
                      workloads.Outcome([f"raised {exc!r}"]))
    duration = time.perf_counter() - t0
    try:
        outcome = wl.check(i, raw)
    except Exception as exc:  # so does one whose output cannot be checked
        outcome = workloads.Outcome([f"check raised {exc!r}"])
    trials = 0 if outcome.problems else wl.trials_per_op
    return Record(duration, trials, outcome)


def measure(wl, seconds: float, base_seed: int, tracer=None) -> Phase:
    """Whole cycles of operations until `seconds` have passed."""
    wl.start_phase(tracer)
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        for _ in range(wl.cycle):
            phase.records.append(run_one(wl, i, base_seed + i))
            i += 1
    if wl.repeats_first_op:
        phase.records.append(run_one(wl, REPEAT, base_seed))
    return phase


def import_seconds(src: Path) -> float:
    """Median time to import ofdmsar in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_seconds(wl, seed: int) -> float:
    """Median of repeated set-ups: inputs plus one warm-up operation.

    The warm-up is not counted as an operation; a broken program shows in
    the measured operations instead.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(seed)
        run_one(wl, 0, seed + WARMUP_SEED_OFFSET)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl, phase: Phase, setup_s: float) -> tuple[dict, dict]:
    """Reported metrics, and the extra figures printed beside them."""
    durations = phase.durations
    q = wl.tail_percentile
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "trials_per_s": sum(r.trials for r in phase.records) / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_value(durations, q),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"op_s_tail_percentile": q, "operations": len(durations),
             **check_figures(phase)}
    return metrics, extra


def check_figures(phase: Phase) -> dict:
    def worst(values):
        finite = [v for v in values if not math.isnan(v)]
        return max(finite) if finite else 0.0
    outcomes = [r.outcome for r in phase.records]
    return {
        "error_rate": phase.failed / len(phase.records),
        "identity_residual_max": worst(o.residual_max for o in outcomes),
        "nmse_vs_analytic": worst(o.nmse_dev for o in outcomes),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(wl, args, samples: dict) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_ENV_PREFIXES)},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": wl.inputs_sha256(args.seed),
        "samples": samples,
    }


def print_table(workload: str, metrics: dict, units: dict, notes: dict):
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{workload:10s} {name:44s} {value:>14.6g} {units[name]:10s} "
              f"{note}")


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import ofdmsar
    if Path(ofdmsar.__file__).resolve().parent != SRC / "ofdmsar":
        print(f"error: imported ofdmsar from {ofdmsar.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wl = workloads.make_workload(args.workload, SRC,
                                 OUT / f"work-{args.workload}-{os.getpid()}")
    try:
        # CLI operations pay their imports in every child process.
        imports = import_seconds(SRC) if wl.in_process else 0.0
        setup_s = imports + setup_seconds(wl, args.seed)
        samples = {"setup_repeats": SETUP_REPEATS,
                   "import_probes": SETUP_REPEATS if wl.in_process else 0}
        if args.trace:
            half = args.seconds / 2.0
            plain = measure(wl, half, args.seed)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, half, args.seed, tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
            metrics = layers.span_metrics(tracer.spans, len(traced.records))
            metrics["cli.artifact_bytes"] = statistics.mean(
                r.outcome.artifact_bytes for r in traced.records)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced.durations)
                / statistics.median(plain.durations) - 1.0)
            merged = Phase(plain.records + traced.records)
            metrics.update({f"check.{k}": v
                            for k, v in check_figures(merged).items()})
            units = layers.metric_units()
            metrics = {name: metrics[name] for name in units}
            notes = {name: f"moves {layers.expected_move(name)}"
                     for name in units}
            samples.update(operations_untraced=len(plain.records),
                           operations_traced=len(traced.records),
                           spans=len(tracer.spans))
            (OUT / f"{wl.name}-seed{args.seed}-spans.json").write_text(
                json.dumps(tracer.spans))
            extra = {}
        else:
            phases = [measure(wl, args.seconds, args.seed)]
            metrics, extra = end_to_end(wl, phases[0], setup_s)
            units = END_TO_END_UNITS
            notes = {"op_s_tail": f"p{extra['op_s_tail_percentile']} of "
                                  f"{extra['operations']} operations",
                     "peak_rss_mb": ("" if wl.in_process
                                     else "largest CLI child process")}
            samples.update(operations=extra["operations"],
                           op_s_tail_percentile=extra["op_s_tail_percentile"])
        run_manifest = manifest(wl, args, samples)
        run_manifest.update(wl.manifest_extra(args.seed))
    finally:
        wl.close()

    records = [r for phase in phases for r in phase.records]
    failed = sum(1 for r in records if r.outcome.problems)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    failures = [p for r in records for p in r.outcome.problems][:20]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"result": result, "figures": extra, "manifest": run_manifest,
         "failures": failures,
         "op_durations_s": [phase.durations for phase in phases]}, indent=1))

    print_table(wl.name, metrics, units, notes)
    print_table(wl.name, extra, FIGURE_UNITS,
                {"nmse_vs_analytic": "ens-* only"})
    for problem in failures:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ofdmsar" / "__init__.py").is_file():
        print(f"error: no ofdmsar sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
