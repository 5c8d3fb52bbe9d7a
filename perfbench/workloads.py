"""The three benchmark workloads and their inputs.

Each workload runs operations in whole cycles (one cycle visits every
sweep point once), so every run has the same mix of operations.  Operation
i uses seed ``base + i``.  ``run`` is the timed part of an operation;
``check`` inspects its outputs afterwards, untimed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from scipy.constants import c as SPEED_OF_LIGHT

import checks

CLI_TIMEOUT_S = 150
REPEAT = -1  # operation index of a phase's closing repeat of operation 0


@dataclass
class Outcome:
    """What the untimed check learned about one operation."""

    problems: list[str]
    residual_max: float = math.nan
    nmse_dev: float = math.nan
    artifact_bytes: int = 0


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Workload:
    """Hooks shared by both kinds of workload."""

    repeats_first_op = False
    in_process = True  # False: operations run in child processes
    # Nearest-rank percentile reported as op_s_tail.  It leaves at least
    # ten operations beyond it in a 20 s seed-code run, or is 100 (the
    # maximum) where such a run has fewer than 20 operations; it stays fixed
    # so that every commit reports the same tail.
    tail_percentile = 100

    def start_phase(self, tracer=None):
        """Called before each measured phase, with its tracer if traced."""

    def close(self):
        """Remove whatever the workload wrote."""

    def manifest_extra(self, seed: int) -> dict:
        return {}


# Ensemble workloads ------------------------------------------------------

def critical_geometry(n: int, m: int, k_ref: int, t_sym: float = 0.013,
                      height_m: float = 500.0, df_hz: float = 60e3,
                      fc_hz: float = 3.5e9) -> dict:
    """Radar parameters whose azimuth sampling is critical at bin k_ref.

    The platform speed makes K_a T_sym^2 M = 1 at range bin k_ref, so an
    on-grid point target there focuses to a single pixel and the closed
    forms of ofdmsar.metrics apply.
    """
    rho_r = SPEED_OF_LIGHT / (2 * n * df_hz)
    wavelength = SPEED_OF_LIGHT / fc_hz
    speed = math.sqrt(wavelength * k_ref * rho_r / (2 * t_sym ** 2 * m))
    return {"fc_hz": fc_hz, "bandwidth_hz": 2e8, "subcarrier_spacing_hz": df_hz,
            "cp_duration_s": t_sym - 1 / df_hz, "aperture_time_s": m * t_sym,
            "n_subcarriers": n, "height_m": height_m, "speed_mps": speed}


class EnsembleWorkload(Workload):
    """One run_point_ensemble call plus point_target_report per operation."""

    def __init__(self, name: str, n: int, m: int, k_ref: int,
                 target_bin: tuple[int, int], sweep: tuple, trials: int,
                 tail_percentile: int = 100):
        self.name = name
        self.tail_percentile = tail_percentile
        self.params = {"n": n, "m": m, "k_ref": k_ref,
                       "target_bin": list(target_bin),
                       "sweep": [list(p) for p in sweep], "trials": trials,
                       "constellation": "qam256",
                       "rcmc_method": "windowed_sinc", "ka_mode": "reference",
                       "radar": critical_geometry(n, m, k_ref)}
        self.cycle = len(sweep)
        self.trials_per_op = trials

    def setup(self, seed: int):
        """Build the configs, scene and closed-form NMSE of every point."""
        from ofdmsar import (FilterSpec, PlatformGeometry, PointTarget,
                             RadarConfig, Scene, analytic_point_metrics,
                             chi_stats, make_qam, pipeline)
        self.pipeline = pipeline
        radar = dict(self.params["radar"])
        platform = PlatformGeometry(height_m=radar.pop("height_m"),
                                    speed_mps=radar.pop("speed_mps"))
        cfg = RadarConfig(platform=platform, **radar)
        k_bin, m_bin = self.params["target_bin"]
        r_bar = k_bin * cfg.range_pitch_m
        x = math.sqrt(r_bar ** 2 - platform.height_m ** 2)
        y = m_bin * platform.speed_mps * cfg.total_symbol_s
        self.scene = Scene(targets=(PointTarget(x_m=x, y_m=y),),
                           extent=(x - 100, x + 100, y - 100, y + 100))
        self.qam = make_qam(256)
        self.points = []
        for snr_db, kind in self.params["sweep"]:
            snr = 10.0 ** (snr_db / 10.0)
            cfg_n = cfg.with_noise(1.0 / snr, snr_in_linear=snr)
            spec = FilterSpec(kind=kind, snr_in_linear=snr)
            analytic = analytic_point_metrics(
                cfg_n, chi_stats(self.qam, spec), 1.0, cfg_n.noise_var)
            self.points.append((cfg_n, spec, analytic["nmse"]))

    def inputs_sha256(self, seed: int) -> str:
        return digest({"workload": self.name, "params": self.params,
                       "seed": seed})

    def run(self, i: int, seed: int):
        cfg_n, spec, _ = self.points[i % self.cycle]
        result = self.pipeline.run_point_ensemble(
            self.scene, cfg_n, self.qam, spec, self.trials_per_op, seed)
        return self.pipeline.point_target_report(result), result

    def check(self, i: int, raw) -> Outcome:
        report, result = raw
        problems, deviation = checks.check_ensemble(
            report, result, self.points[i % self.cycle][2])
        return Outcome(problems, residual_max=report.identity_residual,
                       nmse_dev=deviation)


# CLI workload ------------------------------------------------------------

def pilot_scenario(n_subcarriers: int = 1024, aperture_time_s: float = 2.0,
                   n_resource_blocks: int = 24, start_subcarrier: int = 100,
                   target_bin: tuple[int, int] = (150, 85), trials: int = 2,
                   snr_db: tuple = (0.0, 20.0)) -> tuple[dict, dict]:
    """An NR-like pilot-only scenario and what its artifacts must look like.

    30 kHz spacing with a quarter-symbol cyclic prefix; a 20-slot comb-4
    sounding reference decimates the 2 s aperture to M = 171 pilot symbols.
    QPSK, exact phase-ramp RCMC and per-range-bin K_a; every stage image
    plus the tf and ac grid dumps are written.
    """
    df = 30e3
    height, speed = 500.0, 30.0
    period = 20 * 14
    t_pilot = period * 1.25 / df
    m_pilot = round(aperture_time_s * df / 1.25) // period
    r_bar = target_bin[0] * SPEED_OF_LIGHT / (2 * n_subcarriers * df)
    x = math.sqrt(r_bar ** 2 - height ** 2)
    y = target_bin[1] * speed * t_pilot
    stages = ["tf", "rc", "rd", "rcmc", "ac"]
    doc = {
        "radar": {"fc_hz": 3.5e9, "bandwidth_hz": 1e8,
                  "subcarrier_spacing_hz": df, "cp_duration_s": 0.25 / df,
                  "aperture_time_s": aperture_time_s,
                  "n_subcarriers": n_subcarriers,
                  "platform": {"height_m": height, "speed_mps": speed}},
        "scene": {"targets": [{"x": x, "y": y}],
                  "extent": [x - 100, x + 100, y - 100, y + 100]},
        "snr_in_db": list(snr_db), "filter": {"kind": "all"},
        "mode": "pilot_only",
        "srs": {"periodicity_slots": 20, "symbols_per_slot": 14,
                "comb_spacing": 4, "n_resource_blocks": n_resource_blocks,
                "start_subcarrier": start_subcarrier},
        "trials": trials, "seed": 0, "constellation": "qpsk",
        "rcmc": {"method": "phase_ramp"}, "ka_mode": "per_range_bin",
        "outputs": {"images": stages, "grids": ["tf", "ac"]},
    }
    expect = {"images": stages, "grids": ["tf", "ac"],
              "points": len(snr_db) * 3, "shape": [n_subcarriers, m_pilot]}
    return doc, expect


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


class CliWorkload(Workload):
    """One ``python -m ofdmsar.cli`` run, in a fresh process, per operation.

    The closing operation of a measured phase repeats the first one's
    seed; its artifacts must match the first run's byte for byte.
    """

    repeats_first_op = True
    in_process = False
    cycle = 1

    def __init__(self, name: str, src: Path, work: Path):
        self.name = name
        self.work = work
        self.doc, self.expect = pilot_scenario()
        self.trials_per_op = self.doc["trials"] * self.expect["points"]
        self.launcher = Path(__file__).resolve().parent / "traced_cli.py"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.tracer = None
        self.first_dir: Optional[Path] = None
        self.first_digests: dict[str, str] = {}
        self._dirs = 0

    def setup(self, seed: int):
        """Write the scenario file."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "scenario.json"
        self.config.write_text(json.dumps(self.doc, indent=2))

    def inputs_sha256(self, seed: int) -> str:
        return digest({"workload": self.name, "config": self.doc,
                       "seed": seed})

    def start_phase(self, tracer=None):
        self.tracer = tracer
        if self.first_dir is not None:
            shutil.rmtree(self.first_dir, ignore_errors=True)
        self.first_dir = None
        self.first_digests = {}

    def run(self, i: int, seed: int):
        self._dirs += 1
        out_dir = self.work / f"op-{self._dirs}"
        args = ["--config", str(self.config), "--out-dir", str(out_dir),
                "--seed", str(seed)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ofdmsar.cli"] + args
        else:
            spans_path = out_dir.with_suffix(".spans.json")
            cmd = [sys.executable, str(self.launcher), str(spans_path)] + args
        proc = subprocess.run(cmd, env=self.env, cwd=self.work,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CLI_TIMEOUT_S)
        if self.tracer is not None and spans_path.is_file():
            self.tracer.adopt(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return proc.returncode, out_dir, proc.stderr

    def check(self, i: int, raw) -> Outcome:
        returncode, out_dir, stderr = raw
        problems = checks.check_cli_outputs(returncode, out_dir, self.expect)
        if returncode != 0:
            problems.append(stderr[-2000:])
        outcome = Outcome(problems)
        if out_dir.is_dir():
            outcome.artifact_bytes = sum(p.stat().st_size
                                         for p in out_dir.iterdir())
        if not problems:
            points = json.loads((out_dir / "metrics.json").read_text())["points"]
            outcome.residual_max = max(p["identity_residual"] for p in points)
        if self.first_dir is None:
            self.first_dir = out_dir
            if not problems:
                self.first_digests = artifact_digests(out_dir)
            return outcome
        if i == REPEAT:
            outcome.problems += checks.compare_artifacts(self.first_dir,
                                                         out_dir)
            shutil.rmtree(self.first_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        return outcome

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def manifest_extra(self, seed: int) -> dict:
        """Artifact digests at the base seed, to show drift between commits."""
        return {"artifact_sha256_at_seed": {"seed": seed,
                                            "files": self.first_digests}}


def make_workload(name: str, src: Path, work: Path):
    if name == "ens-small":
        sweep = tuple((snr, kind) for snr in (-20.0, 5.0, 20.0)
                      for kind in ("rf", "mf", "wf"))
        return EnsembleWorkload(name, 64, 64, 16, (16, 32), sweep, trials=32,
                                tail_percentile=80)
    if name == "ens-large":
        return EnsembleWorkload(name, 256, 512, 64, (64, 256),
                                ((5.0, "mf"), (5.0, "wf")), trials=50)
    if name == "cli-pilot":
        return CliWorkload(name, src, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ens-small", "ens-large", "cli-pilot")
