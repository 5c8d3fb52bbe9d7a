"""Output checks: every operation either passes all of them or fails.

An ensemble operation must return finite metrics, satisfy the NMSE
decomposition (identity_residual below the acceptance bound) and land
within a Monte-Carlo tolerance of the closed-form NMSE.  A CLI operation
must exit 0 and leave every requested artifact, each well formed, with a
strict-JSON metrics.json whose numbers are finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

IDENTITY_RESIDUAL_BOUND = 0.05  # acceptance criterion 1

# NMSE tolerance = NMSE_Z standard errors of the ensemble estimate, plus
# NMSE_MODEL_ALLOWANCE for the closed form itself, which assumes a unitary
# chain: the windowed-sinc RCMC is not exactly unitary and biases NMSE by
# 3.3% (wf, 5 dB) on the 256x512 grid of the seed code at any trial count.
NMSE_Z = 6.0
NMSE_MODEL_ALLOWANCE = 0.05

REPORT_FIELDS = ("rho_r_m", "rho_a_m", "measured_rho_r_m",
                 "measured_rho_a_m", "islr_db", "pel", "snr_out_db", "nmse",
                 "identity_residual")


def nmse_tolerance(mse: np.ndarray, noisy_peaks: np.ndarray) -> float:
    """Relative tolerance on NMSE = mean(mse) / mean(|peak|^2).

    The standard error of the ratio comes from the per-trial samples by
    the delta method, so it shrinks as 1/sqrt(trials).
    """
    trials = mse.size
    if trials < 2:
        return math.inf
    peak_sq = np.abs(noisy_peaks) ** 2
    u = mse / mse.mean() - peak_sq / peak_sq.mean()
    std_err = float(np.std(u, ddof=1)) / math.sqrt(trials)
    return NMSE_Z * std_err + NMSE_MODEL_ALLOWANCE


def check_report_values(values: dict) -> list[str]:
    """Finite metrics and the decomposition bound for one sweep point."""
    problems = [f"{key} is not finite: {values.get(key)!r}"
                for key in REPORT_FIELDS
                if not (isinstance(values.get(key), (int, float))
                        and math.isfinite(values[key]))]
    residual = values.get("identity_residual")
    if not problems and not residual < IDENTITY_RESIDUAL_BOUND:
        problems.append(f"identity_residual {residual} >= "
                        f"{IDENTITY_RESIDUAL_BOUND}")
    return problems


def check_ensemble(report, result, analytic_nmse: float) -> tuple[list[str],
                                                                  float]:
    """Problems with one ensemble point, and its |NMSE - analytic|/analytic."""
    values = {key: getattr(report, key) for key in REPORT_FIELDS}
    problems = check_report_values(values)
    deviation = abs(report.nmse - analytic_nmse) / analytic_nmse
    tolerance = nmse_tolerance(result.mse, result.noisy_peaks)
    if not deviation <= tolerance:
        problems.append(f"nmse {report.nmse} is {deviation:.4f} from the "
                        f"analytic {analytic_nmse}, tolerance {tolerance:.4f}")
    return problems, deviation


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _check_pgm(blob: bytes, shape: tuple[int, int]) -> list[str]:
    height, width = shape
    header = f"P5\n{width} {height}\n255\n".encode()
    if not blob.startswith(header):
        return [f"PGM header is not {header!r}"]
    if len(blob) != len(header) + width * height:
        return [f"PGM holds {len(blob)} bytes, expected "
                f"{len(header) + width * height}"]
    return []


def _check_grid(blob: bytes, shape: tuple[int, int], stage: str) -> list[str]:
    from ofdmsar.echo import grid_from_bytes
    from ofdmsar.errors import InvalidParameterError, StageError
    try:
        data, read_stage = grid_from_bytes(blob)
    except (InvalidParameterError, StageError) as exc:
        return [f"grid is malformed: {exc}"]
    if (data.shape, read_stage) != (shape, stage):
        return [f"grid holds a {data.shape} {read_stage!r} grid, expected "
                f"{shape} {stage!r}"]
    if not np.all(np.isfinite(data)):
        return ["grid holds non-finite samples"]
    return []


def _check_csv(text: str, header: str, rows: int,
               numeric_columns: tuple[int, ...]) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"CSV header is not {header!r}"]
    if len(lines) != rows + 1:
        return [f"CSV has {len(lines) - 1} rows, expected {rows}"]
    for line in lines[1:]:
        cells = line.split(",")
        try:
            if not all(math.isfinite(float(cells[i])) for i in numeric_columns):
                return [f"CSV row {line!r} is not finite"]
        except (ValueError, IndexError):
            return [f"CSV row {line!r} does not parse"]
    return []


def check_cli_outputs(returncode: int, out_dir: Path, expect: dict) -> list[str]:
    """Problems with one CLI run's exit code and its artifact directory.

    expect holds: images, grids (stage names), points (sweep points),
    shape (N, M of the focused grid).
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    shape = tuple(expect["shape"])
    wanted = (["metrics.json", "nmse_sweep.csv", "profile_range.csv",
               "profile_azimuth.csv"]
              + [f"image_{s}.pgm" for s in expect["images"]]
              + [f"grid_{s}.bin" for s in expect["grids"]])
    missing = [name for name in wanted if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]

    problems = []
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text(),
                             parse_constant=_reject_constant)
        points = metrics["points"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"metrics.json is not strict JSON with points: {exc}"]
    if len(points) != expect["points"]:
        problems.append(f"metrics.json has {len(points)} points, expected "
                        f"{expect['points']}")
    for i, point in enumerate(points):
        problems += [f"point {i}: {p}" for p in check_report_values(point)]

    problems += _check_csv((out_dir / "nmse_sweep.csv").read_text(),
                           "snr_db,filter,nmse,nmse_calibrated",
                           expect["points"], (0, 2, 3))
    problems += _check_csv((out_dir / "profile_range.csv").read_text(),
                           "bin,range_m,power_db", shape[0], (1, 2))
    problems += _check_csv((out_dir / "profile_azimuth.csv").read_text(),
                           "bin,azimuth_m,power_db", shape[1], (1, 2))
    for stage in expect["images"]:
        problems += [f"image_{stage}.pgm: {p}" for p in _check_pgm(
            (out_dir / f"image_{stage}.pgm").read_bytes(), shape)]
    for stage in expect["grids"]:
        problems += [f"grid_{stage}.bin: {p}" for p in _check_grid(
            (out_dir / f"grid_{stage}.bin").read_bytes(), shape, stage)]
    return problems


def compare_artifacts(first: Path, repeat: Path) -> list[str]:
    """Byte-for-byte equality of two artifact directories."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in repeat.iterdir()):
        return ["repeat run wrote a different set of artifacts"]
    return [f"{name} differs from the first run with the same seed"
            for name in names
            if (first / name).read_bytes() != (repeat / name).read_bytes()]
