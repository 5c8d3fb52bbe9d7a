import dataclasses
import json
import math

import pytest

import checks
from ofdmsar.cli import parse_config, run_scenario
from workloads import EnsembleWorkload, pilot_scenario


@pytest.fixture(scope="module")
def ensemble_op():
    wl = EnsembleWorkload("tiny", 16, 16, 4, (4, 8), ((5.0, "mf"),), trials=8)
    wl.setup(seed=0)
    return wl, wl.run(0, seed=1)


def test_ensemble_check_passes_seed_code(ensemble_op):
    wl, raw = ensemble_op
    outcome = wl.check(0, raw)
    assert outcome.problems == []
    assert 0 <= outcome.residual_max < checks.IDENTITY_RESIDUAL_BOUND


def test_ensemble_check_fails_nan_metric(ensemble_op):
    wl, (report, result) = ensemble_op
    broken = dataclasses.replace(report, islr_db=math.nan)
    problems = wl.check(0, (broken, result)).problems
    assert any("islr_db is not finite" in p for p in problems)


def test_ensemble_check_fails_nmse_far_from_closed_form(ensemble_op):
    wl, (report, result) = ensemble_op
    broken = dataclasses.replace(report, nmse=report.nmse * 3)
    problems = wl.check(0, (broken, result)).problems
    assert any("from the analytic" in p for p in problems)


def test_nmse_tolerance_shrinks_with_trials():
    import numpy as np
    rng = np.random.default_rng(0)
    mse = rng.exponential(size=4000)
    peaks = 1 + 0.1 * rng.standard_normal(4000)
    wide = checks.nmse_tolerance(mse[:100], peaks[:100])
    narrow = checks.nmse_tolerance(mse, peaks)
    allowance = checks.NMSE_MODEL_ALLOWANCE
    assert (wide - allowance) / (narrow - allowance) == pytest.approx(
        math.sqrt(40), rel=0.2)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    doc, expect = pilot_scenario(n_subcarriers=128, aperture_time_s=0.5,
                                 n_resource_blocks=4, start_subcarrier=16,
                                 target_bin=(20, 20), snr_db=(5.0,))
    out = tmp_path_factory.mktemp("cli") / "out"
    run_scenario(parse_config(json.dumps(doc)), out)
    return out, expect


def copy_dir(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_cli_check_passes_seed_code(cli_run):
    out, expect = cli_run
    assert checks.check_cli_outputs(0, out, expect) == []


def test_cli_check_fails_exit_code_and_missing_artifact(cli_run, tmp_path):
    out, expect = cli_run
    assert checks.check_cli_outputs(1, out, expect) == ["exit code 1"]
    broken = copy_dir(out, tmp_path / "b")
    (broken / "grid_ac.bin").unlink()
    assert "missing artifacts" in checks.check_cli_outputs(0, broken,
                                                           expect)[0]


def test_cli_check_fails_nan_metric(cli_run, tmp_path):
    out, expect = cli_run
    broken = copy_dir(out, tmp_path / "b")
    doc = json.loads((broken / "metrics.json").read_text())
    doc["points"][0]["pel"] = math.nan
    (broken / "metrics.json").write_text(json.dumps(doc))  # writes NaN
    problems = checks.check_cli_outputs(0, broken, expect)
    assert any("not strict JSON" in p for p in problems)


@pytest.mark.parametrize("name, corrupt", [
    ("image_ac.pgm", lambda b: b[:-1]),
    ("image_rc.pgm", lambda b: b"P2" + b[2:]),
    ("grid_tf.bin", lambda b: b"XSAR" + b[4:]),
    ("grid_ac.bin", lambda b: b[:40] + b"\x00\x00\x00\x00\x00\x00\xf8\x7f"
     + b[48:]),  # one sample becomes NaN
    ("nmse_sweep.csv", lambda b: b.replace(b",mf,", b",mf,nan,", 1)),
    ("profile_range.csv", lambda b: b.rsplit(b"\n", 2)[0] + b"\n"),
])
def test_cli_check_fails_corrupted_artifact(cli_run, tmp_path, name, corrupt):
    out, expect = cli_run
    broken = copy_dir(out, tmp_path / "b")
    (broken / name).write_bytes(corrupt((broken / name).read_bytes()))
    assert checks.check_cli_outputs(0, broken, expect) != []


def test_repeat_run_must_match_byte_for_byte(cli_run, tmp_path):
    out, _ = cli_run
    same = copy_dir(out, tmp_path / "same")
    assert checks.compare_artifacts(out, same) == []
    blob = bytearray((same / "image_ac.pgm").read_bytes())
    blob[-1] ^= 1
    (same / "image_ac.pgm").write_bytes(bytes(blob))
    assert checks.compare_artifacts(out, same) == [
        "image_ac.pgm differs from the first run with the same seed"]
