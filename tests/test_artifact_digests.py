"""tools/artifact_digests.py prints the sha256 of every artifact."""

import hashlib
import importlib.util
from pathlib import Path

from ofdmsar.cli import main as run_cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "artifact_digests", ROOT / "tools" / "artifact_digests.py")
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def test_prints_each_artifacts_sha256_at_both_seeds(tmp_path, capsys):
    scenario = ROOT / "scenarios" / "desk_raster.json"
    artifact_digests.main([str(scenario)])
    printed = capsys.readouterr().out.splitlines()
    expected = []
    for seed in (0, 3):
        out = tmp_path / str(seed)
        assert run_cli(["--config", str(scenario), "--out-dir", str(out),
                        "--seed", str(seed)]) == 0
        expected += [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                     f"desk_raster/{seed}/{path.name}"
                     for path in sorted(out.iterdir())]
    capsys.readouterr()
    # metrics, sweep, two profiles and five stage images
    assert len(expected) == 2 * 9
    assert printed == expected
