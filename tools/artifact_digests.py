"""Print the sha256 of every artifact the reference scenarios write.

    python tools/artifact_digests.py [scenario.json ...]

runs each scenario through the ofdmsar command line at --seed 0 and at
--seed 3 and prints one line per artifact, `<sha256>  <scenario>/<seed>/
<file>`.  With no argument it runs scenarios/*.json, the README's JSON
scenario and perfbench's cli-pilot scenario (workloads.pilot_scenario(),
read only: no bytecode is written there).  Two checkouts that print the
same lines write the same bytes.  The program is imported from the
checkout's src, without an install or PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from ofdmsar.cli import main as run_cli  # noqa: E402

SEEDS = (0, 3)


def reference_scenarios(work: Path) -> list[Path]:
    """The checked-in scenarios, then the README's first JSON block and
    perfbench's pilot scenario, written to work."""
    readme = (ROOT / "README.md").read_text()
    block = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S)[0]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import pilot_scenario
    (work / "readme.json").write_text(block)
    (work / "cli_pilot.json").write_text(json.dumps(pilot_scenario()[0]))
    return (sorted((ROOT / "scenarios").glob("*.json"))
            + [work / "readme.json", work / "cli_pilot.json"])


def main(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = [Path(arg) for arg in argv] or reference_scenarios(work)
        for i, config in enumerate(configs):
            for seed in SEEDS:
                out = work / f"out-{i}-{seed}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run_cli(["--config", str(config), "--out-dir",
                                    str(out), "--seed", str(seed)])
                if code:
                    sys.exit(f"{config} at seed {seed} exited {code}")
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {config.stem}/{seed}/{path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
