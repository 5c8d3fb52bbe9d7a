"""Run the ofdmsar CLI with span tracing; write the spans as JSON on exit.

Usage: python traced_cli.py SPANS_JSON [ofdmsar CLI arguments...]

The ``ofdmsar`` package must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).  The exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path = Path(sys.argv[1])
    import ofdmsar.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = ofdmsar.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
