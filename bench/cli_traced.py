"""Run one blaschkepick CLI command with the tracer installed.

Usage: python3 bench/cli_traced.py STATE_FILE COMMAND [ARGS ...]

Behaves like ``python3 -m blaschkepick COMMAND [ARGS ...]`` (same stdout,
stderr and exit code) and writes the tracer's aggregates and spans to
STATE_FILE as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    state_file, argv = sys.argv[1], sys.argv[2:]
    import blaschkepick.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(state_file).write_text(json.dumps(tracer.state()))


if __name__ == "__main__":
    sys.exit(main())
