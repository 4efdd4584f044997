"""Run one genprob CLI command under the tracer.

    python3 bench/traced_cli.py SUMMARY.json <genprob arguments...>

Installs the tracer, runs the command exactly as ``python -m genprob.cli``
would, and writes the tracer summary to SUMMARY.json when the command exits.
The exit code and stdout are the command's own.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> None:
    summary_path, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from genprob.cli import main as cli

    try:
        with tracer.span("cli.command"):
            cli(args, prog_name="genprob")
    finally:
        summary_path.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    main()
