"""Run the ``fflv`` command with per-layer tracing installed.

    PYTHONPATH=src python3 perfbench/traced_cli.py verify suite --json

The command's stdout and exit code are unchanged.  The pass summary (see
``tracer.Tracer.summary``) goes to stderr as one line starting with
``perfbench-trace ``.
"""

import json
import sys

import fflv.cli
from tracer import TRACE_MARKER, Tracer

tracer = Tracer()
tracer.install()
code = 0
try:
    fflv.cli.main()
except SystemExit as exc:
    code = exc.code
tracer.uninstall()
sys.stdout.flush()
print(TRACE_MARKER + json.dumps(tracer.summary()), file=sys.stderr)
sys.exit(code)
