"""Run the ``fflv`` command with calibration samples between claims.

    PYTHONPATH=src python3 perfbench/paced_cli.py verify suite --json

The command's stdout and exit code are unchanged.  Each ``verify_*``
function, wherever ``fflv.verify`` binds it, is wrapped to take a
calibration sample (see ``pace.py``) when ``GAP_S`` of work has passed and to
time the claim.  The samples and the claims' (start, end) times go to stderr
as one line starting with ``perfbench-pace ``.  A claim function that a later
change renames or calls another way is simply not wrapped; ``run.py`` then
falls back to the samples it takes around the whole command.
"""

import functools
import json
import sys
import time

import fflv.cli
import fflv.verify
from pace import Pace

PACE_MARKER = "perfbench-pace "

pace = Pace()
claims = []


def _paced(fn):
    @functools.wraps(fn)
    def paced(*args, **kwargs):
        pace.tick()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            claims.append((t0, time.perf_counter()))

    return paced


if __name__ == "__main__":
    for name in ("verify_main", "verify_fundamental", "verify_word_counts", "verify_dyck_correspondence"):
        if callable(getattr(fflv.verify, name, None)):
            setattr(fflv.verify, name, _paced(getattr(fflv.verify, name)))
    pace.sample()
    code = 0
    try:
        fflv.cli.main()
    except SystemExit as exc:
        code = exc.code
    pace.sample()
    sys.stdout.flush()
    samples = list(zip(pace.starts, pace.ends))
    print(PACE_MARKER + json.dumps({"samples": samples, "claims": claims}), file=sys.stderr)
    sys.exit(code)
