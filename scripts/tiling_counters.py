"""Deterministic tiling-layer counters for one pass of the benchmark's
``words`` workload.

    python3 scripts/tiling_counters.py [--seed 1]

Runs every case of ``perfbench/workloads.py``'s ``words`` list once and
checks its output, as a benchmark pass does, with a profile hook on
``fflv/tiling.py`` that counts, without touching the library:

* ``dfs_nodes``: calls of the crossing search's node function
  ``NODE_FUNCTION`` (one per tile a path enters);
* ``crossings_found`` / ``crossings_kept``: what ``dual_crossings`` and
  ``reineke_filter`` return;
* ``peel_calls``, ``peel_layers``: ``peel_order`` calls and the layers they
  return;
* ``hrep_rows``: the rows ``lusztig_hrep`` returns.

Prints one JSON object.  The counts repeat exactly for a given seed.  A case
whose check fails is an error: its counts would describe a broken pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from fflv import tiling  # noqa: E402
import workloads  # noqa: E402

NODE_FUNCTION = "_extend_paths"


def count(seed: int) -> dict:
    counts = dict.fromkeys(
        ("dfs_nodes", "crossings_found", "crossings_kept", "peel_calls",
         "peel_layers", "hrep_rows"), 0
    )
    source = tiling.__file__

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename != source:
            return
        name = code.co_name
        if event == "call":
            if name == NODE_FUNCTION:
                counts["dfs_nodes"] += 1
            elif name == "peel_order":
                counts["peel_calls"] += 1
        elif event == "return" and arg is not None:
            if name == "dual_crossings":
                counts["crossings_found"] += len(arg)
            elif name == "reineke_filter":
                counts["crossings_kept"] += len(arg)
            elif name == "peel_order":
                counts["peel_layers"] += arg.num_layers
            elif name == "lusztig_hrep":
                counts["hrep_rows"] += len(arg.rows)

    cases = workloads.words(seed)
    failures = []
    sys.setprofile(hook)
    try:
        for case in cases:
            message = case.check(case.run())
            if message is not None:
                failures.append(f"{case.name}: {message}")
    finally:
        sys.setprofile(None)
    if failures:
        raise RuntimeError(f"{len(failures)} words case(s) failed: {failures[0]}")
    return {"seed": seed, "cases": len(cases), **counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args()
    result = count(args.seed)
    if result["dfs_nodes"] == 0:
        raise SystemExit(f"error: no calls of {NODE_FUNCTION!r} in {tiling.__file__}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
