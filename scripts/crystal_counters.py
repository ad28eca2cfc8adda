"""Deterministic crystal-layer counters for one pass of the benchmark's
``crystal`` workload.

    python3 scripts/crystal_counters.py [--seed 1]

Runs every case of ``perfbench/workloads.py``'s ``crystal`` list once and
checks its output, as a benchmark pass does, with a profile hook on
``fflv/crystal.py`` and ``fflv/roots.py`` that counts, without touching the
library:

* ``search_nodes``, ``pairings``: the nodes the exhaustive search engine
  visited and the complete pairings it assembled (each one a crystal by
  construction), summed over the ``(graphs, nodes, complete)`` tuples
  that ``_crystals`` returns;
* ``iso_report_calls``, ``local_axiom_calls``: ``_iso_report`` and
  ``check_local_axioms`` calls, from greedy selections, forced fixed-k
  graphs and the workload's own checks;
* ``weight_calls``: ``weight_of_point`` calls;
* ``move_calls``: ``_moves`` calls (the PB candidate moves at one point);
* ``candidates``: the ``CandidateEdge``s those calls return.

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

from fflv import crystal, roots  # noqa: E402
import workloads  # noqa: E402


def count(seed: int) -> dict:
    counts = dict.fromkeys(
        ("search_nodes", "pairings", "iso_report_calls", "local_axiom_calls",
         "weight_calls", "move_calls", "candidates"), 0
    )
    sources = {crystal.__file__, roots.__file__}

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in sources:
            return
        name = code.co_name
        if event == "return":
            if name == "_moves":
                counts["candidates"] += len(arg)
            elif name == "_crystals":
                counts["search_nodes"] += arg[1]
                counts["pairings"] += len(arg[0])
            return
        if event != "call":
            return
        if name == "_iso_report":
            counts["iso_report_calls"] += 1
        elif name == "check_local_axioms":
            counts["local_axiom_calls"] += 1
        elif name == "weight_of_point":
            counts["weight_calls"] += 1
        elif name == "_moves":
            counts["move_calls"] += 1

    cases = workloads.crystal_cases(seed)
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
        raise RuntimeError(f"{len(failures)} crystal case(s) failed: {failures[0]}")
    return {"seed": seed, "cases": len(cases), **counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args()
    result = count(args.seed)
    if result["search_nodes"] == 0:
        raise SystemExit(f"error: no search nodes counted in {crystal.__file__}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
