"""Deterministic layer counters for one pass of a benchmark workload.

    python3 scripts/layer_counters.py --workload suite|words|crystal [--seed 1]

Runs the workload once and checks every case, as a benchmark pass does:
``suite`` is one default ``run_suite()``, whatever the seed; ``words`` and
``crystal`` are the case lists of ``perfbench/workloads.py``.  A profile
hook on the modules ``WORKLOADS`` lists counts, by function name and
without touching the library, the calls of a function or a size read from
what it returns.

Prints one JSON object.  The counts repeat exactly for a given seed.  A case
whose check fails is an error: its counts would describe a broken pass.  So
is a counter naming a function that no module of its workload defines, as
after a rename, and a first counter that reads 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from fflv import crystal, polytope, roots, tiling, verify  # noqa: E402
import workloads  # noqa: E402


def _suite(seed: int) -> list[workloads.Case]:
    def check(reports) -> str | None:
        failed = [str(r) for r in reports if not r.passed]
        return f"{len(failed)} report(s) failed: {failed[0]}" if failed else None

    return [workloads.Case("run_suite", verify.run_suite, check)]


class Workload(NamedTuple):
    cases: Callable[[int], list]
    modules: tuple
    # counter -> (function name, None to count its calls, or a reader of
    # what it returns); the first counter must not read 0
    counters: dict


WORKLOADS = {
    "suite": Workload(_suite, (polytope, tiling, roots), {
        # _search returns (points, search nodes) for lattice_points
        "enum_nodes": ("_search", lambda found: found[1]),
        "enumerations": ("lattice_points", None),
        "points": ("lattice_points", len),
        "plans": ("_plan", None),
        # _box returns (order, bounds, columns); a bound-0 coordinate gets no search level
        "coordinates": ("_box", lambda box: len(box[1])),
        "zero_bounds": ("_box", lambda box: box[1].count(0)),
        "sumset_calls": ("sumset", None),
        "contains_calls": ("__contains__", None),  # PointSet lookups
        "lusztig_points_calls": ("lusztig_points", None),
        # lusztig_hrep and lusztig_points build their H-descriptions in _hrep
        "lusztig_hrep_calls": ("_hrep", None),
        "reduced_words_calls": ("all_reduced_words", None),
        "tilings": ("build_tiling", None),
        "crossing_searches": ("dual_crossings", None),
        "crossing_nodes": ("_extend_paths", None),  # one per tile a crossing path enters
        "filter_calls": ("reineke_filter", None),
        "crossings_kept": ("reineke_filter", len),
    }),
    "words": Workload(workloads.words, (tiling,), {
        "dfs_nodes": ("_extend_paths", None),  # one per tile a crossing path enters
        "crossings_found": ("dual_crossings", len),
        "crossings_kept": ("reineke_filter", len),
        "peel_calls": ("peel_order", None),
        "peel_layers": ("peel_order", lambda layer: max(layer.values())),
        "hrep_rows": ("_hrep", lambda P: len(P.rows)),
    }),
    "crystal": Workload(workloads.crystal_cases, (crystal, roots), {
        # _crystals returns (crystals, nodes visited, complete)
        "search_nodes": ("_crystals", lambda found: found[1]),
        "pairings": ("_crystals", lambda found: len(found[0])),
        "iso_report_calls": ("check_oracle_iso", None),
        "local_axiom_calls": ("check_local_axioms", None),
        "weight_calls": ("_weight_of_point", None),
        "move_calls": ("_moves", None),
        "candidates": ("_moves", len),
    }),
}


def _defined(modules) -> set[str]:
    """The names of the functions, methods and nested functions whose
    definitions the modules' source files hold."""
    names = set()
    for module in modules:
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read(), filename=module.__file__)
        names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
    return names


def count(workload: str, seed: int = workloads.DEFAULT_SEED) -> dict:
    """The counters of one checked pass; ``RuntimeError`` if a case fails,
    ``ValueError`` before any case runs if a counter names a function that
    no module of the workload defines."""
    spec = WORKLOADS[workload]
    unknown = sorted({name for name, _ in spec.counters.values()} - _defined(spec.modules))
    if unknown:
        raise ValueError(f"{workload} counters name no function of its modules: {', '.join(unknown)}")
    counts = dict.fromkeys(spec.counters, 0)
    calls: dict[str, list] = {}
    returns: dict[str, list] = {}
    for key, (name, read) in spec.counters.items():
        if read is None:
            calls.setdefault(name, []).append(key)
        else:
            returns.setdefault(name, []).append((key, read))
    sources = {module.__file__ for module in spec.modules}

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in sources:
            return
        if event == "call":
            for key in calls.get(code.co_name, ()):
                counts[key] += 1
        elif event == "return" and arg is not None:
            for key, read in returns.get(code.co_name, ()):
                counts[key] += read(arg)

    cases = spec.cases(seed)
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
        raise RuntimeError(f"{len(failures)} {workload} case(s) failed: {failures[0]}")
    return {"seed": seed, "cases": len(cases), **counts}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    result = count(args.workload, args.seed)
    first = next(iter(WORKLOADS[args.workload].counters))
    if result[first] == 0:
        raise SystemExit(f"error: {first} reads 0 on the {args.workload} workload")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
