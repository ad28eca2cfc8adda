"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps every public function of the ``fflv`` layer
modules and replaces every module-level binding of it in the package: the
modules import names directly (``fflv.fflv`` binds ``lattice_points``,
``fflv.crystal`` binds ``fflv_points``, ...), so patching only the defining
module would leave the inner calls untraced.  Each call records a span
(function, parent span, start ns, end ns); spans are held in memory and
summarized when the pass ends (``traced_cli.py`` writes the summary out).
A layer function's self time is its span minus the time its child spans
cover.

Counters come from the arguments and results of a few boundary calls.  A
function that a later change deletes or renames is reported as absent
(``calls`` and ``self_s`` read 0) instead of failing the run; so is a
counter whose observer no longer understands the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

TRACE_MARKER = "perfbench-trace "  # prefix of the summary line traced_cli.py writes

LAYERS = ("roots", "polytope", "fflv", "tiling", "crystal", "verify", "cli")

# (layer, function) pairs reported as .calls / .self_s, with the end-to-end
# metric and workload each one should move.
FUNCTIONS = (
    ("polytope", "lattice_points", "suite.wall_s (dominant); words.wall_s; crystal.wall_s"),
    ("polytope", "lattice_points_auto", "suite.wall_s; words.wall_s"),
    ("polytope", "sumset", "suite.wall_s (main claims)"),
    ("fflv", "fflv_points", "crystal.wall_s (the call count); suite.wall_s"),
    ("fflv", "fflv_hrep", "crystal.wall_s"),
    ("tiling", "build_tiling", "words.wall_s"),
    ("tiling", "peel_order", "words.wall_s"),
    ("tiling", "dual_crossings", "words.wall_s"),
    ("tiling", "reineke_filter", "words.wall_s"),
    ("tiling", "crossing_functional", "words.wall_s"),
    ("tiling", "lusztig_hrep", "words.wall_s"),
    ("tiling", "lusztig_points", "words.wall_s; suite.wall_s"),
    ("crystal", "candidate_edges", "crystal.wall_s"),
    ("crystal", "candidate_map", "crystal.wall_s"),
    ("crystal", "check_local_axioms", "crystal.wall_s"),
    ("crystal", "check_oracle_iso", "crystal.wall_s"),
    ("crystal", "word_oracle", "crystal.wall_s"),
    ("crystal", "conjecture_search", "crystal.wall_s"),
    ("verify", "verify_main", "suite.wall_s"),
    ("verify", "verify_fundamental", "suite.wall_s"),
    ("verify", "verify_word_counts", "suite.wall_s"),
    ("verify", "verify_dyck_correspondence", "suite.wall_s"),
    ("cli", "dispatch", "suite.wall_s and suite.setup_s"),
)

# Counters and ratios: (name, unit, better, moves).  The deterministic ones
# repeat exactly between runs of one program on one seed.
COUNTERS = (
    ("polytope.escalation_rounds", "count", "lower", "suite.wall_s"),
    ("polytope.box_sum", "count", "lower", "suite.wall_s; words.wall_s"),
    ("polytope.points_enumerated", "count", "lower", "suite.wall_s; crystal.wall_s"),
    ("polytope.points_returned", "count", "lower", "crystal.wall_s; suite.wall_s"),
    ("polytope.enum_yield", "ratio", "higher", "suite.wall_s"),
    ("polytope.sumset.pairs", "count", "lower", "suite.wall_s"),
    ("polytope.sumset.distinct", "count", "lower", "suite.wall_s; suite.peak_rss_mb"),
    ("polytope.sumset_yield", "ratio", "higher", "suite.wall_s"),
    ("tiling.crossings_found", "count", "lower", "words.wall_s"),
    ("tiling.crossings_kept", "count", "lower", "words.wall_s"),
    ("tiling.filter_yield", "ratio", "higher", "words.wall_s"),
    ("tiling.hrep_rows", "count", "lower", "words.wall_s"),
    ("crystal.candidates", "count", "lower", "crystal.wall_s"),
    ("crystal.selections", "count", "lower", "crystal.wall_s"),
    ("crystal.valid_graphs", "count", "higher", "crystal.wall_s"),
    ("crystal.search_yield", "ratio", "higher", "crystal.wall_s"),
    ("crystal.search_nodes", "count", "lower", "crystal.wall_s"),
    ("verify.claims", "count", "higher", "suite.wall_s"),
    ("verify.claims_failed", "count", "lower", "suite.wall_s"),
)

DETERMINISTIC = (
    "polytope.points_returned",
    "tiling.hrep_rows",
    "tiling.crossings_found",
    "tiling.crossings_kept",
    "crystal.candidates",
    "crystal.selections",
    "crystal.valid_graphs",
)


# qualified function -> (counters it feeds, values from (bound arguments, result))
OBSERVERS = {
    "polytope.lattice_points": (
        ("polytope.box_sum", "polytope.points_enumerated"),
        lambda a, r: (a["box_bound"], len(r)),
    ),
    "polytope.sumset": (
        ("polytope.sumset.pairs", "polytope.sumset.distinct"),
        lambda a, r: (len(a["A"]) * len(a["B"]), len(r)),
    ),
    "fflv.fflv_points": (("polytope.points_returned",), lambda a, r: (len(r),)),
    "tiling.lusztig_points": (("polytope.points_returned",), lambda a, r: (len(r),)),
    "tiling.dual_crossings": (("tiling.crossings_found",), lambda a, r: (len(r),)),
    "tiling.reineke_filter": (("tiling.crossings_kept",), lambda a, r: (len(r),)),
    "tiling.lusztig_hrep": (("tiling.hrep_rows",), lambda a, r: (len(r.rows),)),
    "crystal.candidate_edges": (("crystal.candidates",), lambda a, r: (len(r),)),
    "crystal.conjecture_search": (
        ("crystal.selections", "crystal.valid_graphs", "crystal.search_nodes"),
        lambda a, r: (r.selections, len(r.graphs), r.nodes),
    ),
}
for _claim in ("main", "fundamental", "word_counts", "dyck_correspondence"):
    OBSERVERS[f"verify.verify_{_claim}"] = (
        ("verify.claims", "verify.claims_failed"),
        lambda a, r: (1, int(not r.passed)),
    )

# ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "polytope.enum_yield": ("polytope.points_returned", "polytope.points_enumerated"),
    "polytope.sumset_yield": ("polytope.sumset.distinct", "polytope.sumset.pairs"),
    "tiling.filter_yield": ("tiling.crossings_kept", "tiling.crossings_found"),
    "crystal.search_yield": ("crystal.valid_graphs", "crystal.selections"),
}


class Tracer:
    """Spans of wrapped calls, held in memory as parallel arrays.

    Span ``i`` is function ``names[fn[i]]``, called from span ``parent[i]``
    (-1 at top level), running from ``start[i]`` to ``end[i]`` (ns).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self.broken: set[str] = set()  # counters whose observer failed
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        observer = OBSERVERS.get(qualname)
        sig = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observer is not None:
                self._record(observer, sig, args, kwargs, result)
            return result

        return traced

    def _record(self, observer, sig, args, kwargs, result) -> None:
        names, extract = observer
        try:
            values = extract(sig.bind(*args, **kwargs).arguments, result)
        except (KeyError, AttributeError, TypeError):
            self.broken.update(names)
            return
        for name, value in zip(names, values):
            self.counters[name] = self.counters.get(name, 0) + value

    def install(self) -> None:
        """Start a fresh trace: wrap each public function of every layer
        module, everywhere it is bound."""
        for spans in (self.fn, self.parent, self.start, self.end):
            del spans[:]
        self.names.clear()
        self.counters.clear()
        self.broken.clear()
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"fflv.{layer}")
            except ImportError:  # a layer a later change removed
                continue
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "fflv" or modname.startswith("fflv."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patches.append((mod, name, obj))
                        setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-function calls and self time, top-level coverage and counters."""
        n = len(self.fn)
        child_ns = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        covered_ns = 0
        auto_id = _index(self.names, "polytope.lattice_points_auto")
        lp_id = _index(self.names, "polytope.lattice_points")
        escalations = 0
        for i in range(n):
            f, parent, span = self.fn[i], self.parent[i], self.end[i] - self.start[i]
            calls[f] += 1
            self_ns[f] += span - child_ns[i]
            if parent < 0:
                covered_ns += span
            elif f == lp_id and self.fn[parent] == auto_id:
                escalations += 1
        # every lattice_points_auto call enumerates once before it escalates
        escalations -= calls[auto_id] if auto_id >= 0 else 0
        return {
            "calls": {q: c for q, c in zip(self.names, calls) if c},
            "self_s": {q: t / 1e9 for q, t, c in zip(self.names, self_ns, calls) if c},
            "covered_s": covered_ns / 1e9,
            "counters": {**self.counters, "polytope.escalation_rounds": escalations},
            "traced": sorted(self.names),
            "broken": sorted(self.broken),
        }


def _index(names: list[str], name: str) -> int:
    return names.index(name) if name in names else -1


def layer_metrics(summary: dict) -> tuple[dict, list[str]]:
    """Flatten a pass summary into per-layer metric values.

    Returns ``(values, absent)``; an absent metric reads 0 in ``values``.
    """
    values: dict[str, float] = {}
    absent: list[str] = []
    traced = set(summary["traced"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            (v for k, v in summary["self_s"].items() if k.split(".")[0] == layer), 0.0
        )
    for layer, fn, _ in FUNCTIONS:
        key = f"{layer}.{fn}"
        values[f"{key}.calls"] = summary["calls"].get(key, 0)
        values[f"{key}.self_s"] = summary["self_s"].get(key, 0.0)
        if key not in traced:
            absent += [f"{key}.calls", f"{key}.self_s"]
    broken = set(summary["broken"])
    for name, *_ in COUNTERS:
        if name in RATIOS:
            num, den = (summary["counters"].get(c, 0) for c in RATIOS[name])
            values[name] = num / den if den else 0.0
            if broken & set(RATIOS[name]):
                absent.append(name)
        else:
            values[name] = summary["counters"].get(name, 0)
            if name in broken:
                absent.append(name)
    if "polytope.lattice_points_auto" not in traced:
        absent.append("polytope.escalation_rounds")
    return values, absent
