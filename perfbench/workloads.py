"""The benchmark's in-process workloads: fixed case lists, each case with its check.

Cases call the library through module attributes (``tiling.lusztig_points``
rather than an imported name), so a traced pass sees every call the
benchmark makes.  Expected values are computed or loaded while the case list
is built, which is set-up time, so a check is a plain comparison.

``suite`` is not here: it runs the ``fflv`` command in a subprocess (see
``run.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from typing import Any, Callable, NamedTuple

from fflv import crystal, fflv, roots, tiling

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

DEFAULT_SEED = 1


class Case(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure message, or None when correct


def _expect(label: str, want) -> Callable[[Any], str | None]:
    return lambda got: None if got == want else f"{label}: got {got}, want {want}"


def _word_name(word) -> str:
    return ",".join(map(str, word))


# --- words -----------------------------------------------------------------
# Tiling-heavy by design: H-descriptions of random words at n = 5..7 (no
# enumeration), then Lusztig point counts of random words at n = 4 and of all
# 16 words at n = 3.  Fundamental weights keep the n = 4 enumeration cheap and
# its cost spread narrow across seeds.  Random words (not only i_k) also make
# an enumeration order tuned to i_k show up here.
HREP_WORDS = {5: 40, 6: 40, 7: 40}
COUNT_WORDS_N4 = 30
N3_WEIGHTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))


def words_inputs(seed: int) -> tuple[list, list]:
    """The generated words: (hrep words by n, (word, weight) count pairs)."""
    rng = random.Random(seed)
    hrep = [
        (n, roots.random_reduced_word(n, rng))
        for n, count in HREP_WORDS.items()
        for _ in range(count)
    ]
    counts = [
        (roots.random_reduced_word(4, rng), roots.fundamental_weight(4, k))
        for _ in range(COUNT_WORDS_N4)
        for k in range(1, 5)
    ]
    counts += [(w, lam) for w in roots.all_reduced_words(3) for lam in N3_WEIGHTS]
    return hrep, counts


def _hrep_check(n: int, pinned: int | None) -> Callable[[Any], str | None]:
    dim = roots.num_roots(n)

    def check(P) -> str | None:
        if P.dim != dim or len(P.rows) < n or any(b != 1 for _, b in P.rows):
            return f"malformed H-description (dim {P.dim}, {len(P.rows)} rows)"
        if pinned is not None and len(P.rows) != pinned:
            return f"{len(P.rows)} rows, pinned {pinned} for seed {DEFAULT_SEED}"
        return None

    return check


def words(seed: int) -> list[Case]:
    hrep, counts = words_inputs(seed)
    pinned = {}
    if seed == DEFAULT_SEED:
        with open(os.path.join(REFERENCE, "words_hrep_rows.json")) as fh:
            pinned = json.load(fh)
    cases = [
        Case(
            f"hrep n={n} {_word_name(w)}",
            lambda w=w, n=n: tiling.lusztig_hrep(w, (1,) * n, n),
            _hrep_check(n, pinned.get(_word_name(w))),
        )
        for n, w in hrep
    ]
    cases += [
        Case(
            f"count {_word_name(w)} lam={lam}",
            lambda w=w, lam=lam: len(tiling.lusztig_points(w, lam)),
            _expect("points", fflv.weyl_dim(len(lam), lam)),
        )
        for w, lam in counts
    ]
    return cases


# --- crystal -----------------------------------------------------------------
# The crystal layer: PB multigraphs, exhaustive and greedy conjecture
# searches, the explicit sl3 crystals under both validators, and fixed-k
# checks.  The large cases are pb_graph(3, (2,2,1)), the exhaustive searches
# at n = 2 for (2,2), (4,1), (1,4), (1,3) and at n = 3 for (1,0,1), and
# greedy search at n = 3; the small weights spread the case latencies.
# reference/crystal.json lists the PB graphs and exhaustive searches with
# their vertex, edge and valid-graph counts frozen at the seed commit.


def dominant_weights(n: int, total: int) -> list[tuple[int, ...]]:
    return [lam for lam in itertools.product(range(total + 1), repeat=n) if sum(lam) == total]


def _search(n: int, lam: tuple, sigma=None, mode: str = "exhaustive"):
    res = crystal.conjecture_search(n, lam, sigma=sigma, mode=mode)
    return res.mode, res.complete, len(res.graphs), res.graphs


def _greedy_check(result) -> str | None:
    mode, _, _, graphs = result
    if mode != "greedy":
        return f"mode {mode}"
    for g in graphs:
        if not (crystal.check_local_axioms(g)["passed"] and crystal.check_oracle_iso(g, g.lam)):
            return "greedy returned a graph that is not the crystal"
    return None


def _sl3(build: str, a: int, b: int):
    g = getattr(crystal, build)(a, b)
    return (
        len(g.vertices),
        crystal.check_local_axioms(g)["passed"],
        crystal.check_oracle_iso(g, (a, b)),
    )


def _pb_counts(n: int, lam: tuple) -> tuple[int, int]:
    g = crystal.pb_graph(n, lam)
    return len(g.vertices), len(g.edges)


def crystal_cases(seed: int) -> list[Case]:
    with open(os.path.join(REFERENCE, "crystal.json")) as fh:
        frozen = json.load(fh)
    cases = [
        Case(
            f"pb_graph n={n} lam={tuple(lam)}",
            lambda n=n, lam=tuple(lam): _pb_counts(n, lam),
            _expect("vertices, edges", (verts, edges)),
        )
        for n, lam, verts, edges in frozen["pb_graph"]
    ]
    cases += [
        Case(
            f"conjecture n={n} lam={tuple(lam)}",
            lambda n=n, lam=tuple(lam): _search(n, lam)[:3],
            _expect("mode, complete, valid", ("exhaustive", True, valid)),
        )
        for n, lam, valid in frozen["conjecture"]
    ]
    greedy = [(3, (1, 1, 1), sigma) for sigma in itertools.permutations((1, 2, 3))]
    greedy += [
        (2, lam, sigma)
        for total in (2, 3, 4)
        for lam in dominant_weights(2, total)
        for sigma in ((1, 2), (2, 1))
    ]
    cases += [
        Case(
            f"greedy n={n} lam={lam} sigma={sigma}",
            lambda n=n, lam=lam, sigma=sigma: _search(n, lam, sigma, "greedy"),
            _greedy_check,
        )
        for n, lam, sigma in greedy
    ]
    cases += [
        Case(
            f"{build} a={a} b={b}",
            lambda build=build, a=a, b=b: _sl3(build, a, b),
            _expect("vertices, axioms, oracle", (fflv.weyl_dim(2, (a, b)), True, True)),
        )
        for build in ("sl3_bgt", "sl3_blt")
        for a in range(1, 5)
        for b in range(1, 5)
    ]
    cases += [
        Case(
            f"fixed_k n={n} k={k} r={r}",
            lambda n=n, k=k, r=r: crystal.fixed_k_check(n, k, r),
            _expect("fixed_k_check", True),
        )
        for n in (1, 2, 3)
        for k in range(1, n + 1)
        for r in (1, 2)
    ]
    return cases


BUILDERS = {"words": words, "crystal": crystal_cases}
