"""Replayable verification of the package's headline claims.

Each ``verify_*`` function checks one claim for one parameter set and
returns a :class:`VerificationReport`; a failing report always carries at
least one concrete witness.  ``run_suite`` replays a sweep of the claims
registered in ``fflv.claims.CLAIMS``, by default ``default_sweep()``.
"""

from __future__ import annotations

import gc
import time
from functools import reduce
from math import comb
from typing import NamedTuple, Sequence

from .claims import CLAIMS, check_case, default_sweep
from .fflv import fflv_hrep, fflv_points, fundamental_points, root_paths, weyl_dim
from .polytope import PointSet, _once, _one_run, contains, sumset
from .roots import Root, all_reduced_words, fundamental_weight, ik_word, num_roots, positive_roots
from .tiling import _system, lusztig_points

MAX_WITNESSES = 5


class VerificationReport(NamedTuple):
    claim: str
    params: dict
    passed: bool
    witnesses: list
    seconds: float

    def to_json(self) -> dict:
        return {**self._asdict(), "seconds": round(self.seconds, 6)}

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"[{status}] {self.claim}({params})  {self.seconds:.2f}s"
        if not self.passed and self.witnesses:
            line += f"  witness: {self.witnesses[0]}"
        return line


def _report(kind: str, case: tuple, witnesses: list, t0: float) -> VerificationReport:
    """The report of claim ``kind`` on ``case``: its parameters named by the
    registry, passed iff no witness was found, at most ``MAX_WITNESSES`` of
    them kept, timed from ``t0``."""
    params = {
        name: list(value) if name == "lam" else value
        for name, value in zip(CLAIMS[kind].params, case)
    }
    return VerificationReport(
        kind, params, not witnesses, witnesses[:MAX_WITNESSES], time.perf_counter() - t0
    )


def verify_main(n: int, lam: Sequence[int]) -> VerificationReport:
    """Minkowski decomposition: the FFLV lattice points are exactly the sum
    of the Lusztig lattice points of the words i_k, weighted by lambda."""
    check_case("main", (n, lam))
    t0 = time.perf_counter()
    dim = num_roots(n)
    F = fflv_points(n, lam)
    summands = [
        lusztig_points(ik_word(n, k), fundamental_weight(n, k, lam[k - 1]))
        for k in range(1, n + 1)
        if lam[k - 1]
    ]
    # the sum starts at the first summand; {0} is the sum of none (lambda = 0)
    total = reduce(sumset, summands) if summands else PointSet([(0,) * dim], dim=dim)

    if F == total:  # equal sorted tuples: no witness to look for
        return _report("main", (n, lam), [], t0)
    # hashed lookups; iterating a PointSet keeps each witness list sorted
    in_F, in_total = set(F), set(total)
    excess = [p for p in total if p not in in_F]
    hrep = fflv_hrep(n, lam) if excess else None  # only an excess point's witness reads it
    witnesses = [
        {
            "point": list(p),
            "reason": "in Minkowski sum, not an FFLV lattice point"
            + ("" if contains(hrep, p) else " (violates the H-description)"),
        }
        for p in excess
    ]
    witnesses += [
        {"point": list(p), "reason": "FFLV lattice point missing from sum"}
        for p in F
        if p not in in_total
    ]
    return _report("main", (n, lam), witnesses, t0)


def verify_fundamental(n: int, k: int, r: int) -> VerificationReport:
    """FFLV and i_k-Lusztig agree on r*w_k; for r = 1 both coincide with the
    explicitly indexed points, C(n+1, k) of them."""
    check_case("fundamental", (n, k, r))
    t0 = time.perf_counter()
    lam = fundamental_weight(n, k, r)
    F = fflv_points(n, lam)
    L = lusztig_points(ik_word(n, k), lam)
    witnesses: list = []
    if F != L:  # the sorted tuples differ: hashed lookups, witnesses in sorted order
        in_F, in_L = set(F), set(L)
        witnesses += [{"point": list(p), "reason": "FFLV only"} for p in F if p not in in_L]
        witnesses += [{"point": list(p), "reason": "Lusztig only"} for p in L if p not in in_F]
    if r == 1:
        explicit = PointSet([fp.point for fp in fundamental_points(n, k)])
        if explicit != F:
            diff = set(explicit) ^ set(F)
            witnesses.append(
                {"point": list(sorted(diff)[0]), "reason": "explicit fundamental points differ"}
            )
        if len(F) != comb(n + 1, k):
            witnesses.append(
                {"count": len(F), "reason": f"expected C({n + 1},{k}) = {comb(n + 1, k)}"}
            )
    return _report("fundamental", (n, k, r), witnesses, t0)


def verify_word_counts(n: int, lam: Sequence[int]) -> VerificationReport:
    """Every reduced word's Lusztig polytope holds weyl_dim(lambda) lattice
    points.  Exhaustive over words, so desk scale only (n up to the
    registry's ``max_n``)."""
    check_case("words", (n, lam))
    t0 = time.perf_counter()
    expected = weyl_dim(n, lam)
    witnesses: list = []
    for word in _once(("words", n), lambda: tuple(all_reduced_words(n))):
        count = len(lusztig_points(word, lam))
        if count != expected:
            witnesses.append({"word": list(word), "count": count, "expected": expected})
    return _report("words", (n, lam), witnesses, t0)


def verify_dyck_correspondence(n: int, k: int) -> VerificationReport:
    """The s = k rows of the i_k-Lusztig system, restricted to the rectangle
    {alpha_{i,j} : i <= k <= j}, pick out precisely the staircase paths:

    * no row has a negative coefficient inside the rectangle;
    * every restricted support sits inside some path support;
    * the maximal restricted supports are exactly the path supports,
      C(n-1, k-1) of them;
    * the Reineke filter discards nothing at s = k.
    """
    check_case("dyck", (n, k))
    t0 = time.perf_counter()
    witnesses: list = []
    roots = positive_roots(n)
    rect = {r for r in roots if r.i <= k <= r.j}

    # the word's system, shared with its Lusztig points inside a run
    system = _system(ik_word(n, k), n)
    kept = [coeffs for s, coeffs in system.rows if s == k]
    if len(kept) != system.found[k - 1]:
        witnesses.append(
            {"reason": f"Reineke filter dropped {system.found[k - 1] - len(kept)} crossings at s={k}"}
        )

    restricted: set[frozenset[Root]] = set()
    for coeffs in kept:
        bad = [
            str(r)
            for r, c in zip(roots, coeffs)
            if c < 0 and r in rect
        ]
        if bad:
            witnesses.append(
                {"reason": f"negative coefficient inside the rectangle at {bad[0]}"}
            )
        restricted.add(
            frozenset(r for r, c in zip(roots, coeffs) if c > 0 and r in rect)
        )

    # the staircase paths, (1, k) -> (k, n) inside the rectangle
    paths = set(map(frozenset, root_paths(Root(1, k), Root(k, n))))
    maximal = {
        s for s in restricted if not any(s < other for other in restricted)
    }
    if len(paths) != comb(n - 1, k - 1):
        witnesses.append(
            {"reason": f"{len(paths)} paths, expected C({n - 1},{k - 1})"}
        )
    for s in restricted:
        if not any(s <= p for p in paths):
            witnesses.append(
                {"reason": "restricted support outside every path",
                 "support": sorted(map(str, s))}
            )
            break
    for s in maximal - paths:
        witnesses.append(
            {"reason": "maximal support is not a path", "support": sorted(map(str, s))}
        )
        break
    for p in paths - maximal:
        witnesses.append(
            {"reason": "path not realized as a maximal support",
             "support": sorted(map(str, p))}
        )
        break
    return _report("dyck", (n, k), witnesses, t0)


def run_suite(
    config: dict | None = None, kinds: list[str] | tuple[str, ...] | None = None
) -> list[VerificationReport]:
    """Replay a sweep of claims.  ``config`` maps claim kinds to case lists
    (default: ``default_sweep()``); ``kinds``, a list or tuple of kind
    names, restricts which claims run.

    The whole config is validated before any claim runs: an unknown kind, a
    case ``check_case`` rejects, a ``kinds`` that is not a list or tuple of
    strings (a string would read as its letters), a filter naming a kind
    not in the config and a selection without a single case all raise
    ``ValueError`` instead of failing mid-sweep or passing vacuously.

    The claims run inside one ``polytope._one_run()``, since ``main``,
    ``fundamental``, ``words`` and ``dyck`` share FFLV sets, word systems,
    summands, reduced words and enumeration plans (see ``polytope._once``).
    Every word is still tiled and searched, so a word whose rows differ
    from its class's gets its own points and its own witness.  A passing
    ``main`` or ``fundamental`` claim compares the sorted point tuples; only
    a failing one builds hash sets to find its witnesses.  Nothing is kept
    after the run returns or raises.

    The cyclic garbage collector is paused while the claims run: the
    library builds no reference cycle, so reference counting frees all a
    run builds and the collector's passes would find nothing.  The caller's
    state is restored when the run returns or raises; a collector the
    caller had disabled stays disabled.
    """
    if config is None:
        config = default_sweep()
    if not isinstance(config, dict):
        raise ValueError("suite config must map claim kinds to case lists")
    if kinds is not None:
        if not isinstance(kinds, (list, tuple)) or not all(isinstance(k, str) for k in kinds):
            raise ValueError(f"suite kinds must be a list of claim kinds, got {kinds!r}")
        bad = sorted(set(kinds) - set(config))
        if bad:
            raise ValueError(f"unknown suite kind(s): {', '.join(map(repr, bad))}")
    selected = []
    for kind, cases in config.items():
        if kind not in CLAIMS:
            raise ValueError(f"unknown claim kind {kind!r}")
        if not isinstance(cases, (list, tuple)):
            raise ValueError(f"{kind} cases must be a list, got {cases!r}")
        for case in cases:
            check_case(kind, case)
            if kinds is None or kind in kinds:
                selected.append((kind, case))
    if not selected:
        raise ValueError("suite selection holds no case")
    enabled = gc.isenabled()
    gc.disable()
    try:
        with _one_run():
            return [globals()[CLAIMS[kind].function](*case) for kind, case in selected]
    finally:
        if enabled:
            gc.enable()
