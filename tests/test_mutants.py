"""Layer mutants against the default suite.

Each mutant corrupts one layer by a monkeypatch and is listed with what
``run_suite()`` on the default sweep does under it: the claims it turns
red, or the error it raises.  A mutant that leaves every claim green is a
known survivor and names the check meant to kill it.  The test asserts the
table exactly, so a newly killed survivor must move to the red list and a
new survivor fails it.
"""

import pytest

import fflv.fflv
import fflv.polytope as polytope
import fflv.tiling as tiling
import fflv.verify as verify
from fflv.polytope import HPolytope, PointSet
from fflv.roots import ik_word

_REAL_LUSZTIG = verify.lusztig_points
_REAL_SEARCH = polytope._search
_REAL_FILTER = tiling.reineke_filter
_REAL_DYCK_ROWS = fflv.fflv._dyck_rows
_REAL_TILING = tiling.build_tiling
_REAL_ROW = tiling._crossing_row
_REAL_HREP = tiling._hrep


def _non_ik_lusztig(change):
    """``lusztig_points`` with ``change(points, lam)`` in place of the point
    set of every word that is not an i_k word."""
    def mutant(word, lam, n=None):
        pts = _REAL_LUSZTIG(word, lam, n)
        if tuple(word) in {ik_word(len(lam), k) for k in range(1, len(lam) + 1)}:
            return pts
        return change(pts, lam)

    return mutant


def _swap01(pts, lam):
    return PointSet([(p[1], p[0]) + p[2:] for p in pts], dim=pts.dim)


def _fflv_instead(pts, lam):
    return fflv.fflv.fflv_points(len(lam), lam)


def _drop_last_point(P):
    points, nodes = _REAL_SEARCH(P)
    return points[:-1], nodes


def _sumset_drops_a_point(A, B):
    return PointSet(list(polytope.sumset(A, B))[:-1], dim=A.dim)


def _row_without_minus_ones(s, cr, idx, dim):
    return tuple(max(c, 0) for c in _REAL_ROW(s, cr, idx, dim))


def _hrep_drops_last_row(rows, lam, n):
    P = _REAL_HREP(rows, lam, n)
    return HPolytope(P.dim, P.rows[:-1])


# name -> (module, attribute, mutant, the red claims or the error
# run_suite raises, the check meant to kill a survivor)
MUTANTS = {
    "lusztig: swap coordinates 0 and 1 off i_k": (
        verify, "lusztig_points", _non_ik_lusztig(_swap01),
        [], "a transport claim (ROADMAP item 4)",
    ),
    "lusztig: FFLV points off i_k": (
        verify, "lusztig_points", _non_ik_lusztig(_fflv_instead),
        [], "a transport claim (ROADMAP item 4)",
    ),
    "tiling: fold the reversed word": (
        tiling, "build_tiling", lambda word, n=None: _REAL_TILING(tuple(reversed(word)), n),
        ["dyck", "fundamental", "main"], None,
    ),
    "rows: lose the -1 entries": (
        tiling, "_crossing_row", _row_without_minus_ones,
        ["words"], None,
    ),
    "rows: drop the last row": (
        tiling, "_hrep", _hrep_drops_last_row,
        "ValueError: no certified box: [0, 2] have no capping row",
        "a claim's library error reported as a failed claim (ROADMAP item 6)",
    ),
    "filter: keep every crossing": (
        tiling, "reineke_filter", list,
        [], "a reineke claim (ROADMAP item 5)",
    ),
    "filter: drop the last kept crossing": (
        tiling, "reineke_filter", lambda crossings: _REAL_FILTER(crossings)[:-1],
        "ValueError: no certified box: [0, 1, 2] have no capping row",
        "a claim's library error reported as a failed claim (ROADMAP item 6)",
    ),
    # at n = 1 the one Dyck row is all that bounds the polytope
    "fflv: drop the last Dyck row from n = 2 on": (
        fflv.fflv, "_dyck_rows", lambda n: _REAL_DYCK_ROWS(n)[: -1 if n > 1 else None],
        ["fundamental", "main"], None,
    ),
    "enumerator: drop the last point": (
        polytope, "_search", _drop_last_point,
        ["fundamental", "main", "words"], None,
    ),
    "sumset: drop a point": (
        verify, "sumset", _sumset_drops_a_point,
        ["main"], None,
    ),
}


def _outcome():
    """The claims the default suite turns red, sorted, or the error it
    raises as ``"<type>: <text>"``."""
    try:
        reports = verify.run_suite()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return sorted({r.claim for r in reports if not r.passed})


def test_unmutated_suite_is_green():
    assert _outcome() == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_outcome(name, monkeypatch):
    module, attribute, mutant, expected, killer = MUTANTS[name]
    monkeypatch.setattr(module, attribute, mutant)
    assert _outcome() == expected
    # survivors and aborts name the check meant to catch them; red mutants do not
    assert (killer is not None) == (expected == [] or isinstance(expected, str))
