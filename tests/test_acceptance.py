"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -v`` to get one pass/fail line per criterion; each test
also prints a short summary (visible with ``-rA`` or ``-s``).
"""

import random
import time

from fflv.crystal import (
    CrystalGraph,
    check_local_axioms,
    check_oracle_iso,
    conjecture_search,
    critical_points,
    sl3_bgt,
    sl3_blt,
    word_oracle,
)
from fflv.fflv import fflv_points, weyl_dim
from fflv.polytope import PointSet
from fflv.roots import all_reduced_words, ik_word, num_roots, random_reduced_word
from fflv.tiling import (
    build_tiling,
    check_rectangle_support,
    dual_crossings,
    lusztig_points,
    peel_order,
    reineke_filter,
)
from fflv.verify import default_sweep, run_suite, verify_main

import oracles


def test_criterion_1_minkowski_sweep():
    t0 = time.perf_counter()
    reports = run_suite(kinds=["main"])
    elapsed = time.perf_counter() - t0
    failures = [r for r in reports if not r.passed]
    assert not failures, [str(r) for r in failures[:3]]
    assert elapsed < 300, f"sweep took {elapsed:.0f}s"
    print(f"criterion 1: PASS ({len(reports)} weights, {elapsed:.1f}s)")


def test_criterion_2_fundamental_cases():
    reports = run_suite(kinds=["fundamental"])
    assert len(reports) == 30  # all 1 <= k <= n <= 4, r <= 3
    failures = [r for r in reports if not r.passed]
    assert not failures, [str(r) for r in failures[:3]]
    print(f"criterion 2: PASS ({len(reports)} cases)")


def test_criterion_3_dimension_counts():
    cases = default_sweep()["main"]
    for n, lam in cases:
        assert len(fflv_points(n, lam)) == weyl_dim(n, lam), (n, lam)
    assert len(fflv_points(2, (1, 1))) == 8
    assert len(fflv_points(2, (2, 2))) == 27
    print(f"criterion 3: PASS ({len(cases)} weights + spot values 8, 27)")


def test_criterion_4_word_robustness():
    t0 = time.perf_counter()
    reports = run_suite(kinds=["words"])
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]
    words = {2: len(all_reduced_words(2)), 3: len(all_reduced_words(3))}
    assert words == {2: 2, 3: 16}
    assert elapsed < 60, f"sweep took {elapsed:.0f}s"
    print(f"criterion 4: PASS ({len(reports)} weights x all words, {elapsed:.1f}s)")


def _tiling_invariants(word, n):
    m = n + 1
    T = build_tiling(word, n=n)
    assert len(T.tiles) == num_roots(n)
    assert {t.labels for t in T.tiles} == {
        (s, t) for s in range(1, m + 1) for t in range(s + 1, m + 1)
    }
    for border in oracles.replay_borders(T):
        assert sorted(e.label for e in border) == list(range(1, m + 1))
    for s in range(1, 2 * m + 1):
        peel_order(T, s)  # must not stall


def test_criterion_5_tiling_invariants():
    checked = 0
    for n in (1, 2, 3):
        for word in all_reduced_words(n):
            _tiling_invariants(word, n)
            checked += 1
    rng = random.Random(20260822)
    for n in (4, 5):
        for _ in range(1000):
            _tiling_invariants(random_reduced_word(n, rng), n)
            checked += 1
    print(f"criterion 5: PASS ({checked} words)")


def test_criterion_6_geometric_pipeline():
    reports = run_suite(kinds=["dyck"])
    assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            for r in (1, 2):
                assert check_rectangle_support(n, k, r), (n, k, r)
            T = build_tiling(ik_word(n, k))
            crossings = dual_crossings(T, k)
            assert reineke_filter(crossings) == crossings
    print(f"criterion 6: PASS ({len(reports)} staircase cases + zero patterns)")


def test_criterion_7_sl3_crystals():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for build in (sl3_bgt, sl3_blt):
                g = build(a, b)
                report = check_local_axioms(g)
                assert report["passed"], (build.__name__, a, b, report["violations"][:2])
                assert check_oracle_iso(g, (a, b)), (build.__name__, a, b)
    gt_11 = {
        ((0, 0, 0), 1, (1, 0, 0)), ((0, 0, 1), 1, (1, 0, 1)),
        ((1, 0, 1), 1, (1, 1, 0)), ((0, 1, 1), 1, (0, 2, 0)),
        ((0, 0, 0), 2, (0, 0, 1)), ((1, 0, 0), 2, (0, 1, 0)),
        ((0, 1, 0), 2, (0, 1, 1)), ((1, 1, 0), 2, (0, 2, 0)),
    }
    lt_11 = {
        ((0, 0, 0), 1, (1, 0, 0)), ((0, 0, 1), 1, (0, 1, 0)),
        ((0, 1, 0), 1, (1, 1, 0)), ((0, 1, 1), 1, (0, 2, 0)),
        ((0, 0, 0), 2, (0, 0, 1)), ((1, 0, 0), 2, (1, 0, 1)),
        ((1, 0, 1), 2, (0, 1, 1)), ((1, 1, 0), 2, (0, 2, 0)),
    }
    assert sl3_bgt(1, 1).edges == frozenset(gt_11)
    assert sl3_blt(1, 1).edges == frozenset(lt_11)
    for a in range(5):
        for b in range(5):
            assert len(critical_points(a, b)) == (a + 1) * (b + 1)
    print("criterion 7: PASS (9 weights x 2 families + frozen (1,1) + criticals)")


def test_criterion_8_conjecture_explorer():
    counts = {}
    for lam in ((1, 1), (2, 1), (2, 2)):
        res = conjecture_search(2, lam)
        assert res.complete
        found = {g.edges for g in res.graphs}
        assert sl3_bgt(*lam).edges in found, lam
        assert sl3_blt(*lam).edges in found, lam
        counts[lam] = len(res.graphs)
    # n = 3 and the larger n = 2 weight: every returned graph must pass
    # both validators, the search must be complete
    for n, lam in ((2, (3, 3)), (3, (1, 1, 1))):
        res = conjecture_search(n, lam)
        assert res.complete, (n, lam)
        for g in res.graphs:
            assert check_local_axioms(g)["passed"], (n, lam)
            assert check_oracle_iso(g, lam), (n, lam)
        counts[lam] = len(res.graphs)
    # exploratory: the counts are reported for comparison with n! (2 at
    # n = 2, 6 at n = 3), not asserted as a theorem
    print(
        f"criterion 8: PASS (valid-crystal counts {counts} "
        f"vs conjectured n! = 2 at n = 2, 6 at n = 3)"
    )


def test_criterion_9_negative_paths(monkeypatch):
    import fflv.verify

    good = lusztig_points(ik_word(2, 1), (1, 0))
    broken = PointSet([p for p in good if p != (0, 1, 0)], dim=3)
    monkeypatch.setattr(  # the i_1 summand loses a point
        fflv.verify, "lusztig_points",
        lambda w, lam: broken if w == ik_word(2, 1) else lusztig_points(w, lam),
    )
    report = verify_main(2, (1, 1))
    assert not report.passed
    assert report.witnesses, "failure must carry a witness"

    g = word_oracle(2, (1, 1)).export_graph()
    victim = sorted(g.edges)[0]
    maimed = CrystalGraph(
        lam=g.lam, vertices=g.vertices,
        edges=frozenset(g.edges - {victim}), weights=g.weights,
    )
    axioms = check_local_axioms(maimed)
    assert not axioms["passed"]
    assert axioms["violations"] and all("vertex" in v for v in axioms["violations"])
    print("criterion 9: PASS (corruption detected with witnesses)")
