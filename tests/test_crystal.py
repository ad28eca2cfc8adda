import hashlib
import itertools
import json
import random
from collections import Counter

from fflv.crystal import (
    CrystalGraph,
    SEARCH_BUDGET,
    WordCrystal,
    _candidate_map,
    _crystals,
    _moves,
    _sl3_crystal,
    check_local_axioms,
    check_oracle_iso,
    conjecture_search,
    critical_points,
    crystal_to_dot,
    fixed_k_check,
    pb_graph,
    sl3_bgt,
    sl3_blt,
    word_oracle,
)
from fflv.fflv import fflv_points, weyl_dim
from fflv.polytope import PointSet
from fflv.roots import _weight_of_point, fundamental_weight

import oracles


def edge_set(color, pairs):
    return {(u, color, v) for u, v in pairs}


def weights_up_to(n, total):
    for lam in itertools.product(range(total + 1), repeat=n):
        if sum(lam) <= total:
            yield lam


def test_candidate_edges_two_moves_one_color():
    # at (0,0,1) color 1 has one move per k: the diagonal bump (k=1) and
    # the box slide into x12 (k=2)
    ces = [ce for ce in oracles.candidate_edges(2, (1, 1), (0, 0, 1)) if ce.a == 1]
    assert {(ce.k, ce.target) for ce in ces} == {
        (1, (1, 0, 1)),
        (2, (0, 1, 0)),
    }


def test_candidate_edges_origin():
    ces = oracles.candidate_edges(2, (1, 1), (0, 0, 0))
    assert {(ce.a, ce.k, ce.target) for ce in ces} == {
        (1, 1, (1, 0, 0)),
        (2, 2, (0, 0, 1)),
    }


def test_candidate_edges_outside_point_rejected():
    try:
        oracles.candidate_edges(2, (1, 1), (5, 0, 0))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError"


def test_move_table_matches_root_moves():
    # the per-rank move table gives the Root-keyed moves, order included
    cases = [(n, lam) for n in (1, 2, 3) for lam in weights_up_to(n, 2)]
    cases += [(4, (1, 1, 1, 1)), (4, (2, 0, 0, 1))]
    for n, lam in cases:
        pts = fflv_points(n, lam)
        inside = set(pts)
        for x in pts:
            assert _moves(n, inside, x) == oracles.root_moves(n, inside, x), (n, lam, x)


def test_pb_graph_adjoint_frozen():
    g = pb_graph(2, (1, 1))
    assert len(g.vertices) == 8
    color1 = {(u, v) for u, a, v in g.edges if a == 1}
    color2 = {(u, v) for u, a, v in g.edges if a == 2}
    assert color1 == {
        ((0, 0, 0), (1, 0, 0)),
        ((0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 1)),
        ((0, 0, 1), (0, 1, 0)),
        ((1, 0, 1), (1, 1, 0)),
        ((0, 1, 1), (0, 2, 0)),
    }
    assert color2 == {
        ((0, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (1, 0, 1)),
        ((0, 1, 0), (0, 1, 1)),
        ((1, 1, 0), (0, 2, 0)),
        ((1, 0, 1), (0, 1, 1)),
    }


def test_pb_graph_zero_weight_is_a_point():
    g = pb_graph(2, (0, 0))
    assert list(g.vertices) == [(0, 0, 0)]
    assert not g.edges


def test_pb_graph_is_not_a_crystal():
    g = pb_graph(2, (1, 1))
    report = check_local_axioms(g)
    assert not report["passed"]
    assert any(v["axiom"] == "partial-function" for v in report["violations"])
    assert not check_oracle_iso(g, (1, 1))


def test_rank_zero_is_rejected():
    # as fflv_points(0, ()) does: no one-vertex crystal of rank 0
    point = CrystalGraph(lam=(), vertices=PointSet([()], dim=0), edges=frozenset())
    for name, bad in (
        ("WordCrystal", lambda: WordCrystal(0, ())),
        ("word_oracle", lambda: word_oracle(0, ())),
        ("check_oracle_iso", lambda: check_oracle_iso(point, ())),
    ):
        try:
            bad()
        except ValueError as e:
            assert str(e) == "rank must be >= 1", name
        else:
            raise AssertionError(f"{name} accepted rank 0")


def test_word_oracle_adjoint_frozen():
    W = word_oracle(2, (1, 1))
    assert W.highest == (1, 2, 1)
    words = {"".join(map(str, w)) for w in W.vertices}
    assert words == {"121", "122", "131", "132", "231", "133", "232", "233"}
    f1 = {w: W.f(w, 1) for w in W.vertices if W.f(w, 1) is not None}
    f2 = {w: W.f(w, 2) for w in W.vertices if W.f(w, 2) is not None}
    assert f1 == {
        (1, 2, 1): (1, 2, 2),
        (1, 3, 1): (2, 3, 1),
        (2, 3, 1): (2, 3, 2),
        (1, 3, 3): (2, 3, 3),
    }
    assert f2 == {
        (1, 2, 1): (1, 3, 1),
        (1, 2, 2): (1, 3, 2),
        (1, 3, 2): (1, 3, 3),
        (2, 3, 2): (2, 3, 3),
    }


def test_word_oracle_counts_match_weyl_dim():
    for n in (1, 2, 3):
        for lam in weights_up_to(n, 3):
            assert len(word_oracle(n, lam).vertices) == weyl_dim(n, lam)
    assert len(word_oracle(2, (2, 2)).vertices) == weyl_dim(2, (2, 2)) == 27


def test_word_oracle_checks_its_weight():
    g = sl3_bgt(1, 1)
    for name, bad in (
        ("extra entry", lambda: check_oracle_iso(g, (1, 1, 7))),
        ("missing entry", lambda: check_oracle_iso(g, (1,))),
        ("negative entry", lambda: word_oracle(2, (1, -1))),
    ):
        try:
            bad()
        except ValueError:
            pass
        else:
            raise AssertionError(f"{name} should be rejected")


def test_word_oracle_vector_rep_is_a_chain():
    for n in (1, 2, 3, 4):
        lam = (1,) + (0,) * (n - 1)
        W = word_oracle(n, lam)
        assert W.vertices == {(i,) for i in range(1, n + 2)}
        for i in range(1, n + 1):
            assert W.f((i,), i) == (i + 1,)


def test_oracle_export_passes_axioms():
    # the library judges a graph by its pairing with the oracle alone: a
    # graph weight-isomorphic to the oracle passes the local axioms exactly
    # when the oracle's own graph does, so that graph must pass them at
    # every weight the searches, greedy walks and fixed-k checks reach
    count = 0
    for n, total in ((1, 8), (2, 8), (3, 5), (4, 2)):
        for lam in weights_up_to(n, total):
            g = word_oracle(n, lam).export_graph()
            report = check_local_axioms(g)
            assert report["passed"], (n, lam, report["violations"][:3])
            count += 1
    assert count == 125


def test_axioms_fail_with_witness_on_deleted_edge():
    g = word_oracle(2, (1, 1)).export_graph()
    victim = ((1, 2, 1), 1, (1, 2, 2))
    assert victim in g.edges
    broken = CrystalGraph(
        lam=g.lam,
        vertices=g.vertices,
        edges=frozenset(g.edges - {victim}),
        weights=g.weights,
    )
    report = check_local_axioms(broken)
    assert not report["passed"]
    assert report["violations"]
    assert all("vertex" in v for v in report["violations"])


def test_crystal_graph_equality_ignores_weights():
    g = word_oracle(2, (1, 1)).export_graph()
    same = CrystalGraph(g.lam, g.vertices, g.edges)
    assert same.weights is None and g.weights is not None
    assert same == g and hash(same) == hash(g) and {g: 1}[same] == 1
    assert CrystalGraph(g.lam, g.vertices, g.edges, weights={}) == g
    fewer = CrystalGraph(g.lam, g.vertices, frozenset(list(g.edges)[1:]), g.weights)
    assert fewer != g
    assert CrystalGraph((1, 2), g.vertices, g.edges, g.weights) != g
    assert sl3_bgt(2, 1) == sl3_bgt(2, 1) and sl3_bgt(2, 1) != sl3_blt(2, 1)


def test_crystal_graph_rank_is_read_from_lambda():
    # no rank argument can disagree with lambda: these parts with a rank of
    # 3 beside them made the validators raise IndexError, with a rank of 1
    # they reported the color-2 edges as out of range
    g = sl3_bgt(1, 1)
    rebuilt = CrystalGraph(g.lam, g.vertices, g.edges)
    assert rebuilt.n == 2 and rebuilt == g and rebuilt.to_json() == g.to_json()
    assert check_local_axioms(rebuilt) == {"passed": True, "violations": []}
    assert check_oracle_iso(rebuilt, g.lam)
    for bad, error in (
        (lambda: CrystalGraph(n=2, lam=g.lam, vertices=g.vertices, edges=g.edges), TypeError),
        (lambda: setattr(rebuilt, "n", 3), AttributeError),
    ):
        try:
            bad()
        except error:
            pass
        else:
            raise AssertionError("the rank is read from lambda alone")


def test_builders_store_the_checked_weight():
    # the graphs keep the ints check_weight returns, not the entries given
    graphs = [pb_graph(2, (True, 1))]
    graphs += conjecture_search(2, (True, 1), sigma=(2, 1), mode="greedy").graphs
    graphs += conjecture_search(2, (True, 1)).graphs
    assert len(graphs) == 4
    for g in graphs:
        assert [type(v) for v in g.lam] == [int, int]
        assert json.dumps(g.to_json()["lambda"]) == "[1, 1]"
    # with several bad arguments, the first check still decides the error
    for bad, error in (
        (lambda: pb_graph(0, 5), "'int' object is not iterable"),
        (lambda: conjecture_search(0, 5, mode="x"), "'int' object is not iterable"),
        (lambda: conjecture_search(0, (1,), budget=0), "budget must be at least 1, got 0"),
        (lambda: conjecture_search(2, (True, 1.5), sigma=(1, 1), mode="greedy"),
         "sigma must be a permutation of [1, 2]"),
    ):
        try:
            bad()
        except (TypeError, ValueError) as e:
            assert str(e) == error
        else:
            raise AssertionError(error)


def test_axioms_catch_color_cycle():
    g = word_oracle(2, (1, 1)).export_graph()
    closed = CrystalGraph(
        lam=g.lam,
        vertices=g.vertices,
        edges=g.edges | {((1, 2, 2), 1, (1, 2, 1))},  # 121 -f1-> 122 -f1-> 121
        weights=g.weights,
    )
    assert check_local_axioms(closed) == {
        "passed": False,
        "violations": [
            {"axiom": "acyclic", "vertex": (1, 2, 1), "detail": "color-1 cycle"}
        ],
    }


def single_changes(g):
    """Every single-edge deletion and recoloring of g."""
    for u, a, v in sorted(g.edges):
        yield CrystalGraph(g.lam, g.vertices, g.edges - {(u, a, v)}, g.weights)
        for b in range(1, g.n + 1):
            if b != a:
                edges = (g.edges - {(u, a, v)}) | {(u, b, v)}
                yield CrystalGraph(g.lam, g.vertices, edges, g.weights)


def test_axiom_violations_frozen():
    # every single-edge deletion and recoloring of two crystals; the
    # violation lists (axiom, witness, detail, order) are frozen by digest
    lists = [
        check_local_axioms(broken)["violations"]
        for g in (word_oracle(2, (2, 1)).export_graph(), sl3_bgt(2, 2))
        for broken in single_changes(g)
    ]
    assert len(lists) == 108 and all(lists)
    axioms = Counter(v["axiom"] for vs in lists for v in vs)
    assert axioms == {"partial-function": 56, "weight-step": 8, "weight-string": 248}
    digest = hashlib.sha256(json.dumps(lists, sort_keys=True).encode()).hexdigest()
    assert digest == "1c5f71e9d43b781753090bc57782d6098247384301881da56c64164603c79d2a"


def target_swaps():
    """Oracle crystals at n = 3 with the targets of two same-color edges
    swapped, where both targets have the same weight: every weight step
    still holds, so only the string and commutation axioms can object."""
    for lam in ((1, 0, 1), (1, 1, 1), (2, 1, 0)):
        g = word_oracle(3, lam).export_graph()
        for (u1, a, v1), (u2, b, v2) in itertools.combinations(sorted(g.edges), 2):
            if a == b and g.weights[v1] == g.weights[v2]:
                swapped = (g.edges - {(u1, a, v1), (u2, a, v2)}) | {(u1, a, v2), (u2, a, v1)}
                yield CrystalGraph(g.lam, g.vertices, swapped, g.weights)


def test_axiom_violations_on_target_swaps_frozen():
    lists = [check_local_axioms(g)["violations"] for g in target_swaps()]
    assert len(lists) == 66 and all(lists)
    axioms = Counter(v["axiom"] for vs in lists for v in vs)
    assert axioms == {
        "distant-strings": 48, "distant-commute": 136, "adjacent-raise-delta": 12,
        "adjacent-lower-delta": 12, "adjacent-commute": 132, "adjacent-braid": 96,
        "weight-string": 144,
    }
    digest = hashlib.sha256(json.dumps(lists, sort_keys=True).encode()).hexdigest()
    assert digest == "9e7f58ec3c5beddfd995ef7af4f8da74995aff5d87bd0f5ef80ad68d514a1196"


def random_corruptions(g, count, seed):
    """count copies of g, each with one to three random edge deletions,
    recolorings, retargetings or additions."""
    rng = random.Random(seed)
    verts = list(g.vertices)
    for _ in range(count):
        edges = set(g.edges)
        for _ in range(rng.randint(1, 3)):
            u, a, v = rng.choice(sorted(edges))
            kind = rng.randrange(4)
            if kind < 3:
                edges.discard((u, a, v))
            if kind == 1:
                edges.add((u, rng.randint(1, g.n), v))
            elif kind == 2:
                edges.add((u, a, rng.choice(verts)))
            elif kind == 3:
                edges.add((rng.choice(verts), rng.randint(1, g.n), rng.choice(verts)))
        yield CrystalGraph(g.lam, g.vertices, frozenset(edges), g.weights)


def test_validators_match_dict_oracles():
    # the validators on vertex ids report exactly what the dict-keyed ones
    # did: the same violations in the same order, the same (ok, message)
    cycle = word_oracle(2, (1, 1)).export_graph()
    graphs = [CrystalGraph(
        cycle.lam, cycle.vertices, cycle.edges | {((1, 2, 2), 1, (1, 2, 1))},
        cycle.weights,
    )]
    graphs += target_swaps()
    graphs += single_changes(word_oracle(2, (2, 1)).export_graph())
    graphs += single_changes(sl3_bgt(2, 2))
    graphs += [build(a, b) for build in (sl3_bgt, sl3_blt) for a in range(1, 6) for b in range(1, 6)]
    graphs += [pb_graph(2, (1, 1)), pb_graph(3, (1, 0, 1))]
    for g in (word_oracle(3, (1, 1, 1)).export_graph(), word_oracle(3, (1, 0, 1)).export_graph(),
              sl3_blt(2, 3), sl3_bgt(3, 1)):
        graphs += random_corruptions(g, 100, seed=1)
    oracle = {}
    for g in graphs:
        W = oracle.setdefault((g.n, g.lam), word_oracle(g.n, g.lam))
        report, iso = oracles.dict_local_axioms(g), oracles.dict_iso_report(g, W)
        assert check_local_axioms(g) == report
        assert check_oracle_iso(g, g.lam) == iso[0]
        assert report["passed"] or not iso[0]  # the pairing passes => the axioms pass
    assert len(graphs) == 1 + 66 + 108 + 50 + 2 + 400


def with_edge(g, edge):
    return CrystalGraph(g.lam, g.vertices, g.edges | {edge}, g.weights)


def test_validators_reject_edges_that_leave_the_graph():
    g = sl3_bgt(1, 1)
    for color in (0, -1, 3):
        bad = with_edge(g, ((0, 0, 0), color, (1, 0, 0)))
        detail = f"color-{color} edge (0, 0, 0) -> (1, 0, 0): color outside [1, 2]"
        assert check_local_axioms(bad) == {
            "passed": False,
            "violations": [{"axiom": "edge-range", "vertex": (0, 0, 0), "detail": detail}],
        }
        assert not check_oracle_iso(bad, (1, 1))
    # an end outside the vertex set, on a graph with and one without weights
    for h, u in ((word_oracle(2, (1, 1)).export_graph(), (1, 2, 1)), (g, (0, 0, 0))):
        bad = with_edge(h, (u, 2, (9, 9, 9)))
        detail = f"color-2 edge {u} -> (9, 9, 9): endpoint not a vertex"
        assert check_local_axioms(bad)["violations"] == [
            {"axiom": "edge-range", "vertex": u, "detail": detail}
        ]
        assert not check_oracle_iso(bad, (1, 1))
        # a stray source is flagged at itself
        bad = with_edge(h, ((9, 9, 9), 1, u))
        assert check_local_axioms(bad)["violations"][0]["vertex"] == (9, 9, 9)
        assert not check_oracle_iso(bad, (1, 1))
    # every stray edge is reported, in edge order, and nothing else
    bad = with_edge(with_edge(g, ((1, 0, 0), 5, (0, 0, 0))), ((0, 0, 0), 0, (0, 0, 0)))
    report = check_local_axioms(with_edge(bad, ((0, 0, 0), 1, (0, 0, 1))))
    assert [(v["axiom"], v["vertex"]) for v in report["violations"]] == [
        ("edge-range", (0, 0, 0)), ("edge-range", (1, 0, 0)),
    ]


def test_sl3_bgt_adjoint_frozen():
    g = sl3_bgt(1, 1)
    assert g.edges == frozenset(
        edge_set(1, [
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 1), (1, 0, 1)),
            ((1, 0, 1), (1, 1, 0)),
            ((0, 1, 1), (0, 2, 0)),
        ])
        | edge_set(2, [
            ((0, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((0, 1, 0), (0, 1, 1)),
            ((1, 1, 0), (0, 2, 0)),
        ])
    )


def test_sl3_blt_adjoint_frozen():
    g = sl3_blt(1, 1)
    assert g.edges == frozenset(
        edge_set(1, [
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 1), (0, 1, 0)),
            ((0, 1, 0), (1, 1, 0)),
            ((0, 1, 1), (0, 2, 0)),
        ])
        | edge_set(2, [
            ((0, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (1, 0, 1)),
            ((1, 0, 1), (0, 1, 1)),
            ((1, 1, 0), (0, 2, 0)),
        ])
    )


def test_sl3_edges_frozen_digest():
    # edge sets for a, b <= 8, pinned from the path-family construction
    for build, want in (
        (sl3_bgt, "f0e579997c2bba4c3f483556648d447c21094ffb1818706d72d88ce2e64505f9"),
        (sl3_blt, "c6ca50288ff5876efbb310c2ce0bae65b117002f52a049c51fb4e288c9f96c28"),
    ):
        edges = [
            [build.__name__, a, b, sorted(build(a, b).edges)]
            for a in range(1, 9)
            for b in range(1, 9)
        ]
        assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == want


def test_sl3_builder_rejects_two_edges_into_one_vertex():
    try:
        _sl3_crystal(1, 1, lambda *x: (0, 0, 1), lambda *x: None)
    except RuntimeError as exc:
        assert "two color-1 edges enter (0, 0, 1)" in str(exc)
    else:
        raise AssertionError("expected RuntimeError")


def test_sl3_spot_paths():
    g = sl3_bgt(3, 4)
    run = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (3, 1, 0)]
    for u, v in zip(run, run[1:]):
        assert (u, 1, v) in g.edges
    h = sl3_blt(3, 4)
    run = [(3, 0, 4), (2, 1, 4), (1, 2, 4), (0, 3, 4)]
    for u, v in zip(run, run[1:]):
        assert (u, 2, v) in h.edges


def test_sl3_families_are_crystals():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for build in (sl3_bgt, sl3_blt):
                g = build(a, b)
                assert set(g.vertices) == set(fflv_points(2, (a, b)))
                report = check_local_axioms(g)
                assert report["passed"], (build.__name__, a, b, report["violations"][:3])
                assert check_oracle_iso(g, (a, b)), (build.__name__, a, b)


def test_sl3_families_differ_as_graphs():
    for a, b in ((1, 1), (2, 1), (1, 2), (2, 2)):
        gt, lt = sl3_bgt(a, b), sl3_blt(a, b)
        assert gt.vertices == lt.vertices
        assert gt.edges != lt.edges


def test_sl3_unique_source_and_sink():
    for a, b in ((1, 1), (2, 3), (3, 2)):
        for build in (sl3_bgt, sl3_blt):
            g = build(a, b)
            out = {u for u, _, _ in g.edges}
            inc = {v for _, _, v in g.edges}
            sources = set(g.vertices) - inc
            sinks = set(g.vertices) - out
            assert sources == {(0, 0, 0)}
            assert len(sinks) == 1


def test_sl3_edges_are_candidate_moves():
    pb = pb_graph(2, (1, 1))
    assert sl3_bgt(1, 1).edges <= pb.edges
    assert sl3_blt(1, 1).edges <= pb.edges


def test_critical_points():
    assert set(critical_points(1, 1)) == {
        (0, 0, 0),
        (1, 0, 1),
        (0, 1, 0),
        (0, 2, 0),
    }
    assert list(critical_points(0, 0)) == [(0, 0, 0)]
    for a in range(5):
        for b in range(5):
            assert len(critical_points(a, b)) == (a + 1) * (b + 1)


def test_conjecture_rank_one_is_forced():
    for r in (0, 1, 2, 3):
        res = conjecture_search(1, (r,))
        assert res.complete
        assert len(res.graphs) == 1
        g = res.graphs[0]
        assert g.edges == {((i,), 1, (i + 1,)) for i in range(r)}


def test_conjecture_adjoint_contains_both_sl3_graphs():
    res = conjecture_search(2, (1, 1))
    assert res.complete
    found = {g.edges for g in res.graphs}
    assert sl3_bgt(1, 1).edges in found
    assert sl3_blt(1, 1).edges in found
    assert len(res.graphs) >= 2


def _edges(text):
    """Edges written one per line as 'source color target', digits only."""
    out = set()
    for line in text.split("\n"):
        if line.strip():
            u, a, v = line.split()
            out.add((tuple(map(int, u)), int(a), tuple(map(int, v))))
    return frozenset(out)


EXHAUSTIVE_101 = [
    _edges("""
    000000 1 100000
    000000 3 000001
    000001 1 100001
    000001 2 000010
    000010 1 001000
    001000 1 101000
    001001 2 001010
    001010 1 002000
    010000 3 010001
    010001 3 001001
    010010 1 011000
    010010 3 001010
    011000 3 002000
    100000 2 010000
    100000 3 100001
    100001 2 100010
    100010 2 010010
    101000 2 011000
    """),
    _edges("""
    000000 1 100000
    000000 3 000001
    000001 1 100001
    000001 2 000010
    000010 1 100010
    001000 3 001001
    001001 2 001010
    001010 1 002000
    010000 3 001000
    010001 2 010010
    010010 1 011000
    010010 3 001010
    011000 3 002000
    100000 2 010000
    100000 3 100001
    100001 2 010001
    100010 1 101000
    101000 2 011000
    """),
]


def test_conjecture_exhaustive_frozen():
    # the search engine knows nothing of the sl3 rules: at n = 2 its two
    # crystals are exactly B^<(a, b) and B^>(a, b)
    counts = {(1, 1): (2, 30), (2, 1): (2, 66), (2, 2): (2, 137)}
    for lam in itertools.product(range(1, 5), repeat=2):
        res = conjecture_search(2, lam)
        assert res.complete
        assert [g.edges for g in res.graphs] == [sl3_blt(*lam).edges, sl3_bgt(*lam).edges], lam
        if lam in counts:
            assert (res.selections, res.nodes) == counts[lam]
    res = conjecture_search(3, (1, 0, 1))
    assert res.complete
    assert [g.edges for g in res.graphs] == EXHAUSTIVE_101
    assert (res.selections, res.nodes) == (2, 82)


def _both_validators(g, W):
    """The reference verdict: the oracle pairing and the local axioms."""
    return oracles.dict_iso_report(g, W)[0] and check_local_axioms(g)["passed"]


def _product_crystals(n, lam, cand, pts):
    """Crystal edge sets by the product-then-filter oracle, validated by
    both validators on graphs that carry no weight table."""
    W = word_oracle(n, lam)
    weights = {v: _weight_of_point(lam, v) for v in pts}
    return oracles.product_search(
        n, pts, cand, weights,
        lambda edges: _both_validators(CrystalGraph(lam=lam, vertices=pts, edges=edges), W),
    )


def test_engine_matches_product_search():
    for n, lam in [(2, lam) for lam in ((1, 1), (2, 1), (2, 2), (4, 1), (1, 4), (1, 3))] + [
        (3, (1, 0, 0)), (3, (0, 1, 0)), (3, (0, 0, 1)), (3, (1, 0, 1)), (3, (2, 0, 0)),
    ]:
        pts = fflv_points(n, lam)
        res = conjecture_search(n, lam)
        assert res.complete
        assert [g.edges for g in res.graphs] == _product_crystals(
            n, lam, _candidate_map(n, pts), pts
        ), (n, lam)


def _fixed_k_reference(n, k, lam, moves):
    """fixed_k_check's verdict from the candidate map ``moves``: a forced
    graph of all fixed-k moves judged by both validators, else the
    product-then-filter search over them."""
    pts = fflv_points(n, lam)
    cand = {key: [ce for ce in ces if ce.k == k] for key, ces in moves.items()}
    if all(len(ces) <= 1 for ces in cand.values()):
        forced = frozenset((x, a, ces[0].target) for (x, a), ces in cand.items() if ces)
        return _both_validators(
            CrystalGraph(lam=lam, vertices=pts, edges=forced), word_oracle(n, lam)
        )
    return bool(_product_crystals(n, lam, cand, pts))


def test_fixed_k_matches_product_search(monkeypatch):
    import fflv.crystal as crystal

    for n in (1, 2, 3):
        for k in range(1, n + 1):
            for r in (1, 2):
                lam = tuple(r if t == k else 0 for t in range(1, n + 1))
                moves = _candidate_map(n, fflv_points(n, lam))
                assert fixed_k_check(n, k, r) == _fixed_k_reference(n, k, lam, moves), (n, k, r)
    # a surplus fixed-k move where the oracle has no f-edge: color 1 at the
    # highest weight of omega_2, with the target of its one color-2 move.
    # The graph stays forced and is no crystal, though the selection that
    # leaves the surplus out still is one
    n, k, lam = 3, 2, (0, 1, 0)
    pts = fflv_points(n, lam)
    moves = _candidate_map(n, pts)
    top = (0,) * 6
    (down,) = moves[(top, 2)]
    assert moves[(top, 1)] == [] and down.k == k
    moves[(top, 1)] = [down._replace(a=1)]
    fixed = {key: [ce for ce in ces if ce.k == k] for key, ces in moves.items()}
    assert len(_product_crystals(n, lam, fixed, pts)) == 1
    assert not _fixed_k_reference(n, k, lam, moves)
    monkeypatch.setattr(crystal, "_candidate_map", lambda n, pts: moves)
    assert not fixed_k_check(n, k, 1)


def test_fixed_k_rules_unused_moves():
    # fixed_k_check's two rules: a forced graph must take every fixed-k
    # move, a search among choices ignores a move its crystal leaves
    # unused.  Count the (vertex, color) pairs with a fixed-k move but no
    # edge in the one crystal the engine finds: the forced rule would
    # answer False on the four searches among choices
    choice = {(3, 2, 2): 2, (3, 2, 3): 8, (4, 2, 2): 7, (4, 3, 2): 7}
    cases = [(n, k, r) for n in (1, 2, 3, 4) for k in range(1, n + 1) for r in (1, 2)]
    for n, k, r in cases + [(3, 2, 3)]:
        lam = fundamental_weight(n, k, r)
        pts = fflv_points(n, lam)
        cand = {
            key: [ce for ce in ces if ce.k == k]
            for key, ces in _candidate_map(n, pts).items()
        }
        graphs, _, complete = _crystals(pts, cand, word_oracle(n, lam), SEARCH_BUDGET)
        assert complete and len(graphs) == 1, (n, k, r)
        taken = {(u, a) for u, a, _ in graphs[0].edges}
        unused = sum(1 for key, ces in cand.items() if ces and key not in taken)
        forced = all(len(ces) <= 1 for ces in cand.values())
        assert forced == ((n, k, r) not in choice), (n, k, r)
        assert unused == choice.get((n, k, r), 0), (n, k, r)
        assert fixed_k_check(n, k, r)


def test_engine_pairs_no_point_set_that_cannot_be_a_crystal():
    # one point short, or no point of highest weight: the engine returns no
    # crystal, visits no node and reports the search complete
    W = word_oracle(2, (1, 1))
    pts = list(fflv_points(2, (1, 1)))
    for points in (pts[:-1], [(5, 5, 5) if p == (0, 0, 0) else p for p in pts]):
        vertices = PointSet(points)
        assert _crystals(vertices, _candidate_map(2, vertices), W, SEARCH_BUDGET) == ([], 0, True)


def test_conjecture_budget_counts_engine_nodes():
    assert conjecture_search(2, (2, 2)).nodes == 137
    assert conjecture_search(2, (2, 2), budget=137).complete
    res = conjecture_search(2, (2, 2), budget=136)
    assert not res.complete
    assert res.nodes == 137


def test_weights_computed_once_per_point(monkeypatch):
    import fflv.crystal as crystal

    calls = Counter()

    def counted(lam, x):
        calls[x] += 1
        return _weight_of_point(lam, x)

    monkeypatch.setattr(crystal, "_weight_of_point", counted)
    for run, n, lam in (
        (lambda: conjecture_search(2, (2, 2)), 2, (2, 2)),
        (lambda: conjecture_search(3, (1, 0, 1)), 3, (1, 0, 1)),
        (lambda: conjecture_search(2, (1, 1), sigma=(2, 1), mode="greedy"), 2, (1, 1)),
        (lambda: fixed_k_check(2, 1, 2), 2, (2, 0)),
        (lambda: fixed_k_check(3, 2, 1), 3, (0, 1, 0)),
    ):
        calls.clear()
        run()
        assert calls == Counter(fflv_points(n, lam)), (n, lam)


def test_work_done_once_per_call(monkeypatch):
    import fflv.crystal as crystal

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(crystal, "fflv_points", counted("points", crystal.fflv_points))
    monkeypatch.setattr(crystal, "word_oracle", counted("oracle", crystal.word_oracle))
    # the exhaustive (2,2) search validates every pairing against one oracle
    for run, oracles in (
        (lambda: crystal.pb_graph(2, (2, 2)), 0),
        (lambda: crystal._candidate_map(2, crystal.fflv_points(2, (2, 2))), 0),
        (lambda: crystal.conjecture_search(2, (2, 2)), 1),
        (lambda: crystal.conjecture_search(2, (1, 1), sigma=(2, 1), mode="greedy"), 1),
        (lambda: crystal.fixed_k_check(2, 1, 2), 1),
    ):
        calls.clear()
        run()
        assert calls == Counter(points=1, oracle=oracles)


def test_oracle_pairing_alone_decides(monkeypatch):
    import fflv.crystal as crystal

    def forbidden(*args, **kwargs):
        raise AssertionError("validator called")

    # engine leaves are isomorphic to the oracle by construction: the
    # exhaustive search and both kinds of fixed-k check, a search among
    # selections (3,2,2) and a forced graph (3,2,1), call no validator
    monkeypatch.setattr(crystal, "check_oracle_iso", forbidden)
    monkeypatch.setattr(crystal, "check_local_axioms", forbidden)
    assert len(conjecture_search(2, (2, 2)).graphs) == 2
    assert len(conjecture_search(3, (1, 0, 1)).graphs) == 2
    assert fixed_k_check(3, 2, 2)
    assert fixed_k_check(3, 2, 1)
    # a greedy selection is judged by the oracle pairing alone, once,
    # through check_oracle_iso
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        crystal, "check_oracle_iso", counted("check_oracle_iso", check_oracle_iso)
    )
    assert len(conjecture_search(2, (1, 1), sigma=(2, 1), mode="greedy").graphs) == 1
    assert calls == Counter(check_oracle_iso=1)


def test_crystal_counters_pinned(layer_counters):
    # scripts/layer_counters.py counts by function name: a renamed
    # validator or search step must fail here, not read 0
    assert layer_counters.count("crystal", 1) == {
        "seed": 1, "cases": 125, "search_nodes": 1172, "pairings": 37,
        "iso_report_calls": 68, "local_axiom_calls": 50, "weight_calls": 4061,
        "move_calls": 2123, "candidates": 6208,
    }


def test_crystal_counters_check_their_cases(monkeypatch, layer_counters):
    # PB graphs built from corrupted candidate moves fail the crystal
    # workload's checks, so the tool raises rather than pin their counts
    import fflv.crystal as crystal

    moves = crystal._moves
    monkeypatch.setattr(crystal, "_moves", lambda n, pts, x: moves(n, pts, x)[:-1])
    try:
        layer_counters.count("crystal", 1)
    except RuntimeError as exc:
        assert "crystal case(s) failed: pb_graph" in str(exc)
    else:
        raise AssertionError("corrupted moves passed the counters' checks")


def test_conjecture_budget_flag(monkeypatch):
    import fflv.crystal as crystal

    res = conjecture_search(2, (1, 1), budget=3)
    assert not res.complete
    monkeypatch.setattr(crystal, "SEARCH_BUDGET", 3)  # the default budget
    assert conjecture_search(2, (1, 1)) == res
    for mode in ("exhaustive", "greedy"):
        for budget in (0, -5):
            try:
                conjecture_search(2, (1, 1), mode=mode, budget=budget)
            except ValueError:
                pass
            else:
                raise AssertionError(f"budget {budget} accepted in {mode} mode")
        for budget in (2.5, 3.0, "3"):  # never truncated or compared as a float
            try:
                conjecture_search(2, (1, 1), mode=mode, budget=budget)
            except TypeError:
                pass
            else:
                raise AssertionError(f"budget {budget!r} accepted in {mode} mode")
    for sigma in ((1.0, 2.0), (1, 2.5), ("1", "2"), "12"):  # read like the budget
        try:
            conjecture_search(2, (1, 1), sigma=sigma, mode="greedy")
        except TypeError:
            pass
        else:
            raise AssertionError(f"sigma {sigma!r} accepted")
    try:
        conjecture_search(2, (1, 1), mode="greedy", budget=3)
    except ValueError as exc:
        assert str(exc) == "budget applies only to exhaustive mode"
    else:
        raise AssertionError("a budget accepted in greedy mode")


def test_conjecture_greedy_recovers_sl3_graphs():
    res = conjecture_search(2, (1, 1), sigma=(1, 2), mode="greedy")
    assert [g.edges for g in res.graphs] == [sl3_bgt(1, 1).edges]
    res = conjecture_search(2, (1, 1), sigma=(2, 1), mode="greedy")
    assert [g.edges for g in res.graphs] == [sl3_blt(1, 1).edges]
    # the no-backtrack walk is a heuristic: on (2,2) it dead-ends under both
    # sigmas, assembles no selection and must not claim completeness
    for sigma in ((1, 2), (2, 1)):
        res = conjecture_search(2, (2, 2), sigma=sigma, mode="greedy")
        assert res.mode == "greedy"
        assert (res.graphs, res.complete, res.selections) == ([], False, 0)


def test_fixed_k_fundamental_cases():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            assert fixed_k_check(n, k, 1), (n, k)
    assert fixed_k_check(2, 1, 2)
    assert fixed_k_check(2, 2, 2)
    assert fixed_k_check(3, 2, 2)


def test_fixed_k_exhausted_search_raises(monkeypatch):
    import fflv.crystal as crystal

    # (3,2,2) has two fixed-k candidates at some vertex; its search visits
    # 63 nodes and finds its one crystal at the last of them
    monkeypatch.setattr(crystal, "SEARCH_BUDGET", 62)
    try:
        fixed_k_check(3, 2, 2)
    except RuntimeError:
        pass
    else:
        raise AssertionError("an exhausted fixed-k search returned a verdict")
    monkeypatch.setattr(crystal, "SEARCH_BUDGET", 63)
    assert fixed_k_check(3, 2, 2)


def test_crystal_dot_output():
    g = sl3_bgt(1, 1)
    dot = crystal_to_dot(g)
    assert dot == crystal_to_dot(sl3_bgt(1, 1))
    assert dot.startswith("digraph")
    assert dot.count("->") == 8
    assert dot.count(";") == 8 + 8
    assert "color=red" in dot and "color=blue" in dot
