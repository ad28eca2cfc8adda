"""Tilings, strips, peeling, dual crossings, and the Lusztig H-description.

The small frozen cases ((1,2,1), (2,1,2), i^2 at n=3) were worked out by
hand; they pin every orientation convention in the module.
"""

import random
from itertools import combinations, product

from fflv.fflv import fflv_points, weyl_dim
from fflv.roots import (
    Root,
    all_reduced_words,
    fundamental_weight,
    ik_word,
    lexmax_word,
    lexmin_word,
    num_roots,
    positive_roots,
    random_reduced_word,
    root_index,
)
from fflv.polytope import HPolytope, PointSet, _one_run, lattice_points
from fflv.tiling import (
    DualCrossing,
    PeelStallError,
    Tile,
    Tiling,
    _crossing_row,
    build_tiling,
    check_rectangle_support,
    dual_crossings,
    lusztig_hrep,
    lusztig_points,
    peel_order,
    reineke_filter,
    strip,
    tiling_to_json,
    tiling_to_svg,
)

import oracles


fs = frozenset


def edge_keys(edges):
    return {(e.bottom, e.label) for e in edges}


def test_build_121_frozen():
    T = build_tiling((1, 2, 1))
    assert [t.labels for t in T.tiles] == [(1, 2), (1, 3), (2, 3)]
    t1, t2, t3 = T.tiles
    assert edge_keys(t1.lower) == {(fs(), 1), (fs({1}), 2)}
    assert edge_keys(t1.upper) == {(fs(), 2), (fs({2}), 1)}
    assert edge_keys(t2.lower) == {(fs({2}), 1), (fs({1, 2}), 3)}
    assert edge_keys(t2.upper) == {(fs({2}), 3), (fs({2, 3}), 1)}
    assert edge_keys(t3.lower) == {(fs(), 2), (fs({2}), 3)}
    assert edge_keys(t3.upper) == {(fs(), 3), (fs({3}), 2)}
    assert [e.label for e in T.right_boundary] == [1, 2, 3]
    assert T.right_boundary[0].bottom == fs({2, 3})


def test_build_212_frozen():
    T = build_tiling((2, 1, 2))
    assert [t.labels for t in T.tiles] == [(2, 3), (1, 3), (1, 2)]
    u1, u2, u3 = T.tiles
    assert edge_keys(u1.upper) == {(fs({1}), 3), (fs({1, 3}), 2)}
    assert edge_keys(u2.upper) == {(fs(), 3), (fs({3}), 1)}
    assert edge_keys(u3.lower) == {(fs({3}), 1), (fs({1, 3}), 2)}
    assert edge_keys(u3.upper) == {(fs({3}), 2), (fs({2, 3}), 1)}


def test_build_tiling_n3_label_pairs():
    for word in (lexmin_word(3), lexmax_word(3)):
        T = build_tiling(word)
        assert sorted(t.labels for t in T.tiles) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]


def test_tile_root_bijection():
    for word in all_reduced_words(3):
        T = build_tiling(word)
        assert {t.root for t in T.tiles} == set(positive_roots(3))
        for t in T.tiles:
            assert t.root == Root(t.s, t.t - 1)


def test_build_tiling_rejects_non_reduced():
    try:
        build_tiling((1, 1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_build_tiling_checks_tiles_against_roots(monkeypatch):
    import fflv.tiling as tiling

    enum = tiling.root_enumeration
    monkeypatch.setattr(tiling, "root_enumeration", lambda w, n: enum(w, n)[::-1])
    try:
        build_tiling((1, 2, 1))
    except RuntimeError as exc:
        assert "is not root" in str(exc)
    else:
        raise AssertionError("a tile/root mismatch must raise")


def test_borders_evolve_two_edges_at_a_time():
    for word in [lexmin_word(3), (2, 1, 3, 2, 3, 1)]:
        T = build_tiling(word)
        borders = oracles.replay_borders(T)
        assert len(borders) == len(word) + 1
        for b0, b1 in zip(borders, borders[1:]):
            assert len(set(b0) - set(b1)) == 2
            assert len(set(b1) - set(b0)) == 2
        for b in borders:
            assert sorted(e.label for e in b) == list(range(1, T.m + 1))


def test_strip_frozen_lexmin3():
    T = build_tiling(lexmin_word(3))
    assert [t.labels for t in strip(T, 1)] == [(1, 2), (1, 3), (1, 4)]


def test_strips_structure():
    for word in all_reduced_words(3):
        T = build_tiling(word)
        strips = {t: strip(T, t) for t in range(1, T.m + 1)}
        for t, st in strips.items():
            assert len(st) == T.m - 1
            assert all(t in tile.labels for tile in st)
        for t, u in combinations(range(1, T.m + 1), 2):
            common = set(x.id for x in strips[t]) & set(x.id for x in strips[u])
            assert len(common) == 1
            (cid,) = common
            assert T.tiles[cid].labels == (t, u)


def _expect_runtime_error(action, *fragments):
    try:
        action()
    except RuntimeError as exc:
        for fragment in fragments:
            assert fragment in str(exc), (fragment, str(exc))
    else:
        raise AssertionError("a corrupt tiling must raise RuntimeError")


def test_tiles_sharing_two_edges_are_rejected():
    T = build_tiling(lexmin_word(3))
    a, (b, _) = T.tiles[0], T.neighbors[0][0]
    second = next(e for e in a.all_edges if b not in T.incidence[e])
    incidence = dict(T.incidence)
    incidence[second] = (a, b)
    _expect_runtime_error(
        lambda: Tiling(T.word, T.tiles, T.left_boundary, T.right_boundary, incidence),
        f"tiles {a.id} and {b.id} share more than one edge",
    )


def test_tiling_rank_is_the_largest_letter():
    # a reduced word of the longest element of S_{n+1} uses every letter
    # 1..n, so the word alone fixes n and m = n + 1
    for word in ((1,), (1, 2, 1), lexmax_word(4)):
        T = build_tiling(word)
        rebuilt = Tiling(T.word, T.tiles, T.left_boundary, T.right_boundary, T.incidence)
        assert (rebuilt.n, rebuilt.m) == (T.n, T.m) == (max(word), max(word) + 1)
        assert rebuilt.neighbors == T.neighbors
    try:
        Tiling(2, 3, T.word, T.tiles, T.left_boundary, T.right_boundary, T.incidence)
    except TypeError:
        pass
    else:
        raise AssertionError("Tiling takes no rank")


def test_tiles_and_crossings_are_values():
    # equal fields give equal, equally hashed objects, whatever their identity
    one, two = build_tiling((1, 2, 1)), build_tiling((1, 2, 1))
    assert all(a is not b for a, b in zip(one.tiles, two.tiles))
    assert one.tiles == two.tiles and set(one.tiles) == set(two.tiles)
    assert len(set(one.tiles + two.tiles)) == 3
    t = one.tiles[0]
    twin = Tile(t.id, t.s, t.t, t.lower, t.upper, t.root)
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    assert Tile(t.id + 1, t.s, t.t, t.lower, t.upper, t.root) != t
    assert t != tuple(t.labels) and t.__eq__(t.labels) is NotImplemented

    crs, again = dual_crossings(one, 1), dual_crossings(two, 1)
    assert crs == again and {hash(c) for c in crs} == {hash(c) for c in again}
    cr = crs[0]
    twin = DualCrossing(cr.tiles, cr.s, cr.entering_leaving)
    assert twin == cr and hash(twin) == hash(cr) and {twin: 1}[cr] == 1
    assert twin.strip_sequence == cr.strip_sequence
    assert DualCrossing(cr.tiles, cr.s + 1, cr.entering_leaving) != cr


def test_labels_and_windows_must_be_integers():
    # a float label or window is never truncated or used as an index
    T = build_tiling((1, 2, 1))
    for call in (strip, peel_order, dual_crossings):
        for bad in (1.0, 2.0):
            try:
                call(T, bad)
            except TypeError as exc:
                assert str(exc) == "'float' object cannot be interpreted as an integer"
            else:
                raise AssertionError(f"{call.__name__} accepted {bad!r}")


def test_peel_frozen_121():
    T = build_tiling((1, 2, 1))
    assert peel_order(T, 4) == {1: 1, 0: 2, 2: 3}  # T2 first, then T1, then T3


def test_peel_frozen_212():
    T = build_tiling((2, 1, 2))
    assert peel_order(T, 5) == {2: 1, 0: 2, 1: 3}  # U3, U1, U2


def test_peel_from_right_boundary_n2():
    # with the window equal to the right boundary, layer 1 is the unique
    # tile meeting it in two edges
    T = build_tiling(lexmin_word(2))
    first = [tid for tid, lv in peel_order(T, 2 * T.m).items() if lv == 1]
    assert first == [2]  # the {2,3} tile


def test_peel_never_stalls_small():
    for n in (2, 3):
        for word in all_reduced_words(n):
            T = build_tiling(word)
            for s in range(1, 2 * T.m + 1):
                assert sorted(peel_order(T, s)) == list(range(len(T.tiles)))


def test_peel_random_words():
    rng = random.Random(424242)
    for n, reps in [(4, 10), (5, 6)]:
        for _ in range(reps):
            word = random_reduced_word(n, rng)
            T = build_tiling(word)
            for s in range(1, 2 * T.m + 1):
                peel_order(T, s)  # raises PeelStallError on failure


def test_dual_crossings_frozen_121():
    T = build_tiling((1, 2, 1))
    g1 = dual_crossings(T, 1)
    by_seq = {cr.strip_sequence: cr for cr in g1}
    assert set(by_seq) == {(1, 3, 2), (1, 2)}
    assert [t.labels for t in by_seq[(1, 3, 2)].tiles] == [(1, 3), (2, 3)]
    assert [t.labels for t in by_seq[(1, 2)].tiles] == [(1, 3), (1, 2), (2, 3)]
    # x12 <= lam_1 and x11 + x12 - x22 <= lam_1, in canonical order
    fns = {oracles.crossing_functional(T, 1, cr)[0] for cr in g1}
    assert fns == {(0, 1, 0), (1, 1, -1)}

    g2 = dual_crossings(T, 2)
    assert len(g2) == 1 and g2[0].tiles[0].labels == (2, 3)
    assert oracles.crossing_functional(T, 2, g2[0])[0] == (0, 0, 1)
    assert reineke_filter(g1) == g1 and reineke_filter(g2) == g2


def test_dual_crossings_frozen_212():
    T = build_tiling((2, 1, 2))
    g1 = dual_crossings(T, 1)
    assert len(g1) == 1 and g1[0].strip_sequence == (1, 2)
    assert oracles.crossing_functional(T, 1, g1[0])[0] == (1, 0, 0)
    g2 = reineke_filter(dual_crossings(T, 2))
    fns = {oracles.crossing_functional(T, 2, cr)[0] for cr in g2}
    assert fns == {(0, 1, 0), (-1, 1, 1)}
    seqs = {cr.strip_sequence for cr in g2}
    assert seqs == {(2, 1, 3), (2, 3)}


def test_dual_crossings_frozen_ik2_n3():
    # coordinates: x11,x12,x13,x22,x23,x33
    T = build_tiling(ik_word(3, 2))
    g2 = dual_crossings(T, 2)
    assert reineke_filter(g2) == g2  # Reineke removes nothing at s=k
    fns = {oracles.crossing_functional(T, 2, cr)[0] for cr in g2}
    assert fns == {
        (-1, 1, 0, 1, 1, -1),
        (-1, 1, 1, 0, 1, -1),
        (-1, 0, 1, 0, 1, 0),
        (0, 1, 1, 0, 0, -1),
        (0, 0, 1, 0, 0, 0),
    }
    assert {oracles.crossing_functional(T, 1, cr)[0] for cr in dual_crossings(T, 1)} == {
        (1, 0, 0, 0, 0, 0)
    }
    assert {oracles.crossing_functional(T, 3, cr)[0] for cr in dual_crossings(T, 3)} == {
        (0, 0, 0, 0, 0, 1)
    }


def test_crossing_search_applies_the_role_rule():
    # no real tiling breaks the role rule, so relabel the edge one neighbour
    # pair shares to a label neither tile carries: the search must drop
    # exactly the crossings through that pair, as the per-path assembly does
    word = lexmin_word(3)
    clean = build_tiling(word)
    before = {s: dual_crossings(clean, s) for s in (1, 2, 3)}
    dropped = 0
    pairs = [(a, nb.id) for a, steps in clean.neighbors.items() for nb, _ in steps if a < nb.id]
    for a, b in pairs:
        T = build_tiling(word)
        tile_a, tile_b = T.tiles[a], T.tiles[b]
        alien = min(set(range(1, T.m + 1)) - set(tile_a.labels) - set(tile_b.labels))
        for x, y in ((a, b), (b, a)):
            T.neighbors[x] = tuple(
                (nb, alien if nb.id == y else label) for nb, label in T.neighbors[x]
            )
        for s, crossings in before.items():
            through = [
                cr for cr in crossings
                if any({g1.id, g2.id} == {a, b} for g1, g2 in zip(cr.tiles, cr.tiles[1:]))
            ]
            assert dual_crossings(T, s) == [cr for cr in crossings if cr not in through]
            assert all(oracles.assemble_crossing(T, s, cr.tiles) is None for cr in through)
            dropped += len(through)
    assert dropped > 0


def test_comb_exists_everywhere():
    for word in all_reduced_words(3):
        T = build_tiling(word)
        for s in range(1, 4):
            combs = [
                cr for cr in dual_crossings(T, s)
                if cr.strip_sequence == (s, s + 1)
            ]
            assert len(combs) == 1
            assert combs[0] in reineke_filter(dual_crossings(T, s))


def test_crossing_coefficients_in_range():
    rng = random.Random(3)
    words = list(all_reduced_words(3)) + [random_reduced_word(4, rng) for _ in range(5)]
    for word in words:
        n = max(word)
        T = build_tiling(word)
        for s in range(1, n + 1):
            for cr in dual_crossings(T, s):
                coeffs, structure = oracles.crossing_functional(T, s, cr)
                assert set(coeffs) <= {-1, 0, 1}
                assert cr.strip_sequence[0] == s
                assert cr.strip_sequence[-1] == s + 1
                for item in structure:
                    if item["epsilon"] == 1:
                        assert item["coeff"] == 1


def test_crossings_contained_in_comb_outside_rectangle():
    """For the word i^k at s=k, tiles a crossing uses outside the
    k-rectangle are a subset of the comb's out-of-rectangle tiles."""
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            T = build_tiling(ik_word(n, k))
            crs = dual_crossings(T, k)
            (comb,) = [cr for cr in crs if cr.strip_sequence == (k, k + 1)]
            comb_out = {
                t.id for t in comb.tiles if not (t.s <= k and t.t >= k + 1)
            }
            for cr in crs:
                out = {t.id for t in cr.tiles if not (t.s <= k and t.t >= k + 1)}
                assert out <= comb_out


def test_restricted_functionals_are_dyck_supports():
    """At s=k on i^k, each row restricted to the rectangle is 0/1 and lies on
    some maximal monotone path through the rectangle."""
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            T = build_tiling(ik_word(n, k))
            idx = root_index(n)
            rect = [r for r in positive_roots(n) if r.i <= k <= r.j]
            paths = oracles.grid_path_supports(k, n)
            for cr in reineke_filter(dual_crossings(T, k)):
                coeffs, _ = oracles.crossing_functional(T, k, cr)
                restr = {(r.i, r.j) for r in rect if coeffs[idx[r]] != 0}
                assert all(coeffs[idx[r]] == 1 for r in rect if coeffs[idx[r]])
                assert any(restr <= p for p in paths)


def test_lusztig_hrep_frozen_points():
    pts = lusztig_points((1, 2, 1), (1, 0))
    assert set(pts) == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    assert len(lusztig_points(ik_word(3, 2), fundamental_weight(3, 2))) == 6
    assert list(lusztig_points((1, 2, 1), (0, 0))) == [(0, 0, 0)]


def test_lusztig_hrep_shape():
    P = lusztig_hrep((1, 2, 1), (3, 5))
    assert set(P.rows) == {
        ((0, 1, 0), 3),
        ((1, 1, -1), 3),
        ((0, 0, 1), 5),
    }
    assert P.dim == num_roots(2)


def test_lusztig_counts_small():
    for word in all_reduced_words(2):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            assert len(lusztig_points(word, lam)) == weyl_dim(2, lam)
    for word in [lexmin_word(3), lexmax_word(3), ik_word(3, 2)]:
        for lam in [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 2, 0)]:
            assert len(lusztig_points(word, lam)) == weyl_dim(3, lam)


def test_lusztig_rejects_non_integer_input():
    # operator.index semantics: never truncated to 1 or parsed from "1"
    for word, lam in [
        ((1, 2, 1), (1.7, 0)),
        ((1, 2, 1), ("1", 0)),
        ((1.0, 2, 1), (1, 0)),
        (("1", 2, 1), (1, 0)),
    ]:
        for build in (lusztig_hrep, lusztig_points):
            try:
                build(word, lam)
            except TypeError:
                pass
            else:
                raise AssertionError(f"{build.__name__}({word}, {lam}) should have raised")
    try:
        build_tiling((2.0, 1, 2))
    except TypeError:
        pass
    else:
        raise AssertionError("a float letter should have raised")
    with _one_run():  # (1.0, 2, 1) == (1, 2, 1): the memo must not answer it
        lusztig_points((1, 2, 1), (1, 0))
        lusztig_points((1, 2, 1), (1, 0), 2)
        fflv_points(2, (1, 0))
        for build, args in [
            (lusztig_points, ((1.0, 2, 1), (1, 0))),
            (lusztig_points, ((1, 2, 1), (1, 0), 2.0)),
            (lusztig_hrep, ((1, 2, 1), (1, 0), 2.0)),
            (fflv_points, (2.0, (1, 0))),
        ]:
            try:
                build(*args)
            except TypeError:
                pass
            else:
                raise AssertionError(f"{build.__name__}{args} should have raised inside a run")


def test_reineke_filter_changes_no_point_set():
    # the filter only saves rows: every word at n <= 3 on every 0/1 weight,
    # and all 768 words at n = 4 on (1,1,1,1), give the points of all rows
    cases = [
        (word, lam)
        for n in (1, 2, 3)
        for word in all_reduced_words(n)
        for lam in product((0, 1), repeat=n)
        if any(lam)
    ]
    cases += [(word, (1, 1, 1, 1)) for word in all_reduced_words(4)]
    assert len(cases) == 1 + 2 * 3 + 16 * 7 + 768
    checked, dropped = set(), 0
    for word, lam in cases:
        n = len(lam)
        idx, dim = root_index(n), num_roots(n)
        T = build_tiling(word, n)
        every = [cr for s in range(1, n + 1) for cr in dual_crossings(T, s)]
        kept = reineke_filter(every)
        dropped += len(every) - len(kept)
        key = tuple(
            frozenset((_crossing_row(cr.s, cr, idx, dim), lam[cr.s - 1]) for cr in crs)
            for crs in (kept, every)
        )
        if key not in checked:  # the words of a commutation class repeat rows
            checked.add(key)
            filtered, unfiltered = (lattice_points(HPolytope.make(dim, rows)) for rows in key)
            assert filtered == unfiltered, (word, lam)
    assert dropped > 0


def test_ik_lusztig_equals_fflv_on_its_weight():
    # for lambda supported on k, the i^k system carves out the same lattice
    # points as the Dyck-path system
    for n in (2, 3):
        for k in range(1, n + 1):
            for r in (1, 2):
                lam = tuple(r if t == k else 0 for t in range(1, n + 1))
                assert lusztig_points(ik_word(n, k), lam) == fflv_points(n, lam)


def test_check_rectangle_support():
    assert check_rectangle_support(2, 1, 1)
    assert check_rectangle_support(3, 2, 1)
    assert check_rectangle_support(3, 1, 0)
    for n in (2, 3):
        for k in range(1, n + 1):
            for r in (0, 1, 2):
                assert check_rectangle_support(n, k, r)


def test_tiling_json_and_svg():
    T = build_tiling(lexmin_word(3))
    doc = tiling_to_json(T)
    assert doc["n"] == 3 and doc["m"] == 4
    assert len(doc["tiles"]) == 6
    assert sorted(doc["strips"]) == [1, 2, 3, 4]
    assert all(len(v) == 3 for v in doc["strips"].values())
    assert set(doc["peel_layers"]) == set(range(1, 9))
    svg = tiling_to_svg(T)
    assert svg.startswith("<svg") and svg.count("<polygon") == 6
    assert svg == tiling_to_svg(build_tiling(lexmin_word(3)))  # deterministic


def test_tiling_layers_match_the_unpruned_oracles():
    """Incremental peeling, the pruned crossing search that assembles its
    crossings, the neighbour table and the strips read in fold order
    reproduce the recount-every-layer peeling, the full neighbour path
    enumeration with per-path assembly and the incidence strip walks: same
    layers, strips, crossings and H-rows, in the same order."""
    rng = random.Random(20261018)
    words = [w for n in (1, 2, 3, 4) for w in all_reduced_words(n)]
    words += [random_reduced_word(n, rng) for n in (5, 6) for _ in range(20)]
    assert len(words) == 1 + 2 + 16 + 768 + 40
    for word in words:
        n = max(word)
        T = build_tiling(word)
        edges = [set(tile.all_edges) for tile in T.tiles]
        labels = [{nb.id: label for nb, label in T.neighbors[a]} for a in range(len(T.tiles))]
        assert all(list(table) == sorted(table) for table in labels)  # neighbour-id order
        for a, b in combinations(range(len(T.tiles)), 2):
            shared = [e.label for e in edges[a] & edges[b]]
            assert shared == ([labels[a][b]] if b in labels[a] else [])
            assert labels[b].get(a) == labels[a].get(b)
        layers = {}
        for s in range(1, 2 * T.m + 1):
            layers[s] = oracles.recount_peel_layers(T, s)
            assert list(peel_order(T, s).items()) == list(layers[s].items())
        lam = tuple(range(1, n + 1))
        rows = []
        for t in range(1, T.m + 1):
            assert strip(T, t) == oracles.walk_strip(T, t)
        for s in range(1, n + 1):
            # ascent in the s-th crossing window is read off ids and labels
            # alone: a step a -> b through label t rises exactly when
            # (b.id > a.id) == (t > s)
            layer = layers[T.m + s]
            for a, steps in T.neighbors.items():
                for b, t in steps:
                    assert (layer[b.id] > layer[a]) == ((b.id > a) == (t > s)), (word, s, a, b.id)
            start, end = strip(T, s)[-1].id, strip(T, s + 1)[-1].id
            candidates = [
                oracles.assemble_crossing(T, s, tuple(T.tiles[i] for i in path))
                for path in oracles.ascending_neighbour_paths(T, layers[T.m + s], start, end)
            ]
            assembled = [a for a in candidates if a is not None]
            crossings = [cr for cr, _ in assembled]
            found = dual_crossings(T, s)
            assert found == crossings
            assert [cr.strip_sequence for cr in found] == [seq for _, seq in assembled]
            for cr in reineke_filter(crossings):
                row = (oracles.crossing_functional(T, s, cr)[0], lam[s - 1])
                if row not in rows:
                    rows.append(row)
        assert list(lusztig_hrep(word, lam).rows) == rows


def test_tiling_counters_pinned(layer_counters):
    # scripts/layer_counters.py counts by function name: a renamed search
    # step must fail here, not read 0
    assert layer_counters.count("words", 1) == {
        "seed": 1, "cases": 352, "dfs_nodes": 33642, "crossings_found": 8964,
        "crossings_kept": 8148, "peel_calls": 1536, "peel_layers": 16336,
        "hrep_rows": 8148,
    }


def test_tiling_counters_check_their_cases(monkeypatch, layer_counters):
    # a wrong point set fails the words workload's checks, so the tool
    # raises rather than pin the counts of a broken pass
    import fflv.tiling as tiling

    monkeypatch.setattr(
        tiling, "lusztig_points", lambda word, lam, n=None: PointSet([(0,) * len(word)])
    )
    try:
        layer_counters.count("words", 1)
    except RuntimeError as exc:
        assert "words case(s) failed" in str(exc)
    else:
        raise AssertionError("a wrong point set passed the counters' checks")


def test_layer_counters_reject_a_counter_of_no_function(monkeypatch, layer_counters):
    # a counter read by function name must name a function its workload's
    # modules define: after a rename it would read 0 without this check
    for name, workload in layer_counters.WORKLOADS.items():
        counters = {**workload.counters, "renamed": ("no_such_function", None)}
        ran = []
        monkeypatch.setitem(
            layer_counters.WORKLOADS, name,
            workload._replace(cases=lambda seed: ran.append(seed) or [], counters=counters),
        )
        try:
            layer_counters.count(name, 1)
        except ValueError as exc:
            assert str(exc) == f"{name} counters name no function of its modules: no_such_function"
        else:
            raise AssertionError(f"{name}: a counter of no function was counted")
        assert ran == []  # rejected before any case runs


def test_layer_counters_fail_when_the_first_counter_reads_0(monkeypatch, capsys, layer_counters):
    # the first counter of each workload is never 0 on a real pass: reading
    # 0 (after a rename, or here with no cases) is an error, not a count
    for name, workload in layer_counters.WORKLOADS.items():
        monkeypatch.setitem(layer_counters.WORKLOADS, name, workload._replace(cases=lambda seed: []))
        first = next(iter(workload.counters))
        try:
            layer_counters.main(["--workload", name])
        except SystemExit as exc:
            assert exc.code == f"error: {first} reads 0 on the {name} workload"
        else:
            raise AssertionError(f"{name}: a zero {first} passed")
    assert capsys.readouterr().out == ""
