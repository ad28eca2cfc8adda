"""Dyck paths, the FFLV H-description, fundamental points, Weyl dimensions."""

from itertools import combinations, product
from math import comb
from operator import setitem

from fflv import fflv
from fflv.fflv import (
    dyck_paths,
    fflv_hrep,
    fflv_points,
    fundamental_points,
    root_paths,
    weyl_dim,
)
from fflv.polytope import PointSet, contains, sumset
from fflv.roots import Root, fundamental_weight, positive_roots, root_index, weight_mu

import oracles


def weights_up_to(n, total):
    return [lam for lam in product(range(total + 1), repeat=n) if sum(lam) <= total]


def test_dyck_paths_frozen():
    assert dyck_paths(1) == [((Root(1, 1),), 1, 1)]
    two = {p.roots for p in dyck_paths(2)}
    assert two == {
        (Root(1, 1),),
        (Root(2, 2),),
        (Root(1, 1), Root(1, 2), Root(2, 2)),
    }


def test_dyck_paths_step_rule():
    for n in (2, 3, 4):
        for path in dyck_paths(n):
            assert path.roots[0] == Root(path.i, path.i)
            assert path.roots[-1] == Root(path.j, path.j)
            for (s, t), (s2, t2) in zip(path.roots, path.roots[1:]):
                assert (s2, t2) in {(s + 1, t), (s, t + 1)}
            # no repeats inside a single path
            assert len(set(path.roots)) == len(path.roots)


def test_root_paths_are_the_dyck_and_staircase_paths():
    # Dyck paths are the root paths alpha_{i,i} -> alpha_{j,j}, in order
    for n in (1, 2, 3, 4):
        assert [p.roots for p in dyck_paths(n)] == [
            path
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            for path in root_paths(Root(i, i), Root(j, j))
        ]
    assert root_paths(Root(1, 1), Root(2, 2)) == [
        (Root(1, 1), Root(1, 2), Root(2, 2)),
    ]
    # the staircase paths of the k-rectangle [1, k] x [k, n]
    for n in range(1, 7):
        for k in range(1, n + 1):
            paths = root_paths(Root(1, k), Root(k, n))
            assert len(paths) == comb(n - 1, k - 1)
            assert set(map(frozenset, paths)) == oracles.grid_path_supports(k, n)
    # an end the steps cannot reach has no path
    assert root_paths(Root(2, 2), Root(1, 3)) == []


def test_dyck_path_counts_match_dp_oracle():
    for n in range(1, 6):
        by_group = {}
        for p in dyck_paths(n):
            by_group.setdefault((p.i, p.j), 0)
            by_group[(p.i, p.j)] += 1
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert by_group[(i, j)] == oracles.staircase_path_count(n, i, j)


def test_fflv_hrep_frozen_n2():
    P = fflv_hrep(2, (3, 5))
    assert set(P.rows) == {
        ((1, 0, 0), 3),
        ((0, 0, 1), 5),
        ((1, 1, 1), 8),
    }


def test_fflv_hrep_zero_weight():
    for n in (1, 2, 3):
        pts = fflv_points(n, (0,) * n)
        assert list(pts) == [tuple([0] * pts.dim)]


def test_fflv_hrep_matches_a_fresh_construction():
    # the rows come from the per-rank cache; they must equal a construction
    # that walks the Dyck paths again, row for row
    cases = 0
    for n in range(1, 6):
        for lam in weights_up_to(n, 2):
            assert list(fflv_hrep(n, lam).rows) == oracles.fflv_rows(n, lam), (n, lam)
            cases += 1
    assert cases == 3 + 6 + 10 + 15 + 21  # the weights with sum <= 2 at n = 1..5


def test_dyck_rows_cache_is_immutable():
    rows = fflv._dyck_rows(3)
    assert fflv._dyck_rows(3) is rows  # one per rank
    assert type(rows) is tuple
    assert all(type(row) is tuple and type(row[0]) is tuple for row in rows)
    P = fflv_hrep(3, (1, 0, 2))
    assert all(a is row[0] for (a, _), row in zip(P.rows, rows))  # shared, not copied
    for name, corrupt in (
        ("replace a row", lambda: setitem(rows, 0, ((0,) * 6, 1, 1))),
        ("change a coefficient", lambda: setitem(rows[0][0], 0, 5)),
        ("change a row's range", lambda: setitem(rows[0], 1, 2)),
    ):
        try:
            corrupt()
        except TypeError:
            pass
        else:
            raise AssertionError(f"the cached rows let a caller {name}")
    assert list(fflv_hrep(3, (1, 0, 2)).rows) == oracles.fflv_rows(3, (1, 0, 2))


def test_fflv_hrep_omega2_rhs_pattern():
    P = fflv_hrep(3, fundamental_weight(3, 2))
    for path, (coeffs, rhs) in zip(dyck_paths(3), P.rows):
        assert rhs == (1 if path.i <= 2 <= path.j else 0)
        assert set(coeffs) <= {0, 1}
    assert len(P.rows) == len(dyck_paths(3))


def test_fflv_points_frozen_counts():
    assert len(fflv_points(2, (1, 1))) == 8
    assert len(fflv_points(2, (2, 2))) == 27
    assert set(fflv_points(2, (1, 1))) == {
        (0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0),
        (1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 2, 0),
    }


def test_fflv_counts_against_gt_oracle():
    """|FFLV_n(lam)_Z| agrees with both the Weyl formula and an independent
    Gelfand-Tsetlin pattern count, on a small sweep."""
    for n in (1, 2, 3):
        for lam in weights_up_to(n, 2):
            pts = fflv_points(n, lam)
            mu = weight_mu(lam)
            assert len(pts) == weyl_dim(n, lam) == oracles.gt_pattern_count(mu)


def test_single_coordinate_bound():
    # each x_{i,j} alone is a Dyck path, so it never exceeds its partial sum
    lam = (2, 0, 1)
    for p in fflv_points(3, lam):
        for r, v in zip(positive_roots(3), p):
            assert v <= sum(lam[r.i - 1 : r.j])


def test_fundamental_points_frozen():
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        pts = {fp.subset: fp.point for fp in fundamental_points(n, k)}
        assert pts[tuple(range(1, k + 1))] == tuple([0] * len(next(iter(pts.values()))))
    idx = root_index(3)
    p24 = dict((fp.subset, fp.point) for fp in fundamental_points(3, 2))[(2, 4)]
    assert p24 == tuple(1 if i == idx[Root(1, 3)] else 0 for i in range(6))
    assert len(fundamental_points(3, 2)) == comb(4, 2) == 6


def test_fundamental_points_are_the_lattice_points():
    for n in range(1, 6):
        for k in range(1, n + 1):
            fps = fundamental_points(n, k)
            lam = fundamental_weight(n, k)
            assert len(fps) == comb(n + 1, k) == weyl_dim(n, lam)
            assert len({fp.point for fp in fps}) == len(fps)
            P = fflv_hrep(n, lam)
            assert all(contains(P, fp.point) for fp in fps)
            assert PointSet([fp.point for fp in fps]) == fflv_points(n, lam)


def test_fundamental_point_subsets_are_sorted():
    for fp in fundamental_points(4, 2):
        assert fp.subset == tuple(sorted(fp.subset))
        assert set(fp.subset) <= set(range(1, 6))


def test_weyl_dim_frozen():
    assert weyl_dim(2, (1, 1)) == 8
    assert weyl_dim(2, (2, 2)) == 27
    assert weyl_dim(2, (2, 1)) == 15
    assert weyl_dim(3, (1, 1, 1)) == 64
    assert weyl_dim(3, (0, 2, 0)) == 20
    assert weyl_dim(4, (0, 2, 0, 0)) == 50
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert weyl_dim(n, fundamental_weight(n, k)) == comb(n + 1, k)


def test_minkowski_property_small():
    """FFLV lattice points add: points(lam) + points(mu) = points(lam + mu)."""
    for n in (1, 2, 3):
        lams = weights_up_to(n, 4)
        cache = {lam: fflv_points(n, lam) for lam in lams}
        for lam, mu in combinations(lams, 2):
            tot = tuple(a + b for a, b in zip(lam, mu))
            if sum(tot) > 4:
                continue
            assert sumset(cache[lam], cache[mu]) == cache[tot]


def test_rejects_non_dominant():
    for bad in [(-1, 0), (1,)]:
        try:
            fflv_hrep(2, bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"fflv_hrep(2, {bad}) should have raised")


def test_rejects_rank_below_one():
    for n in (0, -1):
        for name, call in (("weyl_dim", weyl_dim), ("fflv_points", fflv_points)):
            try:
                call(n, ())
            except ValueError as e:
                assert str(e) == "rank must be >= 1", name
            else:
                raise AssertionError(f"{name}({n}, ()) should have raised")


def test_rejects_non_integer_weight():
    for bad in [(1.5, 1), ("1", 1)]:
        try:
            fflv_points(2, bad)
        except TypeError:
            pass
        else:
            raise AssertionError(f"fflv_points(2, {bad}) should have raised")
