"""H-polytope enumeration, sumsets, and the support function of a sumset."""

import gc
import json
import random

import pytest

from fflv import fflv as fflv_module, polytope, tiling
from fflv.crystal import conjecture_search
from fflv.fflv import fflv_hrep, fflv_points, weyl_dim
from fflv.polytope import (
    HPolytope,
    PointSet,
    certified_box,
    contains,
    lattice_points,
    sumset,
)
from fflv.roots import all_reduced_words, fundamental_weight, ik_word, num_roots
from fflv.tiling import lusztig_hrep, lusztig_points
from fflv.verify import default_sweep, run_suite

import oracles


def fflv2(lam1, lam2):
    """Hand-rolled FFLV H-rep for n=2, coordinates (x11, x12, x22)."""
    return HPolytope.make(3, [
        ((1, 0, 0), lam1),
        ((0, 0, 1), lam2),
        ((1, 1, 1), lam1 + lam2),
    ])


EIGHT = [
    (0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0),
    (1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 2, 0),
]


def test_contains_frozen():
    P = fflv2(1, 1)
    assert contains(P, (0, 0, 0))
    assert contains(P, (1, 0, 1))
    assert not contains(P, (1, 0, 2))   # x22 <= 1 violated
    assert not contains(P, (-1, 0, 0))  # implicit nonnegativity


def test_contains_dimension_check():
    try:
        contains(fflv2(1, 1), (0, 0))
    except ValueError:
        pass
    else:
        raise AssertionError("expected dimension mismatch")


def test_rows_of_the_wrong_length_are_rejected():
    # make checks each row; a directly built HPolytope's rows are checked by
    # the enumerator's plan and by contains, which otherwise read only the
    # first min(len(row), dim) coefficients
    for dim, rows, error in (
        (1, (((1, 5), 3),), "row has 2 coefficients, dim is 1"),
        (2, (((1,), 2), ((1, 1), 3)), "row has 1 coefficients, dim is 2"),
    ):
        P = HPolytope(dim=dim, rows=rows)
        for call in (
            lambda: HPolytope.make(dim, rows),
            lambda: lattice_points(P),
            lambda: certified_box(P),
            lambda: contains(P, (1,) * dim),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == error


def test_dimension_mismatches_are_rejected():
    for call, error in (
        (lambda: PointSet([(1, 2)], dim=3), "points have dimension 2, expected 3"),
        (lambda: sumset(PointSet([(1,)]), PointSet([(1, 2)])), "dimension mismatch: 1 vs 2"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == error


def test_lattice_points_frozen_8():
    pts = lattice_points(fflv2(1, 1))
    assert set(pts) == set(EIGHT)
    assert len(pts) == 8


def test_lattice_points_frozen_27():
    assert len(lattice_points(fflv2(2, 2))) == 27


def test_lattice_points_zero_system():
    P = HPolytope.make(3, [((1, 1, 1), 0)])
    assert list(lattice_points(P)) == [(0, 0, 0)]
    empty = HPolytope.make(2, [((1, 1), -1)])  # negative certified bound
    assert certified_box(empty)[1] == [-1, -1]
    assert len(lattice_points(empty)) == 0
    # x0 <= 0 gives x0 the bound 0, so x0 gets no search level, yet it has
    # the coefficient -1 in the row that caps x1
    P = HPolytope.make(2, [((1, 0), 0), ((-1, 1), 2)])
    assert certified_box(P) == ([0, 1], [0, 2])
    got = set(lattice_points(P))
    assert got == {(0, 0), (0, 1), (0, 2)} == oracles.brute_force_points(P.rows, 2, 6)


def test_lattice_points_row_order_invariant():
    rows = [((1, 0, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 2)]
    a = lattice_points(HPolytope.make(3, rows))
    b = lattice_points(HPolytope.make(3, rows[::-1]))
    assert a == b


def _box_or_error(P):
    """(certified_box(P), the dense oracle's box), each as its ValueError
    text when it raises."""
    out = []
    for box, args in ((certified_box, (P,)), (oracles.dense_certified_box, (P.rows, P.dim))):
        try:
            out.append(box(*args))
        except ValueError as exc:
            out.append(str(exc))
    return out


def _random_systems():
    """400 random systems (dim, rows) of dim 1-3 with 1-3 rows, coefficients
    in [-2, 2], about one row in five all zero, rhs in [-2, 5]."""
    rng = random.Random(20260822)
    for _ in range(400):
        dim = rng.randrange(1, 4)
        nrows = rng.randrange(1, 4)
        rows = []
        for _ in range(nrows):
            if rng.randrange(5):
                coeffs = tuple(rng.randrange(-2, 3) for _ in range(dim))
            else:
                coeffs = (0,) * dim
            rows.append((coeffs, rng.randrange(-2, 6)))
        yield dim, rows


def test_lattice_points_against_brute_force():
    # Certifiable polytopes must match brute force over a box well past the
    # certified one; the others must raise instead of guessing a box.
    # Negative rhs and all-zero rows reach the root check of rows that touch
    # no level: such a row with rhs < 0 makes the polytope empty.  Every box
    # and every error text equals the dense oracle's.  The systems must keep
    # bounds of 0 (coordinates that get no search level), among them some
    # on a coordinate with a negative coefficient, and negative bounds
    # (empty before any search).
    certified = uncertified = zero_row_empty = 0
    zero_bound = negative_bound = zero_bound_negative_coefficient = 0
    for dim, rows in _random_systems():
        P = HPolytope.make(dim, rows)
        sparse, dense = _box_or_error(P)
        assert sparse == dense, rows
        try:
            _, bound = certified_box(P)
        except ValueError:
            uncertified += 1
            try:
                lattice_points(P)
            except ValueError:
                continue
            raise AssertionError(f"expected ValueError for {rows}")
        certified += 1
        zero_row_empty += any(not any(a) and b < 0 for a, b in rows)
        zero_bound += 0 in bound
        negative_bound += min(bound) < 0
        zero_bound_negative_coefficient += any(
            not v and any(a[d] < 0 for a, _ in rows) for d, v in enumerate(bound)
        )
        got = set(lattice_points(P))
        assert got == oracles.brute_force_points(rows, dim, 2 * max(bound) + 2)
        assert all(contains(P, p) for p in got)
    assert certified > 100 and uncertified > 100 and zero_row_empty > 3
    assert zero_bound >= 20 and negative_bound >= 20 and zero_bound_negative_coefficient >= 10


def _suite_polytopes():
    """The polytopes a default run_suite() enumerates, in order: ``fflv`` and
    ``tiling`` call ``lattice_points`` through their own bindings."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (fflv_module, tiling):
            mp.setattr(module, "lattice_points", lambda P: seen.append(P) or lattice_points(P))
        run_suite()
    return seen


def _planned(monkeypatch):
    """The list to which every later ``polytope._plan`` call appends its dim."""
    plans = []
    plan = polytope._plan
    monkeypatch.setattr(polytope, "_plan", lambda dim, rows: plans.append(dim) or plan(dim, rows))
    return plans


def test_one_plan_serves_every_right_hand_side(monkeypatch):
    # Inside one run each coefficient matrix is planned once and enumerated
    # under its own rhs b, b + 1, 2b and all -1 (empty once some row has no
    # negative coefficient, which a certifiable matrix of dim >= 1 has); a
    # suite matrix gets these with its first polytope, then every suite rhs.
    # Boxes, error texts and point sets equal the dense oracle's; the random
    # systems' points also equal brute force past the box, the suite's the
    # dense enumerator's.  The row-free systems of dim 0, 1 and 2 differ only
    # in their dimension: dim 0 has one point, the others no box.
    systems = [(dim, rows, True) for dim, rows in _random_systems()]
    systems += [(0, [], True), (1, [], True), (2, [], True)]
    systems += [(P.dim, P.rows, False) for P in _suite_polytopes()]
    plans = _planned(monkeypatch)
    matrices, failures, checked = set(), 0, set()
    with polytope._one_run():
        for dim, rows, brute in systems:
            coeffs = [a for a, _ in rows]
            b = [rhs for _, rhs in rows]
            empty = [-1] * len(b)
            variants = [b, [v + 1 for v in b], [2 * v for v in b], empty]
            if not brute and (dim, tuple(coeffs)) in matrices:
                variants = [b]  # the suite's own rhs; the others came with its first
            for rhs in variants:
                P = HPolytope.make(dim, zip(coeffs, rhs))
                if P in checked:
                    continue
                checked.add(P)
                box, dense = _box_or_error(P)
                assert box == dense, P
                if isinstance(dense, str):
                    failures += 1
                    try:
                        lattice_points(P)
                    except ValueError as exc:
                        assert str(exc) == dense
                    else:
                        raise AssertionError(f"expected ValueError for {P}")
                    continue
                matrices.add((dim, tuple(coeffs)))
                got = set(lattice_points(P))
                if brute:
                    want = oracles.brute_force_points(P.rows, dim, 2 * max(dense[1], default=0) + 2)
                else:
                    want = oracles.dense_lattice_points(P.rows, *dense)
                assert got == want, P
                assert not (rhs is empty and dim and got), P
    # a certifiable matrix is planned once; a failed plan is never stored,
    # so certified_box and lattice_points each plan again
    assert len(plans) == len(matrices) + 2 * failures
    assert len(matrices) > 80 and failures > 300


def test_library_calls_leave_no_reference_cycles():
    # a self-referencing closure in the enumerator would keep each
    # enumeration's lists alive until the cyclic collector runs
    calls = (
        ("fflv_points", lambda: fflv_points(3, (1, 1, 1))),
        ("lusztig_points", lambda: lusztig_points(ik_word(3, 2), (1, 1, 1))),
        ("conjecture_search", lambda: conjecture_search(2, (1, 1))),
        ("run_suite", run_suite),
    )
    for name, call in calls:
        call()  # the first call fills the per-rank caches
        gc.collect()
        gc.disable()
        try:
            call()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0, name


def test_sparse_enumerator_matches_dense_oracle():
    # every polytope a default run_suite() enumerates, all n <= 3 words at
    # the `words` weights, FFLV n=4, lambda=(2,1,1,2), and FFLV n=5 at
    # weights with zero entries, whose coordinates mostly have bound 0
    polytopes = set(_suite_polytopes())
    sweep = default_sweep()["words"] + [[1, [v]] for v in range(3)]
    for n, lam in sweep:
        for word in all_reduced_words(n):
            polytopes.add(lusztig_hrep(word, lam))
    big = fflv_hrep(4, (2, 1, 1, 2))
    polytopes.add(big)
    for lam in ((0, 0, 2, 0, 0), (1, 0, 0, 0, 1), (0, 1, 0, 2, 0)):
        polytopes.add(fflv_hrep(5, lam))
    for P in polytopes:
        box = oracles.dense_certified_box(P.rows, P.dim)
        assert certified_box(P) == box, P
        assert set(lattice_points(P)) == oracles.dense_lattice_points(P.rows, *box), P
    assert len(lattice_points(big)) == 6125


def test_enumerator_counters_pinned(layer_counters):
    # one default run_suite(), counted on polytope.py, tiling.py and
    # roots.py: polytopes enumerated, the points they hold, search nodes
    # and PointSet membership lookups.  The last level emits its
    # interval in one loop, so no node is a single point, and a coordinate
    # with bound 0 (417 of the 1 006 enumerated) gets no level; a change
    # that adds dead-end nodes breaks nodes <= 2 * points.  The claims sum
    # only the nonzero Lusztig summands.  The run enumerates each FFLV
    # (n, lambda) once and each Lusztig (crossing-row set, lambda, n) once,
    # so the words of one commutation class build one H-description and
    # one enumeration per lambda (112 for the 264 summand calls).  It plans
    # each of the 18 coefficient matrices it enumerates once and lists each
    # rank's words once
    counts = layer_counters.count("suite")
    assert counts == {
        "seed": 1, "cases": 1, "enum_nodes": 3913, "enumerations": 164,
        "points": 3115, "plans": 18, "coordinates": 1006, "zero_bounds": 417,
        "sumset_calls": 20,
        "contains_calls": 0,  # the claims compare hashed sets
        "lusztig_points_calls": 264, "lusztig_hrep_calls": 112,
        "reduced_words_calls": 2,
        # 23 words, each tiled and searched at every s once, shared by the
        # crossing rows and the dyck claims, which read the rows; the
        # filter keeps 159 of the 161 crossings found
        "tilings": 23, "crossing_searches": 69, "crossing_nodes": 373,
        "filter_calls": 69, "crossings_kept": 159,
    }
    assert counts["enum_nodes"] <= 2 * counts["points"]


def test_suite_counters_check_their_reports(monkeypatch, layer_counters):
    # a failed report fails the suite workload's check, so the tool raises
    # rather than pin the counts of a broken run
    import fflv.verify as verify

    filter_ = tiling.reineke_filter

    def drops_one_at_2(crossings):
        # one crossing fewer at s = 2 where several are kept: the dyck claim
        # fails and main(2, (1, 1)) still has a certified box
        kept = filter_(crossings)
        return kept[:-1] if len(kept) > 1 and kept[0].s == 2 else kept

    monkeypatch.setattr(tiling, "reineke_filter", drops_one_at_2)
    monkeypatch.setattr(verify, "default_sweep", lambda: {"main": [[2, [1, 1]]], "dyck": [[3, 2]]})
    try:
        layer_counters.count("suite")
    except RuntimeError as exc:
        assert "suite case(s) failed: run_suite: 1 report(s) failed: [FAIL] dyck(" in str(exc)
    else:
        raise AssertionError("a failed report passed the counters' checks")


def test_dimension_zero_has_one_point_or_none():
    assert list(lattice_points(HPolytope.make(0, []))) == [()]
    assert list(lattice_points(HPolytope.make(0, [((), 0)]))) == [()]
    assert len(lattice_points(HPolytope.make(0, [((), -1)]))) == 0
    assert certified_box(HPolytope.make(0, [((), -1)])) == ([], [])


def test_search_depth_meets_no_recursion_limit():
    # the simplex x_1 + ... + x_1200 <= 1 needs one search level per
    # coordinate, more than Python's default recursion limit of 1 000
    dim = 1200
    pts = lattice_points(HPolytope.make(dim, [((1,) * dim, 1)]))
    assert len(pts) == dim + 1
    assert (0,) * dim in pts and (0,) * (dim - 1) + (1,) in pts


def test_one_run_memoises_plans_but_not_failures(monkeypatch):
    plans = _planned(monkeypatch)
    good = fflv2(1, 1)
    loose = HPolytope.make(2, [((1, -1), 0)])  # no certified box
    errors = set()
    with polytope._one_run():
        first, again = lattice_points(good), lattice_points(fflv2(1, 1))
        assert first == again and first is not again  # points are enumerated per call
        for fn in (lattice_points, certified_box) * 3:
            try:
                fn(loose)
            except ValueError as exc:
                errors.add(str(exc))
            else:
                raise AssertionError("an uncertifiable polytope must raise")
        # the one stored value is the good plan: no points, no failed plan
        assert list(polytope._RUN.get()) == [("plan", 3, tuple(a for a, _ in good.rows))]
    assert errors == {"no certified box: [0, 1] have no capping row"}
    assert plans == [3] + [2] * 6  # the failing plan is rebuilt on every call
    assert polytope._RUN.get() is None
    lattice_points(good)
    assert plans[-1] == 3 and len(plans) == 8  # no memo outside a run


def test_no_plan_is_kept_outside_a_run(monkeypatch):
    plans = _planned(monkeypatch)
    for _ in range(2):
        assert len(lattice_points(fflv2(1, 1))) == 8
    assert plans == [3, 3]
    assert polytope._RUN.get() is None


def test_hpolytope_is_a_value(monkeypatch):
    P, Q = fflv_hrep(3, (1, 0, 2)), fflv_hrep(3, (1, 0, 2))
    assert P is not Q and P == Q and hash(P) == hash(Q)
    assert HPolytope.make(P.dim, P.rows) == P
    assert fflv_hrep(3, (1, 0, 1)) != P
    plans = _planned(monkeypatch)
    with polytope._one_run():
        assert lattice_points(P) == lattice_points(Q)
        lattice_points(fflv_hrep(3, (1, 0, 1)))
    assert plans == [6]  # equal coefficients share one plan


def test_trusted_point_sets_equal_checked_ones():
    # the enumerator and sumset build their sets without PointSet's
    # per-coordinate check; on the default sweep they equal the checked sets
    def same_as_checked(A):
        B = PointSet(list(A), dim=A.dim)
        assert A == B and hash(A) == hash(B) and list(A) == sorted(A)
        assert all(type(v) is int for p in A for v in p)

    cases = 0
    for n, lam in default_sweep()["main"]:
        dim = num_roots(n)
        total = PointSet([(0,) * dim], dim=dim)
        for k in range(1, n + 1):
            if lam[k - 1]:
                S = lusztig_points(ik_word(n, k), fundamental_weight(n, k, lam[k - 1]))
                total = sumset(total, S)
                same_as_checked(S)
                same_as_checked(total)
        same_as_checked(fflv_points(n, lam))
        assert total == fflv_points(n, lam)
        cases += 1
    assert cases == len(default_sweep()["main"]) > 0
    same_as_checked(lattice_points(HPolytope.make(2, [((1, 1), -1)])))  # empty
    for bad in ([[1.0, 0]], [["1", 0]]):  # outside input is still checked
        try:
            PointSet(bad)
        except TypeError:
            pass
        else:
            raise AssertionError(f"PointSet({bad}) should have raised")


def test_certified_box_follows_capping_rows():
    # x1 <= x2 <= 3: x1 has no capping row until x2 is placed, then x1 <= 3
    P = HPolytope.make(2, [((1, -1), 0), ((0, 1), 3)])
    assert certified_box(P) == ([1, 0], [3, 3])
    assert len(lattice_points(P)) == 10  # pairs 0 <= x1 <= x2 <= 3


def test_uncertifiable_polytope_raises():
    # x1 <= x2 alone leaves both coordinates unbounded
    P = HPolytope.make(2, [((1, -1), 0)])
    for fn in (certified_box, lattice_points):
        try:
            fn(P)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{fn.__name__} should reject {P}")


def test_lusztig_counts_all_words_n4():
    lam = fundamental_weight(4, 2)
    words = all_reduced_words(4)
    assert len(words) == 768
    for word in words:
        assert len(lusztig_points(word, lam)) == weyl_dim(4, lam) == 10, word


def test_sumset_identity_and_singleton():
    A = PointSet(EIGHT)
    zero = PointSet([(0, 0, 0)])
    assert sumset(A, zero) == A
    assert len(sumset(PointSet([(1, 2, 3)]), PointSet([(4, 5, 6)]))) == 1


def test_sumset_minkowski_frozen():
    w1 = lattice_points(fflv2(1, 0))
    w2 = lattice_points(fflv2(0, 1))
    assert sumset(w1, w2) == PointSet(EIGHT)


def test_sumset_against_oracle():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randrange(1, 4)
        A = PointSet(
            [tuple(rng.randrange(4) for _ in range(dim)) for _ in range(rng.randrange(1, 6))]
        )
        B = PointSet(
            [tuple(rng.randrange(4) for _ in range(dim)) for _ in range(rng.randrange(1, 6))]
        )
        got = set(sumset(A, B))
        assert got == oracles.naive_sumset(set(A), set(B))
        assert sumset(A, B) == sumset(B, A)


def test_sumset_associative_and_monotone():
    rng = random.Random(6)
    dim = 3
    mk = lambda k: PointSet(
        [tuple(rng.randrange(3) for _ in range(dim)) for _ in range(k)]
    )
    A, B, C = mk(4), mk(4), mk(4)
    assert sumset(sumset(A, B), C) == sumset(A, sumset(B, C))
    Ap = PointSet(list(A) + [(9, 9, 9)])
    assert all(p in sumset(Ap, B) for p in sumset(A, B))


def test_support_frozen():
    zero = PointSet([(0, 0, 0)])
    assert oracles.support(zero, (3, -1, 7)) == 0
    assert oracles.support(PointSet(EIGHT), (1, 1, 1)) == 2


def test_support_additive_under_sumset():
    rng = random.Random(99)
    dim = 3
    A = PointSet([tuple(rng.randrange(5) for _ in range(dim)) for _ in range(7)])
    B = PointSet([tuple(rng.randrange(5) for _ in range(dim)) for _ in range(7)])
    AB = sumset(A, B)
    for _ in range(100):
        d = tuple(rng.randrange(-5, 6) for _ in range(dim))
        assert oracles.support(AB, d) == oracles.support(A, d) + oracles.support(B, d)


def test_support_empty_raises():
    try:
        oracles.support(PointSet([], dim=2), (1, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_pointset_basics():
    A = PointSet([(1, 0), (0, 1), (1, 0)])
    assert len(A) == 2
    assert (1, 0) in A and (0, 1) in A and (2, 2) not in A
    assert list(A) == [(0, 1), (1, 0)]  # sorted
    try:
        PointSet([(1,), (1, 2)])
    except ValueError:
        pass
    else:
        raise AssertionError("mixed dimensions should be rejected")
    try:
        PointSet([])
    except ValueError:
        pass
    else:
        raise AssertionError("empty set needs explicit dim")


def test_non_integer_input_is_rejected():
    # operator.index semantics: a float or a string is an error, never
    # truncated to an integer row or point
    for name, bad in (
        ("float coefficient", lambda: HPolytope.make(2, [((0.5, 1), 2)])),
        ("float rhs", lambda: HPolytope.make(2, [((1, 1), 2.9)])),
        ("string coefficient", lambda: HPolytope.make(2, [(("3", 1), 2)])),
        ("float coordinate", lambda: PointSet([(1.5, 0)])),
        ("string coordinate", lambda: PointSet([("1", 0)])),
        # (0.5, 0.5, 0.5) meets every row of FFLV_2(1, 1) as floats
        ("float point", lambda: contains(fflv_hrep(2, (1, 1)), (0.5, 0.5, 0.5))),
        ("string point", lambda: contains(fflv_hrep(2, (1, 1)), ("1", 0, 0))),
    ):
        try:
            bad()
        except TypeError:
            pass
        else:
            raise AssertionError(f"{name} should be rejected")


def test_dim_must_be_a_nonnegative_integer():
    # dim comes from outside through HPolytope.make and PointSet(..., dim=):
    # a float or a string raises TypeError, a negative dim ValueError, even
    # with no row or point to compare it with (HPolytope.make(-1, []) made a
    # polytope whose one lattice point was ())
    for build in (lambda dim: HPolytope.make(dim, []), lambda dim: PointSet([], dim=dim)):
        with pytest.raises(ValueError, match="^dim must be >= 0$"):
            build(-1)
        for dim in (2.0, "2"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                build(dim)


def test_json_round_trips():
    P = fflv2(2, 1)
    obj = json.loads(json.dumps(P.to_json()))
    assert obj == P.to_json()
    assert HPolytope.make(obj["dim"], [(row["a"], row["b"]) for row in obj["rows"]]) == P
    A = PointSet(EIGHT)
    assert PointSet(A.to_json()) == A
