"""Root order, reduced words, and weights."""

import random

import pytest

from fflv.claims import check_case
from fflv.crystal import WordCrystal, fixed_k_check, sl3_bgt, sl3_blt
from fflv.fflv import dyck_paths, fflv_points, fundamental_points
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
    root_enumeration,
    root_index,
    weight_mu,
    weight_of_point,
)
from fflv.tiling import build_tiling, check_rectangle_support, lusztig_hrep, lusztig_points

import oracles


def test_positive_roots_small():
    assert positive_roots(1) == [Root(1, 1)]
    assert positive_roots(2) == [Root(1, 1), Root(1, 2), Root(2, 2)]
    assert positive_roots(3) == [
        Root(1, 1), Root(1, 2), Root(1, 3),
        Root(2, 2), Root(2, 3), Root(3, 3),
    ]


def test_positive_roots_shape():
    for n in range(1, 7):
        roots = positive_roots(n)
        assert len(roots) == num_roots(n) == n * (n + 1) // 2
        assert roots == sorted(roots)  # canonical order is (i, j) lex
        assert all(1 <= r.i <= r.j <= n for r in roots)
        idx = root_index(n)
        assert [idx[r] for r in roots] == list(range(len(roots)))


def test_is_reduced():
    # root_enumeration is the one test of reducedness: it raises on the rest
    root_enumeration((1, 2, 1), 2)
    root_enumeration((2, 1, 2), 2)
    root_enumeration((1,), 1)
    for word in (
        (1, 1, 2),
        (1, 2),        # too short
        (1, 2, 1, 1),
        (1, 2, 3),     # letter out of range
    ):
        with pytest.raises(ValueError, match="not a reduced word"):
            root_enumeration(word, 2)


def test_special_words_frozen():
    assert lexmin_word(1) == (1,)
    assert lexmin_word(2) == (1, 2, 1)
    assert lexmin_word(3) == (1, 2, 1, 3, 2, 1)
    assert lexmax_word(2) == (2, 1, 2)
    assert lexmax_word(3) == (3, 2, 3, 1, 2, 3)
    assert ik_word(3, 1) == (1, 2, 3, 1, 2, 1)
    assert ik_word(3, 2) == (2, 1, 3, 2, 3, 1)
    assert ik_word(3, 3) == (3, 2, 1, 3, 2, 3)


def test_special_words_are_reduced():
    # root_enumeration raises on a word that is not reduced
    for n in range(1, 7):
        root_enumeration(lexmin_word(n), n)
        root_enumeration(lexmax_word(n), n)
        for k in range(1, n + 1):
            root_enumeration(ik_word(n, k), n)
    # i^1 is the lex-minimal word up to the block order
    assert sorted(ik_word(4, 1)) == sorted(lexmin_word(4))


def test_ik_word_rejects_bad_k():
    for n, k in [(3, 0), (3, 4), (2, -1)]:
        try:
            ik_word(n, k)
        except ValueError:
            pass
        else:
            raise AssertionError(f"ik_word({n}, {k}) should have raised")


def test_root_enumeration_frozen():
    assert root_enumeration(lexmin_word(2)) == [Root(1, 1), Root(1, 2), Root(2, 2)]
    # i^2 at n=3 lists the roots containing 2 first, column by column
    assert root_enumeration(ik_word(3, 2)) == [
        Root(2, 2), Root(1, 2), Root(2, 3), Root(1, 3), Root(1, 1), Root(3, 3),
    ]


def test_root_enumeration_is_bijection():
    for n in (2, 3):
        for word in all_reduced_words(n):
            enum = root_enumeration(word, n)
            assert sorted(enum) == positive_roots(n)


def test_root_enumeration_rejects_non_reduced():
    try:
        root_enumeration((1, 1, 2), 2)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError on a non-reduced word")


def test_ik_head_is_the_k_rectangle():
    """The first k(n-k+1) roots of the i^k enumeration are exactly the roots
    whose interval [i, j] contains k, listed column by column with i
    descending inside each column."""
    for n in range(1, 6):
        for k in range(1, n + 1):
            enum = root_enumeration(ik_word(n, k), n)
            head = enum[: k * (n - k + 1)]
            expected = [
                Root(p, q)
                for q in range(k, n + 1)
                for p in range(k, 0, -1)
            ]
            assert head == expected
            assert all(r.i <= k <= r.j for r in head)
            assert all(not (r.i <= k <= r.j) for r in enum[len(head):])


def test_all_reduced_words_matches_oracle():
    for n in (1, 2, 3):
        assert all_reduced_words(n) == oracles.all_reduced_words_recursive(n + 1)
    assert len(all_reduced_words(3)) == 16


def test_random_reduced_word():
    rng = random.Random(20260822)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            w = random_reduced_word(n, rng)
            root_enumeration(w, n)


def test_weight_mu():
    assert weight_mu((1, 1)) == (2, 1, 0)
    assert weight_mu((2, 0, 1)) == (3, 1, 1, 0)
    assert weight_mu(()) == (0,)


def test_fundamental_weight():
    assert fundamental_weight(3, 2) == (0, 1, 0)
    assert fundamental_weight(1, 1) == (1,)
    assert fundamental_weight(3, 2, 0) == (0, 0, 0)
    assert fundamental_weight(3, 2, 2) == (0, 2, 0)
    assert fundamental_weight(4, 4, 3) == (0, 0, 0, 3)
    for r in (2.5, 2.0, "2"):  # never truncated or passed through
        try:
            fundamental_weight(2, 1, r)
        except TypeError:
            pass
        else:
            raise AssertionError(f"fundamental_weight accepted r={r!r}")
    try:
        fundamental_weight(2, 3, 2.5)  # a bad k keeps its error text
    except ValueError as exc:
        assert str(exc) == "need 1 <= k <= n, got k=3, n=2"
    else:
        raise AssertionError("k > n accepted")


_NOT_AN_INT = "'float' object cannot be interpreted as an integer"

# bad input -> (what it changes in a good input, exception type, message)
_BAD_INPUTS = {
    "rank 0": ({"n": 0}, ValueError, "rank must be >= 1"),
    "rank -1": ({"n": -1}, ValueError, "rank must be >= 1"),
    "float rank": ({"n": 2.0}, TypeError, _NOT_AN_INT),
    "float rank 0.5": ({"n": 0.5}, TypeError, _NOT_AN_INT),  # the type is checked first
    "weight of the wrong length": ({"lam": (1,)}, ValueError, "weight has 1 entries, expected 2"),
    "negative weight entry": (
        {"lam": (1, -1)}, ValueError, "weight must be dominant (all entries >= 0): (1, -1)"
    ),
    "k = 0": ({"k": 0}, ValueError, "need 1 <= k <= n, got k=0, n=2"),
    "k = n + 1": ({"k": 3}, ValueError, "need 1 <= k <= n, got k=3, n=2"),
    "float k 0.5": ({"k": 0.5}, TypeError, _NOT_AN_INT),
    "r = -1": ({"r": -1}, ValueError, "need r >= 0, got r=-1"),  # -omega_k is not dominant
    "float letter": ({"word": (1.0, 2, 1)}, TypeError, _NOT_AN_INT),
}
_GOOD = {"n": 2, "lam": (1, 1), "k": 1, "r": 1, "word": (1, 2, 1)}


def _case_reason(kind, *case):
    """check_case's message without its ``invalid <kind> case ...:`` prefix."""
    try:
        check_case(kind, list(case))
    except ValueError as exc:
        prefix, reason = str(exc).split(": ", 1)
        assert prefix == f"invalid {kind} case {list(case)!r}", prefix
        raise ValueError(reason) from None


# entry point -> (the inputs it reads, call)
_ENTRY_POINTS = {
    "fflv_points": ("n lam", lambda a: fflv_points(a["n"], a["lam"])),
    "lusztig_points": ("n lam word", lambda a: lusztig_points(a["word"], a["lam"], a["n"])),
    "lusztig_hrep": ("n lam word", lambda a: lusztig_hrep(a["word"], a["lam"], a["n"])),
    "WordCrystal": ("n lam", lambda a: WordCrystal(a["n"], a["lam"])),
    "ik_word": ("n k", lambda a: ik_word(a["n"], a["k"])),
    "fundamental_points": ("n k", lambda a: fundamental_points(a["n"], a["k"])),
    "fundamental_weight": ("n k r", lambda a: fundamental_weight(a["n"], a["k"], a["r"])),
    "check_rectangle_support": ("n k r", lambda a: check_rectangle_support(a["n"], a["k"], a["r"])),
    "fixed_k_check": ("n k r", lambda a: fixed_k_check(a["n"], a["k"], a["r"])),
    "build_tiling": ("n word", lambda a: build_tiling(a["word"], a["n"])),
    "all_reduced_words": ("n", lambda a: all_reduced_words(a["n"])),  # no [()] below rank 1
    "lexmin_word": ("n", lambda a: lexmin_word(a["n"])),  # no () below rank 1
    "lexmax_word": ("n", lambda a: lexmax_word(a["n"])),
    "random_reduced_word": ("n", lambda a: random_reduced_word(a["n"], random.Random(1))),
    "dyck_paths": ("n", lambda a: dyck_paths(a["n"])),  # no [] below rank 1
    "check_case main": ("n lam", lambda a: _case_reason("main", a["n"], list(a["lam"]))),
    "check_case dyck": ("n k", lambda a: _case_reason("dyck", a["n"], a["k"])),
}
# check_case takes only ints: a float is malformed first
_MALFORMED_CASE = {"float rank", "float rank 0.5", "float k 0.5"}


def test_each_input_rule_has_one_reason_everywhere():
    # every entry point that reads an input rejects it through the one
    # checker in fflv.roots: one exception type and one message per rule
    checked = 0
    for bad, (change, exc_type, message) in _BAD_INPUTS.items():
        args = {**_GOOD, **change}
        for name, (reads, call) in _ENTRY_POINTS.items():
            if not set(change) <= set(reads.split()):
                continue
            if name.startswith("check_case") and bad in _MALFORMED_CASE:
                continue
            try:
                call(args)
            except Exception as exc:
                assert (type(exc), str(exc)) == (exc_type, message), (bad, name)
            else:
                raise AssertionError(f"{name} accepted {bad}")
            checked += 1
    assert checked == 97


def test_sl3_sizes_must_be_integers():
    # a float a or b raises TypeError before the range check, below 1 too
    for build in (sl3_bgt, sl3_blt):
        for a, b in ((0.5, 1), (1, 0.5), (2.0, 1)):
            try:
                build(a, b)
            except TypeError as exc:
                assert str(exc) == _NOT_AN_INT
            else:
                raise AssertionError(f"{build.__name__}({a}, {b}) accepted")


def test_weight_of_point_frozen():
    # n=2, lambda=(1,1): the point with a single box at alpha_11 has
    # content (1, 2, 0)
    assert weight_of_point((1, 1), (1, 0, 0)) == (1, 2, 0)
    assert weight_of_point((1, 1), (0, 0, 0)) == (2, 1, 0)
    # a box at alpha_12 moves a unit from row 1 to row 3
    assert weight_of_point((1, 1), (0, 1, 0)) == (1, 1, 1)


def test_weight_of_point_checks_lambda():
    with pytest.raises(ValueError, match="dominant"):
        weight_of_point((-1,), (0,))
    with pytest.raises(ValueError, match="rank must be >= 1"):
        weight_of_point((), ())


def test_weight_of_point_content_is_conserved():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 5)
        lam = tuple(rng.randrange(3) for _ in range(n))
        x = tuple(rng.randrange(3) for _ in range(num_roots(n)))
        wt = weight_of_point(lam, x)
        assert sum(wt) == sum(weight_mu(lam))
