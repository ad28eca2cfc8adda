import gc
from collections import Counter

import fflv.fflv
import fflv.polytope as polytope
import fflv.tiling as tiling
from fflv.polytope import PointSet
from fflv.tiling import lusztig_hrep, lusztig_points, reineke_filter
from fflv.roots import Root, all_reduced_words, ik_word, positive_roots, root_index
from fflv.verify import (
    MAX_WITNESSES,
    default_sweep,
    run_suite,
    verify_dyck_correspondence,
    verify_fundamental,
    verify_word_counts,
    verify_main,
)


def test_verify_main_small_cases():
    for n, lam in ((2, (1, 1)), (2, (2, 1)), (2, (0, 2)), (3, (1, 1, 1))):
        report = verify_main(n, lam)
        assert report.passed, (n, lam, report.witnesses)
        assert not report.witnesses
        assert report.seconds >= 0


def test_verify_main_zero_weight():
    assert verify_main(3, (0, 0, 0)).passed


def _replace_summand(monkeypatch, word, points):
    """verify_main reads ``points`` as the Lusztig points of ``word``."""
    import fflv.verify as verify

    monkeypatch.setattr(
        verify, "lusztig_points",
        lambda w, lam: points if w == word else lusztig_points(w, lam),
    )


def test_verify_main_detects_missing_points(monkeypatch):
    # drop one point from the w_1 summand: the sum goes incomplete
    good = lusztig_points(ik_word(2, 1), (1, 0))
    broken = PointSet([p for p in good if p != (0, 1, 0)], dim=3)
    _replace_summand(monkeypatch, ik_word(2, 1), broken)
    report = verify_main(2, (1, 1))
    assert not report.passed
    assert report.witnesses
    assert any("missing from sum" in w["reason"] for w in report.witnesses)


def test_verify_main_detects_excess_points(monkeypatch):
    import fflv.verify as verify

    built = []
    hrep = verify.fflv_hrep
    monkeypatch.setattr(verify, "fflv_hrep", lambda *a: built.append(a) or hrep(*a))
    assert verify_main(2, (1, 1)).passed
    assert built == []  # only an excess point's witness needs the H-description
    good = lusztig_points(ik_word(2, 1), (1, 0))
    fat = PointSet(list(good) + [(5, 0, 0)], dim=3)
    _replace_summand(monkeypatch, ik_word(2, 1), fat)
    report = verify_main(2, (1, 1))
    assert not report.passed
    assert any("not an FFLV lattice point" in w["reason"] for w in report.witnesses)
    assert built == [(2, (1, 1))]


def test_verify_main_caps_witnesses(monkeypatch):
    # six points far outside every FFLV polytope: more excess points than
    # the report keeps
    good = lusztig_points(ik_word(2, 1), (1, 0))
    fat = PointSet(list(good) + [(x, 0, 0) for x in range(5, 11)], dim=3)
    _replace_summand(monkeypatch, ik_word(2, 1), fat)
    report = verify_main(2, (1, 1))
    assert not report.passed
    assert len(report.witnesses) == MAX_WITNESSES == 5
    assert all("not an FFLV lattice point" in w["reason"] for w in report.witnesses)


def test_verify_fundamental_detects_missing_lusztig_point(monkeypatch):
    word = ik_word(3, 2)
    good = lusztig_points(word, (0, 1, 0))
    dropped = sorted(good)[-1]
    _replace_summand(monkeypatch, word, PointSet([p for p in good if p != dropped], dim=6))
    report = verify_fundamental(3, 2, 1)
    assert not report.passed
    assert 1 <= len(report.witnesses) <= MAX_WITNESSES
    assert {"point": list(dropped), "reason": "FFLV only"} in report.witnesses


def test_verify_fundamental_detects_extra_lusztig_point(monkeypatch):
    word = ik_word(3, 2)
    good = lusztig_points(word, (0, 1, 0))
    extra = (5, 0, 0, 0, 0, 0)
    _replace_summand(monkeypatch, word, PointSet(list(good) + [extra], dim=6))
    report = verify_fundamental(3, 2, 1)
    assert not report.passed
    assert report.witnesses == [{"point": list(extra), "reason": "Lusztig only"}]


def test_verify_fundamental_checks_the_explicit_points(monkeypatch):
    # one FFLV point too many at r = 1: it is missing from the Lusztig side
    # and from the explicitly indexed points, and the count is off by one
    import fflv.verify as verify

    extra = (5, 0, 0, 0, 0, 0)
    points = verify.fflv_points
    monkeypatch.setattr(
        verify, "fflv_points", lambda n, lam: PointSet(list(points(n, lam)) + [extra], dim=6)
    )
    report = verify_fundamental(3, 2, 1)
    assert not report.passed
    assert report.witnesses == [
        {"point": list(extra), "reason": "FFLV only"},
        {"point": list(extra), "reason": "explicit fundamental points differ"},
        {"count": 7, "reason": "expected C(4,2) = 6"},
    ]


def test_verify_word_counts_caps_witnesses(monkeypatch):
    import fflv.verify as verify

    # every word's set comes back one point short: all 16 words at n = 3 fail
    monkeypatch.setattr(
        verify, "lusztig_points",
        lambda w, lam: PointSet(sorted(lusztig_points(w, lam))[1:], dim=6),
    )
    report = verify_word_counts(3, (1, 0, 0))
    assert not report.passed
    assert len(report.witnesses) == MAX_WITNESSES
    assert all(w["count"] == 3 and w["expected"] == 4 for w in report.witnesses)


def _drops_last_at(s):
    """A Reineke filter that also drops the last crossing it keeps at s, when
    it keeps several: dropping a lone crossing, or the first at s = 2 of
    i_2 at n = 3, leaves that word's polytope without a certified box."""
    def filtered(crossings):
        kept = reineke_filter(crossings)
        return kept[:-1] if len(kept) > 1 and kept[0].s == s else kept

    return filtered


def test_verify_dyck_detects_dropped_crossing(monkeypatch):
    monkeypatch.setattr(tiling, "reineke_filter", _drops_last_at(2))
    report = verify_dyck_correspondence(3, 2)
    assert not report.passed
    assert 1 <= len(report.witnesses) <= MAX_WITNESSES
    assert report.witnesses[0]["reason"] == "Reineke filter dropped 1 crossings at s=2"


def test_shared_crossings_keep_the_dyck_filter_check(monkeypatch):
    # inside a run the dyck claim reads the rows and crossing counts of the
    # system the fundamental claim's points were built from, and still sees
    # what the filter dropped
    monkeypatch.setattr(tiling, "reineke_filter", _drops_last_at(2))
    direct = verify_dyck_correspondence(3, 2)
    searches = []
    crossings = tiling.dual_crossings
    monkeypatch.setattr(
        tiling, "dual_crossings", lambda T, s: searches.append(s) or crossings(T, s)
    )
    fundamental, dyck = run_suite({"fundamental": [[3, 2, 1]], "dyck": [[3, 2]]})
    assert searches == [1, 2, 3]  # the rows' searches; the dyck claim runs none
    assert fundamental.passed  # the row lost at s = 2 cuts no point of 1 * omega_2
    assert not dyck.passed
    assert dyck.witnesses == direct.witnesses


def test_verify_calls_validate_their_case():
    # a claim called directly rejects what a sweep rejects, rather than
    # pass vacuously
    for call, args in (
        (verify_fundamental, (2, 1, 0)),        # r < 1
        (verify_fundamental, (2, 3, 1)),        # k > n
        (verify_main, (2, (True, 1))),          # bool is not an int here
        (verify_main, (2, (1,))),               # len(lam) != n
        (verify_main, (0, ())),                 # n < 1
        (verify_word_counts, (2, (1, -1))),     # not dominant
        (verify_dyck_correspondence, (3, 0)),   # k < 1
        (verify_dyck_correspondence, (3, "2")),
    ):
        try:
            call(*args)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{call.__name__}{args} accepted")


def test_verify_fundamental_sweep():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            for r in (1, 2):
                report = verify_fundamental(n, k, r)
                assert report.passed, (n, k, r, report.witnesses)


def test_verify_word_counts():
    assert verify_word_counts(2, (2, 1)).passed
    assert verify_word_counts(3, (1, 1, 0)).passed
    try:
        verify_word_counts(4, (1, 0, 0, 0))
    except ValueError:
        pass
    else:
        assert False, "expected ValueError for n > 3"


def test_verify_dyck_all_small():
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            report = verify_dyck_correspondence(n, k)
            assert report.passed, (n, k, report.witnesses)


def _edit_system(monkeypatch, edit):
    """verify_dyck_correspondence reads the word system with ``edit(found,
    rows)`` applied to its crossing counts and rows, both as lists."""
    import fflv.verify as verify

    real = verify._system

    def edited(word, n):
        system = real(word, n)
        found, rows = list(system.found), list(system.rows)
        edit(found, rows)
        return tiling._System(tuple(found), tuple(rows), frozenset(rows))

    monkeypatch.setattr(verify, "_system", edited)


def test_verify_dyck_witnesses_each_broken_rule(monkeypatch):
    # at (3, 2) the rectangle is a[1,2], a[1,3], a[2,2], a[2,3] and the
    # paths are {a[1,2], a[2,2], a[2,3]} and {a[1,2], a[1,3], a[2,3]}
    import fflv.verify as verify

    idx = root_index(3)
    rect = [idx[r] for r in positive_roots(3) if r.i <= 2 <= r.j]

    def negative_entry(found, rows):  # a -1 on a[1,2] in the first s = 2 row
        i = next(i for i, (s, _) in enumerate(rows) if s == 2)
        coeffs = list(rows[i][1])
        coeffs[idx[Root(1, 2)]] = -1
        rows[i] = (2, tuple(coeffs))

    def whole_rectangle(found, rows):  # one more s = 2 crossing, found and kept
        rows.append((2, tuple(int(d in rect) for d in range(6))))
        found[1] += 1

    def surplus_row(found, rows):  # that row, with no crossing found for it
        rows.append((2, tuple(int(d in rect) for d in range(6))))

    def dropped_row(found, rows):  # the last s = 2 row lost, its crossing found
        del rows[max(i for i, (s, _) in enumerate(rows) if s == 2)]

    lost = [{"reason": "path not realized as a maximal support",
             "support": ["a[1,2]", "a[2,2]", "a[2,3]"]}]
    whole = ["a[1,2]", "a[1,3]", "a[2,2]", "a[2,3]"]
    for edit, witnesses in (
        (negative_entry, [
            {"reason": "negative coefficient inside the rectangle at a[1,2]"},
            {"reason": "maximal support is not a path", "support": ["a[2,2]", "a[2,3]"]},
        ] + lost),
        (whole_rectangle, [
            {"reason": "restricted support outside every path", "support": whole},
            {"reason": "maximal support is not a path", "support": whole},
        ] + lost),
        (surplus_row, [
            {"reason": "6 rows at s=2 but 5 crossings found"},
            {"reason": "restricted support outside every path", "support": whole},
            {"reason": "maximal support is not a path", "support": whole},
        ] + lost),
        (dropped_row, [{"reason": "Reineke filter dropped 1 crossings at s=2"}]),
    ):
        with monkeypatch.context() as patch:
            _edit_system(patch, edit)
            report = verify_dyck_correspondence(3, 2)
        assert not report.passed and report.witnesses == witnesses, edit.__name__

    paths = verify.root_paths
    monkeypatch.setattr(verify, "root_paths", lambda start, end: paths(start, end)[:-1])
    cut = ["a[1,2]", "a[1,3]", "a[2,3]"]
    assert verify_dyck_correspondence(3, 2).witnesses == [
        {"reason": "1 paths, expected C(2,1)"},
        {"reason": "restricted support outside every path", "support": cut},
        {"reason": "maximal support is not a path", "support": cut},
    ]


def test_default_sweep_shape():
    config = default_sweep()
    assert set(config) == {"main", "fundamental", "words", "dyck"}
    assert [2, [1, 1]] in config["main"]
    assert [4, 4, 3] in config["fundamental"]


def test_run_suite_custom_config():
    config = {
        "main": [[2, [1, 1]]],
        "fundamental": [[2, 1, 1]],
        "words": [[2, [1, 0]]],
        "dyck": [[3, 2]],
    }
    reports = run_suite(config)
    assert [r.claim for r in reports] == ["main", "fundamental", "words", "dyck"]
    assert all(r.passed for r in reports)
    for r in reports:
        obj = r.to_json()
        assert set(obj) == {"claim", "params", "passed", "witnesses", "seconds"}
    reports = run_suite(config, kinds=["dyck"])
    assert [r.claim for r in reports] == ["dyck"]


def test_run_suite_rejects_malformed_config():
    # A hand-edited sweep file should fail loudly, not crash mid-sweep or
    # produce a vacuously green run.
    for bad in (
        [[2, [1, 1]]],                              # top level not a dict
        {"mian": [[2, [1, 1]]]},                    # typo in the kind name
        {"main": [{"n": 2, "lam": [1, 1]}]},        # case is an object, not a pair
        {"main": [[2, [1, 1], 3]]},                 # wrong arity
        {"fundamental": [[2, 1, "1"]]},             # non-integer parameter
        {"main": [[True, [1, 1]]]},                 # bool is not an int here
        {"words": [[2, [1, False]]]},
        {"main": []},                               # nothing to run
        {},
    ):
        try:
            run_suite(bad)
        except ValueError:
            pass
        else:
            assert False, f"expected ValueError for {bad!r}"
    for config, kinds, message in (
        ({"main": []}, ["words"], "unknown suite kind(s): 'words'"),  # filter names no kind
        ({"main": [], "dyck": [[3, 2]]}, ["main"], "suite selection holds no case"),
        # a string is not read as its letters, and an empty kind is named
        ({"main": [[2, [1, 1]]]}, "main", "suite kinds must be a list of claim kinds, got 'main'"),
        ({"main": [[2, [1, 1]]]}, ["main", ""], "unknown suite kind(s): ''"),
    ):
        try:
            run_suite(config, kinds=kinds)
        except ValueError as exc:
            assert str(exc) == message, (kinds, exc)
        else:
            assert False, f"expected ValueError for {config!r}, kinds={kinds!r}"


def test_run_suite_validates_whole_config_before_running(monkeypatch):
    import fflv.verify as verify

    ran = []
    monkeypatch.setattr(verify, "verify_fundamental", lambda *a: ran.append(a))
    for late in ([3, "2"], [3, True]):  # dyck(3, True) would run as k = 1
        try:
            run_suite({"fundamental": [[2, 1, 1]], "dyck": [late]})
        except ValueError as exc:
            assert "malformed dyck" in str(exc)
        else:
            assert False, f"expected ValueError for the dyck case {late!r}"
    # well-formed cases without meaning are rejected before any claim runs too
    for config in (
        {"fundamental": [[4, 2, 3], [4, 3, 3]], "main": [[3, [1]]]},  # len(lam) != n
        {"fundamental": [[2, 1, 1]], "main": [[2, [-1, 1]]]},         # not dominant
        {"fundamental": [[2, 1, 1]], "main": [[0, []]]},              # n < 1
        {"fundamental": [[2, 1, 1]], "words": [[4, [1, 0, 0, 0]]]},   # words n > 3
        {"fundamental": [[2, 1, 1]], "dyck": [[3, 4]]},               # k > n
        {"fundamental": [[2, 1, 1], [2, 0, 1]]},                      # k < 1
        {"fundamental": [[2, 1, 1], [2, 1, 0]]},                      # r < 1
    ):
        try:
            run_suite(config)
        except ValueError as exc:
            assert "invalid" in str(exc)
        else:
            assert False, f"expected ValueError for {config!r}"
    assert ran == []


def _counted(monkeypatch, module, name, counts, key):
    """Count in ``counts[key]`` every call of ``module.name``."""
    fn = getattr(module, name)

    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_run_suite_builds_rows_and_points_once(monkeypatch):
    import fflv.verify as verify

    counts = Counter()
    _counted(monkeypatch, tiling, "build_tiling", counts, "tilings")
    _counted(monkeypatch, tiling, "_hrep", counts, "hreps")
    # the library enumerates through lattice_points as fflv and tiling bind it
    _counted(monkeypatch, tiling, "lattice_points", counts, "points")
    _counted(monkeypatch, fflv.fflv, "lattice_points", counts, "points")
    searches = Counter()
    crossings = tiling.dual_crossings

    def searched(T, s):
        searches[T.word, s] += 1
        return crossings(T, s)

    monkeypatch.setattr(tiling, "dual_crossings", searched)
    run_suite()
    # 264 lusztig_points calls on 23 words: each word tiled once, one
    # H-description per (crossing-row set, lambda, n); 164 enumerations
    assert counts == {"tilings": 23, "hreps": 112, "points": 164}
    # one search per (word, s), shared by the crossing rows and the dyck claims
    assert len(searches) == 69 and set(searches.values()) == {1}
    assert polytope._RUN.get() is None

    # outside run_suite nothing is shared between calls
    for _ in range(2):
        lusztig_points(ik_word(3, 2), (0, 1, 0))
        verify_dyck_correspondence(3, 2)
    assert counts == {"tilings": 27, "hreps": 114, "points": 166}
    # one search in the run, then one per call
    assert [searches[ik_word(3, 2), s] for s in (1, 2, 3)] == [5, 5, 5]

    def failing(*args):
        assert polytope._RUN.get() is not None
        raise RuntimeError("claim failed")

    monkeypatch.setattr(verify, "verify_fundamental", failing)
    try:
        run_suite({"fundamental": [[2, 1, 1]]})
    except RuntimeError:
        pass
    else:
        assert False, "expected the claim's RuntimeError"
    assert polytope._RUN.get() is None


# two words a 2-move apart: equal crossing-row sets in different orders
SHARED = ((3, 2, 1, 3, 2, 3), (3, 2, 3, 1, 2, 3))


def test_words_with_equal_row_sets_share_one_system(monkeypatch):
    u, v = SHARED
    weights = [(0, 0, 1), (1, 0, 1), (2, 1, 0)]
    for lam in weights:
        P, Q = lusztig_hrep(u, lam), lusztig_hrep(v, lam)
        assert P.rows != Q.rows and set(P.rows) == set(Q.rows)
    counts = Counter()
    _counted(monkeypatch, tiling, "build_tiling", counts, "tilings")
    _counted(monkeypatch, tiling, "_hrep", counts, "hreps")
    _counted(monkeypatch, tiling, "lattice_points", counts, "points")
    with polytope._one_run():
        for lam in weights:
            # n resolved: None and 3 give one key
            assert lusztig_points(u, lam) is lusztig_points(v, lam, 3)
            assert lusztig_points(v, lam) is lusztig_points(u, lam, 3)
    # each word is still tiled and searched for its own rows
    assert counts == {"tilings": 2, "hreps": 3, "points": 3}
    counts.clear()
    for lam in weights:  # outside a run every call computes
        assert lusztig_points(u, lam) == lusztig_points(v, lam, 3)
    assert counts == {"tilings": 6, "hreps": 6, "points": 6}


def test_a_word_with_a_lost_row_gets_its_own_witness(monkeypatch):
    # the last of four words whose crossing rows are equal as sets loses
    # the row (2, (-1, 0, 1, 0, 1, 0)): its polytope grows at (0,0,1), and
    # its count is its own although the three words before it share theirs
    lossy, lost = (2, 3, 1, 2, 3, 1), (2, (-1, 0, 1, 0, 1, 0))
    row_set = tiling._system(lossy, 3).row_set
    words = [w for w in all_reduced_words(3) if tiling._system(w, 3).row_set == row_set]
    assert len(words) == 4 and words[-1] == lossy and lost in row_set
    system_ = tiling._system

    def dropped(word, n):
        system = system_(word, n)
        if word != lossy:
            return system
        rows = tuple(r for r in system.rows if r != lost)
        return system._replace(rows=rows, row_set=frozenset(rows))

    monkeypatch.setattr(tiling, "_system", dropped)
    reports = run_suite({"words": [[3, [0, 0, 1]], [3, [0, 1, 0]]]})
    assert [r.passed for r in reports] == [False, True]
    assert reports[0].witnesses == [{"word": list(lossy), "count": 5, "expected": 4}]


def test_a_run_memo_holds_one_entry_per_shared_value():
    # every claim shares its work through polytope._once, under one key
    # kind per value: a word's system is one entry, whatever reads it
    with polytope._one_run():
        verify_main(3, (1, 0, 1))
        verify_fundamental(3, 2, 1)
        verify_word_counts(3, (0, 1, 0))
        verify_dyck_correspondence(3, 2)
        memo = dict(polytope._RUN.get())
    assert {key[0] for key in memo} == {"plan", "word", "lusztig", "fflv", "words"}
    # the i_k words of main, fundamental and dyck are among the 16 words of
    # the words claim: one system each, shared by all four claims
    words = [key for key in memo if key[0] == "word"]
    assert sorted(words) == sorted(("word", w, 3) for w in all_reduced_words(3))
    assert all(isinstance(memo[key], tiling._System) for key in words)


def test_a_run_memo_holds_only_immutable_values():
    # every later caller in a run gets the object _once stored, so the
    # default sweep's memo holds nothing but ints, strings, tuples,
    # frozensets and point sets, at any depth
    import fflv.verify as verify
    from fflv.claims import CLAIMS

    with polytope._one_run():
        for kind, cases in default_sweep().items():
            for case in cases:
                getattr(verify, CLAIMS[kind].function)(*case)
        memo = dict(polytope._RUN.get())
    assert {key[0] for key in memo} == {"plan", "word", "lusztig", "fflv", "words"}
    found = Counter()
    stack = list(memo.values())
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, frozenset)):  # NamedTuples included
            stack.extend(value)
        elif not isinstance(value, (int, str, PointSet)):
            found[type(value).__name__] += 1
    assert found == Counter()


def test_a_failed_system_is_not_stored(monkeypatch):
    search = tiling.dual_crossings

    def failing(T, s):
        raise RuntimeError("search failed")

    word = ik_word(3, 2)
    with polytope._one_run():
        monkeypatch.setattr(tiling, "dual_crossings", failing)
        try:
            lusztig_points(word, (0, 1, 0))
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected the search's RuntimeError")
        assert not any(key[0] == "word" for key in polytope._RUN.get())
        monkeypatch.setattr(tiling, "dual_crossings", search)
        system = tiling._system(word, 3)
        assert tiling._system(word, 3) is system
        assert list(polytope._RUN.get()) == [("word", word, 3)]


def test_run_suite_pauses_the_collector(monkeypatch):
    import fflv.verify as verify

    collections = []

    def collected(phase, info):
        if phase == "start":
            collections.append(polytope._RUN.get() is not None)

    gc.callbacks.append(collected)
    try:
        with polytope._one_run():
            gc.collect()  # the callback sees a pass inside a run
        assert collections == [True]
        collections.clear()
        gc.collect()
        assert gc.isenabled()
        run_suite()
        assert gc.isenabled()  # enabled again after the run
        assert True not in collections  # no pass started during it
        gc.disable()
        try:
            run_suite({"main": [[2, [1, 1]]]})
            assert not gc.isenabled()  # the caller's choice stands
        finally:
            gc.enable()

        def failing(*args):
            assert not gc.isenabled()
            raise RuntimeError("claim failed")

        monkeypatch.setattr(verify, "verify_main", failing)
        try:
            run_suite({"main": [[2, [1, 1]]]})
        except RuntimeError:
            pass
        else:
            assert False, "expected the claim's RuntimeError"
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(collected)


def test_report_str_has_status():
    line = str(verify_main(2, (1, 0)))
    assert line.startswith("[PASS] main(")
