import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import fflv
from fflv.cli import build_parser, dispatch
from fflv.crystal import sl3_bgt
from fflv.fflv import fflv_hrep, fflv_points
from fflv.polytope import PointSet
from fflv.verify import CLAIMS, run_suite


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, buf.getvalue()


def test_word_ik_frozen():
    code, out = run_cli("word", "--n", "3", "--ik", "2")
    assert code == 0
    assert out == "(2,1,3,2,3,1)\n"


def test_word_variants():
    assert run_cli("word", "--n", "2") == (0, "(1,2,1)\n")
    assert run_cli("word", "--n", "2", "--lexmax") == (0, "(2,1,2)\n")
    code, out = run_cli("word", "--n", "2", "--word", "2,1,2", "--enumerate")
    assert code == 0
    assert out.splitlines()[0] == "(2,1,2)"
    assert "a[" in out.splitlines()[1]


def test_roots_text_and_json():
    code, out = run_cli("roots", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["a[1,1]", "a[1,2]", "a[2,2]"]
    code, out = run_cli("roots", "--n", "2", "--format", "json")
    assert json.loads(out) == [[1, 1], [1, 2], [2, 2]]


def test_fflv_count_and_points_roundtrip():
    code, out = run_cli("fflv", "--n", "2", "--lambda", "1,1", "--mode", "count")
    assert (code, out) == (0, "8\n")
    code, out = run_cli("fflv", "--n", "2", "--lambda", "1,1", "--format", "json")
    assert PointSet(json.loads(out)) == fflv_points(2, (1, 1))


def test_fflv_hrep_roundtrip():
    code, out = run_cli("fflv", "--n", "2", "--lambda", "2,1",
                        "--mode", "hrep", "--format", "json")
    assert code == 0
    assert json.loads(out) == fflv_hrep(2, (2, 1)).to_json()


def test_json_bytes_are_pinned():
    # the exact bytes, not only a round trip: the implicit x >= 0 is written
    # as "nonneg":true, and the edges of a tiling come in creation order
    assert run_cli("fflv", "--n", "2", "--lambda", "1,1", "--mode", "hrep", "--format", "json") == (
        0,
        '{"dim":3,"nonneg":true,"rows":[{"a":[1,0,0],"b":1},{"a":[1,1,1],"b":2},'
        '{"a":[0,0,1],"b":1}]}\n',
    )
    assert run_cli("tiling", "--n", "2", "--word", "lexmin", "--format", "json") == (
        0,
        '{"edges":[{"bottom":[],"id":0,"label":1},{"bottom":[1],"id":1,"label":2},'
        '{"bottom":[1,2],"id":2,"label":3},{"bottom":[],"id":3,"label":2},'
        '{"bottom":[2],"id":4,"label":1},{"bottom":[2],"id":5,"label":3},'
        '{"bottom":[2,3],"id":6,"label":1},{"bottom":[],"id":7,"label":3},'
        '{"bottom":[3],"id":8,"label":2}],"m":3,"n":2,'
        '"peel_layers":{"1":{"0":2,"1":3,"2":1},"2":{"0":1,"1":3,"2":2},"3":{"0":1,"1":2,"2":3},'
        '"4":{"0":2,"1":1,"2":3},"5":{"0":3,"1":1,"2":2},"6":{"0":3,"1":2,"2":1}},'
        '"strips":{"1":[0,1],"2":[0,2],"3":[1,2]},'
        '"tiles":[{"id":0,"labels":[1,2],"lower":[0,1],"root":[1,1],"upper":[3,4]},'
        '{"id":1,"labels":[1,3],"lower":[4,2],"root":[1,2],"upper":[5,6]},'
        '{"id":2,"labels":[2,3],"lower":[3,5],"root":[2,2],"upper":[7,8]}],"word":[1,2,1]}\n',
    )


def test_lambda_trailing_zeros_default():
    _, full = run_cli("fflv", "--n", "3", "--lambda", "1,0,0", "--mode", "count")
    _, short = run_cli("fflv", "--n", "3", "--lambda", "1", "--mode", "count")
    assert full == short == "4\n"


def test_tiling_formats_and_determinism():
    code, svg = run_cli("tiling", "--n", "3", "--word", "ik:2", "--format", "svg")
    assert code == 0
    assert svg.lstrip().startswith("<svg")
    code, js = run_cli("tiling", "--n", "3", "--word", "ik:2", "--format", "json")
    obj = json.loads(js)
    assert obj["word"] == [2, 1, 3, 2, 3, 1]
    assert len(obj["tiles"]) == 6
    assert run_cli("tiling", "--n", "3", "--word", "ik:2", "--format", "json") == (0, js)
    assert run_cli("tiling", "--n", "3", "--word", "ik:2", "--format", "svg") == (0, svg)


def test_lusztig_count_matches_dimension():
    code, out = run_cli("lusztig", "--n", "2", "--word", "1,2,1",
                        "--lambda", "1,1", "--mode", "count")
    assert (code, out) == (0, "8\n")
    code, out = run_cli("lusztig", "--n", "2", "--word", "lexmax",
                        "--lambda", "1,1", "--mode", "count")
    assert (code, out) == (0, "8\n")


def test_lusztig_hrep_text_frozen():
    code, out = run_cli("lusztig", "--n", "2", "--word", "1,2,1",
                        "--lambda", "1,1", "--mode", "hrep")
    assert code == 0
    assert out == "x0 + x1 - x2 <= 1\nx1 <= 1\nx2 <= 1\n"


def test_fflv_hrep_text_frozen():
    code, out = run_cli("fflv", "--n", "2", "--lambda", "2,1", "--mode", "hrep")
    assert code == 0
    assert out == "x0 <= 2\nx0 + x1 + x2 <= 3\nx2 <= 1\n"


def test_crystal_sl3_dot_frozen():
    code, dot = run_cli("crystal", "sl3", "--gt", "--a", "1", "--b", "1")
    assert code == 0
    assert dot.count("->") == 8
    assert sum(1 for line in dot.splitlines()
               if line.strip().endswith('";')) == 8
    assert run_cli("crystal", "sl3", "--gt", "--a", "1", "--b", "1") == (0, dot)


def test_crystal_sl3_json_roundtrip():
    code, out = run_cli("crystal", "sl3", "--gt", "--a", "1", "--b", "1",
                        "--format", "json")
    assert code == 0
    assert json.loads(out) == sl3_bgt(1, 1).to_json()


def test_crystal_pb_edge_count():
    code, out = run_cli("crystal", "pb", "--n", "2", "--lambda", "1,1",
                        "--format", "json")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 12


def test_conjecture_text_summary():
    code, out = run_cli("conjecture", "--n", "2", "--lambda", "1,1")
    assert code == 0
    assert "valid=2" in out
    assert "complete=True" in out
    code, out = run_cli("conjecture", "--n", "2", "--lambda", "2,2",
                        "--mode", "greedy", "--sigma", "2,1")
    assert code == 0
    assert out == "mode=greedy complete=False valid=0 selections=0\n"


def test_conjecture_greedy_json():
    code, out = run_cli("conjecture", "--n", "2", "--lambda", "1,1",
                        "--mode", "greedy", "--sigma", "2,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "greedy"
    assert obj["valid"] == 1


def test_conjecture_rejects_budget_below_one():
    for extra, message in (
        (("--budget", "0"), "budget must be at least 1"),
        (("--mode", "greedy", "--budget", "0"), "budget must be at least 1"),
        # a sign is not a decimal digit: the parser rejects it first
        (("--budget", "-3"), "argument --budget: not a decimal number: '-3'"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli("conjecture", "--n", "2", "--lambda", "1,1", *extra)
        assert (code, out) == (2, ""), extra
        assert message in err.getvalue()


def test_verify_main_exit_zero():
    code, out = run_cli("verify", "main", "--n", "2", "--lambda", "1,1")
    assert code == 0
    assert "[PASS] main(" in out
    assert "1/1 passed" in out


def test_verify_json_array():
    code, out = run_cli("verify", "dyck", "--n", "3", "--k", "2", "--json")
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 1 and arr[0]["passed"] is True


def test_verify_subcommands_are_the_registry_kinds():
    code, out = run_cli("verify", "--help")
    assert code == 0
    assert "{" + ",".join([*CLAIMS, "suite"]) + "}" in out


def test_verify_single_claim_is_the_one_case_suite():
    single = {
        "main": (["--n", "3", "--lambda", "1,0,1"], [3, [1, 0, 1]]),
        "fundamental": (["--n", "3", "--k", "2"], [3, 2, 1]),  # --r defaults to 1
        "words": (["--n", "2", "--lambda", "2"], [2, [2, 0]]),
        "dyck": (["--n", "4", "--k", "2"], [4, 2]),
    }
    assert list(single) == list(CLAIMS)

    def untimed(report):
        return {key: v for key, v in report.items() if key != "seconds"}

    for kind, (flags, case) in single.items():
        code, out = run_cli("verify", kind, *flags, "--json")
        assert code == 0
        suite = [untimed(r.to_json()) for r in run_suite({kind: [case]})]
        assert [untimed(r) for r in json.loads(out)] == suite


def test_verify_single_claim_validated_like_suite_cases():
    for argv in (
        ("fundamental", "--n", "3", "--k", "1", "--r", "0"),  # used to pass vacuously
        ("fundamental", "--n", "3", "--k", "5"),
        ("words", "--n", "4", "--lambda", "1"),
        ("main", "--n", "0", "--lambda", ""),
    ):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert run_cli("verify", *argv) == (2, ""), argv
        assert f"invalid {argv[0]} case" in err.getvalue()


def test_verify_claims_resolve_through_the_verify_module(monkeypatch):
    # perfbench/paced_cli.py times claims by rebinding these globals
    import fflv.verify as verify

    calls = []
    real = verify.verify_dyck_correspondence
    monkeypatch.setattr(
        verify, "verify_dyck_correspondence", lambda *a: calls.append(a) or real(*a)
    )
    assert run_suite({"dyck": [[3, 2]]})[0].passed
    assert run_cli("verify", "dyck", "--n", "3", "--k", "2")[0] == 0
    assert calls == [(3, 2), (3, 2)]


def test_verify_suite_restricted():
    code, out = run_cli("verify", "suite", "--kinds", "dyck")
    assert code == 0
    assert "10/10 passed" in out


def test_verify_suite_custom_config():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"main": [[2, [1, 1]], [2, [2, 0]]]}, fh)
        code, out = run_cli("verify", "suite", "--config", cfg)
        assert code == 0
        assert "2/2 passed" in out
        with open(cfg, "w") as fh:
            json.dump({"main": [{"n": 2, "lam": [1, 1]}]}, fh)
        with contextlib.redirect_stderr(io.StringIO()):
            assert run_cli("verify", "suite", "--config", cfg)[0] == 2
            assert run_cli("verify", "suite", "--kinds", "word")[0] == 2  # typo
        with open(cfg, "w") as fh:
            json.dump({"main": []}, fh)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert run_cli("verify", "suite", "--config", cfg) == (2, "")
        assert "no case" in err.getvalue()
        for doc in (None, [], 3):  # a config that is not a JSON object
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run_cli("verify", "suite", "--config", cfg) == (2, ""), doc
            assert "must map claim kinds" in err.getvalue(), doc


def test_out_flag_writes_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.json")
        code, out = run_cli("fflv", "--n", "2", "--lambda", "1,1",
                            "--format", "json", "--out", path)
        assert code == 0 and out == ""
        with open(path) as fh:
            assert PointSet(json.load(fh)) == fflv_points(2, (1, 1))


def test_bad_flags_exit_two():
    with contextlib.redirect_stderr(io.StringIO()):
        assert dispatch(["word"]) == 2          # missing --n
        assert dispatch(["no-such-command"]) == 2
        assert dispatch(["tiling", "--n", "2", "--word", "1,1"]) == 2  # not reduced
        assert dispatch(["fflv", "--n", "2", "--lambda", "1,-1"]) == 2
        # an empty entry is not a zero: it would shift the entries after it
        for lam in ("1,,2", ",1", "1,2,", ","):
            assert dispatch(["fflv", "--n", "3", "--lambda", lam, "--mode", "count"]) == 2, lam
        # sigma orders the greedy walk only; the exhaustive search has no use for it
        assert dispatch(["conjecture", "--n", "2", "--lambda", "1,1", "--sigma", "2,1"]) == 2
        # an empty sigma is still a sigma: no mode ignores it
        assert dispatch(["conjecture", "--n", "2", "--lambda", "1,1", "--sigma", ""]) == 2
        assert dispatch(["conjecture", "--n", "2", "--lambda", "1,1",
                         "--mode", "greedy", "--sigma", ""]) == 2
        # budget caps the exhaustive search only; the greedy walk has no use for it
        assert dispatch(["conjecture", "--n", "2", "--lambda", "1,1",
                         "--mode", "greedy", "--budget", "5"]) == 2
        assert dispatch(["--help"]) == 0
        for argv in (  # words that are not reduced for the longest element
            ("--n", "2", "--word", "1,1"),
            ("--n", "1", "--word", "7"),
            ("--n", "0"),
            ("--n", "-3"),
        ):
            assert run_cli("word", *argv) == (2, ""), argv
    # rank 0 is a bad rank, not a word that fails to be reduced
    for argv in (
        ("roots", "--n", "0"),
        ("fflv", "--n", "0", "--lambda", ""),
        ("crystal", "pb", "--n", "0", "--lambda", ""),
        ("conjecture", "--n", "0", "--lambda", ""),
        ("word", "--n", "0"),
        ("word", "--n", "0", "--lexmax"),
        ("word", "--n", "0", "--ik", "1"),
        ("tiling", "--n", "0", "--word", "lexmin"),
        ("lusztig", "--n", "0", "--word", "1", "--lambda", ""),
    ):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert run_cli(*argv) == (2, ""), argv
        assert err.getvalue() == "error: rank must be >= 1\n", argv
    assert run_cli("word", "--n", "1") == (0, "(1)\n")
    # the empty list is the zero weight: one point
    assert run_cli("fflv", "--n", "3", "--lambda", "", "--mode", "count") == (0, "1\n")


# entries Python's int() reads as 1: signs, underscores, surrounding spaces
# and non-ASCII decimal digits
_NOT_ASCII_DECIMAL_ONES = ("+1", "0_1", " 1", "1 ", "\t1", "\u0661", "\U0001d7cf")


def test_integer_entries_are_ascii_decimals():
    assert all(int(entry) == 1 for entry in _NOT_ASCII_DECIMAL_ONES)
    argvs = (  # each runs with exit 0 when {} is 1
        ("fflv", "--n", "2", "--lambda", "1,{}", "--mode", "count"),
        ("verify", "main", "--n", "2", "--lambda", "{},1"),
        ("word", "--n", "2", "--word", "1,2,{}"),
        ("lusztig", "--n", "2", "--word", "{},2,1", "--lambda", "1", "--mode", "count"),
        ("tiling", "--n", "2", "--word", "ik:{}"),
        ("conjecture", "--n", "2", "--lambda", "1,1", "--mode", "greedy", "--sigma", "2,{}"),
        # the integer flags, one case each
        ("fflv", "--n", "{}", "--lambda", "1", "--mode", "count"),
        ("verify", "fundamental", "--n", "2", "--k", "{}"),
        ("verify", "fundamental", "--n", "2", "--k", "1", "--r", "{}"),
        ("word", "--n", "2", "--ik", "{}"),
        ("crystal", "sl3", "--gt", "--a", "{}", "--b", "1"),
        ("crystal", "sl3", "--gt", "--a", "1", "--b", "{}"),
        ("conjecture", "--n", "2", "--lambda", "1,1", "--budget", "{}"),
    )
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            assert run_cli(*(a.format("1") for a in argv))[0] == 0, argv
            for entry in _NOT_ASCII_DECIMAL_ONES:
                bad = [a.format(entry) for a in argv]
                assert run_cli(*bad) == (2, ""), bad
        # int() read this weight as (10, 1) and printed its 143 points
        assert run_cli("fflv", "--n", "2", "--lambda", "1_0, +1", "--mode", "count") == (2, "")
        # int() read this k as 10 and the full-width digit as n = 3
        assert run_cli("verify", "fundamental", "--n", "2", "--k", "1_0") == (2, "")
        assert run_cli("verify", "fundamental", "--n", "\uff13", "--k", "1") == (2, "")
    # argparse prints the type's own message, not its function name
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run_cli("word", "--n", "3", "--ik", "+2") == (2, "")
    assert err.getvalue().endswith("fflv word: error: argument --ik: not a decimal number: '+2'\n")
    assert run_cli("fflv", "--n", "2", "--lambda", "10,1", "--mode", "count") == (0, "143\n")


_HELP_ARGVS = (
    [["--help"]]
    + [[c, "--help"] for c in ("roots", "word", "fflv", "tiling", "lusztig",
                               "crystal", "conjecture", "verify")]
    + [["crystal", c, "--help"] for c in ("sl3", "pb")]
    + [["verify", c, "--help"] for c in ("main", "fundamental", "words", "dyck", "suite")]
)


def _parsed(parser, argv):
    """(exit code or None, stdout, stderr, parsed namespace or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


def test_help_output_unchanged(monkeypatch):
    # argparse wraps help at the terminal width: sha256 of the 16 help texts
    # at 80 columns as the full parser tree prints them
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for argv in _HELP_ARGVS:
        code, out = run_cli(*argv)
        assert code == 0 and out, argv
        text += out
    assert len(text) == 5010
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1563a2b1eb117acfbab9c26ddb2d5706d974aa5db47036941398be3698ce0c6a"
    )


def test_dispatch_parser_parses_like_the_full_tree(monkeypatch):
    # dispatch gives arguments only to the parsers its argv reaches; every
    # help, error and parse result must be that of the full tree
    monkeypatch.setenv("COLUMNS", "80")
    argvs = _HELP_ARGVS + [
        [], ["bogus"], ["-1", "word"], ["--bogus", "word", "--n", "2"], ["--", "word", "--n", "2"],
        ["word"], ["word", "--n", "x"], ["word", "--n", "2", "--lexmin", "--lexmax"],
        ["word", "--n", "2", "--ik", "1", "--enumerate"], ["roots", "--n", "2", "--format", "xml"],
        ["fflv", "--n", "2", "--lambda", "1,1", "--mode", "hrep"], ["tiling", "--n", "2"],
        ["lusztig", "--n", "3", "--word", "lexmin", "--lambda", "1", "--bogus"],
        ["crystal"], ["crystal", "xx"], ["crystal", "--format", "dot", "sl3"],
        ["crystal", "sl3", "--a", "1", "--b", "1"], ["crystal", "sl3", "--lt", "--a", "1", "--b", "2"],
        ["crystal", "pb", "--n", "2", "--lambda", "1"], ["conjecture", "--n", "2", "--lambda", "1,1"],
        ["verify"], ["verify", "nope"], ["verify", "main"], ["verify", "suite", "--bogus"],
        ["verify", "suite", "--kinds", "main", "--json"], ["verify", "fundamental", "--n", "3", "--k", "2"],
        # one argv for each kind of argument spec: a group, a required group,
        # the claim parameters, and the flags every verify form shares
        ["word", "--n", "2", "--ik", "1", "--word", "1"], ["crystal", "sl3", "--gt", "--lt", "--a", "1", "--b", "1"],
        ["verify", "fundamental", "--n", "3", "--k", "2", "--r", "2", "--json", "--out", "o"],
        ["verify", "suite", "--config", "c.json", "--kinds", "main", "--out", "o", "--json"],
    ]
    for argv in argvs:
        lazy = _parsed(build_parser(argv), argv)
        assert lazy == _parsed(build_parser(), argv), argv
        assert lazy[0] in (None, 0, 2) and (lazy[0] is None) == (lazy[3] is not None)


def test_verify_suite_empty_kinds_is_an_unknown_kind():
    for kinds in ("", "main,"):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert run_cli("verify", "suite", "--kinds", kinds) == (2, "")
        assert err.getvalue() == "error: unknown suite kind(s): ''\n", kinds


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fflv.cli", "word", "--n", "3", "--ik", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(2,1,3,2,3,1)\n"


def _fresh(*args):
    """Run a new interpreter, which imports the package under test, on ``args``."""
    src = os.path.dirname(os.path.dirname(fflv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path)
    )


_LOADED = (
    "import sys; print(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('fflv', 'fractions', 'dataclasses', 'inspect')))"
)


def test_cli_import_loads_only_the_registry_and_roots():
    proc = _fresh("-c", "import fflv.cli; " + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['fflv', 'fflv.claims', 'fflv.cli', 'fflv.roots']\n"


def test_verify_suite_never_loads_the_crystal_layer():
    proc = _fresh(
        "-c",
        "import contextlib, io; from fflv.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = dispatch(['verify', 'suite'])\n"
        "print(code); " + _LOADED,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()
    assert code == "0" and "'fflv.verify'" in loaded
    assert "'fflv.crystal'" not in loaded and "'fractions'" not in loaded
    assert "'dataclasses'" not in loaded and "'inspect'" not in loaded


def test_startup_counters_report_each_command(monkeypatch, capsys, startup_counters):
    # scripts/startup_counters.py runs each command in a fresh interpreter:
    # narrowed to two commands, each must succeed, load the CLI, load none
    # of the costly stdlib modules and build only its own parser (the full
    # tree has 79 arguments)
    names = ("word", "verify suite")
    monkeypatch.setattr(startup_counters, "COMMANDS", {name: startup_counters.COMMANDS[name] for name in names})
    startup_counters.main()
    out = json.loads(capsys.readouterr().out)
    assert tuple(out) == names
    for name, report in out.items():
        assert report["exit"] == 0, name
        assert "fflv.cli" in report["fflv_modules"], name
        assert report["costly_modules"] == [], name
    assert (out["word"]["parser_actions"], out["verify suite"]["parser_actions"]) == (16, 18)


def test_crystal_command_imports_its_layer():
    argv = ("crystal", "sl3", "--gt", "--a", "1", "--b", "1")
    proc = _fresh("-m", "fflv.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(*argv)[1]
