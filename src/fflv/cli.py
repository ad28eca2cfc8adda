"""Command-line front end.

One subcommand per module: ``roots``, ``word``, ``fflv``, ``tiling``,
``lusztig``, ``crystal``, ``verify``, ``conjecture``.  Everything prints to
stdout unless ``--out FILE`` is given; serialization is canonical, so
identical invocations produce byte-identical output.  Exit codes: 0 on
success, 1 when a verification fails, 2 on bad flags or bad input.

One table, ``_COMMANDS``, declares every command: its help, its handler
and its arguments; the ``verify`` subcommands come from the claim registry.
Each subcommand imports the layers it runs when it runs, so start-up loads
only this module, ``fflv.roots`` and the claim registry ``fflv.claims``;
``dispatch`` adds arguments only to the parser of the command it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

from .claims import CLAIMS
from .roots import (
    ik_word,
    lexmax_word,
    lexmin_word,
    positive_roots,
    root_enumeration,
)

if TYPE_CHECKING:
    from .crystal import CrystalGraph
    from .polytope import HPolytope


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _NotDecimal(ValueError, argparse.ArgumentTypeError):
    """A ``ValueError`` that argparse prints as its message, not as
    ``invalid <type name> value``."""


def _decimal(entry: str) -> int:
    """A nonnegative integer written in ASCII digits only.  ``int`` alone
    also takes signs, underscores, surrounding spaces and non-ASCII digits."""
    if not (entry.isascii() and entry.isdigit()):
        raise _NotDecimal(f"not a decimal number: {entry!r}")
    return int(entry)


def _parse_lambda(raw: str, n: int) -> tuple[int, ...]:
    try:
        parts = [_decimal(x) for x in raw.split(",")] if raw else []  # '' is the zero weight
    except ValueError:
        raise ValueError(f"bad weight list {raw!r}")
    if len(parts) > n:
        raise ValueError(f"need at most {n} nonnegative entries in {raw!r}")
    return tuple(parts) + (0,) * (n - len(parts))


def _parse_word(raw: str, n: int) -> tuple[int, ...]:
    if raw == "lexmin":
        return lexmin_word(n)
    if raw == "lexmax":
        return lexmax_word(n)
    if raw.startswith("ik:"):
        return ik_word(n, _decimal(raw[3:]))
    try:
        return tuple(_decimal(x) for x in raw.split(","))
    except ValueError:
        raise ValueError(f"bad word spec {raw!r}")


def _word_str(word: Sequence[int]) -> str:
    return "(" + ",".join(map(str, word)) + ")"


def _term(c: int, i: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = "" if abs(c) == 1 else f"{abs(c)}*"
    return f"{sign}{mag}x{i}" if first else f"{sign} {mag}x{i}"


def _hrep_text(P: HPolytope) -> str:
    """One line per row, e.g. ``x0 - x2 + 2*x3 <= 1``."""
    lines = []
    for row, b in P.rows:
        terms = [(i, c) for i, c in enumerate(row) if c]
        lhs = " ".join(_term(c, i, k == 0) for k, (i, c) in enumerate(terms))
        lines.append(f"{lhs or '0'} <= {b}")
    return "\n".join(lines)


def _emit_hrep(P: HPolytope, args) -> None:
    _emit(_dumps(P.to_json()) if args.format == "json" else _hrep_text(P), args.out)


def _emit_points(pts, args) -> None:
    if args.mode == "count":
        _emit(str(len(pts)), args.out)
    elif args.format == "json":
        _emit(_dumps(pts.to_json()), args.out)
    else:
        _emit("\n".join(" ".join(map(str, p)) for p in pts), args.out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_roots(args) -> int:
    roots = positive_roots(args.n)
    if args.format == "json":
        _emit(_dumps([[r.i, r.j] for r in roots]), args.out)
    else:
        _emit("\n".join(str(r) for r in roots), args.out)
    return 0


def cmd_word(args) -> int:
    if args.ik is not None:
        word = ik_word(args.n, args.ik)
    elif args.lexmax:
        word = lexmax_word(args.n)
    elif args.word is not None:
        word = _parse_word(args.word, args.n)
    else:
        word = lexmin_word(args.n)
    enum = root_enumeration(word, args.n)  # raises on a bad rank or a non-reduced word
    lines = [_word_str(word)]
    if args.enumerate:
        lines.append(" ".join(str(r) for r in enum))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_fflv(args) -> int:
    from .fflv import fflv_hrep, fflv_points

    lam = _parse_lambda(args.lam, args.n)
    if args.mode == "hrep":
        _emit_hrep(fflv_hrep(args.n, lam), args)
    else:
        _emit_points(fflv_points(args.n, lam), args)
    return 0


def cmd_tiling(args) -> int:
    from .tiling import build_tiling, tiling_to_json, tiling_to_svg

    word = _parse_word(args.word, args.n)
    T = build_tiling(word, n=args.n)
    if args.format == "svg":
        _emit(tiling_to_svg(T), args.out)
    elif args.format == "json":
        _emit(_dumps(tiling_to_json(T)), args.out)
    else:
        lines = [f"n={T.n} m={T.m} word={_word_str(T.word)} tiles={len(T.tiles)}"]
        lines += [f"  t{t.id}: {t.labels} root {t.root}" for t in T.tiles]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_lusztig(args) -> int:
    from .tiling import lusztig_hrep, lusztig_points

    word = _parse_word(args.word, args.n)
    lam = _parse_lambda(args.lam, args.n)
    if args.mode == "hrep":
        _emit_hrep(lusztig_hrep(word, lam, n=args.n), args)
    else:
        _emit_points(lusztig_points(word, lam, n=args.n), args)
    return 0


def _emit_crystal(g: CrystalGraph, args) -> None:
    from .crystal import crystal_to_dot

    if args.format == "dot":
        _emit(crystal_to_dot(g), args.out)
    elif args.format == "json":
        _emit(_dumps(g.to_json()), args.out)
    else:
        lines = [f"vertices={len(g.vertices)} edges={len(g.edges)}"]
        lines += [
            f"  {','.join(map(str, u))} -{a}-> {','.join(map(str, v))}"
            for u, a, v in sorted(g.edges)
        ]
        _emit("\n".join(lines), args.out)


def cmd_crystal_sl3(args) -> int:
    from .crystal import sl3_bgt, sl3_blt

    build = sl3_blt if args.lt else sl3_bgt
    _emit_crystal(build(args.a, args.b), args)
    return 0


def cmd_crystal_pb(args) -> int:
    from .crystal import pb_graph

    lam = _parse_lambda(args.lam, args.n)
    _emit_crystal(pb_graph(args.n, lam), args)
    return 0


def cmd_conjecture(args) -> int:
    from .crystal import conjecture_search

    lam = _parse_lambda(args.lam, args.n)
    sigma = None
    if args.sigma is not None:
        sigma = tuple(_decimal(x) for x in args.sigma.split(","))
    res = conjecture_search(args.n, lam, sigma=sigma, mode=args.mode, budget=args.budget)
    if args.format == "json":
        _emit(
            _dumps(
                {
                    "mode": res.mode,
                    "complete": res.complete,
                    "valid": len(res.graphs),
                    "selections": res.selections,
                    "graphs": [g.to_json() for g in res.graphs],
                }
            ),
            args.out,
        )
    else:
        _emit(
            f"mode={res.mode} complete={res.complete} valid={len(res.graphs)} "
            f"selections={res.selections}",
            args.out,
        )
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    if args.what == "suite":
        config = None
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):  # run_suite reads None as the default sweep
                raise ValueError("suite config must map claim kinds to case lists")
        kinds = args.kinds.split(",") if args.kinds is not None else None
        reports = run_suite(config, kinds=kinds)
    else:
        # a single claim is the one-case suite, validated like any suite case
        case = [list(_parse_lambda(args.lam, args.n)) if name == "lam" else getattr(args, name)
                for name in CLAIMS[args.what].params]
        reports = run_suite({args.what: [case]})
    if args.json:
        _emit(_dumps([r.to_json() for r in reports]), args.out)
    else:
        passed = sum(r.passed for r in reports)
        lines = [str(r) for r in reports]
        lines.append(f"{passed}/{len(reports)} passed")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser

# The flag of each claim parameter (see ``claims.Claim``): an argument spec
# that is a parameter's name adds its flag.
_PARAM_FLAGS = {
    "n": ("--n", {"type": _decimal, "required": True}),
    "lam": ("--lambda", {"dest": "lam", "required": True,
                         "help": "comma-separated weights; trailing zeros optional"}),
    "k": ("--k", {"type": _decimal, "required": True}),
    "r": ("--r", {"type": _decimal, "default": 1}),
}


def _format(*choices: str) -> tuple:
    return ("--format", {"choices": choices, "default": choices[0]})


_OUT = ("--out", {})
_JSON = ("--json", {"action": "store_true", "help": "emit the JSON report array"})
_WORD = ("--word", {"required": True, "help": "lexmin | lexmax | ik:K | comma-separated letters"})
_MODE = ("--mode", {"choices": ("points", "hrep", "count"), "default": "points"})


def _add_args(parser, specs) -> None:
    """Add the arguments ``specs`` declare, in order.  A spec is the name of
    a claim parameter, a pair (flag, ``add_argument`` keywords), or a dict
    ``{"required": ..., "group": specs}`` for a mutually exclusive group."""
    for spec in specs:
        if isinstance(spec, dict):
            _add_args(parser.add_mutually_exclusive_group(required=spec["required"]), spec["group"])
        else:
            flag, kwargs = _PARAM_FLAGS[spec] if isinstance(spec, str) else spec
            parser.add_argument(flag, **kwargs)


# (dest, {name: (help, handler, argument specs) or (help, nested table)});
# a command whose help is None is left out of its parent's help
_COMMANDS = ("command", {
    "roots": ("positive roots in canonical order", cmd_roots, ("n", _format("text", "json"), _OUT)),
    "word": ("reduced words of the longest element", cmd_word, (
        "n",
        {"required": False, "group": (
            ("--lexmin", {"action": "store_true"}),
            ("--lexmax", {"action": "store_true"}),
            ("--ik", {"type": _decimal, "metavar": "K"}),
            ("--word", {"help": "explicit comma-separated letters"}),
        )},
        ("--enumerate", {"action": "store_true", "help": "also print the induced order on positive roots"}),
        _OUT,
    )),
    "fflv": ("FFLV polytope of a weight", cmd_fflv, ("n", "lam", _format("text", "json"), _OUT, _MODE)),
    "tiling": ("rhombic tiling of a reduced word", cmd_tiling,
               ("n", _format("text", "json", "svg"), _OUT, _WORD)),
    "lusztig": ("Lusztig polytope of a reduced word", cmd_lusztig,
                ("n", "lam", _format("text", "json"), _OUT, _WORD, _MODE)),
    "crystal": ("crystal graphs on FFLV lattice points", ("which", {
        "sl3": ("the explicit crystals B^>(a,b) / B^<(a,b)", cmd_crystal_sl3, (
            {"required": True, "group": (("--gt", {"action": "store_true"}),
                                         ("--lt", {"action": "store_true"}))},
            ("--a", {"type": _decimal, "required": True}),
            ("--b", {"type": _decimal, "required": True}),
            _format("dot", "json", "text"),
            _OUT,
        )),
        "pb": ("all candidate moves (usually a multigraph)", cmd_crystal_pb,
               ("n", "lam", _format("dot", "json", "text"), _OUT)),
    })),
    "conjecture": ("search for crystal structures", cmd_conjecture, (
        "n", "lam", _format("text", "json"), _OUT,
        ("--mode", {"choices": ("exhaustive", "greedy"), "default": "exhaustive"}),
        ("--sigma", {"help": "color preference, e.g. 2,1"}),
        ("--budget", {"type": _decimal}),
    )),
    "verify": ("replay verification claims", ("what", {
        **{kind: (None, cmd_verify, (*claim.params, _OUT, _JSON)) for kind, claim in CLAIMS.items()},
        "suite": (None, cmd_verify, (
            ("--config", {"help": "JSON file overriding the default sweep"}),
            ("--kinds", {"help": "comma-separated claim kinds to run"}),
            _OUT,
            _JSON,
        )),
    })),
})


def _add_commands(parser, table, argv: Sequence[str] | None) -> None:
    """Register the commands of ``table`` (see ``_COMMANDS``) by name and
    help under a required subcommand stored at its dest.

    Only the command that parsing ``argv`` picks gets its arguments: the
    first of ``argv`` that is not an option, since no parser here has an
    option that takes a value before its subcommand.  Usage and help text
    read only the names and helps, so every ``--help`` and every error
    prints what the full tree prints.  ``argv=None`` builds the full tree.
    """
    dest, commands = table
    sub = parser.add_subparsers(dest=dest, required=True)
    i = next((i for i, a in enumerate(argv or ()) if not a.startswith("-")), None)
    for name, (text, *body) in commands.items():
        q = sub.add_parser(name) if text is None else sub.add_parser(name, help=text)
        if argv is not None and (i is None or argv[i] != name):
            continue
        rest = None if argv is None else argv[i + 1:]
        if len(body) == 1:  # a nested table
            _add_commands(q, body[0], rest)
        else:
            _add_args(q, body[1])
            q.set_defaults(func=body[0])


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The ``fflv`` parser: the full tree, or with ``argv`` only the parsers
    that parsing ``argv`` reaches (see ``_add_commands``)."""
    parser = argparse.ArgumentParser(
        prog="fflv",
        description="FFLV and Lusztig polytopes, rhombic tilings, and crystal graphs.",
    )
    _add_commands(parser, _COMMANDS, argv)
    return parser


def dispatch(argv: Sequence[str]) -> int:
    argv = list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
