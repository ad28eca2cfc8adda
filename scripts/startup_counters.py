"""Deterministic start-up counters of the ``fflv`` command.

    python3 scripts/startup_counters.py

Runs each command below once in a fresh interpreter and reports what it
loaded: the ``fflv.*`` modules, the total source bytes of those modules
(each one is compiled again at every start when no bytecode cache is
written), how many modules of any kind were loaded, and which of the
costly stdlib modules below it loaded (``dataclasses`` imports ``inspect``,
which imports ``ast``, ``dis`` and ``tokenize``).  ``parser_actions``
counts the arguments, help actions included, that ``build_parser(argv)``
creates over the whole parser tree for that command; the full tree has
79.  Prints one JSON object; the counts repeat exactly for a given
checkout and Python.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = {
    "word": ["word", "--n", "1"],
    "fflv": ["fflv", "--n", "3", "--lambda", "1,1,1", "--mode", "count"],
    "tiling": ["tiling", "--n", "3", "--word", "lexmin"],
    "lusztig": ["lusztig", "--n", "3", "--word", "ik:2", "--lambda", "1,1,1", "--mode", "count"],
    "crystal": ["crystal", "sl3", "--gt", "--a", "1", "--b", "1"],
    "conjecture": ["conjecture", "--n", "2", "--lambda", "1,1"],
    "verify suite": ["verify", "suite"],
}

COSTLY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

PROBE = """
import argparse, contextlib, io, json, os, sys
from fflv.cli import build_parser, dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(sys.argv[1:])
def actions(parser):
    return sum(sum(map(actions, a.choices.values())) if isinstance(a, argparse._SubParsersAction) else 1
               for a in parser._actions)
mods = sorted(m for m in sys.modules if m == "fflv" or m.startswith("fflv."))
print(json.dumps({
    "exit": code,
    "fflv_modules": mods,
    "fflv_source_bytes": sum(os.path.getsize(sys.modules[m].__file__) for m in mods),
    "modules_loaded": len(sys.modules),
    "costly_modules": [m for m in %r if m in sys.modules],
    "parser_actions": actions(build_parser(sys.argv[1:])),
}))
""" % (COSTLY,)


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for name, argv in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, check=True
        )
        out[name] = json.loads(proc.stdout)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
