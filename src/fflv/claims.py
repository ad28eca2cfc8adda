"""The claim registry: each claim kind, its parameters and its default cases.

``fflv.verify`` runs the claims; the ``fflv`` command builds its ``verify``
subcommands from ``CLAIMS``.  Besides the standard library this module
imports only ``fflv.roots``, which owns the rules for n, lambda and k, so
the command can build its parser without loading the polytope layers.
"""

from __future__ import annotations

import copy
import itertools
from typing import NamedTuple

from .roots import check_k, check_rank, check_weight


def _weights(n: int, total: int) -> list[list[int]]:
    """Dominant weights of rank n with entries summing to at most total."""
    out = [
        list(lam)
        for lam in itertools.product(range(total + 1), repeat=n)
        if sum(lam) <= total
    ]
    out.sort(key=lambda l: (sum(l), l))
    return out


class Claim(NamedTuple):
    """A claim kind: its ``verify_*`` function's name in ``fflv.verify``
    (looked up when a claim runs, so a rebinding of that global is what
    runs), its parameters in order (``n``, then ``lam``, ``k`` or ``r``),
    default cases and largest n."""

    function: str
    params: tuple[str, ...]
    sweep: list
    max_n: int | None = None


CLAIMS = {
    "main": Claim(
        "verify_main", ("n", "lam"),
        [[2, lam] for lam in _weights(2, 3)]
        + [[3, lam] for lam in _weights(3, 3)]
        + [[4, lam] for lam in _weights(4, 2)],
    ),
    "fundamental": Claim(
        "verify_fundamental", ("n", "k", "r"),
        [[n, k, r] for n in (1, 2, 3, 4) for k in range(1, n + 1) for r in (1, 2, 3)],
    ),
    "words": Claim(  # exhaustive over reduced words: desk scale
        "verify_word_counts", ("n", "lam"),
        [[2, lam] for lam in _weights(2, 2)] + [[3, lam] for lam in _weights(3, 2)],
        max_n=3,
    ),
    "dyck": Claim(
        "verify_dyck_correspondence", ("n", "k"),
        [[n, k] for n in (1, 2, 3, 4) for k in range(1, n + 1)],
    ),
}


def default_sweep() -> dict:
    """The default sweep: every claim kind with its registered cases."""
    return {kind: copy.deepcopy(claim.sweep) for kind, claim in CLAIMS.items()}


def _ints(values) -> bool:
    return all(type(v) is int for v in values)  # bool is an int subclass


def check_case(kind: str, case) -> None:
    """Raise ``ValueError`` unless ``case`` lists the parameters of a claim of
    the registered ``kind``: integers (``bool`` is not one here) that keep
    the rules of ``fflv.roots`` for n, ``lam`` and k, with r >= 1 and n at
    most the claim's ``max_n``."""
    claim = CLAIMS[kind]
    if not (
        isinstance(case, (list, tuple))
        and len(case) == len(claim.params)
        and all(
            isinstance(v, (list, tuple)) and _ints(v) if name == "lam" else _ints([v])
            for name, v in zip(claim.params, case)
        )
    ):
        raise ValueError(f"malformed {kind} case {case!r}")
    try:
        n = check_rank(case[0])
        for name, value in zip(claim.params[1:], case[1:]):
            if name == "lam":
                check_weight(n, value)
            elif name == "k":
                check_k(n, value)
            elif name == "r" and value < 1:  # the claims need a nonzero weight
                raise ValueError(f"r={value} must be >= 1")
        if claim.max_n is not None and n > claim.max_n:
            raise ValueError(f"the {kind} check is desk scale: n <= {claim.max_n}")
    except ValueError as exc:
        raise ValueError(f"invalid {kind} case {case!r}: {exc}") from None
