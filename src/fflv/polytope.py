"""Exact integer H-polytope machinery.

An ``HPolytope`` is a list of rows ``coeffs . x <= rhs`` over Z^N, usually
with the implicit constraint x >= 0.  ``lattice_points`` enumerates all its
integer points inside a box that ``certified_box`` proves from the rows
alone; everything downstream (Minkowski sums, membership) works on the
resulting ``PointSet``.

All arithmetic is exact: Python integers only, no floats, no epsilons.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from operator import add, index
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

Point = tuple[int, ...]
RowT = tuple[tuple[int, ...], int]
T = TypeVar("T")

# The memo of the innermost open ``_one_run()``; None outside every run.
_RUN: ContextVar[dict | None] = ContextVar("fflv_run", default=None)


@contextmanager
def _one_run() -> Iterator[None]:
    """Within the block, ``_once`` computes each key once and shares it.

    The memo lives only as long as the block, so calls outside any run
    (library calls, the CLI's single commands) recompute every time.
    """
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def _once(key: object, compute: Callable[[], T]) -> T:
    """``compute()``, memoised on ``key`` inside ``_one_run()``.

    The value must be immutable: every later caller in the run gets the
    same object.  An exception propagates and nothing is stored.
    """
    memo = _RUN.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


class HPolytope(NamedTuple):
    dim: int
    rows: tuple[RowT, ...]
    nonneg: bool = True

    @classmethod
    def make(
        cls,
        dim: int,
        rows: Iterable[tuple[Sequence[int], int]],
        nonneg: bool = True,
    ) -> "HPolytope":
        norm = []
        for coeffs, rhs in rows:
            coeffs = tuple(map(index, coeffs))
            if len(coeffs) != dim:
                raise ValueError(f"row has {len(coeffs)} coefficients, dim is {dim}")
            norm.append((coeffs, index(rhs)))
        return cls(dim=dim, rows=tuple(norm), nonneg=nonneg)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "nonneg": self.nonneg,
            "rows": [{"a": list(a), "b": b} for a, b in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HPolytope":
        return cls.make(
            dim=obj["dim"],
            rows=[(row["a"], row["b"]) for row in obj["rows"]],
            nonneg=obj["nonneg"],
        )


class PointSet:
    """A deduplicated set of integer points, stored sorted.

    Sorted storage gives deterministic iteration order everywhere a report
    or a JSON dump walks the set; membership is binary search.  Coordinates
    must be integers: a float or a string raises TypeError, never rounds.
    """

    __slots__ = ("dim", "_pts")

    def __init__(self, points: Iterable[Sequence[int]], dim: int | None = None):
        pts = sorted({tuple(map(index, p)) for p in points})
        if pts:
            d = len(pts[0])
            if any(len(p) != d for p in pts):
                raise ValueError("points of mixed dimension")
            if dim is not None and dim != d:
                raise ValueError(f"points have dimension {d}, expected {dim}")
            dim = d
        elif dim is None:
            raise ValueError("empty PointSet needs an explicit dim")
        self.dim = dim
        self._pts: tuple[Point, ...] = tuple(pts)

    @classmethod
    def _trusted(cls, points: Iterable[Point], dim: int) -> "PointSet":
        """The set of ``points``, which must be distinct tuples of ints of
        length ``dim``: the library's own enumerator and ``sumset`` build
        exactly that, so this only sorts."""
        self = cls.__new__(cls)
        self.dim = dim
        self._pts = tuple(sorted(points))
        return self

    def __len__(self) -> int:
        return len(self._pts)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._pts)

    def __contains__(self, p: Sequence[int]) -> bool:
        q = tuple(p)
        i = bisect_left(self._pts, q)
        return i < len(self._pts) and self._pts[i] == q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self._pts == other._pts

    def __hash__(self) -> int:
        return hash((self.dim, self._pts))

    def __repr__(self) -> str:
        return f"PointSet({len(self._pts)} points, dim={self.dim})"

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self._pts]

    @classmethod
    def from_json(cls, arr: list, dim: int | None = None) -> "PointSet":
        return cls(arr, dim=dim)

    def dumps(self) -> str:
        """Canonical JSON text (used for byte-stable CLI output)."""
        return json.dumps(self.to_json(), separators=(",", ":"))


def contains(P: HPolytope, x: Sequence[int]) -> bool:
    x = tuple(x)
    if len(x) != P.dim:
        raise ValueError(f"point has dimension {len(x)}, polytope has {P.dim}")
    if P.nonneg and any(v < 0 for v in x):
        return False
    return all(
        sum(c * v for c, v in zip(a, x)) <= b for a, b in P.rows
    )


def certified_box(P: HPolytope) -> tuple[list[int], list[int]]:
    """An enumeration order and a per-coordinate bound on every point of P.

    A *capping row* of coordinate d has a positive coefficient on d and none
    negative on the coordinates not yet placed.  With x >= 0 it bounds x_d
    by (rhs minus the worst case of the placed coordinates) // coefficient.
    The lowest-index coordinate with a capping row is placed next; placing
    more coordinates never takes a capping row away, so this greedy order
    exists whenever any does.  Each row keeps its count of negative
    coefficients on unplaced coordinates and its worst-case rhs, so the
    pass costs O(rows * dim).  Raises ``ValueError`` when some coordinate
    has no capping row.  A negative bound means P has no points.
    """
    if not P.nonneg:
        raise ValueError("a certified box needs the implicit x >= 0 constraints")
    N = P.dim
    coeffs = [a for a, _ in P.rows]
    worst = [b for _, b in P.rows]
    neg = [sum(c < 0 for c in a) for a in coeffs]
    capped = {
        d for a, k in zip(coeffs, neg) if not k for d, c in enumerate(a) if c > 0
    }
    order: list[int] = []
    bound = [0] * N
    while len(order) < N:
        ready = capped.difference(order)
        if not ready:
            loose = sorted(set(range(N)).difference(order))
            raise ValueError(f"no certified box: {loose} have no capping row")
        d = min(ready)
        bound[d] = min(
            w // a[d] for a, w, k in zip(coeffs, worst, neg) if a[d] > 0 and not k
        )
        order.append(d)
        for r, a in enumerate(coeffs):
            if a[d] < 0:
                worst[r] -= a[d] * bound[d]
                neg[r] -= 1
                if not neg[r]:
                    capped.update(j for j, c in enumerate(a) if c > 0)
    return order, bound


def lattice_points(P: HPolytope) -> PointSet:
    """All integer points of P, or ``ValueError`` if P has no certified box.

    Depth-first over the coordinates in the order of ``certified_box``, each
    inside its bound.  Each level reads only the rows with a nonzero
    coefficient there and propagates the feasible interval from them, using
    coefficient signs and the worst case of the row's free suffix; the
    chosen value updates those rows' budgets in place and the level restores
    them when it is done.  A row is checked against its worst case once, at
    the root; below that, a row a level does not touch cannot prune, because
    its last chosen coordinate already kept its budget at or above the worst
    case of what is left.

    Inside ``_one_run()`` (``verify.run_suite`` opens one) the point set of
    each distinct P is computed once and shared; a failure is not stored.
    """
    return _once(("points", P), lambda: _enumerate(P))


def _enumerate(P: HPolytope) -> PointSet:
    N = P.dim
    order, bound = certified_box(P)
    box = [bound[d] for d in order]
    # levels[k]: (row, coefficient, least value of the row over levels > k)
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(N)]
    budget = []
    for r, (a, b) in enumerate(P.rows):
        suffix_min = 0
        for k in range(N - 1, -1, -1):
            c = a[order[k]]
            if c:
                levels[k].append((r, c, suffix_min))
                suffix_min += min(c, 0) * box[k]
        if b < suffix_min:
            return PointSet._trusted((), N)
        budget.append(b)

    out: list[Point] = []
    x = [0] * N

    def rec(k: int) -> None:
        if k == N:
            out.append(tuple(x))
            return
        lo, hi = 0, box[k]
        rows = levels[k]
        for r, c, suffix_min in rows:
            slack = budget[r] - suffix_min
            # plain comparisons: min()/max() calls here cost about 30% of the search
            if c > 0:
                if slack < c * hi:
                    hi = slack // c
            elif slack < 0:
                need = -(slack // -c)  # ceil(-slack / -c)
                if need > lo:
                    lo = need
        if lo > hi:
            return
        d = order[k]
        for r, c, _ in rows:
            budget[r] -= c * lo
        for v in range(lo, hi + 1):
            x[d] = v
            rec(k + 1)
            for r, c, _ in rows:
                budget[r] -= c
        for r, c, _ in rows:
            budget[r] += c * (hi + 1)

    try:
        rec(0)
    finally:
        # rec refers to itself; without this the cycle keeps out, x, budget
        # and levels alive until the cyclic collector runs
        del rec
    return PointSet._trusted(out, N)


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """Minkowski sum {a + b : a in A, b in B}, deduplicated."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return PointSet._trusted({tuple(map(add, a, b)) for a in A for b in B}, A.dim)

