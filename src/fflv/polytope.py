"""Exact integer H-polytope machinery.

An ``HPolytope`` is a list of rows ``coeffs . x <= rhs`` over Z^N, with
the implicit constraint x >= 0: every polytope of the package lies there.
``lattice_points`` enumerates all its integer points inside a box that
``certified_box`` proves from the rows alone; everything downstream
(Minkowski sums, membership) works on the resulting ``PointSet``.

All arithmetic is exact: Python integers only, no floats, no epsilons.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import compress
from operator import add, index, lt
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

    This is how a run shares work: the FFLV points of each (n, lambda), a
    word's tiling system (``tiling._system``), the Lusztig points of each
    crossing-row set and lambda, each rank's reduced words and each
    enumeration plan.  The value must be immutable: every later caller in
    the run gets the same object.  An exception propagates and nothing is
    stored.  Outside a run the key is built and unused.
    """
    memo = _RUN.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


class _Value:
    """A ``__slots__`` base for value classes: equality, hash and repr read
    the fields the class names in ``_value``, in that order."""

    __slots__ = ()
    _value: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value)
        return f"{self.__class__.__name__}({fields})"


def _check_dim(dim: int) -> int:
    """dim as an int; raises ValueError below 0 and TypeError unless dim is
    an integer."""
    dim = index(dim)
    if dim < 0:
        raise ValueError("dim must be >= 0")
    return dim


def _check_row(coeffs: Sequence[int], dim: int) -> None:
    """Raises ValueError unless the row has ``dim`` coefficients."""
    if len(coeffs) != dim:
        raise ValueError(f"row has {len(coeffs)} coefficients, dim is {dim}")


class HPolytope(NamedTuple):
    """The rows ``coeffs . x <= rhs`` over Z^dim, with x >= 0 implied."""

    dim: int
    rows: tuple[RowT, ...]

    @classmethod
    def make(cls, dim: int, rows: Iterable[tuple[Sequence[int], int]]) -> "HPolytope":
        dim = _check_dim(dim)
        norm = []
        for coeffs, rhs in rows:
            coeffs = tuple(map(index, coeffs))
            _check_row(coeffs, dim)
            norm.append((coeffs, index(rhs)))
        return cls(dim=dim, rows=tuple(norm))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "nonneg": True,
            "rows": [{"a": list(a), "b": b} for a, b in self.rows],
        }


class PointSet:
    """A deduplicated set of integer points, stored sorted.

    Sorted storage gives deterministic iteration order everywhere a report
    or a JSON dump walks the set; membership is binary search.  Coordinates
    must be integers: a float or a string raises TypeError, never rounds.
    """

    __slots__ = ("dim", "_pts")

    def __init__(self, points: Iterable[Sequence[int]], dim: int | None = None):
        if dim is not None:
            dim = _check_dim(dim)
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


def contains(P: HPolytope, x: Sequence[int]) -> bool:
    """Does P hold the integer point x?  Coordinates must be integers: a
    float or a string raises TypeError, never rounds.  A point or a row of
    P whose length is not P's dimension raises ValueError."""
    x = tuple(map(index, x))
    if len(x) != P.dim:
        raise ValueError(f"point has dimension {len(x)}, polytope has {P.dim}")
    for a, _ in P.rows:
        _check_row(a, P.dim)
    if any(v < 0 for v in x):
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
    exists whenever any does.  Raises ``ValueError`` when some coordinate
    has no capping row.  A negative bound means P has no points; a bound of
    0 means every point of P has that coordinate 0, so ``lattice_points``
    searches only the coordinates with a positive bound.

    The order and the capping rows depend only on the signs of the
    coefficients, so they form a plan per coefficient matrix (``_plan``);
    the bounds are one pass over the plan with P's right-hand sides.
    Inside ``_one_run()`` each distinct matrix is planned once and its plan
    shared by every right-hand side the run meets.
    """
    order, bound, _ = _box(P)
    return list(order), bound


# The right-hand-side-free part of a certified box (see ``_plan``): the
# greedy order, one step (d, capping rows, negative entries) per placed
# coordinate, each entry a (row, coefficient), and the columns; nested
# tuples, so a run can share it.
Plan = tuple[tuple[int, ...], tuple[tuple, ...], tuple[tuple[tuple[int, int], ...], ...]]


def _plan(dim: int, rows: Iterable[tuple[Sequence[int], int]]) -> Plan:
    """What ``certified_box`` proves from the coefficients of ``rows``
    alone, their right-hand sides unread: the greedy order; for each placed
    coordinate d, in that order, its capping rows and its negative entries;
    and the columns, ``cols[d]`` listing (row, coefficient) for every
    nonzero coefficient on d, by row.  Raises ``ValueError`` when a row
    does not have ``dim`` coefficients or some coordinate has no capping
    row.

    One scan reads the coefficients once into the columns.  Each row keeps
    its count of negative coefficients on unplaced coordinates; a row whose
    count reaches zero makes every unplaced coordinate it has a positive
    coefficient on ready, so placing a coordinate touches only its column.
    """
    cols: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    neg = []
    support = []  # support[r]: the coordinates row r has a positive coefficient on
    coords = range(dim)
    for r, (a, _) in enumerate(rows):
        _check_row(a, dim)
        pos = []
        k = 0
        for d in compress(coords, a):  # the nonzero coefficients
            c = a[d]
            cols[d].append((r, c))
            if c > 0:
                pos.append(d)
            else:
                k += 1
        neg.append(k)
        support.append(pos)
    ready = {d for pos, k in zip(support, neg) if not k for d in pos}
    unplaced = set(coords)
    order: list[int] = []
    steps = []
    while unplaced:
        if not ready:
            raise ValueError(f"no certified box: {sorted(unplaced)} have no capping row")
        d = min(ready)
        ready.remove(d)
        unplaced.remove(d)
        order.append(d)
        caps = []
        negs = []
        # a row has one coefficient on d, so the negative entries' updates
        # below never change which positive entries are capping rows
        for e in cols[d]:
            r = e[0]
            if e[1] > 0:
                if not neg[r]:
                    caps.append(e)
            else:
                negs.append(e)
                neg[r] -= 1
                if not neg[r]:
                    ready.update(unplaced.intersection(support[r]))
        steps.append((d, tuple(caps), tuple(negs)))
    return tuple(order), tuple(steps), tuple(map(tuple, cols))


def _box(P: HPolytope) -> tuple[Sequence[int], list[int], Sequence[Sequence[tuple[int, int]]]]:
    """``certified_box(P)``, its order as the plan holds it, and the
    columns of P's rows (see ``_plan``).

    The bounds take one pass over the plan's steps: the least
    ``worst[r] // c`` over the capping rows, after which each negative
    entry lowers its row's worst-case rhs.  Inside ``_one_run()`` the plan
    is shared by every polytope with the same dimension and coefficients;
    outside one it is built for this call alone.
    """
    key = ("plan", P.dim, tuple(a for a, _ in P.rows))
    order, steps, cols = _once(key, lambda: _plan(P.dim, P.rows))
    worst = [b for _, b in P.rows]
    bound = [0] * P.dim
    for d, caps, negs in steps:
        b = None
        for r, c in caps:
            v = worst[r] // c
            if b is None or v < b:
                b = v
        bound[d] = b
        for r, c in negs:
            worst[r] -= c * b
    return order, bound, cols


def lattice_points(P: HPolytope) -> PointSet:
    """All integer points of P, or ``ValueError`` if P has no certified box
    or a row whose length is not P's dimension.

    Depth-first over the coordinates in the order of ``certified_box``, each
    inside its bound.  A negative bound means P is empty, so no search is
    made.  A coordinate with bound 0 is 0 in every point and gets no level.
    Each level reads only the rows with a nonzero coefficient there (the
    plan's columns), split once per polytope into its positive and its
    negative entries, each with the worst case of the row's free suffix:
    a positive entry can only lower the level's upper end and a negative
    entry only raise its lower end.  The chosen value updates those rows'
    budgets in place, and leaving the level restores them.  The search is
    one loop over a stack of levels, each holding its current value and the
    top of its interval, that backtracks instead of returning from a call,
    so the number of coordinates meets no recursion limit.  The last level
    emits its whole interval in one loop.  A row is checked against its
    worst case once, at the root; below that, a row a level does not touch
    cannot prune, because its last chosen coordinate already kept its
    budget at or above the worst case of what is left.  A bound-0 level
    could not prune either: its coordinate adds c * 0 = 0 to every row's
    suffix minimum, so each row's slack there equals its slack after the
    last level that touched it (or after the root check), which is already
    >= 0, and the level's interval would always be [0, 0].

    Every call enumerates: the point set is not memoised, since the
    callers that repeat a polytope inside ``_one_run()`` share their points
    by what determines them (``fflv.fflv_points`` by rank and weight,
    ``tiling.lusztig_points`` by crossing-row set and weight).  Inside a run
    only the plan of each distinct coefficient matrix is shared, which
    polytopes that differ only in their right-hand sides have in common; a
    failed plan is not stored.  Outside a run every call plans afresh.
    """
    return PointSet._trusted(_search(P)[0], P.dim)


def _search(P: HPolytope) -> tuple[list[Point], int]:
    """The points of ``lattice_points(P)``, unsorted, and the number of
    search nodes: the levels entered, pruned ones included."""
    N = P.dim
    order, bound, cols = _box(P)
    if any(b < 0 for b in bound):
        return [], 0
    # levels[k]: (coordinate, bound, positive entries, negative entries,
    # column); an entry is (row, |coefficient|, least value of the row over
    # the levels below k), the column the plan's (row, coefficient) pairs
    levels = []
    least = [0] * len(P.rows)  # least value of each row over the levels scanned, all at the end
    for d in reversed(order):
        b = bound[d]
        if not b:  # not a live coordinate: it stays 0
            continue
        pos = []
        neg = []
        for r, c in cols[d]:
            if c > 0:
                pos.append((r, c, least[r]))
            else:
                neg.append((r, -c, least[r]))
                least[r] += c * b
        levels.append((d, b, pos, neg, cols[d]))
    levels.reverse()
    budget = [b for _, b in P.rows]
    if any(map(lt, budget, least)):
        return [], 0
    if not levels:  # the search below starts at level 0, which needs a live coordinate
        return [(0,) * N], 0

    out: list[Point] = []
    x = [0] * N
    top = [0] * len(levels)  # top[k]: the upper end of level k's interval
    last = len(levels) - 1
    nodes = 0
    k = 0
    while True:
        nodes += 1
        d, hi, pos, neg, col = levels[k]
        lo = 0
        # plain comparisons: min()/max() calls here cost about 30% of the search
        for r, c, suffix_min in pos:
            slack = budget[r] - suffix_min
            if slack < c * hi:
                hi = slack // c
        for r, c, suffix_min in neg:
            slack = budget[r] - suffix_min
            if slack < 0:
                need = -(slack // c)  # ceil(-slack / c)
                if need > lo:
                    lo = need
        if lo <= hi:
            if k < last:
                if lo:  # most levels start at 0
                    for r, c in col:
                        budget[r] -= c * lo
                x[d] = lo
                top[k] = hi
                k += 1
                continue
            for v in range(lo, hi + 1):
                x[d] = v
                out.append(tuple(x))
        # back up to the deepest level with a value left, restoring the
        # budgets of every level that has none
        while k:
            k -= 1
            d, _, _, _, col = levels[k]
            v = x[d]
            if v < top[k]:
                for r, c in col:
                    budget[r] -= c
                x[d] = v + 1
                k += 1
                break
            for r, c in col:
                budget[r] += c * v
        else:
            return out, nodes


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """Minkowski sum {a + b : a in A, b in B}, deduplicated."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return PointSet._trusted({tuple(map(add, a, b)) for a in A for b in B}, A.dim)

