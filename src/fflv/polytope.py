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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Point = tuple[int, ...]
RowT = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class HPolytope:
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
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != dim:
                raise ValueError(f"row has {len(coeffs)} coefficients, dim is {dim}")
            norm.append((coeffs, int(rhs)))
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
    or a JSON dump walks the set; membership is binary search.
    """

    __slots__ = ("dim", "_pts")

    def __init__(self, points: Iterable[Sequence[int]], dim: int | None = None):
        pts = sorted({tuple(int(v) for v in p) for p in points})
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
    inside its bound; at each level the feasible interval is propagated from
    every row using coefficient signs and the worst case of the free suffix.
    """
    N = P.dim
    order, bound = certified_box(P)
    coeffs = [[a[d] for d in order] for a, _ in P.rows]
    box = [bound[d] for d in order]
    R = len(coeffs)
    # suffix_min[r][k] = least possible value of the row over levels >= k
    suffix_min = []
    for a in coeffs:
        sm = [0] * (N + 1)
        for k in range(N - 1, -1, -1):
            sm[k] = sm[k + 1] + min(a[k], 0) * box[k]
        suffix_min.append(sm)

    out: list[Point] = []
    x = [0] * N

    def rec(k: int, budget: list[int]) -> None:
        if k == N:
            out.append(tuple(x))
            return
        lo, hi = 0, box[k]
        for r in range(R):
            c = coeffs[r][k]
            slack = budget[r] - suffix_min[r][k + 1]
            if c > 0:
                hi = min(hi, slack // c)
            elif c < 0:
                if slack < 0:
                    lo = max(lo, -(slack // -c))  # ceil(-slack / -c)
            elif slack < 0:
                return
        d = order[k]
        for v in range(lo, hi + 1):
            x[d] = v
            rec(k + 1, [budget[r] - coeffs[r][k] * v for r in range(R)])

    rec(0, [b for _, b in P.rows])
    return PointSet(out, dim=N)


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """Minkowski sum {a + b : a in A, b in B}, deduplicated."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return PointSet(
        (tuple(u + v for u, v in zip(a, b)) for a in A for b in B), dim=A.dim
    )

