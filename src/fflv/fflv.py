"""FFLV polytopes: Dyck paths, H-description, fundamental points, Weyl dimension.

Coordinates live in Z^{Delta_+} with the canonical (i, j)-lex root order of
``fflv.roots``.  The polytope FFLV_n(lambda) is cut out by one inequality per
Dyck path p: sum of the coordinates along p is at most lambda_i + ... +
lambda_j, where the path runs from alpha_{i,i} to alpha_{j,j}.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

from .polytope import HPolytope, PointSet, _once, lattice_points
from .roots import Root, check_k, check_rank, check_weight, num_roots, root_index, weight_mu


class DyckPath(NamedTuple):
    roots: tuple[Root, ...]
    i: int
    j: int


class FundamentalPoint(NamedTuple):
    subset: tuple[int, ...]
    point: tuple[int, ...]


def root_paths(start: Root, end: Root) -> list[tuple[Root, ...]]:
    """The monotone paths of the root poset from ``start`` to ``end``.

    A path moves alpha_{s,t} -> alpha_{s,t+1} (when t < end.j) or
    alpha_{s,t} -> alpha_{s+1,t} (when s < end.i and s+1 <= t, so it stays
    inside the positive roots).  Depth-first, the alpha_{s+1,t} branch
    listed first.
    """
    out: list[tuple[Root, ...]] = []
    stack: list[tuple[Root, ...]] = [(start,)]
    while stack:
        path = stack.pop()
        s, t = path[-1]
        if (s, t) == end:
            out.append(path)
            continue
        if t < end.j:
            stack.append(path + (Root(s, t + 1),))
        if s < end.i and s < t:
            stack.append(path + (Root(s + 1, t),))
    return out


def dyck_paths(n: int) -> list[DyckPath]:
    """All Dyck paths, grouped by (i, j) with i <= j: the root paths from
    alpha_{i,i} to alpha_{j,j}.  n is read by ``check_rank``."""
    n = check_rank(n)
    return [
        DyckPath(path, i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        for path in root_paths(Root(i, i), Root(j, j))
    ]


@cache
def _dyck_rows(n: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The lambda-free part of the FFLV rows of rank n: one (coeffs, i, j)
    per Dyck path, in the order of ``dyck_paths(n)``, coeffs the 0/1
    indicator of the path's roots.  Cached per rank and immutable, so every
    caller shares one copy."""
    idx = root_index(n)
    N = num_roots(n)
    rows = []
    for path in dyck_paths(n):
        coeffs = [0] * N
        for r in path.roots:
            coeffs[idx[r]] = 1
        rows.append((tuple(coeffs), path.i, path.j))
    return tuple(rows)


def fflv_hrep(n: int, lam: Sequence[int]) -> HPolytope:
    """One 0/1 row per Dyck path; rhs is the partial sum lambda_i+...+lambda_j.

    The rows' coefficients come from the per-rank cache ``_dyck_rows``;
    only the right-hand sides are computed per call.
    """
    lam = check_weight(n, lam)
    rows = tuple((coeffs, sum(lam[i - 1 : j])) for coeffs, i, j in _dyck_rows(n))
    return HPolytope(dim=num_roots(n), rows=rows)


def fflv_points(n: int, lam: Sequence[int]) -> PointSet:
    """The lattice points FFLV_n(lambda)_Z.

    Every row is 0/1 and caps each coordinate it touches, so the certified
    order is the canonical root order and x_{i,j} <= lambda_i+...+lambda_j.
    The rows are ``fflv_hrep``'s, so each rank walks its Dyck paths once.

    Inside ``_one_run()`` the points of each (n, lambda) are computed once
    and shared; a failure is not stored.  Outside a run every call
    enumerates.
    """
    lam = check_weight(n, lam)
    return _once(("fflv", n, lam), lambda: lattice_points(fflv_hrep(n, lam)))


def fundamental_points(n: int, k: int) -> list[FundamentalPoint]:
    """The explicit points p_{j_1...j_k} of FFLV_n(omega_k), one per k-subset.

    For a subset J = {j_1 < ... < j_k} of [m]: let s = #{j in J : j <= k}
    and p_1 < ... < p_{k-s} be [k] \\ J; the point has value 1 exactly at the
    roots alpha_{p_r, j_{k-r+1} - 1}.
    """
    k = check_k(n, k)
    from itertools import combinations

    idx = root_index(n)
    N = num_roots(n)
    out: list[FundamentalPoint] = []
    for J in combinations(range(1, n + 2), k):
        ps = [p for p in range(1, k + 1) if p not in J]
        x = [0] * N
        for r, p in enumerate(ps, start=1):
            x[idx[Root(p, J[k - r] - 1)]] = 1
        out.append(FundamentalPoint(J, tuple(x)))
    return out


def weyl_dim(n: int, lam: Sequence[int]) -> int:
    """dim V(lambda) by the Weyl formula, in exact arithmetic."""
    lam = check_weight(n, lam)
    mu = weight_mu(lam)
    m = n + 1
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Weyl product for {lam} is not an integer: {num}/{den}")
    return dim
