"""Independent reference computations used to pin down expected values.

Everything in here is deliberately naive and self-contained: straight loops
over boxes, textbook recursions, no imports from the package under test.
If a test disagrees with one of these, the package is wrong (or the frozen
expectation is, which is worse).
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def brute_force_points(rows, dim, box):
    """All x in [0, box]^dim with a.x <= b for every (a, b) in rows."""
    out = set()
    for x in itertools.product(range(box + 1), repeat=dim):
        if all(sum(c * v for c, v in zip(a, x)) <= b for a, b in rows):
            out.add(x)
    return out


def dense_lattice_points(rows, order, bound):
    """The enumerator ``lattice_points`` used before it went sparse.

    Depth-first over the coordinates in ``order``, each in [0, bound]; every
    level reads every row and passes a fresh copy of all row budgets to each
    child.  ``order`` and ``bound`` come from the package's certified box.
    """
    N = len(order)
    coeffs = [[a[d] for d in order] for a, _ in rows]
    box = [bound[d] for d in order]
    R = len(coeffs)
    # suffix_min[r][k] = least possible value of the row over levels >= k
    suffix_min = []
    for a in coeffs:
        sm = [0] * (N + 1)
        for k in range(N - 1, -1, -1):
            sm[k] = sm[k + 1] + min(a[k], 0) * box[k]
        suffix_min.append(sm)

    out = set()
    x = [0] * N

    def rec(k, budget):
        if k == N:
            out.add(tuple(x))
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

    rec(0, [b for _, b in rows])
    return out


def naive_sumset(A, B):
    return {tuple(x + y for x, y in zip(a, b)) for a in A for b in B}


@lru_cache(maxsize=None)
def gt_pattern_count(mu):
    """Number of Gelfand-Tsetlin patterns with top row mu.

    Rows interlace downwards (mu_i >= x_i >= mu_{i+1}), so this counts the
    dimension of the irreducible gl_m module with highest weight mu.  Used as
    an oracle for the Weyl dimension product formula.
    """
    mu = tuple(mu)
    if len(mu) <= 1:
        return 1
    total = 0
    ranges = [range(mu[i + 1], mu[i] + 1) for i in range(len(mu) - 1)]
    for nxt in itertools.product(*ranges):
        total += gt_pattern_count(nxt)
    return total


def staircase_path_count(n, i, j):
    """Monotone root-chain count from alpha_{i,i} to alpha_{j,j}.

    A chain steps from alpha_{s,t} to alpha_{s+1,t} (if s+1 <= t) or
    alpha_{s,t+1}; t never needs to pass j.  Plain memoized recursion.
    """

    @lru_cache(maxsize=None)
    def go(s, t):
        if (s, t) == (j, j):
            return 1
        total = 0
        if s + 1 <= t:
            total += go(s + 1, t)
        if t + 1 <= j:
            total += go(s, t + 1)
        return total

    return go(i, i)


def all_reduced_words_recursive(m):
    """Every reduced word for the longest element of S_m, by ascent recursion."""
    w0 = tuple(range(m, 0, -1))
    out = []

    def rec(perm, acc):
        if perm == w0:
            out.append(tuple(acc))
            return
        for i in range(m - 1):
            if perm[i] < perm[i + 1]:
                nxt = list(perm)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                rec(tuple(nxt), acc + [i + 1])

    rec(tuple(range(1, m + 1)), [])
    return sorted(out)


def grid_path_supports(k, n):
    """Supports of monotone paths (1,k) -> (k,n) inside [1,k] x [k,n]."""
    out = set()

    def rec(i, j, acc):
        if (i, j) == (k, n):
            out.add(frozenset(acc | {(i, j)}))
            return
        if i + 1 <= k:
            rec(i + 1, j, acc | {(i, j)})
        if j + 1 <= n:
            rec(i, j + 1, acc | {(i, j)})

    rec(1, k, set())
    return out


def support(points, d):
    """Support function max over a in points of d . a; ValueError when empty."""
    points = list(points)
    if not points:
        raise ValueError("support of an empty set")
    if any(len(a) != len(d) for a in points):
        raise ValueError("direction has wrong dimension")
    return max(sum(c * v for c, v in zip(d, a)) for a in points)


def recount_peel_layers(T, s):
    """Peel layers of window s, re-counting every remaining tile's border
    edges at every layer; None if peeling stalls.

    T is a tiling object (tiles with all_edges, left/right boundaries); the
    window is b_{m+s+1} .. b_{2m+s} of the boundary cycle.
    """
    m = T.m
    cyc = list(T.left_boundary) + list(T.right_boundary)
    border = {cyc[(m + s + j - 1) % (2 * m)] for j in range(1, m + 1)}
    edges = [set(tile.all_edges) for tile in T.tiles]
    layer = {}
    remaining = set(range(len(T.tiles)))
    level = 0
    while remaining:
        level += 1
        ready = [tid for tid in sorted(remaining) if len(edges[tid] & border) == 2]
        if not ready:
            return None
        for tid in ready:
            border ^= edges[tid]
            layer[tid] = level
            remaining.discard(tid)
    return layer


def ascending_neighbour_paths(T, layer, start, end):
    """Every path start -> end through edge-sharing tiles whose layers rise
    strictly, in depth-first order over neighbours sorted by tile id.

    Neighbours are recomputed from the tiles' edge sets; nothing is pruned.
    """
    edges = [set(tile.all_edges) for tile in T.tiles]
    nbrs = [
        [b for b in range(len(T.tiles)) if b != a and edges[a] & edges[b]]
        for a in range(len(T.tiles))
    ]
    out = []

    def rec(path):
        cur = path[-1]
        if cur == end:
            out.append(tuple(path))
            return
        for nb in nbrs[cur]:
            if layer[nb] > layer[cur]:
                path.append(nb)
                rec(path)
                path.pop()

    rec([start])
    return out


def product_search(n, pts, cand, weights, is_crystal):
    """The product-then-filter crystal search: every color's string
    decompositions, combined by Cartesian product, each combination kept
    when is_crystal(edges) holds.  Returns the distinct edge sets, sorted.

    cand maps (vertex, color) to candidate moves with a ``target``; weights
    maps each vertex to its weight.  A color-a decomposition picks at most
    one candidate target per vertex, targets pairwise distinct; vertices go
    by descending <wt, alpha_a^vee>, and a vertex at string position
    (eps, phi) takes an edge iff phi = <wt, alpha_a^vee> + eps > 0.
    """

    def color_selections(a):
        pairing = {v: weights[v][a - 1] - weights[v][a] for v in pts}
        verts = sorted(pts, key=lambda v: (-pairing[v], v))
        results = []
        choice = {}
        eps = {}
        taken = set()

        def rec(i):
            if i == len(verts):
                results.append(dict(choice))
                return
            v = verts[i]
            ev = eps.get(v, 0)
            phi = pairing[v] + ev
            if phi < 0:
                return
            if phi == 0:
                choice[v] = None
                rec(i + 1)
                del choice[v]
                return
            for ce in cand[(v, a)]:
                t = ce.target
                if t in taken:
                    continue
                taken.add(t)
                eps[t] = ev + 1
                choice[v] = t
                rec(i + 1)
                del choice[v]
                del eps[t]
                taken.discard(t)

        rec(0)
        return results

    found = set()
    for combo in itertools.product(*(color_selections(a) for a in range(1, n + 1))):
        edges = frozenset(
            (v, a, t)
            for a, choice in enumerate(combo, start=1)
            for v, t in choice.items()
            if t is not None
        )
        if is_crystal(edges):
            found.add(edges)
    return sorted(found, key=sorted)
