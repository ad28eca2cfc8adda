"""Independent reference computations used to pin down expected values.

Everything in here is deliberately naive and self-contained: straight loops
over boxes, textbook recursions, no imports from the package under test --
except for the package's former public wrappers in the last section.
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


def dense_certified_box(rows, dim):
    """The ``certified_box`` of the rows ``(coeffs, rhs)`` over x >= 0, as
    the package computed it before its box went sparse.

    Places the lowest-index coordinate that has a capping row (a positive
    coefficient there, none negative on the unplaced coordinates), bounds it
    by the least (worst-case rhs) // coefficient over its capping rows, then
    walks every row and every coefficient to update the worst cases and the
    counts of unplaced negatives.  Raises ``ValueError`` with the package's
    text when some coordinate has no capping row.
    """
    coeffs = [a for a, _ in rows]
    worst = [b for _, b in rows]
    neg = [sum(c < 0 for c in a) for a in coeffs]
    capped = {
        d for a, k in zip(coeffs, neg) if not k for d, c in enumerate(a) if c > 0
    }
    order = []
    bound = [0] * dim
    while len(order) < dim:
        ready = capped.difference(order)
        if not ready:
            loose = sorted(set(range(dim)).difference(order))
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


def dense_lattice_points(rows, order, bound):
    """The enumerator ``lattice_points`` used before it went sparse.

    Depth-first over the coordinates in ``order``, each in [0, bound]; every
    level reads every row and passes a fresh copy of all row budgets to each
    child.  ``order`` and ``bound`` come from ``dense_certified_box``.
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


def fflv_rows(n, lam):
    """The FFLV rows (coeffs, rhs) of rank n built afresh by recursion.

    For each i <= j in lexicographic order, one row per Dyck path from
    (i, i) to (j, j), the path trying the step (s, t) -> (s + 1, t) before
    (s, t) -> (s, t + 1); coefficient 1 on the path's roots in (i, j)-lex
    order, rhs lam_i + ... + lam_j.
    """
    roots = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    pos = {r: p for p, r in enumerate(roots)}
    rows = []

    def walk(path, i, j):
        s, t = path[-1]
        if (s, t) == (j, j):
            coeffs = [0] * len(roots)
            for r in path:
                coeffs[pos[r]] = 1
            rows.append((tuple(coeffs), sum(lam[i - 1 : j])))
            return
        if s + 1 <= t:
            walk(path + [(s + 1, t)], i, j)
        if t + 1 <= j:
            walk(path + [(s, t + 1)], i, j)

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            walk([(i, i)], i, j)
    return rows


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


def walk_strip(T, t):
    """The tiles of strip t, walked through the incidence from the left
    boundary edge labelled t: each tile is entered through one edge labelled
    t and left through its other one.  RuntimeError on a fork, a tile
    without a second t-edge or a strip of other than m-1 tiles.
    """
    e = T.left_boundary[t - 1]
    chain = []
    prev = None
    while True:
        nxt = [x for x in T.incidence[e] if x is not prev]
        if not nxt:
            break
        if len(nxt) != 1:
            raise RuntimeError(f"strip {t}: edge {e} borders {len(nxt)} further tiles")
        tile = nxt[0]
        chain.append(tile)
        ahead = [d for d in tile.all_edges if d.label == t and d != e]
        if len(ahead) != 1:
            raise RuntimeError(f"strip {t}: tile {tile.id} has {len(ahead)} other t-edges")
        e = ahead[0]
        prev = tile
    if len(chain) != T.m - 1:
        raise RuntimeError(f"strip {t} has {len(chain)} tiles, expected {T.m - 1}")
    return tuple(chain)


def replay_borders(T):
    """The borders B^(0) .. B^(N) of T, each bottom to top, replayed from
    the left boundary: letter a's tile must consume the border edges at
    heights a-1 and a (its ``lower``) and puts its ``upper`` in their place,
    and the last border must be the right boundary read upwards.
    RuntimeError when the tiles do not replay.
    """
    border = list(T.left_boundary)
    borders = [tuple(border)]
    for a, tile in zip(T.word, T.tiles):
        if tuple(border[a - 1 : a + 1]) != tile.lower:
            raise RuntimeError(f"tile {tile.id} does not meet the border at letter {a}")
        border[a - 1 : a + 1] = tile.upper
        borders.append(tuple(border))
    if borders[-1] != tuple(reversed(T.right_boundary)):
        raise RuntimeError("the last border is not the right boundary")
    return borders


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


# ---------------------------------------------------------------------------
# Crystal validators on dicts keyed by (vertex, color): the package's
# validators before they moved to integer vertex ids, kept as the reference
# they must match.  They read a CrystalGraph (n, vertices, edges,
# weight_of) and a WordCrystal (highest, content, _f) by attribute only.


def _out_map(G):
    out = {}
    for u, a, v in sorted(G.edges):
        out.setdefault((u, a), []).append(v)
    return out


def _in_map(G):
    inc = {}
    for u, a, v in sorted(G.edges):
        inc.setdefault((v, a), []).append(u)
    return inc


def _pairing(wt, a):
    return wt[a - 1] - wt[a]


def dict_local_axioms(G):
    """check_local_axioms as it was: {"passed": bool, "violations": [...]}."""
    violations = []

    def flag(axiom, vertex, detail):
        violations.append({"axiom": axiom, "vertex": vertex, "detail": detail})

    colors = list(range(1, G.n + 1))
    f = {}
    e = {}
    for (u, a), targets in _out_map(G).items():
        if len(targets) > 1:
            flag("partial-function", u, f"{len(targets)} outgoing color-{a} edges")
        else:
            f[(u, a)] = targets[0]
    for (v, a), sources in _in_map(G).items():
        if len(sources) > 1:
            flag("partial-function", v, f"{len(sources)} incoming color-{a} edges")
        else:
            e[(v, a)] = sources[0]
    if violations:
        return {"passed": False, "violations": violations}

    # (eps_a, phi_a) of every node with a color-a edge, from one walk along
    # each color-a string starting at its head.  With partial functions a
    # walk from a head cannot loop, and nodes on a cycle get no entry.
    strings = {}
    for u, a in f:
        if (u, a) in e:
            continue
        chain = [u]
        while (chain[-1], a) in f:
            chain.append(f[(chain[-1], a)])
        for pos, v in enumerate(chain):
            strings[(v, a)] = (pos, len(chain) - 1 - pos)

    verts = list(G.vertices)
    for a in colors:
        for v in verts:
            # a string longer than the vertex count is reported as a cycle too
            if (v, a) in f and ((v, a) not in strings or strings[(v, a)][1] > len(verts)):
                flag("acyclic", v, f"color-{a} cycle")
                return {"passed": False, "violations": violations}

    def eps(v, a):
        return strings.get((v, a), (0, 0))[0]

    def phi(v, a):
        return strings.get((v, a), (0, 0))[1]

    nodes = set(verts)
    for u, _, v in G.edges:
        nodes.update((u, v))
    wt = {v: G.weight_of(v) for v in nodes}
    for u, a, v in sorted(G.edges):
        drop = [x - y for x, y in zip(wt[u], wt[v])]
        want = [0] * (G.n + 1)
        want[a - 1], want[a] = 1, -1
        if drop != want:
            flag("weight-step", u, f"color-{a} edge changes weight by {drop}")
    for v in verts:
        for a in colors:
            if phi(v, a) - eps(v, a) != _pairing(wt[v], a):
                flag(
                    "weight-string",
                    v,
                    f"phi-eps={phi(v, a) - eps(v, a)} but <wt,a{a}^>={_pairing(wt[v], a)}",
                )
    if violations:
        return {"passed": False, "violations": violations}

    for a, b in itertools.combinations(colors, 2):
        if b - a >= 2:
            for v in verts:
                for op, name in ((e, "e"), (f, "f")):
                    if (v, a) in op:
                        w = op[(v, a)]
                        if eps(w, b) != eps(v, b) or phi(w, b) != phi(v, b):
                            flag("distant-strings", v, f"{name}_{a} moves color-{b} stats")
                for op in (e, f):
                    if (v, a) in op and (v, b) in op:
                        if op.get((op[(v, a)], b)) != op.get((op[(v, b)], a)):
                            flag("distant-commute", v, f"colors {a},{b}")
        else:
            for x, y in ((a, b), (b, a)):
                for v in verts:
                    if (v, x) in e:
                        w = e[(v, x)]
                        d = (eps(w, y) - eps(v, y), phi(w, y) - phi(v, y))
                        if d not in {(1, 0), (0, -1)}:
                            flag("adjacent-raise-delta", v, f"e_{x} gives {d} on color {y}")
                    if (v, x) in f:
                        w = f[(v, x)]
                        d = (eps(w, y) - eps(v, y), phi(w, y) - phi(v, y))
                        if d not in {(-1, 0), (0, 1)}:
                            flag("adjacent-lower-delta", v, f"f_{x} gives {d} on color {y}")
            for v in verts:
                if (v, a) in e and (v, b) in e:
                    d1 = eps(e[(v, a)], b) - eps(v, b)
                    d2 = eps(e[(v, b)], a) - eps(v, a)
                    if d1 == 0 or d2 == 0:
                        if e.get((e[(v, a)], b)) != e.get((e[(v, b)], a)):
                            flag("adjacent-commute", v, f"e_{a} e_{b}")
                    elif d1 == 1 and d2 == 1:
                        left = _apply_chain(e, v, (a, b, b, a))
                        right = _apply_chain(e, v, (b, a, a, b))
                        if left is None or left != right:
                            flag("adjacent-braid", v, f"e_{a} e_{b} braid")
                if (v, a) in f and (v, b) in f:
                    d1 = phi(f[(v, a)], b) - phi(v, b)
                    d2 = phi(f[(v, b)], a) - phi(v, a)
                    if d1 == 0 or d2 == 0:
                        if f.get((f[(v, a)], b)) != f.get((f[(v, b)], a)):
                            flag("adjacent-commute", v, f"f_{a} f_{b}")
                    elif d1 == 1 and d2 == 1:
                        left = _apply_chain(f, v, (a, b, b, a))
                        right = _apply_chain(f, v, (b, a, a, b))
                        if left is None or left != right:
                            flag("adjacent-braid", v, f"f_{a} f_{b} braid")

    return {"passed": not violations, "violations": violations}


def _apply_chain(op, v, colors):
    for a in colors:
        if (v, a) not in op:
            return None
        v = op[(v, a)]
    return v


def dict_iso_report(G, W):
    """The pairing of G with the word oracle W, as a reference for
    ``check_oracle_iso``: (ok, the first mismatch met when not)."""
    out = {}
    inc = {}
    for u, a, v in G.edges:
        if (u, a) in out or (v, a) in inc:
            return False, "multi-edges: not a partial permutation per color"
        out[(u, a)] = v
        inc[(v, a)] = u
    targets = {v for (v, a) in inc if 1 <= a <= G.n}
    sources = [v for v in G.vertices if v not in targets]
    if len(sources) != 1:
        return False, f"{len(sources)} sources, expected 1"
    src = sources[0]
    if G.weight_of(src) != W.content(W.highest):
        return False, f"source weight {G.weight_of(src)} != highest weight"
    pair = {src: W.highest}
    used = {W.highest}
    queue = [src]
    while queue:
        v = queue.pop()
        w = pair[v]
        for a in range(1, G.n + 1):
            gv = out.get((v, a))
            gw = W._f.get((w, a))
            if (gv is None) != (gw is None):
                return False, f"color-{a} edge mismatch at {v} / word {w}"
            if gv is None:
                continue
            if gv in pair:
                if pair[gv] != gw:
                    return False, f"inconsistent pairing at {gv}"
            else:
                if gw in used:
                    return False, f"two vertices map to word {gw}"
                if G.weight_of(gv) != W.content(gw):
                    return False, f"weight mismatch at {gv}"
                pair[gv] = gw
                used.add(gw)
                queue.append(gv)
    if len(pair) != len(G.vertices):
        return False, f"only {len(pair)} of {len(G.vertices)} vertices reached"
    if len(pair) != len(W.vertices):
        return False, f"oracle has {len(W.vertices)} vertices, matched {len(pair)}"
    return True, ""


# ---------------------------------------------------------------------------
# Former public wrappers of the package, kept for the tests that read them.
# Unlike everything above, they call into the package.


def root_moves(n, pts, x):
    """All feasible lowering moves f_{a,k} at the point x, as the package
    built them before its per-rank move table: Root keys and a shifted copy
    of x for every move, in the order a, k, then j or i."""
    from fflv.crystal import CandidateEdge
    from fflv.roots import Root, root_index

    idx = root_index(n)
    out = []

    def shifted(minus, plus):
        y = list(x)
        if minus is not None:
            y[idx[minus]] -= 1
        y[idx[plus]] += 1
        return tuple(y)

    for a in range(1, n + 1):
        for k in range(1, n + 1):
            if a < k:
                for j in range(k, n + 1):
                    if x[idx[Root(a + 1, j)]] >= 1:
                        y = shifted(Root(a + 1, j), Root(a, j))
                        if y in pts:
                            out.append(CandidateEdge(a, k, y, j))
            elif a > k:
                for i in range(1, k + 1):
                    if x[idx[Root(i, a - 1)]] >= 1:
                        y = shifted(Root(i, a - 1), Root(i, a))
                        if y in pts:
                            out.append(CandidateEdge(a, k, y, i))
            else:
                y = shifted(None, Root(k, k))
                if y in pts:
                    out.append(CandidateEdge(a, k, y, None))
    return out


def candidate_edges(n, lam, x):
    """All feasible lowering moves f_{a,k} at the lattice point x of
    FFLV_n(lambda); ValueError when x is not one."""
    from fflv.crystal import _moves
    from fflv.fflv import fflv_points

    pts = fflv_points(n, tuple(lam))
    x = tuple(x)
    if x not in pts:
        raise ValueError(f"{x} is not a lattice point of the polytope")
    return _moves(n, pts, x)


def crossing_functional(T, s, cr):
    """Coefficient vector (canonical root order) of the crossing's
    inequality, and per tile its labels, root, epsilon, turning and coeff.

    epsilon_s of a tile {a, b} is +1 iff a <= s < s+1 <= b.  Coefficients:
    +1 on tiles with epsilon +1, -1 on non-turning tiles with epsilon -1,
    0 on turning tiles with epsilon -1.
    """
    from fflv.roots import num_roots, root_index
    from fflv.tiling import _crossing_row

    idx = root_index(T.n)
    coeffs = _crossing_row(s, cr, idx, num_roots(T.n))
    structure = [
        {
            "labels": tile.labels,
            "root": tuple(tile.root),
            "epsilon": 1 if tile.s <= s < tile.t else -1,
            "turning": enter != leave,
            "coeff": coeffs[idx[tile.root]],
        }
        for tile, (enter, leave) in zip(cr.tiles, cr.entering_leaving)
    ]
    return coeffs, structure


def assemble_crossing(T, s, tiles):
    """The crossing a found tile sequence makes and its strip sequence, or
    None: the package's per-path assembly before it moved into the crossing
    search.

    The label of the edge consecutive tiles share says which strip the
    sequence travels in; a tile entered and left through the same label a
    must carry a, and a tile switching labels must be exactly the turning
    tile {a, b}.  RuntimeError when consecutive tiles share no edge.
    """
    from fflv.tiling import DualCrossing

    between = [s]
    for g1, g2 in zip(tiles, tiles[1:]):
        label = next((label for nb, label in T.neighbors[g1.id] if nb.id == g2.id), None)
        if label is None:
            raise RuntimeError(f"consecutive tiles {g1.id} and {g2.id} share 0 edges, not 1")
        between.append(label)
    between.append(s + 1)
    roles = []
    for tile, enter, leave in zip(tiles, between, between[1:]):
        if enter == leave:
            if enter not in (tile.s, tile.t):
                return None
        elif {enter, leave} != {tile.s, tile.t}:
            return None
        roles.append((enter, leave))
    seq = [between[0]]
    for x in between[1:]:
        if x != seq[-1]:
            seq.append(x)
    return DualCrossing(tuple(tiles), s, tuple(roles)), tuple(seq)
