"""Crystal structures on FFLV lattice points.

A ``CrystalGraph`` is immutable and reads its rank n from lambda, and
every builder stores the lambda that ``check_weight`` returns.  Four
layers:

* candidate moves and the multi-edge graph PB_n(lambda) they form;
* the explicit sl_3 crystals B^>(a, b) and B^<(a, b), each built from one
  rule per color that gives f_c of a lattice point, plus their critical
  points;
* two validators, which read one vertex table per graph -- the normative
  isomorphism check against an independent tensor-word oracle crystal,
  which gives one verdict and, like the search engine, pairs from the
  vertex of highest weight, and a reconstructed Stembridge-style
  local-axiom check, the one validator that says where a graph fails;
* a search over edge selections from PB_n(lambda) hunting for the
  conjectured n! crystal structures: greedy by a sigma-preference, or
  exhaustive by one budgeted backtracking engine that grows the
  isomorphism with the word oracle from the highest weight and branches
  only over candidate targets that fit it, so every graph it assembles
  is a crystal by construction.  That engine runs every search here, the
  fixed-k check included.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from operator import index
from typing import Callable, Iterable, NamedTuple, Sequence

from .fflv import fflv_points
from .polytope import PointSet, _Value
from .roots import Root, _point_weights, check_weight, fundamental_weight, root_index

Point = tuple[int, ...]
EdgeT = tuple[Point, int, Point]  # (source, color, target)


class CandidateEdge(NamedTuple):
    """A feasible move f_{a,k} out of a point, which its caller holds."""

    a: int              # color
    k: int              # which word's operator produced the move
    target: Point
    pivot: int | None   # the j (a<k) or i (a>k) of the moved box; None on a=k


class CrystalGraph(_Value):
    """An immutable colored graph on lattice points, of rank n = ``len(lam)``:
    assigning a field raises AttributeError.  Equality and hash read n, lam,
    vertices and edges, never ``weights``.  Both validators read one vertex
    table of the graph, built on first use."""

    __slots__ = ("lam", "vertices", "edges", "weights", "_table")
    _value = ("n", "lam", "vertices", "edges")

    def __init__(
        self,
        lam: tuple[int, ...],
        vertices: PointSet,
        edges: frozenset[EdgeT],
        # optional explicit weights: the oracle's words (not lattice points)
        # or a search's table computed once per point; default is the weight
        # of the point
        weights: dict[Point, tuple[int, ...]] | None = None,
    ) -> None:
        for name, value in (("lam", lam), ("vertices", vertices), ("edges", edges),
                            ("weights", weights), ("_table", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CrystalGraph is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CrystalGraph is immutable: cannot delete {name}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, never by assigning fields
        return self.__class__, (self.lam, self.vertices, self.edges, self.weights)

    @property
    def n(self) -> int:
        return len(self.lam)

    def weight_of(self, v: Point) -> tuple[int, ...]:
        if self.weights is not None:
            return self.weights[v]
        return _point_weights(self.lam, (v,))[0]

    def _indexed(self) -> _Index:
        """The graph's vertex table, built by ``_index`` on the first call."""
        if self._table is None:
            object.__setattr__(self, "_table", _index(self))
        return self._table

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda": list(self.lam),
            "vertices": self.vertices.to_json(),
            "edges": [
                {"source": list(u), "color": a, "target": list(v)}
                for u, a, v in sorted(self.edges)
            ],
        }


DOT_COLORS = ("red", "blue", "green", "orange", "purple", "brown")


def crystal_to_dot(G: CrystalGraph) -> str:
    lines = ["digraph crystal {"]
    for v in G.vertices:
        lines.append(f'  "{",".join(map(str, v))}";')
    for u, a, v in sorted(G.edges):
        color = DOT_COLORS[(a - 1) % len(DOT_COLORS)]
        lines.append(
            f'  "{",".join(map(str, u))}" -> "{",".join(map(str, v))}" '
            f'[color={color}, label={a}];'
        )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# candidate moves and PB_n(lambda)


@cache
def _move_table(n: int) -> tuple[tuple[int, int, int, int, int | None], ...]:
    """Every move f_{a,k} of rank n as a row (a, k, minus, plus, pivot).

    ``minus`` is the position of the root that loses a box (-1 when a = k),
    ``plus`` the position of the root that gains one, and ``pivot`` the j
    (a < k) or i (a > k) of the move, None when a = k.  Rows run by a, then
    k, then the pivot.
    """
    idx = root_index(n)
    rows: list[tuple[int, int, int, int, int | None]] = []
    for a in range(1, n + 1):
        for k in range(1, n + 1):
            if a < k:
                rows += [(a, k, idx[Root(a + 1, j)], idx[Root(a, j)], j) for j in range(k, n + 1)]
            elif a > k:
                rows += [(a, k, idx[Root(i, a - 1)], idx[Root(i, a)], i) for i in range(1, k + 1)]
            else:
                rows.append((a, k, -1, idx[Root(k, k)], None))
    return tuple(rows)


def _moves(n: int, pts: PointSet | set[Point], x: Point) -> list[CandidateEdge]:
    """All feasible lowering moves f_{a,k} at the point x, for every a and k.

    Which single k (and which j or i) the canonical-basis structure actually
    selects is decided downstream; this emits every move that stays inside
    the lattice points pts.
    """
    out: list[CandidateEdge] = []
    for a, k, minus, plus, pivot in _move_table(n):
        if minus < 0:
            shift = list(x)
        elif x[minus] >= 1:
            shift = list(x)
            shift[minus] -= 1
        else:
            continue
        shift[plus] += 1
        y = tuple(shift)
        if y in pts:
            out.append(CandidateEdge(a, k, y, pivot))
    return out


def pb_graph(n: int, lam: Sequence[int]) -> CrystalGraph:
    """The union of all candidate moves; usually not a crystal (multi-edges)."""
    lam = check_weight(n, tuple(lam))  # a lambda that is not iterable fails before n is read
    pts = fflv_points(n, lam)
    inside = set(pts)
    edges = frozenset(
        (x, ce.a, ce.target) for x in pts for ce in _moves(n, inside, x)
    )
    return CrystalGraph(lam=lam, vertices=pts, edges=edges)


def _candidate_map(n: int, pts: PointSet) -> dict[tuple[Point, int], list[CandidateEdge]]:
    inside = set(pts)
    out: dict[tuple[Point, int], list[CandidateEdge]] = {}
    for x in pts:
        for a in range(1, n + 1):
            out[(x, a)] = []
        for ce in _moves(n, inside, x):
            out[(x, ce.a)].append(ce)
    return out


# ---------------------------------------------------------------------------
# the tensor-word oracle crystal


class WordCrystal:
    """The highest-weight crystal realized on words by the signature rule.

    Independent of everything polytopal: vertices are words over [1, m],
    the highest word stacks column words 1..k (lambda_k copies each, k
    descending), and f_a acts by the usual bracket cancellation -- letters
    a count '+', letters a+1 count '-', a '-' cancels the nearest surviving
    '+' to its left, and f_a flips the leftmost surviving '+'.  lambda must
    be a dominant weight with n entries, as for ``fflv_points``; anything
    else raises ValueError.
    """

    def __init__(self, n: int, lam: Sequence[int]):
        self.n = n
        self.lam = check_weight(n, lam)
        hw: list[int] = []
        for k in range(n, 0, -1):
            hw.extend(list(range(1, k + 1)) * self.lam[k - 1])
        self.highest: tuple[int, ...] = tuple(hw)
        # word -> content, filled as the f's reach each word; its keys are the vertices
        self.weights: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.vertices = self.weights.keys()
        self._f: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        self._close()

    def f(self, word: tuple[int, ...], a: int) -> tuple[int, ...] | None:
        plus: list[int] = []  # positions of the surviving '+'
        for pos, c in enumerate(word):
            if c == a:
                plus.append(pos)
            elif c == a + 1 and plus:
                plus.pop()
        if not plus:
            return None
        out = list(word)
        out[plus[0]] = a + 1
        return tuple(out)

    def content(self, word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(word.count(i) for i in range(1, self.n + 2))

    def _close(self) -> None:
        """Fill the weights (so the vertices) and the f table; B(lambda) is
        generated by the f's from the highest word."""
        queue = [self.highest]
        self.weights[self.highest] = self.content(self.highest)
        while queue:
            w = queue.pop()
            for a in range(1, self.n + 1):
                w2 = self.f(w, a)
                if w2 is None:
                    continue
                self._f[(w, a)] = w2
                if w2 not in self.weights:
                    self.weights[w2] = self.content(w2)
                    queue.append(w2)

    def export_graph(self) -> CrystalGraph:
        """The f-edges as a CrystalGraph on word vertices."""
        edges = frozenset(
            (w, a, w2) for (w, a), w2 in self._f.items()
        )
        return CrystalGraph(
            lam=self.lam,
            vertices=PointSet(sorted(self.vertices)),
            edges=edges,
            weights=self.weights,
        )


def word_oracle(n: int, lam: Sequence[int]) -> WordCrystal:
    return WordCrystal(n, lam)


# ---------------------------------------------------------------------------
# validators


def _pairing(wt: Sequence[int], a: int) -> int:
    return wt[a - 1] - wt[a]


class _Index(NamedTuple):
    """A graph's vertex table, built once per graph by ``_index`` (through
    ``CrystalGraph._indexed``) with its weights from one weight pass.  It
    holds the graph on vertex ids: i is ``verts[i]``, in ``G.vertices`` order;
    ``f[a][i]`` / ``e[a][i]`` is the id of the color-a target / source at
    i, or -1; ``wt[i]`` is its weight.  ``stray`` holds (source, detail)
    of each edge with a color outside [1, n] or an end outside
    ``G.vertices``, in edge order; ``multi`` marks two edges of one color
    into or out of a vertex."""

    verts: list[Point]
    f: list[list[int]]
    e: list[list[int]]
    wt: list[tuple[int, ...]]
    stray: list[tuple[Point, str]]
    multi: bool


def _index(G: CrystalGraph) -> _Index:
    n = G.n
    verts = list(G.vertices)
    vid = {v: i for i, v in enumerate(verts)}
    f = [[-1] * len(verts) for _ in range(n + 1)]
    e = [[-1] * len(verts) for _ in range(n + 1)]
    stray: list[EdgeT] = []
    multi = False
    for u, a, v in G.edges:
        i, j = vid.get(u), vid.get(v)
        if i is None or j is None or not 1 <= a <= n:
            stray.append((u, a, v))
        elif f[a][i] != -1 or e[a][j] != -1:
            multi = True
        else:
            f[a][i] = j
            e[a][j] = i
    stray_report = [
        (u, f"color-{a} edge {u} -> {v}: "
            + ("endpoint not a vertex" if 1 <= a <= n else f"color outside [1, {n}]"))
        for u, a, v in sorted(stray)
    ]
    wt = _point_weights(G.lam, verts) if G.weights is None else [G.weights[v] for v in verts]
    return _Index(verts, f, e, wt, stray_report, multi)


def check_local_axioms(G: CrystalGraph) -> dict:
    """Stembridge-style local check; returns {"passed": bool, "violations": [...]}.

    (0)   every edge has a color in [1, n] and both ends in G.vertices;
          if not, only the stray edges are reported ("edge-range");
    (i)   per color: at most one in- and one out-edge per vertex, no
          monochromatic cycles;
    (ii)  every edge lowers the content by e_a - e_{a+1}, and the
          edge-following string statistics satisfy
          phi_a - eps_a = <wt, alpha_a^vee> everywhere;
    (iii) distant colors (|a-b| >= 2): raising/lowering one color leaves the
          other's statistics unchanged, and defined pairs commute;
    (iv)  adjacent colors: for e_a defined, (d eps_b, d phi_b) is (1,0) or
          (0,-1); two raisings with both eps-deltas 0-free commute, with
          both deltas 1 they satisfy the degenerate braid relation; dual
          statements for lowering with phi as the driver.

    Every violation carries its witness vertex.  The isomorphism check
    against the word oracle is the normative criterion, and the library
    decides with it alone; this one exists to localize failures.  A graph
    weight-isomorphic to the oracle passes it exactly when the oracle's
    own graph does.
    """
    violations: list[dict] = []

    def flag(axiom: str, vertex, detail: str) -> None:
        violations.append({"axiom": axiom, "vertex": vertex, "detail": detail})

    ix = G._indexed()
    for u, detail in ix.stray:
        flag("edge-range", u, detail)
    if not violations and ix.multi:  # sort and count only here, where something is flagged
        edges = sorted(G.edges)
        for ends, way in (([(u, a) for u, a, _ in edges], "outgoing"),
                          ([(v, a) for _, a, v in edges], "incoming")):
            for (x, a), k in Counter(ends).items():
                if k > 1:
                    flag("partial-function", x, f"{k} {way} color-{a} edges")
    if violations:
        return {"passed": False, "violations": violations}

    # (eps_a, phi_a) of every vertex, from one walk along each color-a string
    # from its head.  With partial functions a walk from a head cannot loop,
    # so a vertex with an out-edge that no walk reaches lies on a cycle.
    verts, f, e, wt = ix.verts, ix.f, ix.e, ix.wt
    n = G.n
    colors = range(1, n + 1)
    eps: list[list[int]] = [[]]  # per color; color 0 unused
    phi: list[list[int]] = [[]]
    for a in colors:
        fa, ea, pa = f[a], [0] * len(verts), [0] * len(verts)
        for i, j in enumerate(fa):
            if j != -1 and e[a][i] == -1:
                chain = [i]
                while j != -1:
                    chain.append(j)
                    j = fa[j]
                for pos, v in enumerate(chain):
                    ea[v], pa[v] = pos, len(chain) - 1 - pos
        for i, j in enumerate(fa):
            if j != -1 and pa[i] == 0:
                flag("acyclic", verts[i], f"color-{a} cycle")
                return {"passed": False, "violations": violations}
        eps.append(ea)
        phi.append(pa)

    steps = []  # read unsorted, flagged in edge order
    for a in colors:
        want = [0] * (n + 1)
        want[a - 1], want[a] = 1, -1
        for i, j in enumerate(f[a]):
            if j != -1 and (drop := [x - y for x, y in zip(wt[i], wt[j])]) != want:
                steps.append((verts[i], a, verts[j], drop))
    for u, a, _, drop in sorted(steps):
        flag("weight-step", u, f"color-{a} edge changes weight by {drop}")
    for i, v in enumerate(verts):
        for a in colors:
            d, p = phi[a][i] - eps[a][i], _pairing(wt[i], a)
            if d != p:
                flag("weight-string", v, f"phi-eps={d} but <wt,a{a}^>={p}")
    if violations:
        return {"passed": False, "violations": violations}

    for a, b in itertools.combinations(colors, 2):
        if b - a >= 2:
            for i, v in enumerate(verts):
                for op, name in ((e, "e"), (f, "f")):
                    w = op[a][i]
                    if w != -1 and (eps[b][w] != eps[b][i] or phi[b][w] != phi[b][i]):
                        flag("distant-strings", v, f"{name}_{a} moves color-{b} stats")
                for op in (e, f):
                    x, y = op[a][i], op[b][i]
                    if x != -1 and y != -1 and op[b][x] != op[a][y]:
                        flag("distant-commute", v, f"colors {a},{b}")
        else:
            for x, y in ((a, b), (b, a)):
                for i, v in enumerate(verts):
                    w = e[x][i]
                    if w != -1:
                        d = (eps[y][w] - eps[y][i], phi[y][w] - phi[y][i])
                        if d not in {(1, 0), (0, -1)}:
                            flag("adjacent-raise-delta", v, f"e_{x} gives {d} on color {y}")
                    w = f[x][i]
                    if w != -1:
                        d = (eps[y][w] - eps[y][i], phi[y][w] - phi[y][i])
                        if d not in {(-1, 0), (0, 1)}:
                            flag("adjacent-lower-delta", v, f"f_{x} gives {d} on color {y}")
            for i, v in enumerate(verts):
                for op, name, stat in ((e, "e", eps), (f, "f", phi)):
                    x, y = op[a][i], op[b][i]
                    if x == -1 or y == -1:
                        continue
                    d1, d2 = stat[b][x] - stat[b][i], stat[a][y] - stat[a][i]
                    if d1 == 0 or d2 == 0:
                        if op[b][x] != op[a][y]:
                            flag("adjacent-commute", v, f"{name}_{a} {name}_{b}")
                    elif d1 == 1 and d2 == 1:
                        left = _apply_chain(op, i, (a, b, b, a))
                        if left == -1 or left != _apply_chain(op, i, (b, a, a, b)):
                            flag("adjacent-braid", v, f"{name}_{a} {name}_{b} braid")

    return {"passed": not violations, "violations": violations}


def _apply_chain(op: list[list[int]], i: int, colors: Iterable[int]) -> int:
    for a in colors:
        i = op[a][i]
        if i == -1:
            break
    return i


def check_oracle_iso(G: CrystalGraph, lam: Sequence[int]) -> bool:
    """Is G isomorphic, weights included, to the word oracle B(lambda)?

    One deterministic traversal pairs the one vertex of highest weight with
    the highest word, as ``_crystals`` does, and follows the f-edges of both
    graphs together; it stops at the first mismatch.  ``check_local_axioms``
    says where a graph fails.
    """
    n = G.n
    W = word_oracle(n, lam)
    ix = G._indexed()
    if ix.stray or ix.multi:
        return False
    verts, f, wt = ix.verts, ix.f, ix.wt
    top = W.weights[W.highest]
    tops = [i for i, w in enumerate(wt) if w == top]
    if len(tops) != 1:
        return False
    src = tops[0]
    word: list[tuple[int, ...] | None] = [None] * len(verts)  # id -> paired word
    word[src] = W.highest
    used: set[tuple[int, ...]] = {W.highest}
    queue = [src]
    while queue:
        i = queue.pop()
        w = word[i]
        for a in range(1, n + 1):
            j = f[a][i]
            gw = W._f.get((w, a))
            if (j == -1) != (gw is None):
                return False
            if j == -1:
                continue
            if word[j] is not None:
                if word[j] != gw:
                    return False
            else:
                if gw in used or wt[j] != W.weights[gw]:
                    return False
                word[j] = gw
                used.add(gw)
                queue.append(j)
    return len(used) == len(verts) == len(W.vertices)


# ---------------------------------------------------------------------------
# the explicit sl3 crystals
#
# Coordinates are (x1, x12, x2) = (x_{alpha_1}, x_{alpha_1+alpha_2},
# x_{alpha_2}).  A rule maps a point to f_c of it, or to None where f_c is
# undefined.

_Rule = Callable[[int, int, int], Point | None]


def _sl3_crystal(a: int, b: int, f1: _Rule, f2: _Rule) -> CrystalGraph:
    """The graph on FFLV_2(a w_1 + b w_2)_Z with an edge x -> f_c(x) of
    color c wherever f_c is defined at x and lands on a lattice point.
    Each vertex leaves by at most one edge per color; two edges of one
    color entering a vertex raise RuntimeError.  a and b must be integers:
    a float or a string raises TypeError."""
    a, b = index(a), index(b)
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    pts = fflv_points(2, (a, b))
    inside = set(pts)
    source: dict[tuple[Point, int], Point] = {}  # (target, color) -> source
    for x in pts:
        for color, rule in ((1, f1), (2, f2)):
            y = rule(*x)
            if y is None or y not in inside:
                continue
            if (y, color) in source:
                raise RuntimeError(
                    f"two color-{color} edges enter {y}: from {source[(y, color)]} and {x}"
                )
            source[(y, color)] = x
    edges = frozenset((x, color, y) for (y, color), x in source.items())
    return CrystalGraph(lam=(a, b), vertices=pts, edges=edges)


def sl3_bgt(a: int, b: int) -> CrystalGraph:
    """B^>(a, b).  f_1: x1 += 1 if x1 + x12 < a, else (x12, x2) += (1, -1)
    if x2 > 0.  f_2: (x1, x12) += (-1, 1) if x1 > x2, else x2 += 1."""

    def f1(x1: int, x12: int, x2: int) -> Point | None:
        if x1 + x12 < a:
            return (x1 + 1, x12, x2)
        if x2 > 0:
            return (x1, x12 + 1, x2 - 1)
        return None

    def f2(x1: int, x12: int, x2: int) -> Point | None:
        if x1 > x2:
            return (x1 - 1, x12 + 1, x2)
        return (x1, x12, x2 + 1)

    return _sl3_crystal(a, b, f1, f2)


def sl3_blt(a: int, b: int) -> CrystalGraph:
    """B^<(a, b).  f_1: (x12, x2) += (1, -1) if x2 > x1, else x1 += 1 if
    x1 - x2 < a.  f_2: x2 += 1 if x12 + x2 < b, else (x1, x12) += (-1, 1)
    if x1 > 0."""

    def f1(x1: int, x12: int, x2: int) -> Point | None:
        if x2 > x1:
            return (x1, x12 + 1, x2 - 1)
        if x1 - x2 < a:
            return (x1 + 1, x12, x2)
        return None

    def f2(x1: int, x12: int, x2: int) -> Point | None:
        if x12 + x2 < b:
            return (x1, x12, x2 + 1)
        if x1 > 0:
            return (x1 - 1, x12 + 1, x2)
        return None

    return _sl3_crystal(a, b, f1, f2)


def critical_points(a: int, b: int) -> PointSet:
    """Lattice points of FFLV_2(a w_1 + b w_2) on the wall x_{alpha_1} = x_{alpha_2}."""
    pts = [p for p in fflv_points(2, (a, b)) if p[0] == p[2]]
    return PointSet(pts, dim=3)


# ---------------------------------------------------------------------------
# conjecture search


SEARCH_BUDGET = 10_000_000  # search-engine nodes before a search gives up


class SearchResult(NamedTuple):
    graphs: list[CrystalGraph]
    complete: bool
    mode: str
    nodes: int       # search-engine nodes visited
    selections: int  # complete selections assembled: pairings, or greedy's one


def _greedy_color_choice(
    pts: PointSet,
    a: int,
    cand: dict[tuple[Point, int], list[CandidateEdge]],
    sigma_pos: dict[int, int],
    weights: dict[Point, tuple[int, ...]],
) -> list[EdgeT] | None:
    """The color-a edges of one deterministic selection, or None on a dead
    end.

    Vertices are processed by descending <wt, alpha_a^vee>, so each vertex's
    incoming edge is settled before the vertex itself: a vertex with string
    position (eps, phi) must take an outgoing edge iff phi > 0, and
    phi = pairing + eps can never be negative.
    """
    pairing = {v: _pairing(weights[v], a) for v in pts}
    verts = sorted(pts, key=lambda v: (-pairing[v], v))
    edges: list[EdgeT] = []
    eps: dict[Point, int] = {}
    taken: set[Point] = set()
    for v in verts:
        ev = eps.get(v, 0)
        phi = pairing[v] + ev
        if phi < 0:
            return None
        if phi == 0:
            continue
        free = [ce for ce in cand[(v, a)] if ce.target not in taken]
        if not free:
            return None
        best = min(
            free,
            key=lambda ce: (sigma_pos[ce.k], ce.pivot if ce.pivot is not None else 0),
        )
        edges.append((v, a, best.target))
        taken.add(best.target)
        eps[best.target] = ev + 1
    return edges


def _crystals(
    pts: PointSet,
    cand: dict[tuple[Point, int], list[CandidateEdge]],
    W: WordCrystal,
    budget: int,
) -> tuple[list[CrystalGraph], int, bool]:
    """The edge selections from ``cand`` that are crystals isomorphic to W,
    by one backtracking search that builds the isomorphism as it goes.  It
    is the one search of this module: ``conjecture_search`` runs it on all
    candidate moves, ``fixed_k_check`` on the fixed-k ones.  n and lambda
    are W's; the weight of each point is computed once, here.

    The vertex of highest weight is paired with ``W.highest``; paired
    vertices are then visited in the order they were paired, each in color
    order.  At a vertex v paired with word w, color a gets no edge when
    f_a(w) is undefined; otherwise the search branches over the distinct
    candidate targets that fit the oracle: the vertex already paired with
    f_a(w), or, while f_a(w) is unpaired, an unpaired target of weight
    content(f_a(w)), which is then paired with it.  A pairing that covers
    every vertex is a crystal with no further check: it pairs each vertex
    with one word of equal weight and takes exactly the words' f-edges, so
    it is isomorphic to W.

    Returns ``(graphs, nodes, complete)``: the crystals in depth-first
    order, pairwise distinct (two leaves differ in the target of some
    step); the nodes visited, one per step (one color at one vertex); and
    False for ``complete`` when the search stopped at node ``budget + 1``.
    """
    n, lam = W.n, W.lam
    weights = dict(zip(pts, _point_weights(lam, pts)))
    graphs: list[CrystalGraph] = []
    if len(pts) != len(W.vertices):
        return graphs, 0, True
    content = W.weights
    tops = [v for v in pts if weights[v] == content[W.highest]]
    if len(tops) != 1:
        return graphs, 0, True
    word = {tops[0]: W.highest}    # vertex -> paired word
    vertex = {W.highest: tops[0]}  # word -> paired vertex
    order = [tops[0]]              # paired vertices, in pairing order
    edges: list[EdgeT] = []
    # choice points: (step, untried targets last-first, len(edges), len(order))
    stack: list[tuple[int, list[Point], int, int]] = []
    step = 0  # color step % n + 1 at vertex order[step // n]
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return graphs, nodes, False
        i, a = divmod(step, n)
        a += 1
        if i < len(order):
            v = order[i]
            fw = W._f.get((word[v], a))
            if fw is None:
                step += 1
                continue
            owner = vertex.get(fw)
            targets = dict.fromkeys(ce.target for ce in cand[(v, a)])
            if owner is not None:
                fits = [owner] if owner in targets else []
            else:
                fits = [
                    t for t in reversed(targets)
                    if t not in word and weights[t] == content[fw]
                ]
            stack.append((step, fits, len(edges), len(order)))
        elif len(order) == len(pts):
            graphs.append(CrystalGraph(lam, pts, frozenset(edges), weights))
        # resume at the newest choice point with a target left to try
        while stack:
            step, fits, n_edges, n_order = stack[-1]
            del edges[n_edges:]
            for t in order[n_order:]:
                del vertex[word.pop(t)]
            del order[n_order:]
            if fits:
                break
            stack.pop()
        else:
            return graphs, nodes, True
        i, a = divmod(step, n)
        v, t = order[i], fits.pop()
        edges.append((v, a + 1, t))
        if t not in word:
            fw = W._f[(word[v], a + 1)]
            word[t] = fw
            vertex[fw] = t
            order.append(t)
        step += 1


def conjecture_search(
    n: int,
    lam: Sequence[int],
    sigma: Sequence[int] | None = None,
    mode: str = "exhaustive",
    budget: int | None = None,
) -> SearchResult:
    """Hunt for crystal structures among selections from PB_n(lambda).

    exhaustive: one backtracking search pairs PB vertices with the words of
    the oracle crystal B(lambda), highest weight first and breadth-first
    from there, and at each vertex and color tries only the candidate
    targets that fit the oracle's f_a, so a wrong choice dies one edge
    after it is taken.  Every pairing that covers all vertices is a
    crystal, isomorphic to the oracle by construction, so ``selections``
    equals the number of graphs; ``nodes`` counts search steps, and the
    search stops after ``budget`` of them (default ``SEARCH_BUDGET``).
    greedy: per color, walk the vertices by descending <wt, alpha_a^vee>
    and never backtrack -- at each vertex that must emit an edge, take the
    candidate whose k comes first in sigma (then the smallest pivot); the
    single selection is kept if it pairs with the oracle.  A greedy walk
    that dead-ends assembles no selection and reports complete=False.
    ``sigma`` is accepted only in greedy mode, ``budget`` only in
    exhaustive mode.
    """
    lam = tuple(lam)
    if mode not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if sigma is None:
        sigma = tuple(range(1, n + 1))
    elif mode != "greedy":
        raise ValueError("sigma applies only to greedy mode")
    sigma = tuple(map(index, sigma))  # a float or a string raises TypeError
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"sigma must be a permutation of [1, {n}]")
    if budget is None:
        budget = SEARCH_BUDGET
    else:
        budget = index(budget)  # a float or a string raises TypeError, never truncates
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        if mode == "greedy":
            raise ValueError("budget applies only to exhaustive mode")
    lam = check_weight(n, lam)  # the ints fflv_points checks, stored in every graph
    pts = fflv_points(n, lam)
    cand = _candidate_map(n, pts)

    if mode == "greedy":
        weights = dict(zip(pts, _point_weights(lam, pts)))
        sigma_pos = {k: i for i, k in enumerate(sigma)}
        edges: list[EdgeT] = []
        for a in range(1, n + 1):
            color_edges = _greedy_color_choice(pts, a, cand, sigma_pos, weights)
            if color_edges is None:
                return SearchResult([], False, "greedy", 0, 0)
            edges += color_edges
        g = CrystalGraph(lam, pts, frozenset(edges), weights)
        valid = check_oracle_iso(g, lam)
        return SearchResult([g] if valid else [], True, "greedy", 0, 1)

    graphs, nodes, complete = _crystals(pts, cand, word_oracle(n, lam), budget)
    graphs.sort(key=lambda g: sorted(g.edges))
    return SearchResult(graphs, complete, "exhaustive", nodes, len(graphs))


def fixed_k_check(n: int, k: int, r: int) -> bool:
    """Does restricting every color to its fixed-k move recover B(r w_k)?

    One run of the search engine over the fixed-k moves decides, by one of
    two rules.  Forced, where every (vertex, color) has at most one fixed-k
    move: the engine takes a move exactly where the oracle has that f-edge,
    and the answer is whether it finds a crystal that takes every move.
    Search among choices, from r = 2 on, where two j's can be feasible at
    one vertex: the answer is whether it finds a crystal among the
    selections, and a move it leaves unused does not count.  At (n, k, r) =
    (3,2,2), (3,2,3), (4,2,2) and (4,3,2) the one crystal found leaves 2, 8,
    7 and 7 (vertex, color) pairs with a fixed-k move but no f-edge of
    B(r w_k), so the forced rule would answer False there.

    A search that stops at ``SEARCH_BUDGET`` nodes without a crystal raises
    RuntimeError; a forced one needs at most |V| * n + 1 nodes.  n, k and r
    are checked by ``fundamental_weight``; r = 0 has no crystal to recover
    and raises ValueError too.
    """
    lam = fundamental_weight(n, k, r)
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    pts = fflv_points(n, lam)
    cand = {
        key: [ce for ce in ces if ce.k == k]
        for key, ces in _candidate_map(n, pts).items()
    }
    graphs, _, complete = _crystals(pts, cand, word_oracle(n, lam), SEARCH_BUDGET)
    if not (graphs or complete):
        raise RuntimeError(
            f"fixed-k search n={n}, k={k}, r={r} stopped after {SEARCH_BUDGET} nodes"
        )
    if all(len(ces) <= 1 for ces in cand.values()):
        return bool(graphs) and len(graphs[0].edges) == sum(map(len, cand.values()))
    return bool(graphs)
