"""Rhombic tilings of the 2m-gon and the tiling H-description of Lusztig polytopes.

The tiling is purely combinatorial.  A vertex is a subset of the labels
[1, m]; the edge with label t starting at vertex V joins V to V | {t}; the
2m-gon's left boundary is the chain {} -> {1} -> {1,2} -> ... -> [m].
The rank n is the word's largest letter and m = n + 1.  Reading a reduced
word letter by letter replaces two consecutive border edges (labels s < t,
read upward) by the opposite sides of a new rhombic tile with label pair
{s, t}; tiles correspond to positive roots via {s, t} <-> alpha_{s, t-1}.

On top of the tiling: strips (the m-1 tiles carrying a fixed label, read
in fold order), peeling partial orders for each of the 2m boundary
windows, dual Reineke s-crossings, assembled inside the one search that
finds them from the one neighbour table (each neighbour with the label of
the edge it shares), and the resulting inequality system for the Lusztig
polytope of the word.

No planar coordinates are stored; the optional SVG renderer assigns them
for pictures only.
"""

from __future__ import annotations

import math
from operator import index
from typing import Mapping, NamedTuple, Sequence

from .polytope import HPolytope, PointSet, _once, _Value, lattice_points
from .roots import (
    Root,
    check_weight,
    check_word,
    fundamental_weight,
    ik_word,
    num_roots,
    positive_roots,
    root_enumeration,
    root_index,
)


class PeelStallError(RuntimeError):
    """Peeling found no tile meeting the current border in exactly two edges."""


class Edge(NamedTuple):
    label: int
    bottom: frozenset[int]


class Tile(_Value):
    """A rhombic tile; equal, and equally hashed, when all fields are."""

    __slots__ = _value = ("id", "s", "t", "lower", "upper", "root")

    def __init__(
        self,
        id: int,
        s: int,  # smaller label
        t: int,  # larger label
        lower: tuple[Edge, Edge],  # border edges consumed, bottom then top
        upper: tuple[Edge, Edge],  # border edges created, bottom then top
        root: Root,
    ) -> None:
        self.id = id
        self.s = s
        self.t = t
        self.lower = lower
        self.upper = upper
        self.root = root

    @property
    def labels(self) -> tuple[int, int]:
        return (self.s, self.t)

    @property
    def all_edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        return self.lower + self.upper

    def other_label(self, a: int) -> int:
        if a == self.s:
            return self.t
        if a == self.t:
            return self.s
        raise ValueError(f"tile {self.labels} does not carry label {a}")


class Tiling:
    """The tiles and edges of a word's tiling, with the adjacency derived from
    ``incidence`` (edge -> the tiles it borders, every edge in creation
    order): ``neighbors[tid]`` holds (neighbour, label of the one edge they
    share) by neighbour id.  The constructor raises ``RuntimeError`` when
    two tiles share more than one edge."""

    def __init__(
        self,
        word: tuple[int, ...],
        tiles: tuple[Tile, ...],
        left_boundary: tuple[Edge, ...],   # L_1 .. L_m, bottom to top
        right_boundary: tuple[Edge, ...],  # R_1 .. R_m, top to bottom of the final border
        incidence: dict[Edge, tuple[Tile, ...]],
    ) -> None:
        self.n = max(word)  # a reduced word of the longest element uses every letter 1..n
        self.m = self.n + 1
        self.word = word
        self.tiles = tiles
        self.left_boundary = left_boundary
        self.right_boundary = right_boundary
        self.incidence = incidence
        # tile id -> {neighbour id: label of the one edge they share}
        shared: dict[int, dict[int, int]] = {tile.id: {} for tile in tiles}
        for e, inc in incidence.items():
            for a in inc:
                for b in inc:
                    if a.id == b.id:
                        continue
                    if b.id in shared[a.id]:
                        raise RuntimeError(
                            f"tiles {a.id} and {b.id} share more than one edge "
                            f"(word {word})"
                        )
                    shared[a.id][b.id] = e.label
        self.neighbors: dict[int, tuple[tuple[Tile, int], ...]] = {
            tid: tuple((tiles[j], label) for j, label in sorted(labels.items()))
            for tid, labels in shared.items()
        }


class DualCrossing(_Value):
    """A dual s-crossing; equal, and equally hashed, when all fields are."""

    __slots__ = _value = ("tiles", "s", "entering_leaving")

    def __init__(
        self,
        tiles: tuple[Tile, ...],
        s: int,
        # per tile: the strip label it is entered / left through; equal entries
        # mean an interior tile of that strip, distinct entries a turning tile
        entering_leaving: tuple[tuple[int, int], ...],
    ) -> None:
        self.tiles = tiles
        self.s = s
        self.entering_leaving = entering_leaving

    @property
    def strip_sequence(self) -> tuple[int, ...]:
        """The strips the crossing travels in: s, then the label each
        turning tile is left through."""
        return (self.s,) + tuple(b for a, b in self.entering_leaving if a != b)


def build_tiling(word: Sequence[int], n: int | None = None) -> Tiling:
    """Fold a reduced word into a rhombic tiling of the 2m-gon.

    Letter a replaces the border edges at heights a-1 and a (labels s < t)
    by the opposite sides of the tile {s, t}; the recorded root is
    alpha_{s, t-1}, matching the word's root enumeration step for step.
    Letters must be integers: a float or a string raises TypeError.
    """
    word, n = check_word(word, n)
    enum = root_enumeration(word, n)  # raises on a non-reduced word
    m = n + 1
    left = tuple(Edge(i, frozenset(range(1, i))) for i in range(1, m + 1))
    border: list[Edge] = list(left)
    inc: dict[Edge, list[Tile]] = {e: [] for e in left}  # every edge, in creation order
    tiles: list[Tile] = []
    for a, root in zip(word, enum):
        lo, hi = border[a - 1], border[a]
        if lo.label >= hi.label or hi.bottom != lo.bottom | {lo.label}:
            raise ValueError(
                f"border inconsistent at letter {a} of {word}: "
                f"{lo.label} above {hi.label}"
            )
        s, t, V = lo.label, hi.label, lo.bottom
        if root != Root(s, t - 1):
            raise RuntimeError(f"tile {s},{t} is not root {root} (word {word})")
        up_bottom = Edge(t, V)
        up_top = Edge(s, V | {t})
        for e in (up_bottom, up_top):
            if e in inc:  # each edge may be created only once
                raise RuntimeError(f"edge {(e.bottom, e.label)} created twice (word {word})")
            inc[e] = []
        tiles.append(
            Tile(
                id=len(tiles),
                s=s,
                t=t,
                lower=(lo, hi),
                upper=(up_bottom, up_top),
                root=root,
            )
        )
        border[a - 1], border[a] = up_bottom, up_top

    right = tuple(reversed(border))
    if [e.label for e in right] != list(range(1, m + 1)):
        raise RuntimeError(f"right boundary out of label order (word {word})")

    for tile in tiles:
        for e in tile.all_edges:
            inc[e].append(tile)
    if any(len(v) > 2 for v in inc.values()):
        raise RuntimeError(f"an edge borders more than two tiles (word {word})")

    return Tiling(
        word=word,
        tiles=tuple(tiles),
        left_boundary=left,
        right_boundary=right,
        incidence={e: tuple(v) for e, v in inc.items()},
    )


def strip(T: Tiling, t: int) -> tuple[Tile, ...]:
    """The m-1 tiles carrying label t, from the left boundary to the right.

    Every border holds one edge labelled t, and a tile carrying t replaces
    it by the tile's other edge labelled t, so the fold creates the tiles of
    strip t in the order the strip runs: they are the tiles carrying t in
    ``T.tiles`` order.  The label must be an integer: a float or a string
    raises TypeError.
    """
    t = index(t)
    if not 1 <= t <= T.m:
        raise ValueError(f"label {t} out of range [1, {T.m}]")
    return tuple(tile for tile in T.tiles if tile.s == t or tile.t == t)


def peel_order(T: Tiling, s: int) -> dict[int, int]:
    """Iterated peeling from the boundary window b_{m+s+1} .. b_{2m+s}:
    tile id -> layer (1-based), in peeling order.

    Layer 1 is every tile meeting the window in exactly two of its four
    edges; peeling swaps those edges for the tiles' other two and repeats.
    All tiles of a layer are peeled simultaneously.  Each tile's count of
    border edges is taken once and then kept current through the incidence
    of every edge a peel flips.  The window must be an integer: a float or
    a string raises TypeError.
    """
    s = index(s)
    m = T.m
    if not 1 <= s <= 2 * m:
        raise ValueError(f"peel index {s} out of range [1, {2 * m}]")
    cyc = T.left_boundary + T.right_boundary  # b_1 .. b_{2m}
    B = {cyc[(m + s + j - 1) % (2 * m)] for j in range(1, m + 1)}
    on_border = [0] * len(T.tiles)
    for e in B:
        for tile in T.incidence[e]:
            on_border[tile.id] += 1
    layer: dict[int, int] = {}
    remaining = list(range(len(T.tiles)))
    level = 0
    while remaining:
        level += 1
        ready = [tid for tid in remaining if on_border[tid] == 2]
        if not ready:
            raise PeelStallError(
                f"peeling stalled at layer {level}, s={s}, word {T.word}"
            )
        for tid in ready:
            for e in T.tiles[tid].all_edges:
                if e in B:
                    B.discard(e)
                    delta = -1
                else:
                    B.add(e)
                    delta = 1
                for other in T.incidence[e]:
                    on_border[other.id] += delta
            layer[tid] = level
        remaining = [tid for tid in remaining if tid not in layer]
    return layer


def dual_crossings(T: Tiling, s: int) -> list[DualCrossing]:
    """All dual s-crossings: peel-ascending neighbour sequences from the last
    tile of strip s to the last tile of strip s+1, with a consistent strip
    sequence.

    The depth-first search enters only tiles from which the end tile is
    reachable along ascending layers, found by one backward pass over the
    peel layers; every pruned subtree holds no path to the end tile, so the
    crossings and their order are those of the full search.  Each step
    carries the label of the edge it crosses, read from ``T.neighbors``, and
    the search assembles each crossing as it reaches the end tile.  s must be an integer: a float or a string
    raises TypeError.
    """
    s = index(s)
    if not 1 <= s <= T.n:
        raise ValueError(f"need 1 <= s <= {T.n}, got {s}")
    layer = peel_order(T, T.m + s)
    start = strip(T, s)[-1]
    end = strip(T, s + 1)[-1]

    # tile id -> (neighbour, shared label) per ascending neighbour that
    # reaches the end tile, kept only for tiles that reach it themselves
    steps: dict[int, list[tuple[Tile, int]]] = {end.id: []}
    for tid in sorted(layer, key=layer.get, reverse=True):
        ahead = [
            step for step in T.neighbors[tid]
            if step[0].id in steps and layer[step[0].id] > layer[tid]
        ]
        if ahead:
            steps[tid] = ahead
    out: list[DualCrossing] = []
    if start.id in steps:
        _extend_paths(s, steps, end.id, [start], [], s, out)
    return out


def _fits(tile: Tile, enter: int, leave: int) -> bool:
    """The role rule: a tile entered and left through the same label a must
    carry a (an interior tile of strip a), and a tile switching labels must
    be exactly the turning tile {a, b}."""
    if enter == leave:
        return enter == tile.s or enter == tile.t
    return (enter, leave) == (tile.s, tile.t) or (leave, enter) == (tile.s, tile.t)


def _extend_paths(
    s: int,
    steps: dict[int, list[tuple[Tile, int]]],
    end_id: int,
    path: list[Tile],
    roles: list[tuple[int, int]],
    enter: int,
    out: list[DualCrossing],
) -> None:
    """One node of the crossing search.  ``roles`` holds the (entering,
    leaving) labels of every tile of ``path`` but the last, which was
    entered through label ``enter``.  Close the path at the end tile, left
    through s+1, or extend it by every step whose shared label the last
    tile may be left through."""
    tile = path[-1]
    if tile.id == end_id:
        if _fits(tile, enter, s + 1):
            roles.append((enter, s + 1))
            out.append(DualCrossing(tuple(path), s, tuple(roles)))
            roles.pop()
        return
    for nb, leave in steps[tile.id]:
        if not _fits(tile, enter, leave):
            continue
        path.append(nb)
        roles.append((enter, leave))
        _extend_paths(s, steps, end_id, path, roles, leave, out)
        roles.pop()
        path.pop()


def reineke_filter(crossings: Sequence[DualCrossing]) -> list[DualCrossing]:
    """Keep the crossings whose interior strip tiles point the right way.

    An interior tile of strip a with other label b must satisfy: a > b when
    b <= s, and a < b when b >= s+1.  Turning tiles are unconstrained, so
    the dual s-comb always survives.

    In every case measured the filter drops only rows the point set does
    not need: the polytope of the unfiltered rows has the same lattice
    points for every word at n <= 3 on every weight of 0/1 entries, for all
    768 words at n = 4 on (1,1,1,1), and for one word of each of the 908
    commutation classes at n = 5 on (1,0,1,0,1).  It only saves rows.
    """
    kept: list[DualCrossing] = []
    for cr in crossings:
        ok = True
        for tile, (enter, leave) in zip(cr.tiles, cr.entering_leaving):
            if enter != leave:
                continue
            a = enter
            b = tile.other_label(a)
            if b <= cr.s:
                ok = a > b
            else:
                ok = a < b
            if not ok:
                break
        if ok:
            kept.append(cr)
    return kept


def _crossing_row(
    s: int, cr: DualCrossing, idx: Mapping[Root, int], dim: int
) -> tuple[int, ...]:
    """The coefficient vector (canonical root order) of the crossing's
    inequality: +1 on tiles {a, b} with a <= s < s+1 <= b, -1 on the other
    non-turning tiles, 0 on the other turning ones."""
    coeffs = [0] * dim
    for tile, (enter, leave) in zip(cr.tiles, cr.entering_leaving):
        if tile.s <= s < tile.t:
            coeffs[idx[tile.root]] = 1
        elif enter == leave:
            coeffs[idx[tile.root]] = -1
    return tuple(coeffs)


def lusztig_hrep(word: Sequence[int], lam: Sequence[int], n: int | None = None) -> HPolytope:
    """The inequality system of the word's Lusztig polytope.

    One row per (s, filtered dual s-crossing) with rhs lambda_s, s in [1, n];
    rows repeated with identical coefficients and rhs are kept once.  The
    crossing rows do not depend on lambda: inside ``_one_run()`` they are
    built once per (word, n).  The word's letters, lambda and n must be
    integers: a float or a string raises TypeError, never truncates.
    """
    word, n = check_word(word, n)
    lam = check_weight(n, lam)
    return _hrep(_system(word, n).rows, lam, n)


def _hrep(rows: Sequence[tuple[int, tuple[int, ...]]], lam: tuple[int, ...], n: int) -> HPolytope:
    """The H-polytope of the crossing rows ``rows``, each (s, coefficients),
    with rhs lambda_s; a repeated (coefficients, rhs) is kept once."""
    unique = dict.fromkeys((coeffs, lam[s - 1]) for s, coeffs in rows)
    return HPolytope(dim=num_roots(n), rows=tuple(unique))


class _System(NamedTuple):
    """What a word's tiling gives its Lusztig polytope, lambda aside."""

    found: tuple[int, ...]  # the number of dual crossings found, indexed by s - 1
    rows: tuple[tuple[int, tuple[int, ...]], ...]  # (s, coefficients) per filtered crossing
    row_set: frozenset[tuple[int, tuple[int, ...]]]


def _system(word: tuple[int, ...], n: int) -> _System:
    """How many dual s-crossings the word has for every s in [1, n], all
    searched on one tiling, and the rows of the crossings the Reineke filter
    keeps, in the order found, as a tuple and as a set.  Inside
    ``_one_run()`` it is built once per (word, n), shared by the
    H-description, the points key and the dyck claim; a frozenset caches
    its hash, so the run hashes each row set once.
    """
    def build() -> _System:
        idx = root_index(n)
        dim = num_roots(n)
        T = build_tiling(word, n)
        found = []
        rows = []
        for s in range(1, n + 1):
            crossings = dual_crossings(T, s)
            found.append(len(crossings))
            rows += [(s, _crossing_row(s, cr, idx, dim)) for cr in reineke_filter(crossings)]
        rows = tuple(rows)
        return _System(tuple(found), rows, frozenset(rows))

    return _once(("word", word, n), build)


def lusztig_points(
    word: Sequence[int], lam: Sequence[int], n: int | None = None
) -> PointSet:
    """Lattice points of the word's Lusztig polytope.

    The rows can have negative coefficients; ``lattice_points`` derives a
    certified order and box from them, or raises ``ValueError`` if the
    system admits none, so the set returned is always complete.

    The polytope is determined by the set of the word's crossing rows, each
    (s, coefficients), by lambda and by n: the order of the rows does not
    change it.  Inside ``_one_run()`` the points are computed once per such
    key and shared, so the words of one commutation class, whose rows
    differ only in order, build one H-description and one enumeration per
    lambda (the 16 and 768 words at n = 3 and 4 have 8 and 62 row sets,
    one per class).  The key is built from the rows the word itself produced, so
    every word is still tiled and searched, and a word whose rows differ
    gets its own points.  A failure is not stored.  Outside a run every
    call computes, tiling and searching the word once.
    """
    word, n = check_word(word, n)
    lam = check_weight(n, lam)
    system = _system(word, n)
    return _once(
        ("lusztig", n, system.row_set, lam),
        lambda: lattice_points(_hrep(system.rows, lam, n)),
    )


def check_rectangle_support(n: int, k: int, r: int) -> bool:
    """Do all points of the i^k Lusztig polytope at r*omega_k vanish outside
    the k-rectangle {alpha_{i,j} : i <= k <= j}?

    Cross-checked positionally: that rectangle must be exactly the head (the
    first k(n-k+1) roots) of the i^k enumeration.  n, k and r are checked
    by ``fundamental_weight``.
    """
    lam = fundamental_weight(n, k, r)
    roots = positive_roots(n)
    rect = {rt for rt in roots if rt.i <= k <= rt.j}
    head = set(root_enumeration(ik_word(n, k), n)[: k * (n - k + 1)])
    if head != rect:
        return False
    pts = lusztig_points(ik_word(n, k), lam, n)
    outside = [d for d, rt in enumerate(roots) if rt not in rect]
    return all(all(p[d] == 0 for d in outside) for p in pts)


# ---------------------------------------------------------------------------
# serialization / rendering


def tiling_to_json(T: Tiling) -> dict:
    eid = {e: i for i, e in enumerate(T.incidence)}  # edges in creation order
    strips = {t: [tile.id for tile in strip(T, t)] for t in range(1, T.m + 1)}
    peels = {
        s: {tid: lv for tid, lv in sorted(peel_order(T, s).items())}
        for s in range(1, 2 * T.m + 1)
    }
    return {
        "n": T.n,
        "m": T.m,
        "word": list(T.word),
        "tiles": [
            {
                "id": tile.id,
                "labels": list(tile.labels),
                "root": list(tile.root),
                "lower": [eid[e] for e in tile.lower],
                "upper": [eid[e] for e in tile.upper],
            }
            for tile in T.tiles
        ],
        "edges": [
            {"id": i, "label": e.label, "bottom": sorted(e.bottom)}
            for e, i in eid.items()
        ],
        "strips": strips,
        "peel_layers": peels,
    }


_PALETTE = ("#e6a3a3", "#a3c6e6", "#a8d8b0", "#e6cfa3", "#cdb0e0", "#d5b8a6")
_SCALE = 60.0  # pixels per unit edge


def tiling_to_svg(T: Tiling) -> str:
    """A picture of the tiling; coordinates exist only in this function.

    Vertex V (a label subset) sits at the subset sum of unit vectors
    u_t = (cos theta_t, sin theta_t), theta_t = pi - pi t / (m+1); this
    renders the 2m-gon with the left boundary going up the left side.
    """
    m = T.m
    unit = {
        t: (math.cos(math.pi - math.pi * t / (m + 1)),
            math.sin(math.pi - math.pi * t / (m + 1)))
        for t in range(1, m + 1)
    }

    def pos(V: frozenset[int]) -> tuple[float, float]:
        return (sum(unit[t][0] for t in V), sum(unit[t][1] for t in V))

    corners_of = []
    for tile in T.tiles:
        V = tile.lower[0].bottom
        a, b = tile.s, tile.t
        corners_of.append(
            (tile, [pos(V),
                    pos(V | {a}),
                    pos(V | {a, b}),
                    pos(V | {b})])
        )
    xs = [x for _, cs in corners_of for x, _ in cs]
    ys = [y for _, cs in corners_of for _, y in cs]
    pad = 0.4
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    def fmt(p: tuple[float, float]) -> str:
        # y flipped so "up" in the construction is up on screen
        return f"{(p[0] - x0) * _SCALE:.2f},{(h - (p[1] - y0)) * _SCALE:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w * _SCALE:.0f}" height="{h * _SCALE:.0f}">'
    ]
    for tile, cs in corners_of:
        fill = _PALETTE[(tile.s + tile.t) % len(_PALETTE)]
        pts = " ".join(fmt(c) for c in cs)
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="black" '
            f'stroke-width="1"/>'
        )
        cx = sum(c[0] for c in cs) / 4
        cy = sum(c[1] for c in cs) / 4
        parts.append(
            f'<text x="{(cx - x0) * _SCALE:.2f}" y="{(h - (cy - y0)) * _SCALE:.2f}" '
            f'font-size="{_SCALE / 5:.0f}" text-anchor="middle">'
            f"{tile.s},{tile.t}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
