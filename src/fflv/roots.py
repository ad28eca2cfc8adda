"""Type A_n root-system bookkeeping.

Positive roots alpha_{i,j} = alpha_i + ... + alpha_j are indexed by pairs
1 <= i <= j <= n and always listed in one canonical order, lexicographic by
(i, j); every coordinate vector elsewhere in the package is indexed this way.

A reduced word for the longest element w0 of S_m (m = n+1) is a tuple of
letters in [1, n] of length N = n(n+1)/2 such that every letter swaps an
ascent of the running permutation.  Each reduced word induces an enumeration
of the positive roots; the special words ``ik_word(n, k)`` enumerate the
roots containing k first.

This module owns the input rules of the package: ``check_rank``,
``check_weight``, ``check_k``, ``check_word`` and ``fundamental_weight``
are the only places a rank, a weight, a k, a word's letters or a multiple
r is checked, so every entry point rejects bad input with one text.
"""

from __future__ import annotations

import random
from functools import cache
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

Word = tuple[int, ...]


class Root(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        return f"a[{self.i},{self.j}]"


def num_roots(n: int) -> int:
    return n * (n + 1) // 2


def check_rank(n: int) -> int:
    """n as an int; raises ValueError below 1 and TypeError unless n is an
    integer (a float or a string is never truncated)."""
    n = index(n)
    if n < 1:
        raise ValueError("rank must be >= 1")
    return n


def check_weight(n: int, lam: Sequence[int]) -> tuple[int, ...]:
    """lambda as a tuple of ints; raises unless it is a dominant weight of
    rank n and n is a rank."""
    n = check_rank(n)
    lam = tuple(map(index, lam))
    if len(lam) != n:
        raise ValueError(f"weight has {len(lam)} entries, expected {n}")
    if any(v < 0 for v in lam):
        raise ValueError(f"weight must be dominant (all entries >= 0): {lam}")
    return lam


def check_k(n: int, k: int) -> int:
    """k as an int; raises unless n is a rank and 1 <= k <= n.  A float or
    a string k raises TypeError."""
    n, k = check_rank(n), index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k


def check_word(word: Sequence[int], n: int | None = None) -> tuple[Word, int]:
    """The word's letters as ints and its rank, the largest letter when n
    is None; raises unless the rank is >= 1.  Whether the word is reduced
    is ``root_enumeration``'s check."""
    word = tuple(map(index, word))
    return word, check_rank(max(word, default=0) if n is None else n)


@cache
def _canonical_roots(n: int) -> tuple[Root, ...]:
    """The per-rank table behind ``positive_roots`` and ``root_index``."""
    n = check_rank(n)
    return tuple(Root(i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def positive_roots(n: int) -> list[Root]:
    """All alpha_{i,j} for 1 <= i <= j <= n, lexicographic by (i, j)."""
    return list(_canonical_roots(n))


@cache
def root_index(n: int) -> Mapping[Root, int]:
    """Position of every root in the canonical order (read-only, one per rank)."""
    return MappingProxyType({r: p for p, r in enumerate(_canonical_roots(n))})


def lexmin_word(n: int) -> Word:
    """(1, 2,1, 3,2,1, ..., n,...,1) - the lexicographically minimal word."""
    out: list[int] = []
    for r in range(1, check_rank(n) + 1):
        out.extend(range(r, 0, -1))
    return tuple(out)


def lexmax_word(n: int) -> Word:
    """(n, n-1,n, ..., 1,...,n) - the lexicographically maximal word."""
    n = check_rank(n)
    out: list[int] = []
    for r in range(n, 0, -1):
        out.extend(range(r, n + 1))
    return tuple(out)


def ik_word(n: int, k: int) -> Word:
    """The special reduced word i^k, concatenation of three factors.

    The first factor (k(n-k+1) letters, blocks (t, t-1, ..., t-k+1) for
    t = k..n) makes the induced enumeration list exactly the roots whose
    interval contains k, column by column; the remaining two factors finish
    w0 without ever touching those roots again.
    """
    k = check_k(n, k)
    out: list[int] = []
    for t in range(k, n + 1):
        out.extend(range(t, t - k, -1))
    for c in range(1, k):
        out.extend(range(n, n - k + c, -1))
    for length in range(n - k, 0, -1):
        out.extend(range(1, length + 1))
    return tuple(out)


def root_enumeration(word: Sequence[int], n: int | None = None) -> list[Root]:
    """The positive roots in the order induced by a reduced word.

    Multiplies the word into a one-line permutation: at each step the
    letter a must swap an ascent lo < hi at positions (a, a+1), else the
    length would drop, and the step records alpha_{lo, hi-1}.  After N
    ascent swaps the permutation is the longest one.  Raises ValueError on
    a word that is not reduced; the letters and the rank are checked by
    ``check_word``.
    """
    word, n = check_word(word, n)
    perm = list(range(1, n + 2))
    out: list[Root] = []
    for a in word:
        if not 1 <= a <= n or perm[a - 1] > perm[a]:
            break
        lo, hi = perm[a - 1], perm[a]
        out.append(Root(lo, hi - 1))
        perm[a - 1], perm[a] = hi, lo
    if not len(out) == len(word) == num_roots(n):
        raise ValueError(f"not a reduced word for the longest element: {word}")
    return out


def all_reduced_words(n: int) -> list[Word]:
    """Every reduced word for the longest element of S_{n+1}, sorted.

    Exhaustive walk over ascent swaps; 2 words at n=2, 16 at n=3.  Intended
    for small n only.
    """
    m = check_rank(n) + 1
    target = tuple(range(m, 0, -1))
    out: list[Word] = []
    stack: list[tuple[tuple[int, ...], Word]] = [(tuple(range(1, m + 1)), ())]
    while stack:
        perm, acc = stack.pop()
        if perm == target:
            out.append(acc)
            continue
        for i in range(m - 1):
            if perm[i] < perm[i + 1]:
                nxt = list(perm)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                stack.append((tuple(nxt), acc + (i + 1,)))
    return sorted(out)


def random_reduced_word(n: int, rng: random.Random) -> Word:
    """A reduced word sampled by a random ascent walk (not uniform)."""
    n = check_rank(n)
    m = n + 1
    perm = list(range(1, m + 1))
    acc: list[int] = []
    for _ in range(num_roots(n)):
        i = rng.choice([p for p in range(m - 1) if perm[p] < perm[p + 1]])
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        acc.append(i + 1)
    return tuple(acc)


def fundamental_weight(n: int, k: int, r: int = 1) -> tuple[int, ...]:
    """The weight r * omega_k of rank n: the one check of (n, k, r).  r must
    be an integer >= 0: a float or a string raises TypeError, never
    truncates."""
    k = check_k(n, k)
    r = index(r)
    if r < 0:
        raise ValueError(f"need r >= 0, got r={r}")
    return tuple(r if t == k else 0 for t in range(1, n + 1))


def weight_mu(lam: Sequence[int]) -> tuple[int, ...]:
    """Partition presentation (mu_1 >= ... >= mu_m = 0), mu_i = lam_i+...+lam_n."""
    n = len(lam)
    mu = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mu[i] = mu[i + 1] + lam[i]
    return tuple(mu)


def weight_of_point(lam: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    """Content vector in Z^m of the point x (indexed by the canonical roots).

    Each unit of x_{i,j} subtracts e_i - e_{j+1} from mu, i.e. moves one box
    from row i to row j+1.  lambda must be a dominant weight of rank
    len(lambda) >= 1, else ValueError.
    """
    return _point_weights(check_weight(len(lam), lam), (x,))[0]


def _point_weights(lam: tuple[int, ...], points: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """``weight_of_point`` of each point, in order, for a lambda its caller
    has checked: mu and the (i-1, j) box move of every root are read once
    for the whole list.  A point of the wrong dimension raises ValueError."""
    n = len(lam)
    mu = weight_mu(lam)
    moves = [(r.i - 1, r.j) for r in _canonical_roots(n)]
    out: list[tuple[int, ...]] = []
    for x in points:
        if len(x) != len(moves):
            raise ValueError("point has wrong dimension for this weight")
        wt = list(mu)
        for (row, to), v in zip(moves, x):
            if v:
                wt[row] -= v
                wt[to] += v
        out.append(tuple(wt))
    return out
