"""Index calculus for operator words.

Operator indices are pairs (u, i): u = 1 for the Lie-type family, u = 2 for
the HS-type family. The total order puts every HS index below every Lie
index: (2,1) < ... < (2,m2) < (1,1) < ... < (1,m1). Normal words are
non-increasing with at most one HS entry; `psi` embeds them injectively into
multidegree vectors, which drive both the product order and the triangular
well-order used everywhere for iteration.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

Op = tuple[int, int]
Word = tuple[Op, ...]


def op_key(op: Op) -> tuple[int, int]:
    u, i = op
    return (1 if u == 1 else 0, i)


def is_hs(op: Op) -> bool:
    return op[0] == 2


def hs_count(word: Word) -> int:
    return sum(1 for op in word if is_hs(op))


def chi(word: Word) -> int:
    """0 when the word has at least two HS entries, else 1."""
    return 0 if hs_count(word) >= 2 else 1


def rho(word: Word) -> Word:
    """Normal reordering: descending sort, or the empty word for chi = 0."""
    if hs_count(word) >= 2:
        return ()
    return tuple(sorted(word, key=op_key, reverse=True))


def psi(word: Word, m1: int, m2: int) -> tuple[int, ...]:
    """Occurrence counts ordered (1,m1)..(1,1),(2,m2)..(2,1)."""
    counts = {}
    for op in word:
        counts[op] = counts.get(op, 0) + 1
    lie = tuple(counts.get((1, i), 0) for i in range(m1, 0, -1))
    hs = tuple(counts.get((2, i), 0) for i in range(m2, 0, -1))
    return lie + hs


def tri_key(word: Word, t: int, m1: int, m2: int):
    return (len(word), t, psi(word, m1, m2))


def normal_words(m1: int, m2: int, length: int) -> list[Word]:
    """All normal words of the given length, ascending in the triangular order."""
    lie_desc = [(1, i) for i in range(m1, 0, -1)]
    out = []
    for w in combinations_with_replacement(lie_desc, length):
        out.append(tuple(w))
    if length >= 1:
        for w in combinations_with_replacement(lie_desc, length - 1):
            for j in range(m2, 0, -1):
                out.append(tuple(w) + ((2, j),))
    out.sort(key=lambda w: psi(w, m1, m2))
    return out


def normal_words_upto(m1: int, m2: int, length: int) -> list[Word]:
    out = []
    for r in range(length + 1):
        out.extend(normal_words(m1, m2, r))
    return out


def dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def dickson_minimize(items, m1: int, m2: int):
    """Minimal elements of a set of (word, t) pairs under the product order.

    Comparable only within one t; returns an antichain such that every input
    dominates some output. Items may repeat; the output has no duplicates.
    """
    keyed = []
    seen = set()
    for word, t in items:
        k = (psi(word, m1, m2), t)
        if k not in seen:
            seen.add(k)
            keyed.append((k, (word, t)))
    # ascending total degree: minimal elements are met before their multiples
    keyed.sort(key=lambda kv: (kv[0][1], sum(kv[0][0]), kv[0][0]))
    kept: list = []
    kept_keys: list = []
    for (vec, t), item in keyed:
        if any(kt == t and dominates(vec, kv) for kv, kt in kept_keys):
            continue
        kept.append(item)
        kept_keys.append((vec, t))
    return kept
