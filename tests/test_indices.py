import itertools
import random

from helpers import all_words_upto, is_normal, tri_leq
from hypothesis import given, strategies as st

from opfield.indices import (
    chi,
    dickson_minimize,
    dominates,
    normal_words,
    normal_words_upto,
    op_key,
    psi,
    rho,
    tri_key,
)


def test_op_order():
    # (2,1) < (2,2) < (1,1) < (1,2)
    assert op_key((2, 1)) < op_key((2, 2)) < op_key((1, 1)) < op_key((1, 2))


def test_rho_examples():
    assert rho(((1, 1), (1, 2))) == ((1, 2), (1, 1))
    assert rho(((2, 1), (2, 1))) == ()
    assert rho(((2, 1), (1, 1))) == ((1, 1), (2, 1))


def test_rho_idempotent_short_words():
    for w in all_words_upto(2, 1, 5):
        assert rho(rho(w)) == rho(w)


def test_chi():
    assert chi(((2, 1), (2, 2))) == 0
    assert chi(((2, 1), (1, 1))) == 1
    assert chi(()) == 1


def test_psi_injective_on_normal_words():
    m1, m2 = 2, 1
    words = normal_words_upto(m1, m2, 5)
    vecs = [psi(w, m1, m2) for w in words]
    assert len(set(vecs)) == len(vecs)
    for w in words:
        assert sum(psi(w, m1, m2)) == len(w)
        assert is_normal(w)


def test_tri_leq_examples():
    m1, m2 = 2, 0
    assert tri_leq(((), 1), ((), 2), m1, m2)
    assert tri_leq((((1, 1),), 1), (((1, 2),), 1), m1, m2)
    a = (((1, 2), (1, 1)), 1)
    assert tri_leq(a, a, m1, m2)


def test_tri_total_order_properties():
    m1, m2 = 2, 1
    pool = [(w, t) for w in normal_words_upto(m1, m2, 3) for t in (1, 2)]
    for a, b in itertools.product(pool, repeat=2):
        ka = tri_key(a[0], a[1], m1, m2)
        kb = tri_key(b[0], b[1], m1, m2)
        # trichotomy via key comparison
        assert (ka < kb) or (kb < ka) or (ka == kb)
        if ka == kb:
            assert a[0] == b[0] and a[1] == b[1]  # keys separate points
    # transitivity holds because keys are tuples under lexicographic order
    trip = random.Random(3).sample(pool, 3)
    ks = sorted(trip, key=lambda x: tri_key(x[0], x[1], m1, m2))
    assert tri_leq(ks[0], ks[1], m1, m2) and tri_leq(ks[1], ks[2], m1, m2) and tri_leq(ks[0], ks[2], m1, m2)


def test_normal_words_sorted_by_psi():
    m1, m2 = 3, 2
    for r in range(4):
        ws = normal_words(m1, m2, r)
        keys = [psi(w, m1, m2) for w in ws]
        assert keys == sorted(keys)
        assert all(len(w) == r and is_normal(w) for w in ws)
    # counts: only one HS entry allowed
    assert len(normal_words(0, 2, 2)) == 0
    assert len(normal_words(0, 2, 1)) == 2


def test_dickson_examples():
    m1, m2 = 2, 0
    # psi-vectors (2,0), (1,1), (2,1): the last dominates the first
    w20 = ((1, 2), (1, 2))
    w11 = ((1, 2), (1, 1))
    w21 = ((1, 2), (1, 2), (1, 1))
    out = dickson_minimize([(w20, 1), (w11, 1), (w21, 1)], m1, m2)
    assert set(out) == {(w20, 1), (w11, 1)}
    assert dickson_minimize([], m1, m2) == []


def test_dickson_vs_bruteforce():
    m1, m2 = 3, 0
    rng = random.Random(9)
    words = normal_words_upto(m1, m2, 6)
    for _ in range(5):
        sample = [(rng.choice(words), rng.choice((1, 2))) for _ in range(50)]
        mine = dickson_minimize(sample, m1, m2)
        # brute force: keep items not strictly dominated by any other
        uniq = {(psi(w, m1, m2), t): (w, t) for w, t in sample}
        brute = [
            item
            for key, item in uniq.items()
            if not any(
                k2 != key and k2[1] == key[1] and dominates(key[0], k2[0])
                for k2 in uniq
            )
        ]
        assert sorted(mine) == sorted(brute)
        # antichain, and every input dominates some output
        for (v1, t1), (v2, t2) in itertools.combinations(
            [(psi(w, m1, m2), t) for w, t in mine], 2
        ):
            assert not (t1 == t2 and (dominates(v1, v2) or dominates(v2, v1)))
        for w, t in sample:
            assert any(
                t2 == t and dominates(psi(w, m1, m2), psi(w2, m1, m2))
                for w2, t2 in mine
            )


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
def test_dickson_antichain_property(vecs):
    # encode integer pairs as words over m1 = 2 Lie indices
    m1, m2 = 2, 0
    items = [(((1, 2),) * a + ((1, 1),) * b, 1) for a, b in vecs]
    out = dickson_minimize(items, m1, m2)
    keys = [psi(w, m1, m2) for w, _ in out]
    for k1, k2 in itertools.combinations(keys, 2):
        assert not (dominates(k1, k2) or dominates(k2, k1))


@given(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=6))
def test_rho_preserves_counts_when_defined(pairs):
    word = tuple((u, i) for u, i in pairs)
    m1, m2 = 2, 2
    if chi(word):
        assert psi(rho(word), m1, m2) == psi(word, m1, m2)
        assert is_normal(rho(word))
    else:
        assert rho(word) == ()
