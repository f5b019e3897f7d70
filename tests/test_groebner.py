import hashlib
import heapq
import itertools
import random
from fractions import Fraction
from importlib.resources import files
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from opfield import groebner
from opfield.cli import main
from opfield.groebner import (
    DegreeCapExceeded,
    Ideal,
    _divides,
    _reduce_basis,
    buchberger,
    extend_reduced_basis,
    normal_form_list,
    s_poly,
)
from opfield.polynomials import LEX, Poly, PolyRing
from opfield.scalars import FieldSpec, Fp, SpecError


def naive_saturation(gens, rounds=6):
    """Brute-force oracle: close the basis under S-polynomial remainders."""
    basis = [g.monic(LEX) for g in gens if g]
    for _ in range(rounds):
        new = []
        for f, g in itertools.combinations(basis, 2):
            r = normal_form_list(s_poly(f, g), basis + new)
            if r:
                new.append(r.monic(LEX))
        if not new:
            return basis
        basis.extend(new)
    return basis


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


def test_gb_hand_example(rxy):
    # {x^2 - y, y} under lex y > x reduces to {x^2, y}
    x, y = rxy.var("x"), rxy.var("y")
    basis = buchberger([x * x - y, y])
    assert set(basis) == {x * x, y}
    # y > x eliminates y: y = x^2 and x*y = 1 leave x^3 = 1, sorted first
    assert buchberger([x * x - y, x * y - 1]) == (x**3 - 1, y - x * x)


def test_gb_trivial_cases(rxy):
    x = rxy.var("x")
    assert buchberger([]) == ()
    assert buchberger([x, x]) == (x,)


def test_gb_deterministic(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    gens = [x**2 + y, x * y + 1, y**3 - x]
    b1 = buchberger(gens)
    b2 = buchberger(list(reversed(gens)))
    assert b1 == b2


def test_normal_form_examples(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    i1 = Ideal(rxy, [x])
    assert i1.normal_form(x * x) == rxy.zero
    i2 = Ideal(rxy, [x * x])
    assert i2.normal_form(x + 1) == x + 1
    i3 = Ideal(rxy, [x - y])  # y > x: y is rewritten as x
    assert i3.normal_form(x * y) == x * x


def test_membership_matches_bruteforce_oracle():
    rng = random.Random(42)
    ring = PolyRing(("a", "b", "c", "d"))

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 2) for _ in range(4))
            terms[e] = Fraction(rng.randrange(-3, 4))
        return Poly(ring, terms)

    for _ in range(12):
        gens = [rand_poly() for _ in range(rng.randrange(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        oracle = naive_saturation(gens)
        for _ in range(8):
            f = rand_poly()
            mine = ideal.contains(f)
            theirs = not normal_form_list(f, oracle)
            assert mine == theirs


def test_fp_groebner():
    ring = PolyRing(("x", "y"), FieldSpec(2))
    x, y = ring.var("x"), ring.var("y")
    ideal = Ideal(ring, [x * x + y, y * y + y])
    assert ideal.contains(x**4 + x * x)


def test_degree_cap(monkeypatch, rxy):
    x, y = rxy.var("x"), rxy.var("y")
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapExceeded):
        buchberger([x * y - 1, x * x - y])
    monkeypatch.delenv("WORKBENCH_GB_DEGREE_CAP")
    assert buchberger([x * y - 1, x * x - y])


def test_degree_cap_not_an_integer(monkeypatch, rxy):
    x, y = rxy.var("x"), rxy.var("y")
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "abc")
    with pytest.raises(SpecError, match="WORKBENCH_GB_DEGREE_CAP.*'abc'"):
        buchberger([x * y - 1, x * x - y])


def test_degree_cap_negative(monkeypatch, rxy):
    x, y = rxy.var("x"), rxy.var("y")
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "-1")
    with pytest.raises(SpecError, match="WORKBENCH_GB_DEGREE_CAP.*'-1'"):
        buchberger([x * y - 1, x * x - y])
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "0")
    assert buchberger([x - y])


def test_degree_cap_stops_the_found_system(monkeypatch):
    # z < y < x: the answer has degree at most 12, but this pair order meets degree 16 first
    monkeypatch.delenv("WORKBENCH_GB_DEGREE_CAP", raising=False)
    ring = PolyRing(("z", "y", "x"))
    z, y, x = ring.var("z"), ring.var("y"), ring.var("x")
    with pytest.raises(DegreeCapExceeded, match="produced degree 16 beyond cap 12;"):
        buchberger([y * z**2 + 1, x**2 * y**2 + 1, x * y**2 + x**2])


def _cap_outcomes(seed: int, count: int) -> list[str]:
    """For each of `count` seeded random systems in 2-4 variables over Q,
    F_2, F_3 or F_5, its reduced basis as text or its degree-cap message."""
    rng = random.Random(seed)
    outcomes = []
    for _ in range(count):
        nvars = rng.randrange(2, 5)
        ring = PolyRing(("x", "y", "z", "w")[:nvars], FieldSpec(rng.choice((0, 2, 3, 5))))
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {
                tuple(rng.randrange(0, 4) for _ in range(nvars)): ring.domain.coerce(rng.randrange(-3, 4))
                for _ in range(rng.randrange(1, 4))
            }
            gens.append(Poly(ring, terms))
        if rng.random() < 0.2:
            gens.append(rng.choice(gens))
        try:
            outcomes.append("; ".join(map(str, buchberger(gens))))
        except DegreeCapExceeded as exc:
            outcomes.append(str(exc))
    return outcomes


def test_degree_cap_outcomes_are_pinned(monkeypatch):
    # which systems stop at the cap, and where, depends on the pair order; the
    # digest and the hit count were recorded when every pair was still queued
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "8")
    outcomes = _cap_outcomes(23, 300)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    hits = sum(o.startswith("Gröbner computation produced degree") for o in outcomes)
    assert (digest, hits) == ("0e973d25007d4a7308e3acd5d18e379ce5cb855fc170749b6bd1963104b3133d", 49)


def test_equal_flows_realisation_queues_no_pair(monkeypatch):
    # every pair met while realising equal_flows has coprime leads, so no pair
    # waits in the heap and no S-polynomial is formed
    pushes, s_polys = [], []

    def push(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    monkeypatch.setattr(groebner, "s_poly", lambda f, g: s_polys.append((f, g)) or s_poly(f, g))
    path = files("opfield") / "fixtures" / "kernel_equal_flows.json"
    assert main(["kernel", "realize", str(path), "--r", "1", "--order", "8"]) == 0
    assert (len(pushes), len(s_polys)) == (0, 0)


def test_ideal_equality(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    a = Ideal(rxy, [x - y])
    b = Ideal(rxy, [2 * (x - y), (x - y) * y + (x - y)])
    assert a == b
    c = Ideal(rxy, [x])
    assert not (a == c)


def test_saturate_default_ideal(rxy):
    # (x*y) : x^∞ = (y)
    x, y = rxy.var("x"), rxy.var("y")
    # the ideal's generators, then the saturated basis elements it lacks
    saturated = Ideal(rxy, [x * y]).saturate(x)
    assert (saturated.gens, saturated.groebner()) == ((x * y, y), (y,))
    saturated = Ideal(rxy, [x * y]).saturate(x + 1)
    assert (saturated.gens, saturated.groebner()) == ((x * y,), (x * y,))


def test_in_radical_reads_the_saturated_basis_only(rxy, monkeypatch):
    # rad(x^2*y) = (x*y); the verdict needs no generator list, so no membership test
    x, y = rxy.var("x"), rxy.var("y")
    ideal = Ideal(rxy, [x**2 * y])
    monkeypatch.setattr(Ideal, "contains", lambda self, f: pytest.fail("membership test"))
    assert ideal.in_radical(x * y) and ideal.in_radical(x**3 * y**2)
    assert not ideal.in_radical(x) and not ideal.in_radical(x + y)


def test_ideal_is_unhashable(rxy):
    # equal ideals may have different generators, so no hash can agree with ==
    x, y = rxy.var("x"), rxy.var("y")
    with pytest.raises(TypeError):
        hash(Ideal(rxy, [x - y]))


# ---------------------------------------------------------------------------
# random systems: reduced-basis invariants and the sympy oracle
# ---------------------------------------------------------------------------

NAMES = ("x", "y", "z")


@st.composite
def systems(draw):
    """A ring over Q or a small prime field and 1-3 nonzero quadrics in it."""
    ring = PolyRing(NAMES, FieldSpec(draw(st.sampled_from((0, 2, 7)))))
    exps = st.tuples(*[st.integers(0, 2)] * len(NAMES)).filter(lambda e: sum(e) <= 2)
    terms = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=4)
    polys = [
        Poly(ring, {e: ring.domain.coerce(c) for e, c in t.items()})
        for t in draw(st.lists(terms, min_size=1, max_size=3))
    ]
    gens = [p for p in polys if p]
    assume(gens)
    return ring, gens


@settings(max_examples=60, deadline=None)
@given(system=systems())
def test_reduced_basis_invariants(system):
    ring, gens = system
    basis = buchberger(gens)
    leads = [g.lm(LEX) for g in basis]
    assert leads == sorted(leads, key=LEX.key)
    for g in basis:
        assert g.lc(LEX) == ring.domain.one
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            assert i == j or not _divides(a, b)
    for g, lm in zip(basis, leads):
        for e in g.terms:
            assert e == lm or not any(_divides(a, e) for a in leads)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, p: Poly, gens):
    char = p.ring.domain.char
    if char:
        coeffs = {e: c.v for e, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs, *gens, modulus=char).as_expr()
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *gens, domain="QQ").as_expr()


def _from_sympy(g, ring: PolyRing) -> Poly:
    # sympy gives primitive bases over ZZ and symmetric residues mod p, with
    # exponents in the reversed generator order
    char = ring.domain.char
    terms = {
        e[::-1]: Fp(int(c), char) if char else Fraction(int(c.p), int(c.q))
        for e, c in g.terms()
    }
    return Poly(ring, terms).monic(LEX)


@settings(max_examples=60, deadline=None)
@given(system=systems())
def test_buchberger_matches_sympy(sympy, system):
    ring, gens = system
    symbols = sympy.symbols(NAMES)
    char = ring.domain.char
    options = {"modulus": char} if char else {"domain": "QQ"}
    # sympy's lex on the generators reversed, (z, y, x), ranks z > y > x, as LEX does
    theirs = sympy.groebner(
        [_to_sympy(sympy, g, symbols) for g in gens], *symbols[::-1], order="lex", **options
    )
    expected = {_from_sympy(g, ring) for g in theirs.polys}
    assert set(buchberger(gens)) == expected


def test_chain_criterion_reads_a_coprime_pair_that_was_never_queued(sympy, monkeypatch):
    # leads x < x*y < y*z. The pair (x*y, x) pops first; then x divides the
    # lcm x*y*z of (y*z, x*y), and (y*z, x) has coprime leads, so it was
    # never queued, yet its S-polynomial reduces to 0. With both pairs done,
    # the chain criterion skips (y*z, x*y) without forming its S-polynomial.
    ring = PolyRing(NAMES)
    x, y, z = (ring.var(v) for v in NAMES)
    gens = [y * z + 1, x + 2, x * y + 2 * y]
    pushes, formed = [], []

    def push(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    monkeypatch.setattr(groebner, "s_poly", lambda f, g: formed.append((f.lm(LEX), g.lm(LEX))) or s_poly(f, g))
    basis = buchberger(gens)
    assert [item[3] for item in pushes] == [(1, 1, 0), (1, 1, 1)]
    assert formed == [((1, 1, 0), (1, 0, 0))]
    symbols = sympy.symbols(NAMES)
    theirs = sympy.groebner([_to_sympy(sympy, g, symbols) for g in gens], *symbols[::-1], order="lex", domain="QQ")
    assert basis == tuple(sorted((_from_sympy(g, ring) for g in theirs.polys), key=lambda g: LEX.key(g.lm(LEX))))
    assert basis == (x + 2, y * z + 1)


@settings(max_examples=60, deadline=None)
@given(system=systems(), data=st.data())
def test_reduce_basis_of_a_padded_basis_is_the_reduced_basis(system, data):
    # pad the reduced basis G with ideal members: repeats, proper multiples
    # x_v * g, and for each h before g, g + c*m*h with m*lm(h) < lm(g) (m = 1
    # if the drawn m is too big), a lead of G over an unreduced tail; in any
    # order, basis reduction gives G back
    ring, gens = system
    basis = buchberger(gens)
    padded = list(basis)
    for k, g in enumerate(basis):
        padded.append(g)
        padded.append(g * ring.var(data.draw(st.integers(0, len(NAMES) - 1))))
        for h in basis[:k]:
            m = data.draw(st.tuples(*[st.integers(0, 2)] * len(NAMES)))
            mh = Poly(ring, {m: ring.domain.one}) * h
            if LEX.key(mh.lm(LEX)) > LEX.key(g.lm(LEX)):
                mh = h
            padded.append(g + mh.scale(data.draw(st.integers(1, 3))))
    assert _reduce_basis(data.draw(st.permutations(padded))) == basis


@settings(max_examples=60, deadline=None)
@given(system=systems(), data=st.data())
def test_extend_reduced_basis_is_the_reduced_basis(system, data):
    # each rel c*w_k + p, with c a nonzero scalar and p in x, y, z and the w_j
    # before w_k, leads with its own appended variable w_k to degree 1, and
    # the rels come in lead order; the lifted reduced basis extended by them
    # is the reduced basis of the whole, also when the basis is (1)
    ring, gens = system
    ext = ring.extend(("w0", "w1", "w2"))
    basis = [ext.lift(g) for g in buchberger(gens)]
    rels = []
    for k in range(data.draw(st.integers(1, 3))):
        width = len(NAMES) + k
        exps = st.tuples(*[st.integers(0, 2)] * width).filter(lambda e: sum(e) <= 2)
        tail = data.draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))
        c = data.draw(st.sampled_from((1, 3, 5)))
        terms = {e + (0,) * (ext.nvars - width): ext.domain.coerce(v) for e, v in tail.items()}
        rels.append(ext.var(width).scale(c) + Poly(ext, terms))
    assert extend_reduced_basis(basis, rels) == buchberger(basis + rels)
