import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from opfield.groebner import (
    DegreeCapExceeded,
    Ideal,
    _divides,
    buchberger,
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
