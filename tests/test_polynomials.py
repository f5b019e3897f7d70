import random
from fractions import Fraction
from importlib.resources import files
from math import gcd

import pytest
from helpers import leading_v_coeff
from hypothesis import assume, example, given, settings, strategies as st

from opfield import polynomials
from opfield.cli import main
from opfield.commutation import GammaSystem
from opfield.dfields import DField
from opfield.groebner import buchberger, normal_form_list
from opfield.kernels import Kernel
from opfield.local_algebra import derivation_algebra
from opfield.polynomials import (
    Frac,
    FracDomain,
    ParseError,
    Poly,
    PolyRing,
    _normalize,
    _normalize_general,
    _rescale,
    exact_div,
    grevlex_key,
    parse_frac,
    parse_poly,
    poly_str,
)
from opfield.scalars import FieldSpec, Fp, SpecError, is_prime


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


def test_basic_arithmetic(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert p - p == rxy.zero
    assert not rxy.zero
    assert (x * 0) == rxy.zero


def test_no_zero_coefficients_stored(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    p = x + y - x
    assert set(p.terms) == {(0, 1)}
    q = x - x
    assert q.terms == {}


def test_grevlex_vs_lex(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    p = x**3 + x * y
    # grevlex: degree 3 term wins
    assert max(p.terms, key=grevlex_key) == (3, 0)
    # the lead is lex with y > x: x*y wins
    assert p.lm() == (1, 1)


def test_fp_polynomials():
    ring = PolyRing(("x",), FieldSpec(3))
    x = ring.var("x")
    assert (x + 1) ** 3 == x**3 + 1
    assert 2 * x + x == ring.zero


def test_fp_matches_integers_mod_p():
    rng = random.Random(7)
    for _ in range(10_000):
        p = rng.choice([2, 3, 5, 7, 101])
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert (Fp(a, p) + Fp(b, p)).v == (a + b) % p
        assert (Fp(a, p) * Fp(b, p)).v == (a * b) % p
        assert (Fp(a, p) - Fp(b, p)).v == (a - b) % p
        if b % p:
            q = Fp(a, p) / Fp(b, p)
            assert (q * Fp(b, p)).v == a % p


def test_field_spec_validation():
    with pytest.raises(SpecError):
        FieldSpec(char=4)
    with pytest.raises(SpecError):
        FieldSpec(gens=("t", "t"))
    spec = FieldSpec(char=5, gens=("t",))
    assert spec.coerce("3/2") == Fp(3, 5) / Fp(2, 5)


def test_is_prime_matches_trial_division():
    bound = 200_000
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for d in range(2, int(bound**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, bound, d)))
    assert [n for n in range(bound) if is_prime(n)] == [n for n in range(bound) if sieve[n]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 31
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    assert not is_prime((2**31 - 1) ** 2)


def test_characteristics_stop_below_2_to_the_64():
    assert FieldSpec(char=2**64 - 59).char == 2**64 - 59
    for char in (2**64, 2**64 + 13):
        with pytest.raises(SpecError, match=r"not below 2\^64"):
            FieldSpec(char=char)


@pytest.mark.parametrize("char", [0, 3])
def test_field_spec_builds_one_and_zero_once(char):
    f = FieldSpec(char)
    assert f.one is f.one and f.zero is f.zero and (f.one, f.zero) == (1, 0)
    # over Q a coefficient one is the int 1; the field's own one stays a Fraction
    coeff = PolyRing(("x",), f).one.terms[(0,)]
    assert (type(coeff), coeff) == (int, 1) if char == 0 else coeff is f.one
    assert f == FieldSpec(char) and hash(f) == hash(FieldSpec(char)) and f != FieldSpec(char, ("t",))


def test_exact_div(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    assert exact_div(x * x - y * y, x - y) == x + y
    assert exact_div(x * x + 1, x) is None


def _grevlex_lead(p: Poly):
    e = max(p.terms, key=grevlex_key)
    return e, p.terms[e]


def _grevlex_exact_div(f: Poly, g: Poly) -> Poly | None:
    """Reference: exact division reading leads in grevlex."""
    if not f:
        return f.ring.zero
    quo: dict = {}
    rem = f
    ge, gc = _grevlex_lead(g)
    while rem:
        e, c = _grevlex_lead(rem)
        if any(a < b for a, b in zip(e, ge)):
            return None
        q = tuple(a - b for a, b in zip(e, ge))
        qc = c / gc
        quo[q] = qc
        rem = rem - Poly(f.ring, {q: qc}) * g
    return Poly(f.ring, quo)


@pytest.mark.parametrize("char", [0, 3, 7])
def test_exact_div_agrees_with_grevlex_reference(char):
    # {g} is a Gröbner basis of (g) in every order, so the order of the
    # leads changes neither the quotient nor the None verdict
    rng = random.Random(char)
    ring = PolyRing(("x", "y", "z"), FieldSpec(char))

    def rand_poly():
        terms = {
            tuple(rng.randrange(0, 3) for _ in range(3)): ring.domain.coerce(rng.randrange(-4, 5))
            for _ in range(rng.randrange(1, 4))
        }
        return Poly(ring, terms)

    nones = 0
    for _ in range(150):
        g, q, f = rand_poly(), rand_poly(), rand_poly()
        if not g:
            continue
        assert exact_div(g * q, g) == _grevlex_exact_div(g * q, g) == q
        ours = exact_div(f, g)
        assert ours == _grevlex_exact_div(f, g)
        nones += ours is None
    assert nones > 50


def test_frac_normalization(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    f = Frac(x * x - y * y, x - y)
    assert f.num == x + y and f.den == rxy.one
    g = Frac(rxy.const(2) * x, rxy.const(4))
    assert g.num == x and g.den == rxy.const(2)
    # denominator positive leading coefficient over Q
    h = Frac(x, -y)
    assert _grevlex_lead(h.den)[1] > 0


def test_frac_arithmetic(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    a = Frac(rxy.one, x)
    b = Frac(rxy.one, y)
    s = a + b
    assert s == Frac(x + y, x * y)
    assert a * b == Frac(rxy.one, x * y)
    assert (a / b) == Frac(y, x)
    assert a - a == Frac(rxy.zero, rxy.one)


def test_frac_univariate_gcd_cancellation():
    ring = PolyRing(("t",))
    t = ring.var("t")
    f = Frac(t**2 + 2 * t + 1, t**2 - 1)
    assert f == Frac(t + 1, t - 1)
    assert f.num == t + 1


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
        max_size=6,
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
        min_size=1,
        max_size=4,
    ),
)
def test_normalize_idempotent(num_terms, den_terms):
    ring = PolyRing(("x", "y"))
    num = Poly(ring, {(a, b): Fraction(c) for a, b, c in num_terms})
    den = Poly(ring, {(a, b): Fraction(c) for a, b, c in den_terms})
    if not den:
        den = ring.one
    f = Frac(num, den)
    g = Frac(f.num, f.den)
    assert g.num == f.num and g.den == f.den


def _rat_content(p: Poly) -> Fraction:
    """The Q content of `p`, the gcd of its numerators over the lcm of its denominators."""
    nums = [c.numerator for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    return Fraction(g, l)


def _two_pass_rescale(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The reference for `_rescale` over Q: num's and den's contents taken
    one by one, then combined into a gcd over an lcm."""
    ring = num.ring
    if den.is_const():
        num, den = num.scale(1 / den.const_value()), ring.one
    cn, cd = _rat_content(num), _rat_content(den)
    g = Fraction(gcd(cn.numerator, cd.numerator), (cn.denominator * cd.denominator) // gcd(cn.denominator, cd.denominator))
    sign = -1 if _grevlex_lead(den)[1] < 0 else 1
    scale = 1 / (g * sign)
    return num.scale(scale), den.scale(scale)


RATIONAL_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-50, max_value=50, max_denominator=36).filter(bool),
    min_size=1,
    max_size=5,
)


@given(RATIONAL_TERMS, RATIONAL_TERMS)
def test_one_pass_content_scale_matches_two_pass(num_terms, den_terms):
    # each coefficient is in lowest terms, so the gcd of the numerators is
    # coprime to the lcm of the denominators, and one pass over num and den
    # together gives the contents' gcd over their lcm
    ring = PolyRing(("x", "y"))
    num, den = Poly(ring, num_terms), Poly(ring, den_terms)
    expected = _two_pass_rescale(num, den)
    got = _rescale(num, den)
    assert got == expected
    assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in expected]


def _const(ring, n: int, k: int) -> Poly:
    """The constant n/k of `ring`; n/k must be nonzero in its field."""
    dom = ring.domain
    value = dom.coerce(n) / dom.coerce(k) if dom.coerce(k) else dom.coerce(0)
    assume(value)
    return ring.const(value)


CHARS = st.sampled_from((0, 2, 3, 7))
NONZERO = st.integers(-20, 20).filter(bool)


@given(st.sampled_from((0, 2, 3, 7, "t")), st.integers(0, 2), NONZERO, NONZERO, NONZERO, NONZERO)
def test_normalize_constant_fast_path_matches_general(char, nvars, a, b, c, d):
    if char == "t":
        rt = PolyRing(("t",))
        ring = PolyRing(("x", "y")[:nvars], FracDomain(rt))
        num, den = ring.const(_qt_coeff(rt, a, b)), ring.const(_qt_coeff(rt, c, d))
    else:
        ring = PolyRing(("x", "y")[:nvars], FieldSpec(char))
        num, den = _const(ring, a, b), _const(ring, c, d)
    fast, general = _normalize(num, den), _normalize_general(num, den)
    assert fast == general
    coeff_types = [[type(v) for v in p.terms.values()] for p in (*fast, *general)]
    assert coeff_types[:2] == coeff_types[2:]


@given(CHARS, NONZERO, NONZERO, NONZERO, NONZERO)
def test_constant_frac_equality_and_hash(char, a, b, c, d):
    ring = PolyRing((), FieldSpec(char))
    num, den = _const(ring, a, 1), _const(ring, b, 1)
    f = Frac(num, den)
    # the same value as the general normalisation gives it, bit for bit
    g = Frac(*_normalize_general(num, den), normalize=False)
    assert f == g and hash(f) == hash(g)
    assert (f.num.terms, f.den.terms) == (g.num.terms, g.den.terms)
    h = Frac(_const(ring, c, 1), _const(ring, d, 1))
    field = ring.domain
    same = field.coerce(a) / field.coerce(b) == field.coerce(c) / field.coerce(d)
    assert (f == h) == same
    if same:
        assert hash(f) == hash(h)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


_SCALAR_RINGS = {"Q": PolyRing(()), "F5": PolyRing((), FieldSpec(5)), "Q(t)": PolyRing(("t",)),
                 "Q(s,t)": PolyRing(("s", "t"))}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_SCALAR_RINGS)), st.integers(-20, 20), NONZERO)
def test_values_equal_to_a_scalar_hash_like_it(kind, n, k):
    # a constant Poly or Frac equals its scalar value, so a set holds one of
    # the two; a Frac of constant value has constant parts, also when its
    # parts cancel a variable
    ring = _SCALAR_RINGS[kind]
    dom = ring.domain
    assume(dom.coerce(k))
    value = dom.coerce(n) / dom.coerce(k)
    scalars = [value] + ([int(value)] if kind != "F5" and value.denominator == 1 else [])
    values = [ring.const(value), Frac(ring.const(n), ring.const(k)), parse_frac(ring, f"({n})/({k})")]
    if ring.nvars:
        f = ring.var(0) + ring.var(ring.nvars - 1) + 1
        values += [Frac(ring.const(value) * f, f), Frac(f, f) * value]
    for v in values:
        assert not isinstance(v, Frac) or (v.num.is_const() and v.den.is_const())
        for c in scalars:
            assert v == c and hash(v) == hash(c) and len({v, c}) == 1


def _univariate(ring, coeffs) -> Poly:
    return Poly(ring, {(k,): ring.domain.coerce(c) for k, c in enumerate(coeffs)})


def _sympy_poly(sympy, p: Poly, t):
    char = p.ring.domain.char
    if char:
        return sympy.Poly.from_dict({e: c.v for e, c in p.terms.items()}, t, modulus=char)
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, t, domain="QQ")


UNIVARIATE = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((0, 5)), UNIVARIATE, UNIVARIATE, UNIVARIATE)
def test_univariate_normalisation_matches_sympy(sympy, char, a, b, c):
    # a shared factor c makes most draws cancel something
    ring = PolyRing(("t",), FieldSpec(char))
    num, den = _univariate(ring, a) * _univariate(ring, c), _univariate(ring, b) * _univariate(ring, c)
    assume(num and den)
    f = Frac(num, den)
    t = sympy.Symbol("t")
    theirs_num, theirs_den = _sympy_poly(sympy, num, t), _sympy_poly(sympy, den, t)
    ours_num, ours_den = _sympy_poly(sympy, f.num, t), _sympy_poly(sympy, f.den, t)
    scale, cancelled_num, cancelled_den = theirs_num.cancel(theirs_den)
    assert (ours_num * cancelled_den - (ours_den * cancelled_num).mul_ground(scale)).is_zero
    assert ours_num.gcd(ours_den).degree() == 0


# Q(t)[a]: its fractions are K(a) over K = Q(t), as extend_separable builds them
K_OF_A = PolyRing(("a",), FracDomain(PolyRing(("t",))))


@pytest.mark.parametrize(
    "ring, text, expected",
    [
        (PolyRing(("t",)), "(t^3 - t)/(2*t^2 - 2)", ("t", "2")),
        (PolyRing(("t",)), "(3*t^4 - 2*t)/(6*t^2 + 4*t)", ("3*t^3 - 2", "6*t + 4")),
        (PolyRing(("t",), FieldSpec(3)), "(t^3 - t)/(t^2 + 2*t + 1)", ("t^2 + 2*t", "t + 1")),
        (PolyRing(("t",), FieldSpec(3)), "(2*t^2 + 1)/(2*t^3 + 2*t)", ("t^2 + 2", "t^3 + t")),
        (K_OF_A, "((a - t)*(a + 1))/((a - t)*(t*a + 1))", ("((1)/(t))*a + ((1)/(t))", "a + ((1)/(t))")),
        (K_OF_A, "(a^2 - t^2)/(2*t*a + 2*t^2)", ("((1)/(2*t))*a + ((-1)/(2))", "(1)")),
        (PolyRing(("x", "y", "z")), "(x*y)/(x*z)", ("x*y", "x*z")),
        (PolyRing(("x", "y", "z")), "(x^2 - y^2)/(x - y)", ("x + y", "1")),
        (PolyRing(("x", "y", "z")), "(2*x*y + 4*y)/(6*z)", ("x*y + 2*y", "3*z")),
    ],
    ids=["q", "q_content", "f3", "f3_coprime", "k_of_a", "k_of_a_exact", "xyz_kept", "xyz_exact", "xyz_const"],
)
def test_normalized_text_is_pinned(ring, text, expected):
    # reports print these pairs: a faster cancellation must keep them as they are
    def resolve(name):
        if name == "t" and ring is K_OF_A:
            rt = ring.domain.base
            return ring.const(Frac(rt.var(0), rt.one))
        return None

    f = parse_frac(ring, text, resolve=resolve)
    assert (str(f.num), str(f.den)) == expected


def _qt_coeff(rt, n, k):
    """n*t/k + 1 as a constant of Q(t), or n/k when k is even."""
    value = Frac(rt.const(Fraction(n, k)), rt.one)
    return value * Frac(rt.var(0), rt.one) + 1 if k % 2 else value


@given(
    st.sampled_from((0, 2, 3, 7, "t")),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), NONZERO, NONZERO), min_size=1, max_size=4),
    NONZERO,
    NONZERO,
)
def test_constant_denominator_divides_like_exact_div(char, num_terms, c, d):
    # dividing (q, 1) by the constant 1 leaves q, so `theirs` is the scaling
    # step applied to the quotient exact_div finds
    if char == "t":
        rt = PolyRing(("t",))
        ring = PolyRing(("x", "y"), FracDomain(rt))
        num = Poly(ring, {(i, j): _qt_coeff(rt, n, k) for i, j, n, k in num_terms})
        den = ring.const(_qt_coeff(rt, c, d))
    else:
        ring = PolyRing(("x", "y"), FieldSpec(char))
        num = sum((_const(ring, n, k) * Poly(ring, {(i, j): ring.domain.one}) for i, j, n, k in num_terms), ring.zero)
        den = _const(ring, c, d)
    assume(num)
    ours = _normalize_general(num, den)
    theirs = _normalize_general(exact_div(num, den), ring.one)
    assert ours == theirs
    assert [str(p) for p in ours] == [str(p) for p in theirs]


def _ref_mul(p: Poly, q: Poly) -> Poly:
    """p * q by the plain double loop, terms in the order the loop meets them."""
    res: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = res.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                res[e] = s
            elif e in res:
                del res[e]
    return Poly(p.ring, res)


def _ref_add(p: Poly, q: Poly) -> Poly:
    """p + q by merging q's terms into a copy of p's."""
    res = dict(p.terms)
    for e, c in q.terms.items():
        s = res.get(e)
        s = c if s is None else s + c
        if s:
            res[e] = s
        elif e in res:
            del res[e]
    return Poly(p.ring, res)


def _ref_sub(p: Poly, q: Poly) -> Poly:
    return _ref_add(p, -q)


def _cross(u: Frac, v: Frac, op: str) -> tuple[Poly, Poly]:
    """The (num, den) pair the general formula builds for u op v, by the reference loops."""
    if op in "+-":
        join = _ref_add if op == "+" else _ref_sub
        return join(_ref_mul(u.num, v.den), _ref_mul(v.num, u.den)), _ref_mul(u.den, v.den)
    if op == "*":
        return _ref_mul(u.num, v.num), _ref_mul(u.den, v.den)
    return _ref_mul(u.num, v.den), _ref_mul(u.den, v.num)


_REF_DOMAINS = {"q": FieldSpec(0), "f5": FieldSpec(5), "qt": FracDomain(PolyRing(("t",)))}
_REF_TERMS = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3), NONZERO, NONZERO), min_size=2, max_size=4)
_SHAPES = ("zero", "one", "const", "monomial", "general")


def _shaped(kind, ring, shape, terms) -> Poly:
    """A polynomial of `ring` of the given shape, its coefficients read from terms."""
    dom = ring.domain

    def coeff(n, k):
        if kind == "qt":
            return _qt_coeff(dom.base, n, k)
        return Fraction(n, k) if kind == "q" else dom.coerce(n)

    (e, n, k), zero = terms[0], (0,) * ring.nvars
    if shape == "zero":
        return ring.zero
    if shape == "one":
        return ring.one
    if shape == "const":
        return Poly(ring, {zero: coeff(n, k)})
    if shape == "monomial":
        e = e[: ring.nvars] if any(e[: ring.nvars]) else (1,) + zero[1:]
        return Poly(ring, {e: coeff(n, k)})
    return Poly(ring, {e[: ring.nvars]: coeff(n, k) for e, n, k in terms})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_REF_DOMAINS)), st.integers(1, 3), _REF_TERMS, _REF_TERMS)
@example("q", 1, [((0, 0, 0), 1, 1)] * 2, [((0, 0, 0), 1, 1)] * 2)  # ring.one times a Fraction(1)
def test_products_and_sums_match_the_reference_loops(kind, nvars, p_terms, q_terms):
    # a zero, one, constant or monomial operand skips the double loop; every
    # shape pair must give the loop's terms, in its order and of its types,
    # except that a product by a factor equal to one returns the other
    # factor itself, which over Q may hold an int where the loop has an
    # integral Fraction
    ring = PolyRing(("x", "y", "z")[:nvars], _REF_DOMAINS[kind])
    for p_shape in _SHAPES:
        for q_shape in _SHAPES:
            p, q = _shaped(kind, ring, p_shape, p_terms), _shaped(kind, ring, q_shape, q_terms)
            for ours, ref in [(p * q, _ref_mul(p, q)), (p + q, _ref_add(p, q)), (p - q, _ref_sub(p, q))]:
                assert ours.terms == ref.terms, (p_shape, q_shape)
                assert list(ours.terms) == list(ref.terms), (p_shape, q_shape)
                for c, r in zip(ours.terms.values(), ref.terms.values()):
                    assert type(c) is type(r) or (type(c), type(r), r.denominator) == (int, Fraction, 1)
    p = _shaped(kind, ring, "general", p_terms)
    if len(p.terms) > 1:  # else p may be zero or one itself, and either operand is the answer
        assert p * ring.one is p and ring.one * p is p
        assert p + ring.zero is p and ring.zero + p is p


def _ref_deriv(p: Poly, i: int) -> dict:
    """The terms of d/dx_i p, term by term: distinct terms stay distinct, and
    a coefficient that vanishes (p divides e[i] in char p) is dropped."""
    shifted = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]}
    return {e: c for e, c in shifted.items() if c}


_ZERO_FREE_DOMAINS = {"q": FieldSpec(0), "f2": FieldSpec(2), "f3": FieldSpec(3), "qt": FracDomain(PolyRing(("t",)))}
_ZERO_FREE_TERMS = st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * 2), NONZERO, NONZERO), max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ZERO_FREE_DOMAINS)), _ZERO_FREE_TERMS, _ZERO_FREE_TERMS, NONZERO)
@example("f3", [((3, 1), 1, 1), ((1, 0), 2, 1)], [((0, 0), 1, 1)], 2)  # d/dx x^3*y = 3x^2*y = 0
def test_no_poly_holds_a_zero_coefficient(kind, p_terms, q_terms, scalar):
    # `Poly` keeps a zero-free terms dict as it is and filters any other, so
    # every way of building one must end without a zero coefficient
    ring = PolyRing(("x", "y"), _ZERO_FREE_DOMAINS[kind])
    dom = ring.domain

    def poly(terms) -> Poly:  # over F_p some coefficients are zero
        if kind == "qt":
            return Poly(ring, {e: _qt_coeff(dom.base, n, k) for e, n, k in terms})
        return Poly(ring, {e: Fraction(n, k) if kind == "q" else dom.coerce(n) for e, n, k in terms})

    def zero_free(f: Poly) -> Poly:
        assert all(f.terms.values()), f.terms
        return f

    p, q = zero_free(poly(p_terms)), zero_free(poly(q_terms))
    for ours, ref in [(p * q, _ref_mul(p, q)), (p + q, _ref_add(p, q)), (p - q, _ref_sub(p, q))]:
        assert zero_free(ours).terms == ref.terms
    zero_free(p.scale(scalar))
    zero_free(p.monic())
    for i in (0, 1):
        assert zero_free(p.deriv(i)).terms == _ref_deriv(p, i)
    assert zero_free(PolyRing(("x", "y", "z"), dom).lift(p)).terms == {e + (0,): c for e, c in p.terms.items()}


# the coefficient rings of every kind a `Frac` meets: Q, F_p, the bare
# fraction field of a ring with no generators (jet rings over Q) and Q(t)
_DEN_ONE_DOMAINS = {
    "q": FieldSpec(0), "f2": FieldSpec(2), "f3": FieldSpec(3), "f7": FieldSpec(7),
    "bare": FracDomain(PolyRing(())), "qt": FracDomain(PolyRing(("t",))),
}
_DEN_ONE_TERMS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), NONZERO, NONZERO), max_size=3)


def _den_one_frac(kind, ring, terms) -> Frac:
    """A normalized `Frac` of `ring` with denominator one; over Q its
    coefficients are integers, as normalization makes them."""
    dom = ring.domain

    def coeff(n, k):
        if kind == "qt":
            return _qt_coeff(dom.base, n, k)
        return Fraction(n, k) if kind == "bare" else dom.coerce(n)

    num = sum((Poly(ring, {(i, j): coeff(n, k)}) for i, j, n, k in terms), ring.zero)
    f = Frac(num, ring.one)
    assert f.den == ring.one
    return f


def _matches_general(fast: Frac, num: Poly, den: Poly):
    """fast is the pair `_normalize_general` makes of num/den, term for term and in print."""
    ring = num.ring
    ref = _normalize_general(num, den) if num else (ring.zero, ring.one)
    assert (fast.num.terms, fast.den.terms) == (ref[0].terms, ref[1].terms)
    assert str(fast) == str(Frac(*ref, normalize=False))
    for ours, theirs in zip((fast.num, fast.den), ref):
        assert [type(c) for c in ours.terms.values()] == [type(c) for c in theirs.terms.values()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DEN_ONE_DOMAINS)), _DEN_ONE_TERMS, _DEN_ONE_TERMS)
def test_denominator_one_fast_paths_match_general(kind, a_terms, b_terms):
    # a + b, a - b and a * b skip normalization; the pairs the general
    # formula builds, normalized, must be the same pairs and print the same
    ring = PolyRing(("x", "y"), _DEN_ONE_DOMAINS[kind])
    a, b = _den_one_frac(kind, ring, a_terms), _den_one_frac(kind, ring, b_terms)
    cases = [
        (a + b, _cross(a, b, "+")),
        (a - b, _cross(a, b, "-")),
        (a * b, _cross(a, b, "*")),
        (a - a, _cross(a, a, "-")),
    ]
    for fast, (num, den) in cases:
        _matches_general(fast, num, den)


# the one-variable rings, whose `+ - * /` follow Henrici's rule
_HENRICI_RINGS = {"q": PolyRing(("t",)), "f5": PolyRing(("t",), FieldSpec(5)), "qt": K_OF_A}
SHORT_UNIVARIATE = st.lists(st.integers(-5, 5), min_size=1, max_size=3)


def _henrici_poly(kind, coeffs) -> Poly:
    """sum c_k x^k; in K_OF_A, where Euclid on the reference's products is
    slow, only up to degree 1, and an odd c_k stands for c_k/2 and an even
    one for c_k t + 1."""
    ring = _HENRICI_RINGS[kind]
    if kind != "qt":
        return _univariate(ring, coeffs)
    rt = ring.domain.base
    return Poly(ring, {(k,): _qt_coeff(rt, c, 2 if c % 2 else 1) for k, c in enumerate(coeffs[:2]) if c})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_HENRICI_RINGS)), st.integers(-5, 5), *[SHORT_UNIVARIATE] * 5)
def test_henrici_arithmetic_matches_general(kind, h, a, b, c, d, w):
    # x and y share the degree-one factor h in their denominators; z = w/b - x
    # keeps h in its own, so in x + z the sum t shares a factor with
    # g = gcd(b, d) as well. x * z, x / y and z * y reach both cross gcds of `*`.
    ring = _HENRICI_RINGS[kind]
    h, a, b, c, d, w = (_henrici_poly(kind, p) for p in ([-h, 2], a, b, c, d, w))
    assume(a and b and c and d and w)
    x, y = Frac(a, h * b), Frac(c, h * d)
    z = Frac(w * x.den - x.num * b, b * x.den)
    assume(z)
    const = Frac(a, ring.const(6))  # over Q a constant denominator other than one
    poly = Frac(c, ring.one)
    for u, v in [(x, y), (x, z), (z, y), (x, const), (const, poly), (poly, x), (x, x)]:
        _matches_general(u + v, *_cross(u, v, "+"))
        _matches_general(u - v, *_cross(u, v, "-"))
        _matches_general(u * v, *_cross(u, v, "*"))
        _matches_general(u / v, *_cross(u, v, "/"))
        _matches_general(v.num / u, _ref_mul(v.num, u.den), u.num)  # Frac.__rtruediv__
        _matches_general(3 / u, _ref_mul(ring.const(3), u.den), u.num)


def _parse_henrici(ring, text) -> Frac:
    """text as a fraction of `ring`, where t names Q(t)'s variable in K_OF_A."""
    def resolve(name):
        if name == "t" and ring is K_OF_A:
            rt = ring.domain.base
            return ring.const(Frac(rt.var(0), rt.one))
        return None

    return parse_frac(ring, text, resolve=resolve)


@pytest.mark.parametrize("kind", sorted(_HENRICI_RINGS))
def test_sum_over_one_denominator_cancels_against_it_only(kind, monkeypatch):
    # 1/(x(x + s)) + (2x + 2s - 1)/(x(x + s)) = 2/x, for s = 1 or t: the
    # sum's numerator shares the factor x + s with the one denominator, and
    # u - u is the zero
    ring = _HENRICI_RINGS[kind]
    x = ring.names[0]
    shift = "t" if kind == "qt" else "1"
    u = _parse_henrici(ring, f"1/({x}*({x} + {shift}))")
    v = _parse_henrici(ring, f"(2*{x} + 2*{shift} - 1)/({x}*({x} + {shift}))")
    assert u.den == v.den
    calls = []  # Euclid's runs in `ring`, not in the coefficients' Q[t]
    cancel = polynomials._cancel_univariate
    spy = lambda num, den, i: (num.ring is ring and calls.append((num, den))) or cancel(num, den, i)
    monkeypatch.setattr(polynomials, "_cancel_univariate", spy)
    total = u + v
    assert calls == [(_ref_add(u.num, v.num), u.den)]  # none on (b, b)
    assert str(total) == str(_parse_henrici(ring, f"2/{x}"))
    _matches_general(total, *_cross(u, v, "+"))
    for w in (u, v):
        calls.clear()
        zero = w - w
        assert not calls and zero.num == ring.zero and zero.den is ring.one
        _matches_general(zero, *_cross(w, w, "-"))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_HENRICI_RINGS)), st.integers(-5, 5), *[SHORT_UNIVARIATE] * 3)
def test_sums_over_one_denominator_match_general(kind, h, a, k, q):
    # u = a/(hk) and v = (hq - a)/(hk) share one denominator, and u + v = q/k
    # cancels h, a factor the sum's numerator shares with it
    h, a, k, q = (_henrici_poly(kind, p) for p in ([-h, 2], a, k, q))
    assume(a and k and q)
    b = _ref_mul(h, k)
    u, v = Frac(a, b), Frac(_ref_sub(_ref_mul(h, q), a), b)
    assume(v and u.den == v.den)
    for x, y in [(u, v), (v, u), (u, u), (u, -v), (v, -u)]:
        _matches_general(x + y, *_cross(x, y, "+"))
        _matches_general(x - y, *_cross(x, y, "-"))


def _zero_rule_fracs():
    """Q(t), F_5(t) and Q[x, y, z] with fractions of each kind, the last
    with the partial cancellation of Frac(x*y, x*z)."""
    qt, f5t, qxyz = PolyRing(("t",)), PolyRing(("t",), FieldSpec(5)), PolyRing(("x", "y", "z"))
    for ring in (qt, f5t):
        yield ring, [parse_frac(ring, text) for text in ("(t^2 + 1)/(2*t - 3)", "3/t", "t - 4", "2/3")]
    x, y, z = (qxyz.var(v) for v in "xyz")
    yield qxyz, [Frac(x * y, x * z), Frac(x + 2 * y, qxyz.const(3) * z), Frac(z, qxyz.one)]


@pytest.mark.parametrize("ring, fracs", list(_zero_rule_fracs()), ids=["Q(t)", "F5(t)", "Q[x,y,z]"])
def test_zero_operand_returns_at_once_and_matches_general(ring, fracs):
    # u + 0 and 0 + u are u, u * 0, 0 * u and 0 / u the zero: the pairs the
    # general formula builds and normalizes, since normalization is idempotent
    zero = Frac(ring.zero, ring.one)
    for u in fracs:
        assert u + zero is u and zero + u is u and u - zero is u
        assert u * zero is zero and zero * u is zero and zero / u is zero
        for a, b in [(u, zero), (zero, u)]:
            _matches_general(a + b, *_cross(a, b, "+"))
            _matches_general(a - b, *_cross(a, b, "-"))
            _matches_general(a * b, *_cross(a, b, "*"))
        _matches_general(zero / u, *_cross(zero, u, "/"))
        _matches_general(u + 0, u.num, u.den)
        _matches_general(0 * u, ring.zero, ring.one)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_HENRICI_RINGS)), *[SHORT_UNIVARIATE] * 4)
def test_univariate_frac_equality_is_cross_multiplication(kind, a, b, c, d):
    # in a one-variable ring == compares the parts, which agrees with
    # cross-multiplication because a normalized fraction is unique there
    a, b, c, d = (_henrici_poly(kind, p) for p in (a, b, c, d))
    assume(b and d)
    u, v, w = Frac(a, b), Frac(c, d), Frac(a * d, b * d)
    for f, g in [(u, v), (u, w), (v, w), (u, u)]:
        assert (f == g) == (f.num * g.den == g.num * f.den)
        assert f != g or hash(f) == hash(g)
    assert u == w


def test_equal_fractions_hash_alike_with_partial_cancellation():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    a, b = Frac(x * y, x * z), Frac(y, z)
    # with two or more variables no gcd is taken, so equal fractions keep different parts
    assert (a.num, a.den) != (b.num, b.den)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_cached_ones_are_shared_and_never_drift(monkeypatch, capsys):
    ring = PolyRing(("x", "y"))
    assert ring.one is ring.one
    dom = FracDomain(PolyRing(("t",)))
    assert dom.one is dom.one

    rings = []
    init = PolyRing.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rings.append(self)

    monkeypatch.setattr(PolyRing, "__init__", recording_init)
    fixture = files("opfield") / "fixtures" / "kernel_riccati_qt.json"
    assert main(["kernel", "realize", str(fixture), "--r", "1", "--order", "4"]) == 0
    capsys.readouterr()
    assert any(isinstance(r.domain, FracDomain) and r.domain.base.names for r in rings)
    for r in rings:
        one = r.domain.one
        assert r.one.terms == {(0,) * r.nvars: one}
        if isinstance(one, Frac):
            assert (one.num.terms, one.den.terms) == ({(0,) * r.domain.base.nvars: Fraction(1)},) * 2


@given(CHARS, NONZERO, NONZERO)
def test_bare_frac_domain_holds_scalars_printed_as_constant_fracs(char, a, b):
    base = PolyRing((), FieldSpec(char))
    dom = FracDomain(base)
    f = Frac(_const(base, a, 1), _const(base, b, 1))
    value = dom.coerce(f)
    assert type(value) is type(dom.one) is (Fraction if char == 0 else Fp)
    assert value == base.domain.coerce(a) / base.domain.coerce(b)
    assert dom.coerce(base.const(a)) == dom.coerce(a) == base.domain.coerce(a)
    assert dom.to_str(value) == f"({f})"


def test_bare_frac_domain_refuses_fractions_over_generators():
    dom = FracDomain(PolyRing((), FieldSpec(0)))
    rt = PolyRing(("t",))
    for foreign in (Frac(rt.one, rt.var("t")), Frac(rt.const(2), rt.one), rt.var("t")):
        with pytest.raises(SpecError):
            dom.coerce(foreign)


@pytest.mark.parametrize("char, kind", [(0, int), (3, Fp)])
def test_kernel_over_bare_field_has_scalar_coefficients(char, kind):
    # over Q the basis of a relation with integer coefficients holds ints
    spec = FieldSpec(char)
    field = DField(spec, GammaSystem(derivation_algebra(1, char=char), None, {}, {}, spec), {})
    k = Kernel(field, 1, 1, ["x1_[1,1] - 2*x1_[]^2 - x1_[] + 1"]).prolong()
    coeffs = [c for g in k.ideal.groebner() for c in g.terms.values()]
    assert coeffs and all(type(c) is kind for c in coeffs)


def test_poly_str_roundtrip(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    p = Fraction(3, 2) * x**2 * y - rxy.one
    s = poly_str(p)
    assert s == "3/2*x^2*y - 1"
    assert parse_poly(rxy, s) == p
    assert parse_poly(rxy, "x^2 - y") == x * x - y
    assert parse_poly(rxy, "-x + 1") == 1 - x
    assert parse_poly(rxy, "1/2*x") == x.scale(Fraction(1, 2))


def test_parse_jet_names():
    ring = PolyRing(("x1_[]", "x1_[1,1]"))
    p = parse_poly(ring, "x1_[1,1] - x1_[]^2")
    assert p == ring.var(1) - ring.var(0) ** 2


def test_parse_fraction():
    ring = PolyRing(("t",))
    t = ring.var("t")
    f = parse_frac(ring, "-1/t")
    assert f == Frac(ring.const(-1), t)
    assert parse_frac(ring, "(t^2 + 1)/(t - 1)") == Frac(t**2 + 1, t - 1)


def test_parse_errors(rxy):
    with pytest.raises(ParseError):
        parse_poly(rxy, "x +")
    with pytest.raises(ParseError):
        parse_poly(rxy, "z + 1")
    with pytest.raises(ParseError):
        parse_poly(rxy, "x ? y")
    with pytest.raises(ParseError):
        parse_poly(rxy, "1/x")  # proper fraction is not a polynomial


def test_subst(rxy):
    x, y = rxy.var("x"), rxy.var("y")
    p = x * x + y
    assert p.subst({0: rxy.const(2), 1: rxy.const(3)}) == rxy.const(7)
    # a coefficient map sends 2x^2 - y into Q[t] with coefficients scaled by t
    rt = PolyRing(("t",))
    t = rt.var("t")
    scaled = (2 * x * x - y).subst({0: t, 1: rt.one}, coeff=lambda c: t * c)
    assert scaled == 2 * t**3 - t
    assert rxy.zero.subst({}, coeff=lambda c: t * c) == rt.zero


@pytest.mark.parametrize("char", [0, 2, 3])
def test_frac_domain_text_is_str_of_the_constant_frac(char):
    base = PolyRing((), FieldSpec(char))
    dom = FracDomain(base)
    for n in range(-7, 8):
        for k in range(1, 8):
            if char and k % char == 0:
                continue
            x = dom.coerce(Fraction(n, k))
            assert dom.text(x) == str(Frac.of(x, base))
            assert dom.to_str(x) == f"({Frac.of(x, base)})"
    rt = PolyRing(("t",), FieldSpec(char))
    value = parse_frac(rt, "(t + 1)/(2*t)") if char != 2 else parse_frac(rt, "(t + 1)/t")
    assert FracDomain(rt).text(value) == str(value)


# The lead data and the one wrapper of a polynomial over one, against the
# exponent scans and the normalizing constructor they replace
_LEAD_DOMAINS = {"q": FieldSpec(0), "f3": FieldSpec(3), "qt": FracDomain(PolyRing(("t",)))}


@st.composite
def lead_polys(draw):
    """A polynomial in 1-4 variables over Q (fractional coefficients too),
    F_3 or Q(t)."""
    kind = draw(st.sampled_from(sorted(_LEAD_DOMAINS)))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(("x", "y", "z", "w")[:nvars], _LEAD_DOMAINS[kind])
    dom = ring.domain
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), NONZERO, st.integers(1, 6)), max_size=5))
    if kind == "qt":
        return Poly(ring, {e: _qt_coeff(dom.base, n, k) for e, n, k in terms})
    return Poly(ring, {e: Fraction(n, k) if kind == "q" else dom.coerce(n) for e, n, k in terms})


@settings(max_examples=200, deadline=None)
@given(lead_polys())
def test_lead_data_matches_the_exponent_scans(p):
    assert p.top_variable() == max(p.variables(), default=-1)
    for v in range(p.ring.nvars):
        ours, ref = p.leading_coeff_in(v), leading_v_coeff(p, v)
        assert ours.ring == ref.ring and ours.terms == ref.terms


@settings(max_examples=200, deadline=None)
@given(lead_polys(), NONZERO, st.integers(1, 6))
def test_frac_of_matches_the_normalizing_constructor(p, n, k):
    ring = p.ring
    c = n if ring.domain.char else Fraction(n, k)  # a scalar, over Q(t) too
    for x, poly in ((p, p), (c, ring.const(c))):
        ours, ref = Frac.of(x, ring), Frac(poly, ring.one)
        assert (ours.num.terms, ours.den.terms) == (ref.num.terms, ref.den.terms)
        assert [type(v) for v in ours.num.terms.values()] == [type(v) for v in ref.num.terms.values()]
        assert str(ours) == str(ref)
    wider = ring.extend(("u",))
    recoefficiented = PolyRing(ring.names, FieldSpec(3 if ring.domain == FieldSpec(0) else 0))
    for x, other in ((p, wider), (wider.lift(p), ring), (p, recoefficiented), (Frac.of(p, ring), wider)):
        with pytest.raises(SpecError, match="fraction from a different ring"):
            Frac.of(x, other)


@st.composite
def frac_pairs(draw):
    """Two normalized fractions over one ring of 1-3 variables over Q, F_3 or
    Q(t), and an exponent."""
    kind = draw(st.sampled_from(sorted(_LEAD_DOMAINS)))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(("x", "y", "z")[:nvars], _LEAD_DOMAINS[kind])
    dom = ring.domain

    def poly():
        exps = st.tuples(*[st.integers(0, 2)] * nvars)
        terms = draw(st.lists(st.tuples(exps, NONZERO, st.integers(1, 4)), max_size=3))
        if kind == "qt":
            return Poly(ring, {e: _qt_coeff(dom.base, n, k) for e, n, k in terms})
        return Poly(ring, {e: Fraction(n, k) if kind == "q" else dom.coerce(n) for e, n, k in terms})

    a, b, c, d = poly(), poly() or ring.one, poly(), poly() or ring.one
    return Frac(a, b), Frac(c, d), draw(st.integers(-2, 3))


def _resolve_t(ring):
    base = _LEAD_DOMAINS["qt"].base
    return lambda name: ring.const(base.var(0)) if name == "t" and ring.domain == FracDomain(base) else None


@settings(max_examples=200, deadline=None)
@given(frac_pairs())
def test_frac_results_keep_one_canonical_and_match_the_cross_formula(pair):
    r, s, n = pair
    ring = r.ring
    (a, b), (c, d) = (r.num, r.den), (s.num, s.den)
    cases = [(r + s, Frac(a * d + c * b, b * d)), (r - s, Frac(a * d - c * b, b * d)), (r * s, Frac(a * c, b * d))]
    if s:
        cases.append((r / s, Frac(a * d, b * c)))
    if n >= 0:
        cases.append((r**n, Frac(a**n, b**n)))
    elif r:
        cases.append((r**n, Frac(b ** -n, a ** -n)))
    cases.append((parse_frac(ring, str(r), _resolve_t(ring)), Frac(a, b)))
    # a one that is not ring.one: a value test, not identity, must catch it
    other_one = Poly(ring, {(0,) * ring.nvars: ring.domain.coerce(1)})
    cases += [(r * Frac.of(other_one, ring), r), (r / Frac.of(other_one, ring), r)]
    assert (a * other_one).terms == (a * ring.one).terms == a.terms
    # a ring equal to r's but not identical takes the slow path to the same value
    twin = PolyRing(ring.names, ring.domain)
    cases += [(r + Frac(twin.lift(c), twin.lift(d)), r + s), (Frac.of(twin.lift(a), ring), Frac(a, ring.one))]
    for ours, ref in cases:
        for x in (ours, ref):
            assert (x.den == x.ring.one) == (x.den is x.ring.one)
        assert ours == ref and str(ours) == str(ref)


@st.composite
def rational_inputs(draw):
    """A ring over Q of 1-3 variables, four polynomials of degree at most 2
    in it, and an exponent. Each polynomial comes twice: as the reference,
    every coefficient a `Fraction`, and with each integral coefficient
    either an int or a `Fraction`, drawn term by term."""
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(("x", "y", "z")[:nvars])
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda e: sum(e) <= 2)
    coeffs = st.tuples(NONZERO, st.integers(1, 3), st.booleans())

    def pair():
        terms = draw(st.dictionaries(exps, coeffs, max_size=3))
        ref = Poly(ring, {e: Fraction(n, k) for e, (n, k, _) in terms.items()})
        mixed = {e: n // k if as_int and n % k == 0 else Fraction(n, k) for e, (n, k, as_int) in terms.items()}
        return Poly(ring, mixed), ref

    return ring, [pair() for _ in range(4)], draw(st.integers(-2, 3))


def _with_fractions(p: Poly) -> Poly:
    return Poly(p.ring, {e: Fraction(c) for e, c in p.terms.items()})


def _ref_pow(p: Poly, n: int) -> Poly:
    acc = p.ring.one
    for _ in range(n):
        acc = _ref_mul(acc, p)
    return acc


@settings(max_examples=100, deadline=None)
@given(rational_inputs())
def test_integral_coefficients_over_q_are_ints_and_change_no_result(inputs):
    # over Q an integral coefficient is stored as an int: the results equal,
    # and print as, the ones computed with Fraction coefficients throughout
    ring, pairs, n = inputs
    (p, p0), (q, q0), (r, r0), (s, s0) = pairs
    cases = [(p + q, _ref_add(p0, q0)), (p - q, _ref_sub(p0, q0)), (p * q, _ref_mul(p0, q0)),
             (p ** abs(n), _ref_pow(p0, abs(n)))]
    if p:
        lc = p0.lc()
        cases.append((p.monic(), Poly(ring, {e: c / lc for e, c in p0.terms.items()})))
    if q:
        cases.append((exact_div(p * q, q), p0))
        quotient = exact_div(p, q)
        assert (quotient is None) == (exact_div(p0, q0) is None)
        if quotient is not None:
            cases.append((_ref_mul(quotient, q), p0))
    basis, basis0 = buchberger([q, r, s]), buchberger([q0, r0, s0])
    cases += list(zip(basis, basis0)) + [(normal_form_list(p, list(basis)), normal_form_list(p0, list(basis0))),
                                         (normal_form_list(p, [g for g in (q, r) if g]),
                                          normal_form_list(p0, [g for g in (q0, r0) if g]))]
    assert len(basis) == len(basis0)
    # fractions: the reference is the cross formula on the parts, as Fractions
    u, v = Frac(p, q or ring.one), Frac(r, s or ring.one)
    (a, b), (c, d) = [(_with_fractions(w.num), _with_fractions(w.den)) for w in (u, v)]
    cases += [(u + v, Frac(_ref_add(_ref_mul(a, d), _ref_mul(c, b)), _ref_mul(b, d))),
              (u - v, Frac(_ref_sub(_ref_mul(a, d), _ref_mul(c, b)), _ref_mul(b, d))),
              (u * v, Frac(_ref_mul(a, c), _ref_mul(b, d))),
              (parse_frac(ring, str(u)), Frac(a, b)), (Frac(p0, q0 or ring.one), Frac(a, b))]
    if v:
        cases.append((u / v, Frac(_ref_mul(a, d), _ref_mul(b, c))))
    if n >= 0 or u:
        cases.append((u**n, Frac(_ref_pow(a, n), _ref_pow(b, n)) if n >= 0 else Frac(_ref_pow(b, -n), _ref_pow(a, -n))))
    for ours, ref in cases:
        parts = (ours.num, ours.den) if isinstance(ours, Frac) else (ours,)
        coefficients = [x for part in parts for x in part.terms.values()]
        assert not any(isinstance(x, float) for x in coefficients)
        if isinstance(ours, Frac):
            assert all(type(x) is int for x in coefficients)
        assert ours == ref and str(ours) == str(ref)
