import random
from fractions import Fraction

import pytest

from opfield import polynomials
from opfield.commutation import GammaSystem, base_ring, check_jacobi
from opfield.dfields import (
    DField,
    GammaFail,
    NonzeroResidual,
    NotSeparable,
    ehom_frac,
    extend_inseparable_decide,
    extend_separable,
    solve_by_grade,
)
from opfield.free_module import FreeCalculus
from opfield.groebner import Ideal
from opfield.indices import normal_words_upto
from opfield.local_algebra import derivation_algebra, trivial_algebra, truncation_algebra
from opfield.polynomials import Frac, parse_frac
from opfield.scalars import FieldSpec, SpecError
from opfield.specs import dump_gamma


def qt_field():
    """Q(t) with a single derivation, dt = 1."""
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    return DField(spec, gamma, {(1, 1): {"t": 1}})


def test_e_of_a_constant_matches_the_homomorphism():
    K = qt_field()
    for c in (0, Fraction(3, 4), parse_frac(K.ring, "(-5)/(7)"), parse_frac(K.ring, "(2*t)/(t)")):
        x = Frac.of(c, K.ring)
        assert K.e(1, c) == ehom_frac(x, K._images(1), K._coeff_image(1))


def char2_field():
    """F_2(s,t) under a 2-truncated HS operator pair: d1 = 0, d2(t) = s."""
    spec = FieldSpec(char=2, gens=("s", "t"))
    gamma = GammaSystem(truncation_algebra(3, char=2), None, {}, {}, spec)
    return DField(spec, gamma, {(1, 1): {}, (1, 2): {"t": "s"}})


def test_partial_basic():
    K = qt_field()
    t = K.gen("t")
    assert K.partial((1, 1), t * t) == 2 * t
    assert K.partial((1, 1), K.scalar(Fraction(3, 2))) == K.scalar(0)
    assert K.is_constant(K.scalar(5))
    assert not K.is_constant(t)


def test_is_constant_under_zero_action():
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    K = DField(spec, gamma, {(1, 1): {"t": 0}})
    t = K.gen("t")
    assert K.is_constant(t * t - t)


def test_partial_quotient():
    K = qt_field()
    t = K.gen("t")
    # d(1/t) = -1/t^2
    assert K.partial((1, 1), 1 / t) == -1 / (t * t)


def test_e_homomorphism_random():
    K = qt_field()
    t = K.gen("t")
    rng = random.Random(11)
    samples = []
    for _ in range(100):
        num = sum((t ** i) * rng.randrange(-3, 4) for i in range(3)) + rng.randrange(0, 3)
        den = t + rng.randrange(1, 5)
        samples.append(num / den)
    for x, y in zip(samples, reversed(samples)):
        ex, ey = K.e(1, x), K.e(1, y)
        assert K.e(1, x * y).coords == (ex * ey).coords
        assert K.e(1, x + y).coords == (ex + ey).coords
        assert ex.coords[0] == x  # residue is the identity


def test_e_homomorphism_random_char2():
    K = char2_field()
    s, t = K.gen("s"), K.gen("t")
    rng = random.Random(13)
    samples = []
    for _ in range(100):
        num = s * rng.randrange(2) + t * rng.randrange(2) + t * s * rng.randrange(2) + rng.randrange(2)
        den = s + t + rng.randrange(2) * s * t
        if not num:
            num = K.scalar(1)
        samples.append(num / den)
    for x, y in zip(samples, reversed(samples)):
        ex, ey = K.e(1, x), K.e(1, y)
        assert K.e(1, x * y).coords == (ex * ey).coords
        assert K.e(1, x + y).coords == (ex + ey).coords
        assert ex.coords[0] == x


def test_leibniz_with_higher_truncation():
    # coordinate 2 of e(xy) over k[e]/(e^3) is d2x y + x d2y + d1x d1y
    spec = FieldSpec(char=0, gens=("x", "y"))
    gamma = GammaSystem(truncation_algebra(3), None, {}, {}, spec)
    K = DField(spec, gamma, {(1, 1): {"x": 1, "y": 1}, (1, 2): {"x": 0, "y": 0}})
    x, y = K.gen("x"), K.gen("y")
    d1 = lambda v: K.partial((1, 1), v)
    d2 = lambda v: K.partial((1, 2), v)
    lhs = d2(x * y)
    rhs = d2(x) * y + x * d2(y) + d1(x) * d1(y)
    assert lhs == rhs


def test_char2_product_rule_fixture():
    K = char2_field()
    s, t = K.gen("s"), K.gen("t")
    # d2(t*s) = d2(t) s + t d2(s) + d1(t) d1(s) = s*s
    assert K.partial((1, 2), t * s) == s * s
    assert K.partial((1, 2), t) == s
    assert K.is_constant(s)
    assert not K.is_constant(t)


def test_gamma_validation_rejects_noncommuting():
    spec = FieldSpec(char=0, gens=("x",))
    gamma = GammaSystem(derivation_algebra(2), None, {}, {}, spec)
    # da x = 1, db x = x gives [da, db] x = 1 != 0
    with pytest.raises(GammaFail):
        DField(spec, gamma, {(1, 1): {"x": 1}, (1, 2): {"x": "x"}})


def test_validate_gamma_makes_one_e_per_non_constant_first_derivative_and_family(monkeypatch):
    # Q(s, t) under two commuting derivations: t' = (1, 0), s' = (0, s/2 + 1);
    # only d_{1,2} s is not a prime-field constant
    spec = FieldSpec(char=0, gens=("s", "t"))
    K = DField(spec, GammaSystem(derivation_algebra(2), None, {}, {}, spec),
               {(1, 1): {"t": 1}, (1, 2): {"s": "s/2 + 1"}}, check=False)
    calls = []
    e = DField.e
    monkeypatch.setattr(DField, "e", lambda self, u, x: calls.append(u) or e(self, u, x))
    K.validate_gamma()
    assert len(calls) == 1


def dense_validate_gamma(K):
    """`DField.validate_gamma` over every operator pair; the GammaFail witness,
    or None."""
    families = K.gamma.families
    for g in K.spec.gens:
        firsts = {op: K.action[op][g] for op in K.ops}
        seconds = {(u, j): K.e(u, firsts[j]).coords for j in K.ops for u in families}
        for i in K.ops:
            for j in K.ops:
                lhs = seconds[(i[0], j)][i[1]]
                rhs = K.scalar(0) if i[0] == j[0] == 2 else seconds[(j[0], i)][j[1]]
                for l, c in K.gamma.pair_terms.get((i, j), ()):
                    rhs = rhs + c * firsts[l]
                if lhs != rhs:
                    return (i, j, g)
    return None


@pytest.mark.parametrize("char", [0, 2, 3])
def test_validate_gamma_matches_the_loop_over_all_pairs(char):
    # actions over F_char(s, t), mostly constant, with Lie coefficients and,
    # in positive characteristic, HS coefficients on F_p[e]/(e^3)
    rng = random.Random(2200 + char)
    spec = FieldSpec(char=char, gens=("s", "t"))
    values = ("0", "0", "0", "1", "2", "s", "t", "s*t", "t + 1", "1/s")
    witnesses = []
    for _ in range(150):
        m1 = rng.randint(1, 4)
        d2 = truncation_algebra(3, char=char) if char and rng.random() < 0.6 else None
        lie = {(rng.randint(1, m1), rng.randint(1, m1), rng.randint(1, m1)): rng.choice(values[3:])
               for _ in range(rng.randint(0, 2))}
        hs = {(rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)): rng.choice(values[3:])
              for _ in range(rng.randint(0, 2))} if d2 else {}
        gamma = GammaSystem(derivation_algebra(m1, char=char), d2, lie, hs, spec)
        action = {op: {g: rng.choice(values) for g in spec.gens if rng.random() < 0.5} for op in gamma.ops}
        K = DField(spec, gamma, action, check=False)
        try:
            K.validate_gamma()
            witnesses.append(None)
        except GammaFail as e:
            witnesses.append(e.witness)
        assert witnesses[-1] == dense_validate_gamma(K), (lie, hs, action)
    assert 20 < sum(w is not None for w in witnesses) < 130


@pytest.mark.parametrize("row", ["t", {"s": 1}])
def test_malformed_action_row_rejected(row):
    # a row that is not a mapping, and a key that is no generator of Q(t)
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    with pytest.raises(SpecError):
        DField(spec, gamma, {(1, 1): row})


def test_extend_transcendental():
    K = qt_field()
    L = K.extend_transcendental("u", {(1, 1): "t"})
    u, t = L.gen("u"), L.gen("t")
    assert L.partial((1, 1), u) == t
    assert L.partial((1, 1), u * u) == 2 * u * t
    # zero values always commute
    M = K.extend_transcendental("w", {})
    assert M.is_constant(M.gen("w"))


def test_extend_separable_sqrt():
    K = qt_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    t = Frac(K.ring.var("t"), K.ring.one)
    f = a * a - aring.const(t)
    values = extend_separable(K, "a", f)
    # da = 1/(2a)
    expect = Frac(aring.one, 2 * a)
    assert values[(1, 1)] == expect


def test_extend_separable_shifted():
    K = qt_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    t = Frac(K.ring.var("t"), K.ring.one)
    f = a * a - a - aring.const(t)
    values = extend_separable(K, "a", f)
    assert values[(1, 1)] == Frac(aring.one, 2 * a - aring.one)


def test_extend_separable_degree_one():
    K = qt_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    g = Frac(K.ring.var("t") ** 2, K.ring.one)  # a = t^2, so da = 2t
    f = a - aring.const(g)
    values = extend_separable(K, "a", f)
    assert values[(1, 1)] == Frac(aring.const(K.partial((1, 1), g)), aring.one)


def test_extend_separable_rejects_inseparable():
    K = char2_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    t = Frac(K.ring.var("t"), K.ring.one)
    with pytest.raises(NotSeparable):
        extend_separable(K, "a", a * a - aring.const(t))


def test_extend_separable_deterministic():
    K = qt_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    t = Frac(K.ring.var("t"), K.ring.one)
    f = a**3 - aring.const(t) * a - aring.one
    v1 = extend_separable(K, "a", f)
    v2 = extend_separable(K, "a", f)
    assert v1 == v2


def _minimal_poly(K, text):
    """text, in a and t, as a polynomial of K.adjunction_ring("a")."""
    aring = K.adjunction_ring("a")
    t = aring.const(K.gen("t"))
    return parse_frac(aring, text, resolve=lambda name: t if name == "t" else None).num


# f = a^d + p t a^j + s a^i + c t + r, the shape of the bench's extend_qt
# calls; the values were printed by the arithmetic that cancels the gcd of
# every cross product, and cancelling by Henrici's rule must print the same
EXTEND_PINS = [
    ("a^3 + 2*t*a^2 + a - t + 3", "(((-2)/(3))*a^2 + ((1)/(3)))/(a^2 + ((4*t)/(3))*a + ((1)/(3)))"),
    ("a^3 - (1/2)*t*a + 3*a^2 + 2*t - 1", "(((1)/(6))*a + ((-2)/(3)))/(a^2 + (2)*a + ((-t)/(6)))"),
    ("a^4 + t*a^3 + 2*a - (1/3)*t + 1", "(((-1)/(4))*a^3 + ((1)/(12)))/(a^3 + ((3*t)/(4))*a^2 + ((1)/(2)))"),
    ("a^4 - 2*t*a + (1/2)*a^2 + 3*t - 2", "(((1)/(2))*a + ((-3)/(4)))/(a^3 + ((1)/(4))*a + ((-t)/(2)))"),
]


@pytest.mark.parametrize("f, value", EXTEND_PINS, ids=["deg3_j2", "deg3_j1", "deg4_j3", "deg4_j1"])
def test_extend_separable_values_are_pinned(f, value):
    K = qt_field()
    assert {op: str(v) for op, v in extend_separable(K, "a", _minimal_poly(K, f)).items()} == {(1, 1): value}


def test_extend_separable_arithmetic_never_normalizes_a_product(monkeypatch):
    # in a one-variable ring, + * / cancel by Henrici's rule and only rescale;
    # a result built by the cross formula and `_normalize_general` would run
    # Euclid on the products again
    K = qt_field()
    f = _minimal_poly(K, EXTEND_PINS[2][0])
    running, calls, from_arithmetic = [], [], []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def op(self, other, fn=getattr(Frac, name)):
            running.append(self.ring)
            try:
                return fn(self, other)
            finally:
                running.pop()
        monkeypatch.setattr(Frac, name, op)
    general = polynomials._normalize_general

    def counted(num, den):
        calls.append(num.ring)
        if running and running[-1] is num.ring and num.ring.nvars == 1:
            from_arithmetic.append((str(num), str(den)))
        return general(num, den)

    monkeypatch.setattr(polynomials, "_normalize_general", counted)
    extend_separable(K, "a", f)
    assert calls  # the reductions mod f still build their fractions through it
    assert from_arithmetic == []


def test_extend_separable_arithmetic_never_cancels_against_zero(monkeypatch):
    # a zero operand of `Frac` + or * is returned or gives the zero at once,
    # so no gcd search of a product's parts sees a zero part
    K = qt_field()
    f = _minimal_poly(K, EXTEND_PINS[2][0])
    p = f.ring.var(0) + f.ring.const(K.gen("t"))
    assert p * f.ring.one is p and f.ring.one * p is p
    running, calls, with_zero = [], [], []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def op(self, other, fn=getattr(Frac, name)):
            running.append(name)
            try:
                return fn(self, other)
            finally:
                running.pop()
        monkeypatch.setattr(Frac, name, op)
    cancel = polynomials._cancel_univariate

    def counted(num, den, i):
        if running:
            calls.append(running[-1])
            if not num or not den:
                with_zero.append((running[-1], str(num), str(den)))
        return cancel(num, den, i)

    monkeypatch.setattr(polynomials, "_cancel_univariate", counted)
    extend_separable(K, "a", f)
    assert calls  # the counter is live: Henrici's rule still cancels through it
    assert with_zero == []


def test_solve_by_grade_reports_nonzero_residual():
    # a wrong separant leaves d(a^2 - t) = 2a*y - 1 at -1/2 in coordinate 1
    K = qt_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    f = a * a - aring.const(K.gen("t"))
    modulus = Ideal(aring, [f])
    with pytest.raises(NonzeroResidual) as e:
        solve_by_grade(K, f, 0, Frac(4 * a, aring.one),
                       is_zero=lambda coord: not modulus.normal_form(coord.num))
    assert e.value.witness == ((1, 1), Frac.of(Fraction(-1, 2), aring))


def test_second_field_on_one_system_leaves_the_first_unchanged():
    # [d1, d2] = t d1 with coefficients in the field: the Jacobi check, the
    # free table and the dump all read the field's action
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): "t", (2, 1, 1): "-t"}, {}, spec)
    K1 = DField(spec, gamma, {(1, 1): {"t": 1}, (1, 2): {"t": "t^2/2"}})

    def observed(K):
        fc = FreeCalculus(K.gamma, K)
        table = {(op, w): fc.d_word(op, w) for w in normal_words_upto(2, 0, 2) for op in K.ops}
        return check_jacobi(K.gamma, K), dump_gamma(K.gamma, K), table

    before = observed(K1)
    K2 = DField(spec, gamma, {(1, 1): {"t": "t"}, (1, 2): {"t": 1}}, check=False)
    assert K2.fc is not K1.fc and K1.fc.field is K1
    assert observed(K1) == before
    other = observed(K2)
    assert other[1] != before[1] and other[2] != before[2]


def test_agreement_on_support():
    # two actions over k[e]/(e^4) differing only in d3 give the same d2 at a root:
    # supp(2) = {1} and d2 agrees on the base field
    spec = FieldSpec(char=0, gens=("t",))

    def mk(d3):
        gamma = GammaSystem(truncation_algebra(4), None, {}, {}, spec)
        return DField(spec, gamma, {(1, 1): {"t": 1}, (1, 2): {"t": 0}, (1, 3): {"t": d3}})

    K1, K2 = mk(0), mk(7)
    ar1, ar2 = K1.adjunction_ring("a"), K2.adjunction_ring("a")
    t1 = Frac(K1.ring.var("t"), K1.ring.one)
    f1 = ar1.var(0) ** 2 - ar1.const(t1)
    f2 = ar2.var(0) ** 2 - ar2.const(t1)
    v1 = extend_separable(K1, "a", f1)
    v2 = extend_separable(K2, "a", f2)
    assert v1[(1, 2)] == v2[(1, 2)]
    assert v1[(1, 3)] != v2[(1, 3)]


def test_extend_inseparable_decide():
    K = char2_field()
    aring = K.adjunction_ring("a")
    a = aring.var(0)
    t = Frac(K.ring.var("t"), K.ring.one)
    s = Frac(K.ring.var("s"), K.ring.one)
    # t is moved by d2: not extendable
    assert extend_inseparable_decide(K, "a", a * a - aring.const(t)) is False
    # prime-field coefficient: extendable
    assert extend_inseparable_decide(K, "a", a * a - aring.one) is True
    # s is constant by declaration: extendable
    assert extend_inseparable_decide(K, "a", a * a - aring.const(s)) is True


def _base_field_values(field) -> list:
    """Γ coefficients, `d_word` coefficients up to order 2, operator values
    and scalars of `field`: every kind of value of its base field."""
    gamma, fc = field.gamma, field.fc
    values = list(gamma.lie.values()) + list(gamma.hs.values()) + [gamma.zero(), fc.one_coeff()]
    for word in normal_words_upto(gamma.m1, gamma.m2, 2):
        for op in gamma.ops:
            values += fc.d_word(op, word).values()
    x = field.gen(field.spec.gens[0]) if field.spec.gens else field.scalar(Fraction(5, 3))
    values += [field.scalar(7), field.partial_word(gamma.ops[:2], x)]
    values += [field.partial(op, x) for op in gamma.ops]
    return values


def test_base_field_values_take_the_jet_coefficient_form():
    from importlib.resources import files

    from opfield.commutation import hs_tensor_reduce
    from opfield.scalars import Fp
    from opfield.specs import load_gamma

    fixtures = files("opfield") / "fixtures"
    # no generators: plain scalars, as the coefficients of a jet ring over the field
    sl2 = load_gamma(fixtures / "gamma_sl2.json")
    hs = load_gamma(fixtures / "gamma_iterative_2_2.json")
    assert sl2.gamma.lie and hs.gamma.hs
    for field, kind in ((sl2, Fraction), (hs, Fp)):
        values = _base_field_values(field)
        assert all(type(v) is kind for v in values), {type(v) for v in values}
    _, coeffs = hs_tensor_reduce([(hs.gamma.d2, hs.gamma.hs)] * 2)
    assert coeffs and all(type(c) is Fp for c in coeffs.values())
    # over Q(t), the same system re-anchored: every value is a Frac of Q[t]
    spec = FieldSpec(char=0, gens=("t",))
    bare = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): Fraction(1, 2), (2, 1, 1): Fraction(-1, 2)}, {})
    qt = DField(spec, bare, {(1, 1): {"t": 1}, (1, 2): {"t": "t/2"}})
    assert qt.gamma.ring.names == ("t",) and qt.gamma.lie
    values = _base_field_values(qt)
    assert all(type(v) is Frac and v.ring == qt.ring for v in values)
    assert qt.gamma.lie[(1, 2, 1)] == qt.scalar(Fraction(1, 2))
