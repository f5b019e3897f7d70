import functools
import itertools
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings, strategies as st

from opfield.commutation import (
    GammaSystem,
    Verdict,
    base_ring,
    check_all,
    check_associative,
    check_cross,
    check_jacobi,
    check_jacobi_associative,
    coeff_partial,
    hom_verdict,
    hs_system,
    hs_tensor_reduce,
    iterative_hs_coeffs,
)
from opfield.dfields import DField
from opfield.local_algebra import (
    derivation_algebra,
    tensor,
    tensor_basis_pairs,
    trivial_algebra,
    truncation_algebra,
    validate,
)
from opfield.scalars import FieldSpec, SpecError
from opfield.specs import load_gamma


def sl2_system():
    # [d1,d2]=d3, [d3,d1]=2*d1, [d3,d2]=-2*d2
    lie = {
        (1, 2, 3): 1, (2, 1, 3): -1,
        (3, 1, 1): 2, (1, 3, 1): -2,
        (3, 2, 2): -2, (2, 3, 2): 2,
    }
    return GammaSystem(derivation_algebra(3), None, lie, {})


def mixed_f2_system():
    # two derivations with [d1,d2]=d1 over F_2, plus a 1-truncated HS operator
    lie = {(1, 2, 1): 1, (2, 1, 1): 1}  # -1 == 1 mod 2
    return GammaSystem(derivation_algebra(2, char=2), truncation_algebra(2, char=2), lie, {})


def test_lie_null_constraint():
    with pytest.raises(SpecError):
        GammaSystem(truncation_algebra(3), None, {(1, 1, 1): 1}, {})


def test_hs_requires_positive_characteristic():
    with pytest.raises(SpecError):
        GammaSystem(trivial_algebra(0), truncation_algebra(2), {}, {(1, 1, 1): 1})


def test_check_hom_iterative_passes():
    g = iterative_hs_coeffs(2, 2)
    assert g.check_hom(2)
    assert g.check_hom(1)


def test_check_hom_char0_additive_fails():
    # r(e) = e(x)1 + 1(x)e with zero c's on Q[e]/(e^2): r(e)^2 = 2 e(x)e != 0
    alg = derivation_algebra(1)
    ring = base_ring(FieldSpec(char=0))
    v = hom_verdict(alg, {}, "hs", ring)
    assert not v and v.witness == (1, 1)


def test_check_hom_canonical_embedding():
    g = GammaSystem(derivation_algebra(2), None, {}, {})
    assert g.check_hom(1)


def test_check_hom_lie_with_nonzero_products():
    from opfield.commutation import base_ring
    from opfield.local_algebra import null_set, validate

    # e1^2 = e2: coefficients targeting the product index break multiplicativity
    alg = validate({
        "char": 0, "dim": 4, "grades": [1, 1, 2],
        "products": [{"p": 1, "q": 1, "coeffs": {"3": 1}}],
    })
    assert null_set(alg) == {2, 3}
    ring = base_ring(FieldSpec(char=0))
    bad = hom_verdict(alg, {(2, 3, 3): 1, (3, 2, 3): -1}, "lie", ring)
    assert not bad and bad.witness == (1, 1)
    good = hom_verdict(alg, {(2, 3, 1): 1, (3, 2, 1): -1}, "lie", ring)
    assert good


def test_jacobi_zero_coeffs():
    g = GammaSystem(derivation_algebra(3), None, {}, {})
    assert check_jacobi(g)


def test_jacobi_sl2():
    assert check_jacobi(sl2_system())


def test_jacobi_matrix_oracle():
    # independent check that the sl2 constants satisfy the abstract Jacobi law
    c = {}
    for (i, j, l), v in {
        (1, 2, 3): 1, (2, 1, 3): -1,
        (3, 1, 1): 2, (1, 3, 1): -2,
        (3, 2, 2): -2, (2, 3, 2): 2,
    }.items():
        c[(i, j, l)] = Fraction(v)

    def bracket(x, y):
        out = [Fraction(0)] * 4
        for i in range(1, 4):
            for j in range(1, 4):
                if x[i] and y[j]:
                    for l in range(1, 4):
                        out[l] += x[i] * y[j] * c.get((i, j, l), Fraction(0))
        return out

    basis = [[Fraction(1) if k == i else Fraction(0) for k in range(4)] for i in range(4)]
    for x, y, z in itertools.product(basis[1:], repeat=3):
        acc = [
            a + b + d
            for a, b, d in zip(
                bracket(x, bracket(y, z)),
                bracket(y, bracket(z, x)),
                bracket(z, bracket(x, y)),
            )
        ]
        assert all(v == 0 for v in acc)


def test_jacobi_skew_violation():
    g = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): 1, (2, 1, 1): 1}, {})
    v = check_jacobi(g)
    assert not v and v.code == "JACOBI_SKEW"


def test_associative_iterative():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        g = iterative_hs_coeffs(p, n)
        assert check_associative(g)


def test_associative_trivial_table():
    g = GammaSystem(trivial_algebra(5), truncation_algebra(2, char=5), {}, {})
    assert check_associative(g)


def test_associative_identity_violation():
    # F_3[e]/(e^3) with an off-shape entry next to the binomial c_2^{11}=2
    g = iterative_hs_coeffs(3, 1)
    hs = {k: v for k, v in g.hs.items()}
    hs[(2, 1, 1)] = 1  # c_1^{21} := 1
    bad = GammaSystem(trivial_algebra(3), g.d2, {}, hs)
    v = check_associative(bad)
    assert not v and v.witness == (1, 1, 1, 1)


def test_perturbed_binomial_fails_hom():
    g = iterative_hs_coeffs(3, 1)
    hs = {k: v for k, v in g.hs.items()}
    hs[(1, 1, 2)] = 1  # c_2^{11}: 2 -> 1
    bad = GammaSystem(trivial_algebra(3), g.d2, {}, hs)
    assert check_associative(bad)  # the identity alone cannot see this entry
    assert not bad.check_hom(2)


def test_jacobi_associative_mixed():
    g = mixed_f2_system()
    assert check_jacobi_associative(g)
    assert check_all(g)


def test_jacobi_associative_trivial():
    g = GammaSystem(derivation_algebra(1), None, {}, {})
    assert check_jacobi_associative(g)


def test_cross_condition_violation():
    # a Lie coefficient depending on t while the HS side moves t
    from opfield.dfields import DField

    spec = FieldSpec(char=2, gens=("t",))
    ring = base_ring(spec)
    t = ring.var("t")
    lie = {(1, 2, 1): t, (2, 1, 1): t}
    gamma = GammaSystem(derivation_algebra(2, char=2), truncation_algebra(2, char=2), lie, {}, spec)
    action = {
        (1, 1): {"t": 0},
        (1, 2): {"t": 0},
        (2, 1): {"t": 1},
    }
    field = DField(spec, gamma, action, check=False)
    v = check_cross(gamma, field)
    assert not v and v.code == "CROSS_DERIVATIVE"


def test_iterative_binomials():
    g22 = iterative_hs_coeffs(2, 2)
    assert (1, 1, 2) not in g22.hs  # binom(2,1) mod 2 = 0
    g31 = iterative_hs_coeffs(3, 1)
    assert g31.hs[(1, 1, 2)] == 2


def test_hs_tensor_reduce_products():
    g = iterative_hs_coeffs(2, 1)
    alg, coeffs = hs_tensor_reduce([(g.d2, g.hs), (g.d2, g.hs)])
    assert alg.dim == 4
    pairs = tensor_basis_pairs(g.d2, g.d2)
    idx = {ij: k + 1 for k, ij in enumerate(pairs)}
    # c^{(1,0),(0,1)}_{(1,1)} = 1 * 1 = 1
    key = (idx[(1, 0)], idx[(0, 1)], idx[(1, 1)])
    assert coeffs[key] == 1
    combined = hs_system(alg, coeffs)
    assert combined.check_hom(2)
    assert check_associative(combined)


def test_validators_pure():
    bad = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): 1, (2, 1, 1): 1}, {})
    first = check_jacobi(bad)
    second = check_jacobi(bad)
    assert (first.ok, first.code, first.witness) == (second.ok, second.code, second.witness)
    good = iterative_hs_coeffs(2, 2)
    assert check_associative(good).ok == check_associative(good).ok is True


def test_hs_tensor_reduce_three_factors():
    g = iterative_hs_coeffs(2, 1)
    alg, coeffs = hs_tensor_reduce([(g.d2, g.hs)] * 3)
    assert alg.dim == 8
    combined = hs_system(alg, coeffs)
    assert combined.check_hom(2)
    assert check_associative(combined)


# ---------------------------------------------------------------------------
# differential tests: sparse identity checkers against dense loops over alpha
# ---------------------------------------------------------------------------

def dense_jacobi(gamma, field=None):
    """`check_jacobi` from the definitions, summing over every index."""
    idx = range(1, gamma.m1 + 1)
    alpha = gamma.d1.alpha

    def c(i, j, l):
        return gamma.lie.get((i, j, l), gamma.zero())

    @functools.cache  # a pure function of its indices; errors are not cached
    def dc(p, i, j, l):
        return coeff_partial(field, (1, p), c(i, j, l))

    for i, j, l in itertools.product(idx, repeat=3):
        if (i == j and c(i, i, l)) or c(i, j, l) + c(j, i, l):
            return Verdict(False, "JACOBI_SKEW", (i, j, l))
    for i, j, k, r in itertools.product(idx, repeat=4):
        lhs = sum((c(x, y, l) * c(l, z, r) for x, y, z in ((i, j, k), (k, i, j), (j, k, i))
                   for l in idx if c(x, y, l)), gamma.zero())
        if lhs != dc(i, j, k, r) + dc(k, i, j, r) + dc(j, k, i, r):
            return Verdict(False, "JACOBI_IDENTITY", (i, j, k, r))
    for i, j, k, r in itertools.product(idx, repeat=4):
        def s(q, r):
            return sum((alpha(x, p, q) * dc(p, y, z, r) for x, y, z in ((i, j, k), (k, i, j), (j, k, i))
                        for p in idx if alpha(x, p, q)), gamma.zero())
        if s(r, r):
            return Verdict(False, "JACOBI_DERIVATIVE", (i, j, k, r))
        for q in range(1, r):
            if s(q, r) + s(r, q):
                return Verdict(False, "JACOBI_DERIVATIVE", (i, j, k, q, r))
    return Verdict(True)


def dense_associative(gamma, field=None):
    """`check_associative` from the definitions, summing over every index."""
    idx = range(1, gamma.m2 + 1)
    alpha = gamma.d2.alpha

    def c(i, j, l):
        return gamma.hs.get((i, j, l), gamma.zero())

    @functools.cache  # a pure function of its indices; errors are not cached
    def dc(p, i, j, l):
        return coeff_partial(field, (2, p), c(i, j, l))

    for i, j, k, r in itertools.product(idx, repeat=4):
        lhs = gamma.zero()
        for l in idx:
            lhs = lhs + c(i, j, l) * c(l, k, r) - c(j, k, l) * c(i, l, r)
            for p, q in itertools.product(idx, repeat=2):
                a = alpha(i, p, q)
                if a:
                    lhs = lhs - a * dc(p, j, k, l) * c(q, l, r)
        if lhs != dc(i, j, k, r):
            return Verdict(False, "ASSOC_IDENTITY", (i, j, k, r))
    return Verdict(True)


def _verdict_or_error(check, gamma, field):
    try:
        return check(gamma, field)
    except SpecError as e:
        return ("SpecError", str(e))


COEFFS_T = ("0", "1", "-1", "t", "-t", "t^2", "2*t + 1")


@st.composite
def perturbed(draw, table: dict, m: int, values, skew: bool):
    """`table` with at most one entry (i, j, l) set to a drawn value; with
    `skew`, the (j, i, l) entry is set to its negative alongside."""
    table = dict(table)
    how = draw(st.sampled_from(("none", "one", "skew") if skew else ("none", "one")))
    if how != "none":
        i, j, l = (draw(st.integers(1, m)) for _ in range(3))
        v = draw(st.sampled_from(values))
        table[(i, j, l)] = v
        if how == "skew":
            table[(j, i, l)] = f"-({v})"
    return table


# D1 shapes with indices both outside and inside the null: k[e1, e2, e3] with
# e1 e1 = a e3 (null {2, 3}), and k[e1, .., e4] with e1 e2 = a e4 (null {3, 4})
NULL_SHAPES = (
    ([1, 1, 2], (1, 1, 3), (2, 3)),
    ([1, 1, 1, 2], (1, 2, 4), (3, 4)),
)


def null_shape_algebra(grades, product, a):
    p, q, i = product
    return validate({"char": 0, "dim": len(grades) + 1, "grades": grades,
                     "products": [{"p": p, "q": q, "coeffs": {str(i): a}}]})


@st.composite
def lie_systems(draw):
    """Rescaled sl2 over Q or F_3 with constant coefficients, or a Lie system
    over Q(t) on a `NULL_SHAPES` algebra whose coefficients (on the null) and
    derivative action are drawn; then at most one coefficient perturbed.
    Returns (gamma, field)."""
    if draw(st.booleans()):
        char = draw(st.sampled_from((0, 3)))
        s1, s2, s3 = (Fraction(draw(st.sampled_from((1, 2, -1, -2)))) for _ in range(3))
        lie = {(1, 2, 3): s1 * s2 / s3, (3, 1, 1): 2 * s3, (3, 2, 2): -2 * s3}
        lie.update({(j, i, l): -v for (i, j, l), v in list(lie.items())})
        lie = {k: str(v) for k, v in lie.items()}
        lie = draw(perturbed(lie, 3, ("0", "1", "-1", "2"), skew=True))
        return GammaSystem(derivation_algebra(3, char), None, lie, {}), None
    spec = FieldSpec(char=0, gens=("t",))
    grades, product, null = draw(st.sampled_from(NULL_SHAPES))
    m = len(grades)
    d1 = null_shape_algebra(grades, product, draw(st.sampled_from(("1", "2", "-1"))))
    lie = {}
    n1, n2 = null
    for l in range(1, m + 1):
        v = draw(st.sampled_from(COEFFS_T))
        lie[(n1, n2, l)], lie[(n2, n1, l)] = v, f"-({v})"
    # entries stay in the null of D1, which GammaSystem requires
    table = draw(perturbed(lie, m, COEFFS_T, skew=True))
    table = {k: v for k, v in table.items() if k[0] in null and k[1] in null}
    gamma = GammaSystem(d1, None, table, {}, spec)
    action = {(1, p): {"t": draw(st.sampled_from(("0", "1", "t", "t^2")))} for p in range(1, m + 1)}
    return gamma, DField(spec, gamma, action, check=False)


@st.composite
def hs_systems(draw):
    """An iterative HS system on F_p[e]/(e^(p^n)), over F_p or F_p(t) with a
    drawn action of the HS operators, with at most one coefficient perturbed.
    Returns (gamma, field)."""
    p, n = draw(st.sampled_from(((2, 1), (2, 2), (3, 1))))
    base = iterative_hs_coeffs(p, n)
    hs = {k: str(v) for k, v in base.hs.items()}
    if draw(st.booleans()):
        hs = draw(perturbed(hs, base.m2, ("0", "1", "2"), skew=False))
        return GammaSystem(trivial_algebra(p), base.d2, {}, hs), None
    spec = FieldSpec(char=p, gens=("t",))
    hs = draw(perturbed(hs, base.m2, ("0", "1", "t", "t + 1"), skew=False))
    gamma = GammaSystem(trivial_algebra(p), base.d2, {}, hs, spec)
    action = {(2, i): {"t": draw(st.sampled_from(("0", "1", "t")))} for i in range(1, base.m2 + 1)}
    return gamma, DField(spec, gamma, action, check=False)


def assert_pair_terms_match_c(gamma):
    """`pair_terms` lists every nonzero gamma.c(l, i, j), l ascending in `ops`."""
    want = {}
    for i, j, l in itertools.product(gamma.ops, repeat=3):
        if c := gamma.c(l, i, j):
            want.setdefault((i, j), []).append((l, c))
    assert gamma.pair_terms == want


@pytest.mark.parametrize("name", sorted(p.name for p in files("opfield").joinpath("fixtures").iterdir()
                                        if p.name.startswith(("gamma_", "dfield_"))))
def test_pair_terms_of_fixtures(name):
    assert_pair_terms_match_c(load_gamma(files("opfield") / "fixtures" / name).gamma)


@settings(max_examples=40, deadline=None)
@given(system=lie_systems())
def test_check_jacobi_matches_dense_reference(system):
    gamma, field = system
    assert_pair_terms_match_c(gamma)
    assert _verdict_or_error(check_jacobi, gamma, field) == _verdict_or_error(dense_jacobi, gamma, field)
    # without a field, a non-constant coefficient is a SpecError on both sides
    assert _verdict_or_error(check_jacobi, gamma, None) == _verdict_or_error(dense_jacobi, gamma, None)


def test_jacobi_identity_fails_on_a_derivative_term():
    # index 1 is outside the null {2, 3}, so at (1, 2, 3, 2) every bracket term
    # is 0 and the identity reads 0 = d_1 c_2^{23} = d_1 t = 1
    d1 = null_shape_algebra([1, 1, 2], (1, 1, 3), "1")
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(d1, None, {(2, 3, 2): "t", (3, 2, 2): "-t"}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": "1"}})
    want = Verdict(False, "JACOBI_IDENTITY", (1, 2, 3, 2))
    assert check_jacobi(gamma, field) == dense_jacobi(gamma, field) == want
    assert str(check_jacobi(gamma, field)) == "FAIL JACOBI_IDENTITY witness=(1, 2, 3, 2)"
    with pytest.raises(SpecError, match="non-constant"):
        check_jacobi(gamma)


@settings(max_examples=40, deadline=None)
@given(system=hs_systems())
def test_check_associative_matches_dense_reference(system):
    gamma, field = system
    assert_pair_terms_match_c(gamma)
    assert (_verdict_or_error(check_associative, gamma, field)
            == _verdict_or_error(dense_associative, gamma, field))
    assert (_verdict_or_error(check_associative, gamma, None)
            == _verdict_or_error(dense_associative, gamma, None))


def test_hs_tensor_reduce_three_iterative_2_2():
    # `gamma reduce` of three copies of the fixture: D = A (x) A (x) A, m = 63
    g = load_gamma(files("opfield") / "fixtures" / "gamma_iterative_2_2.json").gamma
    alg, coeffs = hs_tensor_reduce([(g.d2, g.hs)] * 3)
    assert alg.dim == 64
    assert alg == tensor(tensor(g.d2, g.d2), g.d2)
    assert len(coeffs) == 602
    assert list(coeffs) == sorted(coeffs)
