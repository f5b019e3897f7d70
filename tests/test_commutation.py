import functools
import itertools
import random
import time
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings, strategies as st

from opfield.commutation import (
    GammaSystem,
    Verdict,
    _tensor_mul,
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
    AlgebraError,
    accumulate,
    derivation_algebra,
    ext_row,
    null_set,
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
    v = hom_verdict(alg, {})
    assert not v and v.witness == (1, 1)


def test_check_hom_canonical_embedding():
    g = GammaSystem(derivation_algebra(2), None, {}, {})
    assert g.check_hom(1)


def test_check_hom_lie_with_nonzero_products():
    from opfield.local_algebra import null_set, validate

    # e1^2 = e2: coefficients targeting the product index break multiplicativity
    alg = validate({
        "char": 0, "dim": 4, "grades": [1, 1, 2],
        "products": [{"p": 1, "q": 1, "coeffs": {"3": 1}}],
    })
    assert null_set(alg) == {2, 3}
    bad = GammaSystem(alg, None, {(2, 3, 3): 1, (3, 2, 3): -1}, {}).check_hom(1)
    assert not bad and bad.witness == (1, 1)
    good = GammaSystem(alg, None, {(2, 3, 1): 1, (3, 2, 1): -1}, {}).check_hom(1)
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


def test_associative_empty_table_skips_the_index_loops():
    # m = 30: no index triple is reached; visiting all m^4 tuples took 1.3 s
    g = GammaSystem(trivial_algebra(2), derivation_algebra(30, char=2), {}, {})
    start = time.perf_counter()
    assert check_associative(g)
    assert time.perf_counter() - start < 0.25


def test_jacobi_one_skew_pair_visits_only_reached_triples():
    # [d1, d2] = d3 among 30 derivations: 4.7 s over all m^4 tuples
    g = GammaSystem(derivation_algebra(30), None, {(1, 2, 3): 1, (2, 1, 3): -1}, {})
    start = time.perf_counter()
    assert check_jacobi(g)
    assert time.perf_counter() - start < 0.25


def test_associative_on_the_two_factor_reduction_is_fast():
    # m = 15: 0.19-0.26 s over all m^4 tuples
    g = load_gamma(files("opfield") / "fixtures" / "gamma_iterative_2_2.json").gamma
    combined = hs_system(*hs_tensor_reduce([(g.d2, g.hs)] * 2))
    assert combined.m2 == 15
    start = time.perf_counter()
    assert check_associative(combined)
    assert time.perf_counter() - start < 0.15


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
def sparse_table(draw, m: int, values, skew: bool):
    """Entries c_l^{ij} = v at one or two drawn pairs (i, j), on an algebra
    with m operators; with `skew`, c_l^{ji} = -v alongside."""
    table = {}
    for _ in range(draw(st.integers(1, 2))):
        i, j, l = (draw(st.integers(1, m)) for _ in range(3))
        v = draw(st.sampled_from(values))
        table[(i, j, l)] = v
        if skew:
            table[(j, i, l)] = f"-({v})"
    return draw(perturbed(table, m, values, skew))


@st.composite
def lie_systems(draw):
    """Rescaled sl2 over Q or F_3 with constant coefficients; a Lie system
    over Q(t) on a `NULL_SHAPES` algebra whose coefficients (on the null) and
    derivative action are drawn; or one or two skew pairs among 4-7
    derivations over Q(t), so that most index triples are not reached. Then
    at most one coefficient perturbed. Returns (gamma, field)."""
    kind = draw(st.sampled_from(("sl2", "null", "sparse")))
    spec = FieldSpec(char=0, gens=("t",))
    if kind == "sparse":
        m = draw(st.integers(4, 7))
        table = draw(sparse_table(m, COEFFS_T, skew=True))
        gamma = GammaSystem(derivation_algebra(m), None, table, {}, spec)
        action = {(1, p): {"t": draw(st.sampled_from(("0", "1", "t")))} for p in range(1, m + 1)}
        return gamma, DField(spec, gamma, action, check=False)
    if kind == "sl2":
        char = draw(st.sampled_from((0, 3)))
        s1, s2, s3 = (Fraction(draw(st.sampled_from((1, 2, -1, -2)))) for _ in range(3))
        lie = {(1, 2, 3): s1 * s2 / s3, (3, 1, 1): 2 * s3, (3, 2, 2): -2 * s3}
        lie.update({(j, i, l): -v for (i, j, l), v in list(lie.items())})
        lie = {k: str(v) for k, v in lie.items()}
        lie = draw(perturbed(lie, 3, ("0", "1", "-1", "2"), skew=True))
        return GammaSystem(derivation_algebra(3, char), None, lie, {}), None
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
    drawn action of the HS operators, with at most one coefficient perturbed;
    or entries at one or two pairs on F_p[e]/(e^d), d from 4 to 6, over
    F_p(t), so that most index triples are not reached. Returns (gamma, field)."""
    p, n = draw(st.sampled_from(((2, 1), (2, 2), (3, 1))))
    kind = draw(st.sampled_from(("constant", "field", "sparse")))
    if kind == "sparse":
        d2 = truncation_algebra(draw(st.integers(4, 6)), char=p)
    else:
        base = iterative_hs_coeffs(p, n)
        d2 = base.d2
        hs = {k: str(v) for k, v in base.hs.items()}
    if kind == "constant":
        hs = draw(perturbed(hs, d2.m, ("0", "1", "2"), skew=False))
        return GammaSystem(trivial_algebra(p), d2, {}, hs), None
    spec = FieldSpec(char=p, gens=("t",))
    values = ("0", "1", "t", "t + 1")
    if kind == "sparse":
        hs = draw(sparse_table(d2.m, values, skew=False))
    else:
        hs = draw(perturbed(hs, d2.m, values, skew=False))
    gamma = GammaSystem(trivial_algebra(p), d2, {}, hs, spec)
    action = {(2, i): {"t": draw(st.sampled_from(("0", "1", "t")))} for i in range(1, d2.m + 1)}
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


@pytest.mark.parametrize("a, b, x", [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
def test_jacobi_witness_reached_through_one_cyclic_pair(a, b, x):
    # at (1, 2, 3) only the cyclic pair (a, b) keys a coefficient, c_1^{ab} = t,
    # and the identity reads 0 = d_x c_1^{ab} = 1: the witness is (1, 2, 3, 1)
    # whichever of (i, j), (j, k) and (k, i) the pair is
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(3), None, {(a, b, 1): "t", (b, a, 1): "-t"}, {}, spec)
    field = DField(spec, gamma, {(1, x): {"t": "1"}}, check=False)
    want = Verdict(False, "JACOBI_IDENTITY", (1, 2, 3, 1))
    assert check_jacobi(gamma, field) == dense_jacobi(gamma, field) == want


def test_jacobi_skew_witness_is_the_mirror_of_a_one_sided_entry():
    gamma = GammaSystem(derivation_algebra(2), None, {(2, 1, 1): 1}, {})
    assert check_jacobi(gamma) == dense_jacobi(gamma) == Verdict(False, "JACOBI_SKEW", (1, 2, 1))


def test_associative_identity_reads_both_orders_of_a_product():
    # D = F_2[x, y]/(x^2, y^2) with e_1 = x, e_2 = y, e_3 = xy, on F_2(t):
    # the truncated HS pair D_1 = 0, D_2 = d/dt through the automorphism
    # y -> y + t xy, so D'_3 = D_3 + t D_2 and D'_i D'_j = sum c_l^{ij} D'_l
    # has non-constant coefficients. Every tuple with i < 3 passes, and at
    # (3, 1, 2, 2) only the alpha_3^{21} term d_2 c_2^{12} c_2^{12} is nonzero
    d2 = validate({"char": 2, "dim": 4, "grades": [1, 1, 2], "products": [{"p": 1, "q": 2, "coeffs": {"3": "1"}}]})
    spec = FieldSpec(char=2, gens=("t",))
    hs = {(1, 2, 3): "1", (1, 2, 2): "t", (2, 1, 3): "1", (2, 1, 2): "t", (1, 3, 3): "t", (1, 3, 2): "t^2",
          (2, 3, 2): "1", (3, 1, 3): "t", (3, 1, 2): "t^2", (3, 3, 3): "1"}
    gamma = GammaSystem(trivial_algebra(2), d2, {}, hs, spec)
    field = DField(spec, gamma, {(2, 2): {"t": "1"}, (2, 3): {"t": "t"}})
    assert check_associative(gamma, field) == dense_associative(gamma, field) == Verdict(True)
    assert check_all(gamma, field)


@settings(max_examples=40, deadline=None)
@given(system=hs_systems())
def test_check_associative_matches_dense_reference(system):
    gamma, field = system
    assert_pair_terms_match_c(gamma)
    assert (_verdict_or_error(check_associative, gamma, field)
            == _verdict_or_error(dense_associative, gamma, field))
    assert (_verdict_or_error(check_associative, gamma, None)
            == _verdict_or_error(dense_associative, gamma, None))


def dense_lie_hom(gamma):
    """The Lie side of `check_hom` in the tensor square: r(e_l) = 1 (x) e_l +
    sum c_l^{ij} e_j (x) e_i, and r(e_p) r(e_q) against r(e_p e_q) at every
    p <= q."""
    alg = gamma.d1
    images = {0: {(0, 0): alg.field.one}} | {l: {(0, l): alg.field.one} for l in range(1, alg.m + 1)}
    for (i, j, l), c in gamma.lie.items():
        images[l][(j, i)] = c
    for p in range(1, alg.m + 1):
        for q in range(p, alg.m + 1):
            rhs: dict = {}
            for i, a in ext_row(alg, p, q).items():
                accumulate(rhs, a, images[i].items())
            if _tensor_mul(alg, images[p], images[q]) != rhs:
                return Verdict(False, "HOM_FAIL", (p, q))
    return Verdict(True)


def random_graded_d1(rng, char):
    """A local algebra with `a` indices of grade 1 and `b` of grade 2, the
    products of grade-1 pairs drawn into grade 2 (so every triple product is
    0); None when the draw does not span grade 2."""
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    products = []
    for p in range(1, a + 1):
        for q in range(p, a + 1):
            if rng.random() < 0.6:
                coeffs = {str(k): str(rng.randint(1, 3)) for k in range(a + 1, a + b + 1) if rng.random() < 0.5}
                products.append({"p": p, "q": q, "coeffs": coeffs})
    try:
        return validate({"char": char, "dim": a + b + 1, "grades": [1] * a + [2] * b, "products": products})
    except AlgebraError:
        return None


@pytest.mark.parametrize("char", [0, 2, 3])
def test_lie_check_hom_matches_the_tensor_square(char):
    # Lie tables in the null of a random graded D1 over F_char(t): c_l^{ij} is
    # drawn with l of either grade, and the values may cancel in a sum
    rng = random.Random(2100 + char)
    spec = FieldSpec(char=char, gens=("t",))
    verdicts = []
    while len(verdicts) < 150:
        d1 = random_graded_d1(rng, char)
        null = sorted(null_set(d1)) if d1 else []
        if not null:
            continue
        lie = {(rng.choice(null), rng.choice(null), rng.randint(1, d1.m)): rng.choice(("1", "-1", "2", "t", "-t", "t + 1"))
               for _ in range(rng.randint(0, 4))}
        gamma = GammaSystem(d1, None, lie, {}, spec)
        verdicts.append(gamma.check_hom(1))
        assert verdicts[-1] == dense_lie_hom(gamma), (d1.table, lie)
    assert 20 < sum(not v for v in verdicts) < 130


def test_hs_tensor_reduce_three_iterative_2_2():
    # `gamma reduce` of three copies of the fixture: D = A (x) A (x) A, m = 63
    g = load_gamma(files("opfield") / "fixtures" / "gamma_iterative_2_2.json").gamma
    alg, coeffs = hs_tensor_reduce([(g.d2, g.hs)] * 3)
    assert alg.dim == 64
    assert alg == tensor(tensor(g.d2, g.d2), g.d2)
    assert len(coeffs) == 602
    assert list(coeffs) == sorted(coeffs)


def _single_perturbations(system, values):
    """`system` with each entry c_l^{ij} of its one nonzero family set to
    each value in turn, a Lie entry with its mirror c_l^{ji} negated."""
    lie = bool(system.lie)
    table, m = (system.lie, system.m1) if lie else (system.hs, system.m2)
    for i, j, l in itertools.product(range(1, m + 1), repeat=3):
        for v in values:
            new = dict(table)
            new[(i, j, l)] = v
            if lie:
                new[(j, i, l)] = f"-({v})"
            yield GammaSystem(system.d1, system.d2, new if lie else {}, {} if lie else new, system.fieldspec)


def test_identity_checkers_match_the_loops_over_every_tuple():
    # every single-entry perturbation of the iterative (2,2) and (3,1)
    # systems and of a Lie table over Q(t) with non-constant coefficients:
    # the same verdict as the loops over all (i, j, k, r), and with no field
    # the same SpecError on a non-constant coefficient
    spec = FieldSpec(char=0, gens=("t",))
    lie = GammaSystem(derivation_algebra(3), None, {(1, 2, 3): "t", (2, 1, 3): "-t", (1, 3, 1): "1", (3, 1, 1): "-1"},
                      {}, spec)
    cases = [(g, None, check_associative, dense_associative)
             for base, values in ((iterative_hs_coeffs(2, 2), ("0", "1")), (iterative_hs_coeffs(3, 1), ("0", "1", "2")))
             for g in _single_perturbations(base, values)]
    for g in _single_perturbations(lie, ("0", "1", "t", "t^2")):
        field = DField(spec, g, {(1, 1): {"t": "1"}, (1, 2): {"t": "t"}, (1, 3): {"t": "t^2"}}, check=False)
        cases += [(g, field, check_jacobi, dense_jacobi), (g, None, check_jacobi, dense_jacobi)]
    outcomes = set()
    for gamma, field, check, dense in cases:
        got = _verdict_or_error(check, gamma, field)
        assert got == _verdict_or_error(dense, gamma, field), (gamma.lie, gamma.hs, field)
        outcomes.add(got if isinstance(got, tuple) else got.code)
    assert outcomes == {"", "ASSOC_IDENTITY", "JACOBI_SKEW", "JACOBI_IDENTITY",
                        ("SpecError", "non-constant coefficients need an operator field")}
