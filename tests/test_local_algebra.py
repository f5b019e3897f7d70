import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import opfield
from helpers import reference_from_table
from opfield import local_algebra
from opfield.local_algebra import (
    AlgebraError,
    DVector,
    LocalAlgebra,
    NotUnit,
    derivation_algebra,
    frobenius_assumption,
    from_table,
    null_set,
    support,
    tensor,
    tensor_basis_pairs,
    trivial_algebra,
    truncation_algebra,
    validate,
)
from opfield.scalars import FieldSpec, Fp, SpecError
from opfield.specs import dump_algebra


def dual_numbers(char=0):
    return validate({"char": char, "dim": 2, "grades": [1], "products": []})


def test_validate_dual_numbers():
    alg = dual_numbers()
    assert alg.m == 1 and alg.d == 1
    assert alg.alpha(1, 1, 1) == 0


def test_validate_without_dim_is_a_spec_error():
    with pytest.raises(SpecError, match="^algebra spec missing field 'dim'$"):
        opfield.validate({"char": 0, "grades": [1], "products": []})


def test_validate_idempotent_not_local():
    spec = {"char": 0, "dim": 2, "grades": [1], "products": [{"p": 1, "q": 1, "coeffs": {"1": 1}}]}
    with pytest.raises(AlgebraError) as e:
        validate(spec)
    assert e.value.code == "NOT_LOCAL"


def test_validate_misgraded_rank_fail():
    spec = {
        "char": 0,
        "dim": 3,
        "grades": [1, 1],
        "products": [{"p": 1, "q": 1, "coeffs": {"2": 1}}],
    }
    with pytest.raises(AlgebraError) as e:
        validate(spec)
    assert e.value.code == "RANK_FAIL"
    assert e.value.witness == (2, 1, 1)


def test_assoc_fail_at_an_index_that_is_never_a_left_factor():
    # e_1 e_2 = e_3 and e_1 e_3 = e_4: (e_1 e_1) e_2 = 0 but e_1 (e_1 e_2) = e_4.
    # e_2 only ever stands second in the table, and every other check passes
    with pytest.raises(AlgebraError) as e:
        from_table(FieldSpec(0), 5, [1, 1, 2, 3], {(1, 2, 3): 1, (1, 3, 4): 1})
    assert (e.value.code, e.value.witness) == ("ASSOC_FAIL", (1, 1, 2))


def test_validate_unit_component_not_local():
    spec = {"char": 0, "dim": 2, "grades": [1], "products": [{"p": 1, "q": 1, "coeffs": {"0": 1}}]}
    with pytest.raises(AlgebraError) as e:
        validate(spec)
    assert e.value.code == "NOT_LOCAL"


def test_validate_grade_vs_filtration():
    # declares e_2 in m^2 but all products vanish
    spec = {"char": 0, "dim": 3, "grades": [1, 2], "products": []}
    with pytest.raises(AlgebraError) as e:
        validate(spec)
    assert e.value.code == "RANK_FAIL"


def test_validate_grade_far_above_dim_fails_at_once():
    # the filtration check stops by j = m + 1, not at the largest grade
    spec = {"char": 0, "dim": 3, "grades": [1, 1000000], "products": []}
    with pytest.raises(AlgebraError) as e:
        validate(spec)
    assert (e.value.code, e.value.witness) == ("RANK_FAIL", ("grade-filtration", 2))


def test_commutativity_and_associativity_hold():
    alg = truncation_algebra(4)
    for p in range(1, 4):
        for q in range(1, 4):
            for i in range(4):
                assert alg.alpha(i, p, q) == alg.alpha(i, q, p)


def test_mul_dual_numbers():
    alg = dual_numbers()
    a = alg.vector((Fraction(2), Fraction(3)))
    b = alg.vector((Fraction(5), Fraction(7)))
    assert (a * b).coords == (Fraction(10), Fraction(2 * 7 + 3 * 5))
    assert (alg.unit() * a).coords == a.coords


def test_mul_truncation():
    alg = truncation_algebra(3)
    e = alg.basis_vector(1)
    assert (e * e).coords == (0, 0, 1)
    assert (e * e * e).is_zero()


def test_invert_dual_numbers():
    alg = dual_numbers()
    a = alg.vector((Fraction(2), Fraction(3)))
    inv = a.invert()
    assert inv.coords == (Fraction(1, 2), Fraction(-3, 4))
    assert (a * inv).coords == (1, 0)


def test_invert_scalar_case():
    alg = truncation_algebra(4)
    a = alg.vector((Fraction(5), Fraction(0), Fraction(0), Fraction(0)))
    assert a.invert().coords == (Fraction(1, 5), 0, 0, 0)


def test_invert_not_unit():
    alg = dual_numbers()
    with pytest.raises(NotUnit):
        alg.vector((Fraction(0), Fraction(1))).invert()


def test_invert_random_units_multiplicative():
    rng = random.Random(5)
    for alg in (dual_numbers(), truncation_algebra(3), truncation_algebra(4)):
        for _ in range(100):
            a = alg.vector(tuple(Fraction(rng.randrange(1, 9)) for _ in range(alg.m + 1)))
            b = alg.vector(tuple(Fraction(rng.randrange(1, 9)) for _ in range(alg.m + 1)))
            lhs = (a * b).invert()
            rhs = a.invert() * b.invert()
            assert lhs.coords == rhs.coords
            assert (a * a.invert()).coords == alg.unit().coords


def test_null_set():
    assert null_set(derivation_algebra(3)) == {1, 2, 3}
    assert null_set(truncation_algebra(3)) == {2}
    assert null_set(truncation_algebra(4)) == {3}
    for alg in (derivation_algebra(2), truncation_algebra(4)):
        top = {q for q in range(1, alg.m + 1) if alg.sigma(q) == alg.d}
        assert top <= null_set(alg)


def test_support():
    alg3 = truncation_algebra(3)
    assert support(alg3, 1) == set()
    assert support(alg3, 2) == {1}
    alg4 = truncation_algebra(4)
    assert support(alg4, 3) == {1, 2}
    for i in range(1, 3):
        if derivation_algebra(2).sigma(i) == 1:
            assert support(derivation_algebra(2), i) == set()


def test_frobenius_assumption():
    ok, _ = frobenius_assumption(dual_numbers(0), truncation_algebra(4, 0))
    assert ok  # char 0
    ok, _ = frobenius_assumption(dual_numbers(2), dual_numbers(2))
    assert ok  # e^2 = 0
    ok, w = frobenius_assumption(truncation_algebra(3, 2))
    assert not ok and w == (1, 1)  # e^2 != 0 in F_2[e]/(e^3)
    # dim D_1 = 1 waives the check
    ok, _ = frobenius_assumption(trivial_algebra(2), truncation_algebra(3, 2))
    assert ok


def test_tensor_dimensions_and_grades():
    a, b = dual_numbers(), dual_numbers()
    t = tensor(a, b)
    assert t.dim == 4
    pairs = tensor_basis_pairs(a, b)
    for k, (i, j) in enumerate(pairs, start=1):
        assert t.sigma(k) == a.sigma(i) + b.sigma(j)
    assert t.d == 2  # (e (x) e) has grade 2 and is nonzero


def test_tensor_products_f2():
    a = dual_numbers(2)
    t = tensor(a, a)
    pairs = tensor_basis_pairs(a, a)
    idx = {ij: k + 1 for k, ij in enumerate(pairs)}
    e10, e01, e11 = idx[(1, 0)], idx[(0, 1)], idx[(1, 1)]
    # (e (x) 1)(1 (x) e) = e (x) e, squares vanish
    v = t.basis_vector(e10) * t.basis_vector(e01)
    expect = [t.field.zero] * t.dim
    expect[e11] = t.field.one
    assert list(v.coords) == expect
    assert (t.basis_vector(e10) * t.basis_vector(e10)).is_zero()
    assert (t.basis_vector(e11) * t.basis_vector(e11)).is_zero()


def test_tensor_validates_bigger():
    t = tensor(truncation_algebra(3), dual_numbers())
    assert t.dim == 6
    assert t.d == 3


@pytest.mark.parametrize("char", [0, 2, 3])
def test_builders_equal_their_validated_dumps(char):
    # the builders check their tables in from_table, without the JSON front end
    small = [truncation_algebra(n, char) for n in (1, 2, 3, 4)] + [derivation_algebra(m, char) for m in (0, 2, 3)]
    built = small + [tensor(a, b) for a in small for b in small if 1 < a.dim * b.dim <= 12]
    for alg in built:
        again = validate(dump_algebra(alg))
        assert (again, again.d, again.rows) == (alg, alg.d, alg.rows)


def test_derivation_algebra_is_not_cubic_in_m():
    # no nonzero product, so validation visits no basis triple; the dense
    # m^3 scan took about 6 s at m = 400
    start = time.perf_counter()
    alg = derivation_algebra(400)
    assert time.perf_counter() - start < 0.25
    assert alg.m == 400 and not alg.rows


def test_builders_reject_bad_sizes():
    with pytest.raises(SpecError, match="dimension"):
        truncation_algebra(0)
    with pytest.raises(SpecError, match="dimension"):
        derivation_algebra(-1)


def test_coordinate_arity_checked():
    with pytest.raises(SpecError):
        DVector(dual_numbers(), (Fraction(1),))


# ---------------------------------------------------------------------------
# differential test: the sparse product table against dense loops over alpha
# ---------------------------------------------------------------------------

def _rank_basis(vectors):
    """A basis of the span of `vectors` (all of one length), by elimination."""
    basis = []  # (pivot column, row with a 1 there)
    for v in vectors:
        v = list(v)
        for col, row in basis:
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, row)]
        col = next((k for k, x in enumerate(v) if x), None)
        if col is not None:
            basis.append((col, [x / v[col] for x in v]))
    return [row for _, row in basis]


def dense_validate(spec):
    """`validate` from the definitions, with a dense loop over every (i, p, q)."""
    fs = FieldSpec(char=spec["char"])
    m = spec["dim"] - 1
    grades = spec["grades"]
    raw = {}
    for entry in spec["products"]:
        for i, c in entry["coeffs"].items():
            raw[(entry["p"], entry["q"], int(i))] = fs.coerce(c)
    for (p, q, i), c in raw.items():
        if raw.get((q, p, i), c) != c:
            raise AlgebraError("COMM_FAIL", witness=(i, p, q))
    idx = range(1, m + 1)
    alpha = {
        (i, p, q): raw.get((p, q, i), raw.get((q, p, i), fs.zero))
        for i in range(m + 1) for p in idx for q in idx
    }

    def sigma(p):
        return grades[p - 1] if p else 0

    for p in idx:
        for q in range(p, m + 1):
            if alpha[0, p, q]:
                raise AlgebraError("NOT_LOCAL", witness=(p, q))
    for p in idx:
        for q in idx:
            for r in idx:
                for j in idx:
                    left = sum((alpha[i, p, q] * alpha[j, i, r] for i in idx if alpha[i, p, q]), fs.zero)
                    right = sum((alpha[i, q, r] * alpha[j, p, i] for i in idx if alpha[i, q, r]), fs.zero)
                    if left != right:
                        raise AlgebraError("ASSOC_FAIL", witness=(p, q, r))

    def unit_vec(p):
        return [fs.one if k == p else fs.zero for k in idx]

    # powers of the maximal ideal: powers[j - 1] spans m^j
    powers = [_rank_basis(unit_vec(p) for p in idx)]
    while len(powers) < m + 1:
        products = [
            [sum((v[p - 1] * alpha[i, p, q] for p in idx), fs.zero) for i in idx]
            for v in powers[-1]
            for q in idx
        ]
        powers.append(_rank_basis(products))
    if powers[m]:
        raise AlgebraError("NOT_LOCAL")
    for p in idx:
        for q in range(p, m + 1):
            for i in idx:
                if alpha[i, p, q] and sigma(p) + sigma(q) > sigma(i):
                    raise AlgebraError("RANK_FAIL", witness=(i, p, q))
    d = max((j for j in range(1, m + 1) if powers[j - 1]), default=0)
    for j in range(1, d + 2):
        declared = [unit_vec(p) for p in idx if sigma(p) >= j]
        actual = powers[j - 1] if j <= m else []
        if not (len(_rank_basis(declared)) == len(_rank_basis(actual))
                == len(_rank_basis(declared + actual))):
            raise AlgebraError("RANK_FAIL", witness=("grade-filtration", j))
    if m and max(grades) != d:
        raise AlgebraError("RANK_FAIL", witness=("nilpotency-index", max(grades), d))
    table = [(p, q, i, alpha[i, p, q]) for p in idx for q in range(p, m + 1) for i in idx
             if alpha[i, p, q]]
    return LocalAlgebra(fs, m, grades, table, d)


def dense_product(alg, a, b):
    """Coordinates of a * b from the definition of the structure constants."""
    idx = range(1, alg.m + 1)
    out = [a[0] * b[0]]
    for i in idx:
        acc = a[0] * b[i] + a[i] * b[0]
        for p in idx:
            for q in idx:
                acc = acc + alg.alpha(i, p, q) * a[p] * b[q]
        out.append(acc)
    return out


def two_variable_spec(order, a, b, char):
    """k[x, y]/(x, y)^order in the basis x + a*y, x + b*y, then the monomials
    of degrees 2 .. order - 1: products with several terms, which can cancel."""
    monomials = [(k, d - k) for d in range(2, order) for k in range(d, -1, -1)]
    basis = [{(1, 0): 1, (0, 1): a}, {(1, 0): 1, (0, 1): b}] + [{mon: 1} for mon in monomials]
    index = {mon: k for k, mon in enumerate(monomials, start=3)}
    products = []
    for p in range(1, len(basis) + 1):
        for q in range(p, len(basis) + 1):
            prod = {}
            for (x1, y1), c1 in basis[p - 1].items():
                for (x2, y2), c2 in basis[q - 1].items():
                    if x1 + x2 + y1 + y2 < order:
                        mon = (x1 + x2, y1 + y2)
                        prod[mon] = prod.get(mon, 0) + c1 * c2
            coeffs = {str(index[mon]): str(c) for mon, c in prod.items() if c}
            if coeffs:
                products.append({"p": p, "q": q, "coeffs": coeffs})
    grades = [1, 1] + [x + y for x, y in monomials]
    return {"char": char, "dim": len(basis) + 1, "grades": grades, "products": products}


@st.composite
def algebra_specs(draw):
    """A truncation, derivation, dual-number, two-factor tensor or two-variable
    algebra in char 0, 2 or 3, as a spec with at most one structure constant
    perturbed (or its largest grade raised or lowered, or every grade set to 1)."""
    char = draw(st.sampled_from((0, 2, 3)))
    small = st.sampled_from((
        lambda: dual_numbers(char),
        lambda: truncation_algebra(3, char),
        lambda: truncation_algebra(4, char),
        lambda: derivation_algebra(2, char),
        lambda: derivation_algebra(3, char),
    ))
    kind = draw(st.sampled_from(("single", "tensor", "two_variable")))
    if kind == "single":
        spec = dump_algebra(draw(small)())
    elif kind == "tensor":
        a = draw(small)()
        spec = dump_algebra(tensor(a, draw(small.filter(lambda f: a.dim * f().dim <= 9))()))
    else:
        a, b = (draw(st.integers(-2, 2)) for _ in range(2))
        spec = two_variable_spec(draw(st.sampled_from((3, 4))), a, b, char)
    m = spec["dim"] - 1
    how = draw(st.sampled_from(("none", "set", "mirror", "regrade")))
    value = st.sampled_from(("0", "1", "-1", "2"))
    off_diagonal = [e for e in spec["products"] if e["p"] < e["q"]]
    if how == "mirror" and off_diagonal:  # a (q, p) entry beside a (p, q) one
        e = draw(st.sampled_from(off_diagonal))
        i = draw(st.sampled_from(sorted(e["coeffs"])))
        spec["products"].append({"p": e["q"], "q": e["p"], "coeffs": {i: draw(value)}})
    elif how == "regrade" and m:  # wrong grades instead of a wrong constant
        grades, top = spec["grades"], max(spec["grades"])
        regrade = draw(st.sampled_from(("raise", "lower", "flat")))
        if regrade == "raise":
            grades[-1] += 1
        elif regrade == "lower" and top > 1:  # every largest grade, so they stay sorted
            spec["grades"] = [g - 1 if g == top else g for g in grades]
        else:
            spec["grades"] = [1] * m
    elif how != "none" and m:
        p, q = sorted(draw(st.integers(1, m)) for _ in range(2))
        i = draw(st.integers(0, m))
        spec["products"] = _merge(spec["products"] + [{"p": p, "q": q, "coeffs": {str(i): draw(value)}}])
    return spec


def _merge(products):
    """Fold entries with equal (p, q); later coefficients win."""
    merged = {}
    for e in products:
        merged.setdefault((e["p"], e["q"]), {}).update(e["coeffs"])
    return [{"p": p, "q": q, "coeffs": c} for (p, q), c in merged.items()]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AlgebraError as e:
        return ("AlgebraError", e.code, e.witness)


@settings(max_examples=150, deadline=None)
@given(spec=algebra_specs())
def test_validate_matches_dense_reference(spec):
    got, want = _outcome(validate, spec), _outcome(dense_validate, spec)
    assert got == want
    if isinstance(got, LocalAlgebra):
        assert got.d == want.d
        for p in range(1, got.m + 1):
            for q in range(1, got.m + 1):
                for i in range(got.m + 1):
                    assert got.alpha(i, p, q) == want.alpha(i, p, q)


@settings(max_examples=60, deadline=None)
@given(spec=algebra_specs(), data=st.data())
def test_mul_matches_dense_product(spec, data):
    try:
        alg = validate(spec)
    except AlgebraError:
        return
    coords = st.lists(st.integers(-3, 3), min_size=alg.dim, max_size=alg.dim)
    a = [alg.field.coerce(x) for x in data.draw(coords)]
    b = [alg.field.coerce(x) for x in data.draw(coords)]
    assert list((alg.vector(a) * alg.vector(b)).coords) == dense_product(alg, a, b)


# ---------------------------------------------------------------------------
# differential test: `from_table` against the dense checks of
# `helpers.reference_from_table`, every product triple and every ideal power
# ---------------------------------------------------------------------------

def random_table(rng, char):
    """(fs, dim, grades, table) of valid shape in char `char`: drawn at random,
    or a truncation, derivation or two-factor tensor algebra with its basis
    rescaled, then at most one constant set, one mirror entry added or the
    grades changed."""
    fs = FieldSpec(char=char)
    units = [v for v in (1, 2, 3, -1, -2) if not char or v % char]
    if rng.random() < 0.3:
        m = rng.randint(1, 5)
        grades = sorted(rng.randint(1, 3) for _ in range(m))
        table = {}
        for _ in range(rng.randint(0, 6)):
            p, q = sorted(rng.randint(1, m) for _ in range(2))
            i = rng.randint(0, m) if rng.random() < 0.1 else rng.randint(1, m)
            table[(p, q, i)] = fs.coerce(rng.randint(-2, 2))
        return fs, m + 1, grades, table
    small = [lambda: truncation_algebra(rng.randint(2, 5), char), lambda: derivation_algebra(rng.randint(1, 3), char)]
    a = rng.choice(small)()
    if rng.random() < 0.4:
        b = rng.choice(small)()
        if a.dim * b.dim <= 16:
            a = tensor(a, b)
    m, grades = a.m, list(a.grades)
    scale = [None] + [fs.coerce(rng.choice(units)) for _ in range(m)]
    table = {(p, q, i): scale[p] * scale[q] / scale[i] * c for p, q, i, c in a.table}
    how = rng.choice(("none", "set", "set", "mirror", "regrade"))
    if how == "set" and m:
        p, q = sorted(rng.randint(1, m) for _ in range(2))
        table[(p, q, rng.randint(0, m))] = fs.coerce(rng.choice((0, 1, -1, 2)))
    elif how == "mirror" and table:
        p, q, i = rng.choice(sorted(table))
        table[(q, p, i)] = table[(p, q, i)] + fs.coerce(rng.choice((0, 1)))
    elif how == "regrade" and m:
        k, step = rng.randint(0, m - 1), rng.choice((1, 1, -1, rng.randint(2, m + 2)))
        grades = grades[:k] + [max(1, g + step) for g in grades[k:]]
        if step < 0:
            grades = sorted(grades)
    return fs, m + 1, grades, table


def _verdict(fn, *args):
    try:
        fn(*args)
    except AlgebraError as e:
        return e.code, e.witness
    return "PASS"


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), char=st.sampled_from((0, 2, 3, 5)))
def test_from_table_matches_the_dense_checks(rng, char):
    table = random_table(rng, char)
    assert _verdict(from_table, *table) == _verdict(reference_from_table, *table)


def test_from_table_differential_reaches_every_failure():
    # the same tables, seeded, reach every code the checks can give
    rng, seen = random.Random(3100), set()
    for n in range(1200):
        table = random_table(rng, (0, 2, 3, 5)[n % 4])
        got = _verdict(from_table, *table)
        assert got == _verdict(reference_from_table, *table), table
        grade_filtration = got != "PASS" and got[0] == "RANK_FAIL" and got[1][0] == "grade-filtration"
        seen.add(got if got == "PASS" or grade_filtration else (got[0], got[1] is None))
    assert seen >= {"PASS", ("COMM_FAIL", False), ("NOT_LOCAL", False), ("NOT_LOCAL", True),
                    ("ASSOC_FAIL", False), ("RANK_FAIL", False),
                    ("RANK_FAIL", ("grade-filtration", 2)), ("RANK_FAIL", ("grade-filtration", 3))}


def test_idempotent_fails_nilpotency_before_rank():
    # e_1 e_1 = e_1 with grade 1 breaks both the ranked basis (1 + 1 > 1) and
    # nilpotency; NOT_LOCAL comes first
    table = (FieldSpec(0), 2, [1], {(1, 1, 1): Fraction(1)})
    want = ("NOT_LOCAL", None)
    assert _verdict(from_table, *table) == _verdict(reference_from_table, *table) == want


def test_from_table_work_grows_with_the_nonzero_products(monkeypatch):
    # associativity on trunc5 (x) trunc3 compares 124 triples with a nonzero
    # side, two products each; the loop over every triple of factors made 2354
    # calls. A passing table never builds the ideal powers
    a, b = truncation_algebra(5), truncation_algebra(3)
    calls = []
    times_basis = local_algebra._times_basis
    monkeypatch.setattr(local_algebra, "_times_basis", lambda *args: calls.append(1) or times_basis(*args))

    def no_filtration(*args):
        raise AssertionError("a passing table built the ideal powers")

    monkeypatch.setattr(local_algebra, "_ideal_filtration", no_filtration)
    assert tensor(a, b).dim == 15
    assert len(calls) <= 248
    for alg in (derivation_algebra(4), truncation_algebra(6, 2), tensor(a, derivation_algebra(2))):
        assert from_table(alg.field, alg.dim, alg.grades, {(p, q, i): c for p, q, i, c in alg.table}) == alg
    # the grade check eliminates once per grade up to m, not up to the largest
    echelon, passes = local_algebra._echelon, []
    monkeypatch.setattr(local_algebra, "_echelon", lambda *args: passes.append(1) or echelon(*args))
    with pytest.raises(AlgebraError, match="grade-filtration"):
        from_table(FieldSpec(0), 3, [1, 1000000], {})
    assert len(passes) == 2
