"""Shared mathematical fixtures and schema validation for the suite."""

import itertools
import json
from importlib.resources import files
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from opfield import local_algebra
from opfield.commutation import GammaSystem, iterative_hs_coeffs
from opfield.dfields import DField
from opfield.indices import hs_count, op_key, tri_key
from opfield.local_algebra import AlgebraError, LocalAlgebra, derivation_algebra, truncation_algebra
from opfield.polynomials import Poly
from opfield.scalars import FieldSpec

SCHEMAS = {
    p.name: json.loads(p.read_text())
    for p in Path(str(files("opfield") / "schemas")).glob("*.schema.json")
}
# the schemas name each other by "$id", which is each one's file name
SCHEMA_REGISTRY = Registry().with_resources((s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values())


def validate_schema(data, kind):
    """Validate `data` against `<kind>.schema.json`, following its `$ref`s."""
    Draft202012Validator({"$ref": f"{kind}.schema.json"}, registry=SCHEMA_REGISTRY).validate(data)


SL2_LIE = {
    (1, 2, 3): 1, (2, 1, 3): -1,
    (3, 1, 1): 2, (1, 3, 1): -2,
    (3, 2, 2): -2, (2, 3, 2): 2,
}


def trivial_derivation():
    """One derivation, no bracket."""
    return GammaSystem(derivation_algebra(1), None, {}, {})


def two_derivations():
    """Two commuting derivations."""
    return GammaSystem(derivation_algebra(2), None, {}, {})


def sl2_constants():
    """Three derivations bracketing like sl2, constant coefficients over Q."""
    return GammaSystem(derivation_algebra(3), None, SL2_LIE, {})


def mixed_f2():
    """[d1,d2] = d1 over F_2 together with a 1-truncated HS operator."""
    lie = {(1, 2, 1): 1, (2, 1, 1): 1}
    return GammaSystem(derivation_algebra(2, char=2), truncation_algebra(2, char=2), lie, {})


def passing_fixtures():
    return {
        "trivial_derivation": trivial_derivation(),
        "sl2": sl2_constants(),
        "iterative_2_2": iterative_hs_coeffs(2, 2),
        "iterative_3_1": iterative_hs_coeffs(3, 1),
        "mixed_f2": mixed_f2(),
    }


def identity_breaking_perturbations():
    """Fixture name -> perturbed system failing an identity validator.

    Each perturbation changes exactly one coefficient entry and is chosen to
    break the coefficient identities (not merely multiplicativity), since the
    free-module action is built from the coefficients alone.
    """
    out = {}
    out["trivial_derivation"] = GammaSystem(derivation_algebra(1), None, {(1, 1, 1): 1}, {})
    bad_sl2 = dict(SL2_LIE)
    bad_sl2[(1, 2, 3)] = 2  # breaks skew-symmetry against c^{21}_3 = -1
    out["sl2"] = GammaSystem(derivation_algebra(3), None, bad_sl2, {})
    g22 = iterative_hs_coeffs(2, 2)
    hs22 = dict(g22.hs)
    hs22[(3, 1, 1)] = 1  # c_1^{31} := 1 breaks the associativity identity
    out["iterative_2_2"] = GammaSystem(g22.d1, g22.d2, {}, hs22)
    g31 = iterative_hs_coeffs(3, 1)
    hs31 = dict(g31.hs)
    hs31[(2, 1, 1)] = 1  # c_1^{21} := 1 breaks the associativity identity
    out["iterative_3_1"] = GammaSystem(g31.d1, g31.d2, {}, hs31)
    out["mixed_f2"] = GammaSystem(
        derivation_algebra(2, char=2),
        truncation_algebra(2, char=2),
        {(1, 2, 1): 1},  # mirror entry dropped: skew fails
        {},
    )
    return out


def reference_from_table(fs, dim, grades, table):
    """The checks of `local_algebra.from_table` the dense way, for a table of
    valid shape: associativity at every (p, q, r) over the indices with a
    nonzero product, then the whole filtration of the maximal ideal, its
    nilpotency, the ranked-basis scan and every grade against its power.
    Returns None or raises AlgebraError as `from_table` does."""
    m = dim - 1
    nonzero = {}
    for (p, q, i), c in table.items():
        if table.get((q, p, i), c) != c:
            raise AlgebraError("COMM_FAIL", witness=(i, p, q))
        if c:
            nonzero[(min(p, q), max(p, q), i)] = c
    alg = LocalAlgebra(fs, m, grades, [(p, q, i, c) for (p, q, i), c in sorted(nonzero.items())],
                       grades[-1] if m else 0)
    for (p, q, i, _) in alg.table:
        if i == 0:
            raise AlgebraError("NOT_LOCAL", witness=(p, q))
    rows, no_row = alg.rows, {}
    factors = sorted({p for p, _ in rows})
    for p, q, r in itertools.product(factors, repeat=3):
        pq, qr = rows.get((p, q), no_row), rows.get((q, r), no_row)
        if local_algebra._times_basis(alg, pq, r) != local_algebra._times_basis(alg, qr, p):
            raise AlgebraError("ASSOC_FAIL", witness=(p, q, r))
    filtration = local_algebra._ideal_filtration(alg, factors)
    if filtration[-1]:
        raise AlgebraError("NOT_LOCAL")
    for (p, q, i, _) in alg.table:
        if alg.sigma(p) + alg.sigma(q) > alg.sigma(i):
            raise AlgebraError("RANK_FAIL", witness=(i, p, q))
    for j in range(1, alg.d + 2):
        if len(filtration[j - 1]) != sum(g >= j for g in grades):
            raise AlgebraError("RANK_FAIL", witness=("grade-filtration", j))


def leading_v_coeff(g: Poly, v: int) -> Poly:
    """The reference for `Poly.leading_coeff_in`: the coefficient of x_v^d,
    d the degree of g in x_v, with each exponent rewritten entry by entry."""
    d = g.degree_in(v)
    terms = {}
    for e, c in g.terms.items():
        if e[v] == d:
            ne = list(e)
            ne[v] = 0
            terms[tuple(ne)] = c
    return Poly(g.ring, terms)


def constant_field(gamma, gens=()):
    """Operator field with the given generators, all derivatives zero."""
    spec = FieldSpec(char=gamma.fieldspec.char, gens=tuple(gens))
    action = {op: {g: 0 for g in gens} for op in gamma.ops}
    return DField(spec, gamma, action)


# reference definitions of the index calculus, which the library itself never
# needs: it only builds normal words and compares triangular keys


def is_normal(word) -> bool:
    if hs_count(word) > 1:
        return False
    keys = [op_key(op) for op in word]
    return all(keys[k] >= keys[k + 1] for k in range(len(keys) - 1))


def tri_leq(a, b, m1: int, m2: int) -> bool:
    """The triangular order: lexicographic on (length, variable, multidegree)."""
    wa, ta = a
    wb, tb = b
    return tri_key(wa, ta, m1, m2) <= tri_key(wb, tb, m1, m2)


def all_words_upto(m1: int, m2: int, length: int) -> list:
    """Every word (normal or not) of length <= `length`."""
    alphabet = [(2, i) for i in range(1, m2 + 1)] + [(1, i) for i in range(1, m1 + 1)]
    out = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (op,) for w in frontier for op in alphabet]
        out.extend(frontier)
    return out
