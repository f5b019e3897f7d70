"""Commutation systems: coefficient tensors, their validators, and reductions.

A system pairs a Lie-side algebra D1 (bracket coefficients c_{1,l}^{ij}) with
an optional HS-side algebra D2 (iteration coefficients c_{2,l}^{ij}).
Validators report PASS/FAIL verdicts with the lexicographically smallest
violating index tuple as witness; they never raise on mathematical failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .local_algebra import (
    LocalAlgebra, accumulate, ext_row, null_set, tensor, tensor_basis_pairs, trivial_algebra, truncation_algebra,
)
from .polynomials import FracDomain, PolyRing
from .scalars import FieldSpec, SpecError


@dataclass(frozen=True)
class Verdict:
    ok: bool
    code: str = ""
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "PASS"
        w = "" if self.witness is None else f" witness={self.witness}"
        return f"FAIL {self.code}{w}"


PASS = Verdict(True)


def base_ring(spec: FieldSpec) -> PolyRing:
    return PolyRing(spec.gens, FieldSpec(spec.char))


class GammaSystem:
    """Coefficient tensors of a Lie/HS commutation system over a base field."""

    def __init__(self, d1: LocalAlgebra, d2: LocalAlgebra | None, lie: dict, hs: dict,
                 fieldspec: FieldSpec | None = None):
        self.d1 = d1
        self.d2 = d2
        self.fieldspec = fieldspec or FieldSpec(char=d1.field.char)
        if self.fieldspec.char != d1.field.char:
            raise SpecError("base field and D1 characteristics differ")
        if d2 is not None and d2.field.char != self.fieldspec.char:
            raise SpecError("base field and D2 characteristics differ")
        self.ring = base_ring(self.fieldspec)
        self.domain = FracDomain(self.ring)  # every coefficient is a value of it
        self.lie = {k: c for k, v in lie.items() if (c := self.domain.coerce(v))}
        self.hs = {k: c for k, v in hs.items() if (c := self.domain.coerce(v))}
        if self.hs and self.fieldspec.char == 0:
            raise SpecError("HS coefficients require positive characteristic")
        if self.hs and d2 is None:
            raise SpecError("HS coefficients without an HS-side algebra")
        nd1 = null_set(d1)
        for (i, j, l) in self.lie:
            if not (1 <= i <= d1.m and 1 <= j <= d1.m and 1 <= l <= d1.m):
                raise SpecError(f"Lie coefficient index {(i, j, l)} out of range")
            if i not in nd1 or j not in nd1:
                raise SpecError(
                    f"Lie coefficient c_{l}^{{{i}{j}}} outside the null of D1"
                )
        if d2 is not None:
            for (i, j, l) in self.hs:
                if not (1 <= i <= d2.m and 1 <= j <= d2.m and 1 <= l <= d2.m):
                    raise SpecError(f"HS coefficient index {(i, j, l)} out of range")
        # {(i, j): [(l, c_l^{ij}), ...]} over operators, nonzero terms only, l ascending
        self.pair_terms: dict = {}
        for u, table in ((1, self.lie), (2, self.hs)):
            for (i, j, l), c in sorted(table.items()):
                self.pair_terms.setdefault(((u, i), (u, j)), []).append(((u, l), c))

    @property
    def m1(self) -> int:
        return self.d1.m

    @property
    def m2(self) -> int:
        return self.d2.m if self.d2 is not None else 0

    @property
    def ops(self) -> list[tuple[int, int]]:
        """All operator indices, ascending in the index order."""
        return [(2, i) for i in range(1, self.m2 + 1)] + [(1, i) for i in range(1, self.m1 + 1)]

    @property
    def families(self) -> list[int]:
        """The u with at least one operator (u, i), in the order of `ops`."""
        return [u for u, m in ((2, self.m2), (1, self.m1)) if m]

    def algebra(self, u: int) -> LocalAlgebra:
        if u == 1:
            return self.d1
        if self.d2 is None:
            raise SpecError("no HS-side algebra")
        return self.d2

    def zero(self):
        return self.domain.coerce(0)

    def c(self, l, i, j):
        """c_l^{ij} as a value of `domain`; zero across types."""
        if i[0] != j[0] or i[0] != l[0]:
            return self.zero()
        table = self.lie if i[0] == 1 else self.hs
        return table.get((i[1], j[1], l[1]), self.zero())

    def check_hom(self, which: int) -> Verdict:
        """Is r multiplicative on D_which? On the Lie side r(e_l) = 1 (x) e_l
        + sum c_l^{ij} e_j (x) e_i with i, j in the null of D1, so a product
        holding a c-term is 0 and r(e_p) r(e_q) = r(e_p e_q) reads sum_l
        alpha_l^{pq} c_l^{ij} = 0 at each (i, j), trivial where e_p e_q = 0.
        Ascending (p, q), p <= q, give the witness of the loop over all pairs."""
        if which == 2:
            return PASS if self.d2 is None else hom_verdict(self.d2, self.hs)
        lie_terms = [terms for (i, _), terms in self.pair_terms.items() if i[0] == 1]
        for (p, q), row in sorted(kv for kv in self.d1.rows.items() if kv[0][0] <= kv[0][1]):
            if any(sum((row[l] * c for (_, l), c in t if l in row), self.zero()) for t in lie_terms):
                return Verdict(False, "HOM_FAIL", (p, q))
        return PASS

    def __repr__(self):
        return (
            f"GammaSystem(m1={self.m1}, m2={self.m2}, "
            f"lie={len(self.lie)} coeffs, hs={len(self.hs)} coeffs)"
        )


# ---------------------------------------------------------------------------
# tensor-square arithmetic for the homomorphism check
# ---------------------------------------------------------------------------

def _tensor_mul(alg: LocalAlgebra, A: dict, B: dict) -> dict:
    out: dict = {}
    for (a, b), ca in A.items():
        for (c, d), cb in B.items():
            coeff = ca * cb
            row2 = ext_row(alg, b, d)
            for i, f1 in ext_row(alg, a, c).items():
                accumulate(out, coeff * f1, (((i, j), f2) for j, f2 in row2.items()))
    return out


def _coproduct(alg: LocalAlgebra, coeffs: dict) -> dict:
    """r(e_l) for l = 0..m as {l: {(i, j): coefficient in the base field}},
    in one pass over the HS table: 1 (x) 1 for l = 0, else e_l (x) 1 + 1 (x)
    e_l plus each nonzero c_l^{ij} in slot (i, j). An entry with an index 0 (a
    unit slot, already written) or whose l is no basis index is skipped."""
    one = alg.field.one
    images: dict = {0: {(0, 0): one}}
    for l in range(1, alg.m + 1):
        images[l] = {(l, 0): one, (0, l): one}
    for (i, j, l), c in coeffs.items():
        if i and j and c and 0 < l <= alg.m:
            images[l][(i, j)] = c
    return images


def hom_verdict(alg: LocalAlgebra, coeffs: dict) -> Verdict:
    """Does the HS coefficient table define a multiplicative map on the algebra?"""
    images = _coproduct(alg, coeffs)
    for p in range(1, alg.m + 1):
        for q in range(p, alg.m + 1):
            lhs = _tensor_mul(alg, images[p], images[q])
            rhs: dict = {}
            for i, a in ext_row(alg, p, q).items():
                accumulate(rhs, a, images[i].items())
            if lhs != rhs:
                return Verdict(False, "HOM_FAIL", (p, q))
    return PASS


# ---------------------------------------------------------------------------
# coefficient-identity validators
# ---------------------------------------------------------------------------

def coeff_partial(field, op, value):
    """d_op of a base-field value in `field`, for an operator op = (u, i) with
    i >= 1.

    A constant has derivative 0 (the argument behind `DField.e`'s constant
    path), returned as the int 0, which values of every field add and
    compare with; so only a non-constant coefficient needs the field."""
    if FracDomain.is_const(value):
        return 0
    if field is None:
        raise SpecError("non-constant coefficients need an operator field")
    return field.partial(op, value)


def _memo_partials(field, u: int, c):
    """d_{(u, p)} c(i, j, l) as a function of (p, i, j, l): computed once for a
    nonzero coefficient, and zero for a zero one, so the memo grows with the
    nonzero coefficients rather than with every index tuple visited."""
    nonzero = cache(lambda p, i, j, l: coeff_partial(field, (u, p), c(i, j, l)))
    return lambda p, i, j, l: nonzero(p, i, j, l) if c(i, j, l) else c(i, j, l)


def _reached(gamma: GammaSystem, u: int, m: int) -> set:
    """The (i, j, k) of family u (dimension m) at which a chain c_l^{ij}
    c^{lk} or c_l^{jk} c^{il} of nonzero coefficients is defined, and every
    (i, j, k) at which c^{jk} holds a non-constant coefficient."""
    keys = [(x[1], y[1], terms) for (x, y), terms in gamma.pair_terms.items() if x[0] == u]
    after, before = {}, {}  # x -> every y with (x, y) keying a coefficient; y -> every such x
    for x, y, _ in keys:
        after.setdefault(x, []).append(y)
        before.setdefault(y, []).append(x)
    out: set = set()
    for x, y, terms in keys:
        for (_, l), c in terms:
            out.update((x, y, z) for z in after.get(l, ()))
            out.update((z, x, y) for z in before.get(l, ()))
            if not FracDomain.is_const(c):
                out.update((i, x, y) for i in range(1, m + 1))
    return out


def check_jacobi(gamma: GammaSystem, field=None) -> Verdict:
    """Skew-symmetry and the corrected Jacobi identity for the Lie-side
    coefficients.

    The graded-derivative conditions sum alpha_x^{pq} d_p c_r^{yz} over p and
    the cyclic shifts (x, y, z) of (i, j, k); they hold once the identity
    does, so they are not checked separately:
    - `rows` stores e_p e_q under both (p, q) and (q, p), so a nonzero
      alpha_x^{pq} puts p outside the null of D1;
    - `GammaSystem` refuses a coefficient c^{jk} with j or k outside the null,
      so for such p every c^{pj}, c^{kp} and c^{lp} is 0;
    - so the identity at (p, j, k, r) reads 0 = d_p c_r^{jk}, and once it
      passes, every term of the derivative conditions is 0.
    The identity visits every (p, y, z, r) those conditions would, so with no
    field a non-constant coefficient raises `SpecError` here as well.

    Both checks visit only the triples where a side can be nonzero: with
    constant coefficients only chains c_l^{xy} c_r^{lz} reach the left side
    and the right side is 0. Here (x, y, z) runs over the rotations of (i, j,
    k), so the triples are the rotations of those `_reached` lists. At a
    triple both sides are sparse vectors over r; the reached r are compared
    in ascending order, taking the derivatives there, so the witness and any
    `SpecError` come as in the loop over all m^4 tuples.
    """
    zero = gamma.zero()

    def c(i, j, l):
        return gamma.lie.get((i, j, l), zero)

    # skew-symmetry with zero diagonal (the diagonal matters in char 2); an
    # entry can fail only when it or its mirror is nonzero
    for i, j, l in sorted(gamma.lie.keys() | {(j, i, l) for i, j, l in gamma.lie}):
        if (i == j and c(i, i, l)) or c(i, j, l) + c(j, i, l):
            return Verdict(False, "JACOBI_SKEW", (i, j, l))

    dc = _memo_partials(field, 1, c)
    terms = gamma.pair_terms
    triples = {t for x, y, z in _reached(gamma, 1, gamma.m1) for t in ((x, y, z), (z, x, y), (y, z, x))}
    for i, j, k in sorted(triples):
        # a cyclic pair (x, y) reaches r through c_l^{xy} c_r^{lz} on the
        # left and through d_z c_r^{xy} on the right
        lhs, reached = {}, set()
        for x, y, z in ((i, j, k), (k, i, j), (j, k, i)):
            for l, cxy in terms.get(((1, x), (1, y)), ()):
                reached.add(l)
                accumulate(lhs, cxy, terms.get((l, (1, z)), ()))
        for _, r in sorted(reached | lhs.keys()):
            if lhs.get((1, r), zero) != dc(i, j, k, r) + dc(k, i, j, r) + dc(j, k, i, r):
                return Verdict(False, "JACOBI_IDENTITY", (i, j, k, r))
    return PASS


def check_associative(gamma: GammaSystem, field=None) -> Verdict:
    """The HS-side coefficient identity (composition closes correctly), on
    the `_reached` triples as in `check_jacobi`; a triple's derivative terms
    are taken before its first r, where the loop over all r takes them."""
    if gamma.d2 is None:
        return PASS
    zero = gamma.zero()

    def c(i, j, l):
        return gamma.hs.get((i, j, l), zero)

    dc = _memo_partials(field, 2, c)
    terms, alpha = gamma.pair_terms, gamma.d2.by_target
    for i, j, k in sorted(_reached(gamma, 2, gamma.m2)):
        lhs: dict = {}
        jk = terms.get(((2, j), (2, k)), ())
        for l, cij in terms.get(((2, i), (2, j)), ()):
            accumulate(lhs, cij, terms.get((l, (2, k)), ()))
        for l, cjk in jk:
            accumulate(lhs, -cjk, terms.get(((2, i), l), ()))
            for p, q, a in alpha.get(i, ()):
                accumulate(lhs, -a * dc(p, j, k, l[1]), terms.get(((2, q), l), ()))
        for _, r in sorted(lhs.keys() | {l for l, _ in jk}):
            if lhs.get((2, r), zero) != dc(i, j, k, r):
                return Verdict(False, "ASSOC_IDENTITY", (i, j, k, r))
    return PASS


def check_cross(gamma: GammaSystem, field=None) -> Verdict:
    """Coefficients of one family must be constants for the other family."""
    for (i, j, l), c in gamma.lie.items():
        for k in range(1, gamma.m2 + 1):
            if coeff_partial(field, (2, k), c):
                return Verdict(False, "CROSS_DERIVATIVE", (2, k, i, j, l))
    for (i, j, l), c in gamma.hs.items():
        for k in range(1, gamma.m1 + 1):
            if coeff_partial(field, (1, k), c):
                return Verdict(False, "CROSS_DERIVATIVE", (1, k, i, j, l))
    return PASS


def check_jacobi_associative(gamma: GammaSystem, field=None) -> Verdict:
    for check in (check_jacobi, check_associative, check_cross):
        v = check(gamma, field)
        if not v:
            return v
    return PASS


def check_all(gamma: GammaSystem, field=None) -> Verdict:
    """Homomorphism checks plus the full coefficient-identity battery."""
    v = gamma.check_hom(1)
    if not v:
        return v
    v = gamma.check_hom(2)
    if not v:
        return v
    return check_jacobi_associative(gamma, field)


# ---------------------------------------------------------------------------
# stock systems and the tensor reduction
# ---------------------------------------------------------------------------

def iterative_hs_coeffs(p: int, n: int) -> GammaSystem:
    """The additive iteration rule on F_p[e]/(e^(p^n)): binomial coefficients."""
    if n < 1:
        raise SpecError("n must be positive")
    order = p**n
    alg = truncation_algebra(order, char=p)
    hs = {}
    for i in range(1, order):
        for j in range(1, order):
            if i + j <= order - 1:
                v = comb(i + j, i) % p
                if v:
                    hs[(i, j, i + j)] = v
    return GammaSystem(trivial_algebra(p), alg, {}, hs)


def hs_tensor_reduce(systems) -> tuple[LocalAlgebra, dict]:
    """Fold HS systems into one on the tensor algebra, coefficients multiplying
    as scalars of the prime field."""
    systems = [(alg, {k: alg.field.coerce(v) for k, v in coeffs.items()}) for alg, coeffs in systems]
    if not systems:
        raise SpecError("nothing to reduce")
    acc_alg, acc_coeffs = systems[0]
    for alg, coeffs in systems[1:]:
        acc_alg, acc_coeffs = _reduce_pair(acc_alg, acc_coeffs, alg, coeffs)
    return acc_alg, acc_coeffs


def _reduce_pair(a: LocalAlgebra, ca: dict, b: LocalAlgebra, cb: dict):
    combined = tensor(a, b)
    index = {ij: k + 1 for k, ij in enumerate(tensor_basis_pairs(a, b))}
    # c_{(l1,l2)}^{(i1,i2),(j1,j2)} = c_{l1}^{i1 j1} c_{l2}^{i2 j2}, over the
    # coproduct tables with their unit terms
    ext_a, ext_b = (
        [(i, j, l, c) for l, img in _coproduct(alg, cs).items()
         for (i, j), c in img.items()]
        for alg, cs in ((a, ca), (b, cb))
    )
    out: dict = {}
    for (i1, j1, l1, c1) in ext_a:
        for (i2, j2, l2, c2) in ext_b:
            # (0, 0) is the unit, not a tensor basis index
            key = (index.get((i1, i2)), index.get((j1, j2)), index.get((l1, l2)))
            if None not in key and (c := c1 * c2):
                out[key] = c
    return combined, dict(sorted(out.items()))


def hs_system(alg: LocalAlgebra, coeffs: dict) -> GammaSystem:
    """Wrap a bare HS pair as a full system with a trivial Lie side."""
    return GammaSystem(trivial_algebra(alg.field.char), alg, {}, coeffs)
