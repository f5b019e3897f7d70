"""Commutation systems: coefficient tensors, their validators, and reductions.

A system pairs a Lie-side algebra D1 (bracket coefficients c_{1,l}^{ij}) with
an optional HS-side algebra D2 (iteration coefficients c_{2,l}^{ij}).
Validators report PASS/FAIL verdicts with the lexicographically smallest
violating index tuple as witness; they never raise on mathematical failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb

from .local_algebra import LocalAlgebra, ext_row, null_set, tensor, tensor_basis_pairs, trivial_algebra, truncation_algebra
from .polynomials import Frac, PolyRing, parse_frac
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
        self.lie = {k: c for k, v in lie.items() if (c := self._coeff(v))}
        self.hs = {k: c for k, v in hs.items() if (c := self._coeff(v))}
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

    def _coeff(self, v) -> Frac:
        if isinstance(v, str):
            return parse_frac(self.ring, v)
        return Frac.of(v, self.ring)

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

    def algebra(self, u: int) -> LocalAlgebra:
        if u == 1:
            return self.d1
        if self.d2 is None:
            raise SpecError("no HS-side algebra")
        return self.d2

    def zero(self) -> Frac:
        return Frac.of(0, self.ring)

    def c(self, l, i, j) -> Frac:
        """Mixed-type coefficient accessor: zero across types."""
        if i[0] != j[0] or i[0] != l[0]:
            return self.zero()
        table = self.lie if i[0] == 1 else self.hs
        return table.get((i[1], j[1], l[1]), self.zero())

    def alpha(self, i, p, q):
        """Mixed-type structure constants: zero across types."""
        if i[0] != p[0] or i[0] != q[0]:
            return self.fieldspec.zero
        return self.algebra(i[0]).alpha(i[1], p[1], q[1])

    def check_hom(self, which: int) -> Verdict:
        if which == 1:
            return hom_verdict(self.d1, self.lie, "lie", self.ring)
        if self.d2 is None:
            return PASS
        return hom_verdict(self.d2, self.hs, "hs", self.ring)

    def __repr__(self):
        return (
            f"GammaSystem(m1={self.m1}, m2={self.m2}, "
            f"lie={len(self.lie)} coeffs, hs={len(self.hs)} coeffs)"
        )


# ---------------------------------------------------------------------------
# tensor-square scratch arithmetic for the homomorphism check
# ---------------------------------------------------------------------------

def _tensor_mul(alg: LocalAlgebra, A: dict, B: dict) -> dict:
    out: dict = {}
    for (a, b), ca in A.items():
        for (c, d), cb in B.items():
            coeff = ca * cb
            if not coeff:
                continue
            row2 = ext_row(alg, b, d)
            for i, f1 in ext_row(alg, a, c).items():
                for j, f2 in row2.items():
                    add = coeff * f1 * f2
                    cur = out.get((i, j))
                    cur = add if cur is None else cur + add
                    if cur:
                        out[(i, j)] = cur
                    elif (i, j) in out:
                        del out[(i, j)]
    return out


def _tensor_image(alg: LocalAlgebra, coeffs: dict, kind: str, ring: PolyRing, l: int) -> dict:
    """r(e_l) as a dict (i, j) -> coefficient in the base field."""
    one = Frac.of(1, ring)
    if l == 0:
        return {(0, 0): one}
    img: dict = {}
    if kind == "lie":
        img[(0, l)] = one
        for (i, j, ll), c in coeffs.items():
            if ll == l and c:
                # the (j, i) tensor slot carries c_l^{ij}
                cur = img.get((j, i))
                img[(j, i)] = c if cur is None else cur + c
    else:
        img[(l, 0)] = one
        img[(0, l)] = img.get((0, l), Frac.of(0, ring)) + one
        for (i, j, ll), c in coeffs.items():
            if ll == l and c:
                cur = img.get((i, j))
                img[(i, j)] = c if cur is None else cur + c
    return {k: v for k, v in img.items() if v}


def hom_verdict(alg: LocalAlgebra, coeffs: dict, kind: str, ring: PolyRing) -> Verdict:
    """Does the coefficient table define a multiplicative map on the algebra?"""
    images = {l: _tensor_image(alg, coeffs, kind, ring, l) for l in range(alg.m + 1)}
    for p in range(1, alg.m + 1):
        for q in range(p, alg.m + 1):
            lhs = _tensor_mul(alg, images[p], images[q])
            rhs: dict = {}
            for i, a in ext_row(alg, p, q).items():
                for key, c in images[i].items():
                    add = c * a
                    cur = rhs.get(key)
                    cur = add if cur is None else cur + add
                    if cur:
                        rhs[key] = cur
                    elif key in rhs:
                        del rhs[key]
            if lhs != rhs:
                return Verdict(False, "HOM_FAIL", (p, q))
    return PASS


# ---------------------------------------------------------------------------
# coefficient-identity validators
# ---------------------------------------------------------------------------

def coeff_partial(field, op, value: Frac) -> Frac:
    """d_op of a coefficient in `field`, for an operator op = (u, i) with i >= 1.

    A constant has derivative 0 (the argument behind `DField.e`'s constant
    path), so only a non-constant coefficient needs the field."""
    if value.num.is_const() and value.den.is_const():
        return Frac.of(0, value.ring)
    if field is None:
        raise SpecError("non-constant coefficients need an operator field")
    return field.partial(op, value)


def _memo_partials(field, u: int, c):
    """d_{(u, p)} c(i, j, l) as a function of (p, i, j, l): computed once for a
    nonzero coefficient, and zero for a zero one, so the memo grows with the
    nonzero coefficients rather than with every index tuple visited."""
    nonzero = cache(lambda p, i, j, l: coeff_partial(field, (u, p), c(i, j, l)))
    return lambda p, i, j, l: nonzero(p, i, j, l) if c(i, j, l) else c(i, j, l)


def _by_target(alg: LocalAlgebra) -> dict:
    """{(i, q): [(p, alpha_i^{pq}), ...]} over the nonzero structure constants."""
    out: dict = {}
    for (p, q), row in sorted(alg.rows.items()):
        for i, a in row.items():
            out.setdefault((i, q), []).append((p, a))
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
    """
    idx = range(1, gamma.m1 + 1)
    zero = gamma.zero()

    def c(i, j, l):
        return gamma.lie.get((i, j, l), zero)

    dc = _memo_partials(field, 1, c)
    pair_terms = gamma.pair_terms

    for i, j, l in product(idx, repeat=3):
        # skew-symmetry with zero diagonal (the diagonal matters in char 2)
        if (i == j and c(i, i, l)) or c(i, j, l) + c(j, i, l):
            return Verdict(False, "JACOBI_SKEW", (i, j, l))

    for i, j, k, r in product(idx, repeat=4):
        lhs = zero
        for x, y, z in ((i, j, k), (k, i, j), (j, k, i)):
            for (_, l), cxy in pair_terms.get(((1, x), (1, y)), ()):
                lhs = lhs + cxy * c(l, z, r)
        rhs = dc(i, j, k, r) + dc(k, i, j, r) + dc(j, k, i, r)
        if lhs != rhs:
            return Verdict(False, "JACOBI_IDENTITY", (i, j, k, r))
    return PASS


def check_associative(gamma: GammaSystem, field=None) -> Verdict:
    """The HS-side coefficient identity (composition closes correctly)."""
    if gamma.d2 is None:
        return PASS
    idx = range(1, gamma.m2 + 1)
    zero = gamma.zero()

    def c(i, j, l):
        return gamma.hs.get((i, j, l), zero)

    dc = _memo_partials(field, 2, c)
    pair_terms, alpha = gamma.pair_terms, _by_target(gamma.d2)

    for i, j, k, r in product(idx, repeat=4):
        lhs = zero
        for (_, l), cij in pair_terms.get(((2, i), (2, j)), ()):
            lhs = lhs + cij * c(l, k, r)
        for (_, l), cjk in pair_terms.get(((2, j), (2, k)), ()):
            lhs = lhs - cjk * c(i, l, r)
            for q in idx:
                for p, a in alpha.get((i, q), ()):
                    lhs = lhs - a * dc(p, j, k, l) * c(q, l, r)
        if lhs != dc(i, j, k, r):
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


def _ext_table(alg: LocalAlgebra, coeffs: dict, ring: PolyRing) -> dict:
    """The nonzero HS coefficients {(i, j, l): c} extended to index 0 rows and
    columns."""
    one = Frac.of(1, ring)
    out = {(0, 0, 0): one}
    for p in range(1, alg.m + 1):
        out[(0, p, p)] = out[(p, 0, p)] = one
    out.update({(i, j, l): c for (i, j, l), c in coeffs.items() if i and j and l})
    return out


def hs_tensor_reduce(systems) -> tuple[LocalAlgebra, dict]:
    """Fold HS systems into one on the tensor algebra, coefficients multiplying."""
    systems = list(systems)
    if not systems:
        raise SpecError("nothing to reduce")
    acc_alg, acc_coeffs = systems[0]
    ring = base_ring(FieldSpec(char=acc_alg.field.char))
    acc_coeffs = {k: Frac.of(v, ring) for k, v in acc_coeffs.items()}
    for alg, coeffs in systems[1:]:
        coeffs = {k: Frac.of(v, ring) for k, v in coeffs.items()}
        acc_alg, acc_coeffs = _reduce_pair(acc_alg, acc_coeffs, alg, coeffs, ring)
    return acc_alg, acc_coeffs


def _reduce_pair(a: LocalAlgebra, ca: dict, b: LocalAlgebra, cb: dict, ring: PolyRing):
    combined = tensor(a, b)
    index = {ij: k + 1 for k, ij in enumerate(tensor_basis_pairs(a, b))}
    ext_b = _ext_table(b, cb, ring)
    out: dict = {}
    for (i1, j1, l1), c1 in _ext_table(a, ca, ring).items():
        for (i2, j2, l2), c2 in ext_b.items():
            # (0, 0) is the unit, not a tensor basis index
            key = (index.get((i1, i2)), index.get((j1, j2)), index.get((l1, l2)))
            if None not in key and (c := c1 * c2):
                out[key] = c
    return combined, dict(sorted(out.items()))


def hs_system(alg: LocalAlgebra, coeffs: dict) -> GammaSystem:
    """Wrap a bare HS pair as a full system with a trivial Lie side."""
    return GammaSystem(trivial_algebra(alg.field.char), alg, {}, coeffs)
