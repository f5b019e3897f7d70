"""Computable operator fields: rational function fields with declared
operator actions on generators, evaluated through the algebra homomorphism
into the truncated algebra, plus the extension machinery for algebraic and
transcendental adjoints."""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache

from .commutation import GammaSystem
from .free_module import FreeCalculus
from .groebner import Ideal
from .indices import op_key
from .local_algebra import DVector
from .polynomials import Frac, FracDomain, Poly, PolyRing
from .scalars import CodedError, FieldSpec, SpecError


class GammaFail(CodedError):
    """Declared generator action breaks the commutation identities."""


class NotSeparable(ValueError):
    pass


class NonzeroResidual(ValueError):
    """The grade-by-grade solve left a coordinate of f^e nonzero; the witness
    is the operator index and that coordinate."""

    def __init__(self, op, coord):
        self.witness = (op, coord)
        super().__init__(f"triangular solve left a nonzero residual witness=({op}, {coord})")


def ehom_frac(frac: Frac, var_images: dict, coeff_image) -> DVector:
    """Image of a fraction under the homomorphism sending variable i to
    var_images[i] and each coefficient c to coeff_image(c)."""
    image = frac.num.subst(var_images, coeff_image)
    if frac.den is frac.ring.one:
        return image
    return image * frac.den.subst(var_images, coeff_image).invert()


# ---------------------------------------------------------------------------
# operator fields
# ---------------------------------------------------------------------------

class DField:
    """A rational function field carrying the declared operator action."""

    def __init__(self, spec: FieldSpec, gamma: GammaSystem, action: dict, check: bool = True):
        if spec.char != gamma.fieldspec.char:
            raise SpecError("field and commutation system characteristics differ")
        if spec.gens != gamma.fieldspec.gens:
            # the system may have been written over a bare field; re-anchor it
            if gamma.fieldspec.gens != ():
                raise SpecError("field and commutation system generators differ")
            gamma = _reanchor(gamma, spec)
        self.spec = spec
        self.gamma = gamma
        self.ring = gamma.ring
        self.action: dict = {}
        for op in gamma.ops:
            row = action.get(op, {})
            if not isinstance(row, Mapping) or not set(row).issubset(spec.gens):
                raise SpecError(f"action of {op} must map field generators to values, got {row!r}")
            self.action[op] = {g: self.scalar(row.get(g, 0)) for g in spec.gens}
        for op in action:
            if op not in self.action:
                raise SpecError(f"action for unknown operator {op}")
        self._gen_images: dict = {}
        self.fc = FreeCalculus(gamma, self)
        if check:
            self.validate_gamma()

    @property
    def ops(self):
        return self.gamma.ops

    def gen(self, name: str) -> Frac:
        return Frac.of(self.ring.var(name), self.ring)

    def scalar(self, x):
        """x as a value of the field: the one coercion, to `gamma.domain`."""
        return self.gamma.domain.coerce(x)

    def _images(self, u: int) -> dict:
        cached = self._gen_images.get(u)
        if cached is not None:
            return cached
        alg = self.gamma.algebra(u)
        images = {}
        for idx, g in enumerate(self.spec.gens):
            coords = [self.gen(g)]
            for i in range(1, alg.m + 1):
                coords.append(self.action[(u, i)][g])
            images[idx] = DVector(alg, tuple(coords))
        self._gen_images[u] = images
        return images

    def _coeff_image(self, u: int):
        alg = self.gamma.algebra(u)
        zero = self.scalar(0)

        def embed(c):
            return DVector(alg, (self.scalar(c),) + (zero,) * alg.m)

        return embed

    def e(self, u: int, x) -> DVector:
        """The full operator homomorphism into D_u(K)."""
        x = self.scalar(x)
        if FracDomain.is_const(x):
            # a prime-field element: every operator kills it
            return self._coeff_image(u)(x)
        return ehom_frac(x, self._images(u), self._coeff_image(u))

    def e_into(self, u: int, ring: PolyRing):
        """e_u with each coordinate read as a constant of `ring`, a polynomial
        ring over this field."""
        alg = self.gamma.algebra(u)

        @cache  # a polynomial's coefficients recur: embed each once
        def embed(c):
            return DVector(alg, tuple(Frac.of(ring.const(x), ring) for x in self.e(u, c).coords))

        return embed

    def partial(self, op, x):
        u, i = op
        if i == 0:
            return self.scalar(x)
        return self.e(u, x).coords[i]

    def partial_word(self, word, x):
        value = self.scalar(x)
        for op in reversed(word):
            value = self.partial(op, value)
        return value

    def is_constant(self, x) -> bool:
        return not any(any(self.e(u, x).coords[1:]) for u in self.gamma.families)

    def validate_gamma(self):
        """Commutation identities on every generator; sufficient for the field.

        d_j g is the declared action[j][g], and d_i d_j g is coordinate i of
        e_u(d_j g) for i's family u: one e_u per (g, j, u) serves (i, j) and (j, i).
        Both sides are 0 at a pair with no c^{ij} and no live operator, one whose
        d_j g is no prime-field constant; the rest go in `ops` order, so the
        first failing pair is that of the loop over all pairs."""
        families, terms, zero = self.gamma.families, self.gamma.pair_terms, self.scalar(0)
        for g in self.spec.gens:
            firsts = {op: self.action[op][g] for op in self.ops}
            live = dict.fromkeys(j for j in self.ops if not FracDomain.is_const(firsts[j]))
            seconds = {(u, j): self.e(u, firsts[j]).coords for j in live for u in families}
            pairs = {ij for i in live for j in self.ops for ij in ((i, j), (j, i))}
            for i, j in sorted(pairs | terms.keys(), key=lambda ij: (op_key(ij[0]), op_key(ij[1]))):
                lhs = seconds[(i[0], j)][i[1]] if j in live else zero
                # chi = 0 between two HS operators: no d_j d_i g term
                rhs = seconds[(j[0], i)][j[1]] if i in live and not i[0] == j[0] == 2 else zero
                for l, c in terms.get((i, j), ()):
                    rhs = rhs + c * firsts[l]
                if lhs != rhs:
                    raise GammaFail("GAMMA_FAIL", (i, j, g))

    def extend_transcendental(self, name: str, values: dict) -> "DField":
        """Adjoin a fresh generator with the declared operator values."""
        new_spec = FieldSpec(self.spec.char, self.spec.gens + (name,))
        # the new field coerces the old values and the new ones
        new_action = {op: {**self.action[op], name: values.get(op, 0)} for op in self.ops}
        return DField(new_spec, _reanchor(self.gamma, new_spec), new_action)

    def adjunction_ring(self, name: str) -> PolyRing:
        """Univariate ring over this field, for presenting minimal polynomials."""
        return PolyRing((name,), FracDomain(self.ring))

    def __repr__(self):
        return f"DField(char={self.spec.char}, gens={list(self.spec.gens)})"


def _reanchor(gamma: GammaSystem, spec: FieldSpec) -> GammaSystem:
    """The same system over `spec`, whose generators extend the system's."""
    return GammaSystem(gamma.d1, gamma.d2, gamma.lie, gamma.hs, spec)


# ---------------------------------------------------------------------------
# adjoining roots and transcendentals
# ---------------------------------------------------------------------------

def _reduce_mod(frac: Frac, ideal: Ideal) -> Frac:
    num = ideal.normal_form(frac.num)
    den = ideal.normal_form(frac.den)
    if not den:
        raise ZeroDivisionError("denominator lies in the modulus")
    return Frac(num, den)


def solve_by_grade(field: DField, f: Poly, idx: int, fprime: Frac, images=None,
                   reduce=lambda y: y, is_zero=None) -> dict:
    """Operator values {(u, i): y_i} at x, the idx-th variable of f's ring, a
    root of f (coefficients in `field`) with f'(x) = fprime invertible.

    Coordinate i of f^e(x + sum_k y_k e_k) is fprime * y_i plus terms in the
    y_k of lower grade, so the y_i are solved in grade order. images[u] maps
    f's other variables to their D_u images, and the solved image of x is
    written into it at idx; `reduce` rewrites each value, and `is_zero`, when
    given, must hold for every coordinate of the final residual, else
    NonzeroResidual.
    """
    ring = f.ring
    zero = Frac.of(0, ring)
    out: dict = {}
    for u in sorted(field.gamma.families):
        alg = field.gamma.algebra(u)
        coeff = field.e_into(u, ring)
        values = images[u] if images else {}
        coords = [Frac.of(ring.var(idx), ring)] + [zero] * alg.m

        def residual() -> DVector:
            values[idx] = DVector(alg, tuple(coords))
            return f.subst(values, coeff)

        for i in sorted(range(1, alg.m + 1), key=lambda k: (alg.sigma(k), k)):
            v0 = residual().coords[i]
            coords[i] = reduce((-v0) / fprime) if v0 else zero
        values[idx] = DVector(alg, tuple(coords))
        if is_zero is not None:
            for i, coord in enumerate(f.subst(values, coeff).coords):
                if not is_zero(coord):
                    raise NonzeroResidual((u, i), coord)
        for i in range(1, alg.m + 1):
            out[(u, i)] = coords[i]
    return out


def extend_separable(field: DField, name: str, f: Poly) -> dict:
    """Operator values at a separably algebraic adjoint.

    `f` is univariate in `name` over the field (build it in
    field.adjunction_ring(name)). Returns {op: value}, values reduced in
    K[name]/(f); raises NotSeparable when f'(root) vanishes there.
    """
    aring = f.ring
    if aring.nvars != 1 or aring.names[0] != name:
        raise SpecError("minimal polynomial must be univariate in the new name")
    if f.degree_in(0) < 1:
        raise SpecError("minimal polynomial must involve the new name")
    modulus = Ideal(aring, [f])
    fprime = modulus.normal_form(f.deriv(0))
    if not fprime:
        raise NotSeparable(f"derivative of {f} vanishes at the root")
    # exactness: every coordinate of f^e(e(a)) must vanish in the quotient
    return solve_by_grade(
        field, f, 0, Frac.of(fprime, aring),
        reduce=lambda y: _reduce_mod(y, modulus),
        is_zero=lambda coord: not modulus.normal_form(coord.num),
    )


def extend_inseparable_decide(field: DField, name: str, f: Poly) -> bool:
    """EXTENDABLE iff the inseparable minimal polynomial has constant coefficients."""
    if field.spec.char == 0:
        raise SpecError("inseparable extensions need positive characteristic")
    if f.deriv(0):
        raise SpecError("polynomial is separable; use extend_separable")
    return all(field.is_constant(c) for c in f.terms.values())
