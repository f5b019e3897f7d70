"""Sparse multivariate polynomials and normalized fractions over exact scalars.

Coefficients live in a domain attached to the ring: Q or F_p, given as a
`FieldSpec` with no generators, or the fraction field of another polynomial
ring (used for jet rings over a base function field). Over a base ring with no
generators that fraction field is Q or F_p itself, and its coefficients are
plain `Fraction` / `Fp` scalars. All arithmetic is exact; there is no floating
point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .scalars import Fp, FieldSpec, SpecError


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def lex_key(exp: tuple[int, ...]):
    """Lexicographic order with later variables biggest: every lead and every
    Gröbner basis's order."""
    return exp[::-1]


def grevlex_key(exp: tuple[int, ...]):
    """Graded reverse lexicographic order: the print order, and the one whose
    leading coefficient fixes a fraction's scale (`_rescale`)."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracDomain:
    """The fraction field of a base polynomial ring: the one form of a value
    of a base field K, be it a jet-ring coefficient, a Γ coefficient, a
    free-module coefficient or an operator value.

    When K has no generators it is Q or F_p itself, and its values are plain
    `Fraction` / `Fp` scalars, printed as the constant `Frac` they stand for;
    otherwise they are `Frac`s of the base ring."""

    base: "PolyRing"

    @property
    def char(self):
        return self.base.domain.char

    @cached_property
    def one(self):
        if not self.base.names:
            return self.base.domain.one
        return Frac(self.base.one, self.base.one)

    def coerce(self, x):
        """x as a value of K, from a scalar, a `Poly` or `Frac` over K's
        generators or text in them (`parse_frac`). A `Frac` may also come
        from a subfield, one whose generators are a prefix of K's."""
        if isinstance(x, str):
            x = parse_frac(self.base, x)
        if isinstance(x, Poly):
            x = Frac.of(x, x.ring)
        if isinstance(x, Frac):
            ring = x.ring
            if ring is not self.base and ring != self.base:
                if ring.domain != self.base.domain or ring.names != self.base.names[: ring.nvars]:
                    raise SpecError("fraction from a different base ring")
                x = Frac(self.base.lift(x.num), self.base.lift(x.den))
            return x if self.base.names else x.num.const_value() / x.den.const_value()
        x = self.base.domain.coerce(x)
        return Frac.of(x, self.base) if self.base.names else x

    def is_element(self, x):
        return isinstance(x, (Frac, Poly, Fraction, Fp, int))

    @staticmethod
    def is_const(x) -> bool:
        """Is x, a value of some base field, a prime-field element?"""
        return not isinstance(x, Frac) or (x.num.is_const() and x.den.is_const())

    @staticmethod
    def text(x) -> str:
        """x as reports print it: what str() of the constant `Frac` gives for
        a scalar, such as (1)/(2), without building that `Frac`."""
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"({x.numerator})/({x.denominator})"
        return str(x)

    def to_str(self, x):
        return f"({self.text(x)})"


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

class PolyRing:
    """Polynomial ring with a fixed ordered list of variable names."""

    __slots__ = ("names", "domain", "_index", "one")

    def __init__(self, names, domain=None):
        self.names = tuple(names)
        self.domain = domain if domain is not None else FieldSpec()
        self._index = {n: i for i, n in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise SpecError("duplicate variable names in ring")
        # one shared Poly: a product by it returns the other factor itself, so
        # nothing may ever write to the .terms of this or any other Poly
        self.one = Poly(self, {(0,) * len(self.names): self.domain.one})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.names, self.domain))

    def __repr__(self):
        dom = "Q" if self.domain == FieldSpec() else str(self.domain)
        return f"PolyRing({list(self.names)}, {dom})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c) -> "Poly":
        c = self.domain.coerce(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i) -> "Poly":
        if isinstance(i, str):
            i = self._index[i]
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.domain.one})

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def extend(self, new_names) -> "PolyRing":
        return PolyRing(self.names + tuple(new_names), self.domain)

    def lift(self, p: "Poly") -> "Poly":
        """Re-interpret a polynomial from a ring whose variables are a prefix."""
        if p.ring.names == self.names:
            return Poly(self, p.terms)
        if p.ring.names != self.names[: len(p.ring.names)]:
            raise SpecError("ring is not an extension")
        pad = (0,) * (self.nvars - p.ring.nvars)
        return Poly(self, {e + pad: c for e, c in p.terms.items()})


class Poly:
    """Immutable-by-convention sparse polynomial: exponent tuple -> coefficient.

    A sum with a zero operand and a product by one return the other operand
    itself, and a terms dict without zeros is kept, not copied: nothing may
    ever write to `.terms` after construction, nor a caller to the dict it
    passed."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}

    # -- basic structure ---------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction, Fp)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        if self.is_const():  # it equals its scalar value, so hashes like it
            return hash(self.const_value())
        return hash((self.ring.names, frozenset(self.terms.items())))

    def is_const(self) -> bool:
        return not any(map(any, self.terms))

    def const_value(self):
        zero_exp = (0,) * self.ring.nvars
        return self.terms.get(zero_exp, self.ring.domain.coerce(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def variables(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, d in enumerate(e):
                if d:
                    used.add(i)
        return used

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise SpecError("polynomials from different rings")
            return other
        if self.ring.domain.is_element(other):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e)
            s = c if s is None else s + c
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        return Poly(self.ring, res)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # one returns the other factor itself; another one-term factor scales
        # it or shifts it (no two terms collide). Coefficients commute, so the
        # one-term factor may be either.
        ring = self.ring
        if other == ring.one:
            return self
        if self == ring.one:
            return other
        if len(self.terms) == 1:
            self, other = other, self
        if len(other.terms) == 1:
            ((e2, c2),) = other.terms.items()
            if any(e2):
                return Poly(ring, {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in self.terms.items()})
            return Poly(ring, {e1: c1 * c2 for e1, c1 in self.terms.items()})
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = res.get(e)
                s = c if s is None else s + c
                if s:
                    res[e] = s
                elif e in res:
                    del res[e]
        return Poly(ring, res)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        c = self.ring.domain.coerce(c)
        if not c:
            return self.ring.zero
        return Poly(self.ring, {e: cc * c for e, cc in self.terms.items()})

    # -- leading data (lex, `lex_key`) -------------------------------------
    def lead(self):
        e = max(self.terms, key=lex_key)
        return e, self.terms[e]

    def lm(self):
        return self.lead()[0]

    def lc(self):
        return self.lead()[1]

    def top_variable(self) -> int:
        """The biggest variable that occurs, -1 for a constant. A term holding
        it beats every term without it, so the lead holds it."""
        e = self.lm() if self.terms else ()
        i = len(e) - 1
        while i >= 0 and not e[i]:
            i -= 1
        return i

    def leading_coeff_in(self, i: int) -> "Poly":
        """The coefficient of x_i^d, d the degree in x_i, as a polynomial in
        the other variables."""
        d = self.degree_in(i)
        return Poly(self.ring, {e[:i] + (0,) + e[i + 1:]: c for e, c in self.terms.items() if e[i] == d})

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        c = self.lc()
        one = self.ring.domain.one
        if c == one:
            return self
        return Poly(self.ring, {e: cc / c for e, cc in self.terms.items()})

    def deriv(self, i: int) -> "Poly":
        res: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            ne = tuple(ne)
            cc = c * e[i]
            s = res.get(ne)
            res[ne] = cc if s is None else s + cc
        return Poly(self.ring, res)

    def subst(self, values: dict, coeff=None):
        """Evaluate with variables mapped to values living in any common ring;
        `coeff`, when given, first maps each coefficient into that ring."""
        acc = None
        for e, c in self.terms.items():
            term = c if coeff is None else coeff(c)
            for i, d in enumerate(e):
                if d:
                    term = term * values[i] ** d
            acc = term if acc is None else acc + term
        if acc is None:
            zero = self.ring.domain.coerce(0)
            return zero if coeff is None else coeff(zero)
        return acc

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def exact_div(f: Poly, g: Poly) -> Poly | None:
    """f / g when the division is exact, else None.

    {g} is a Gröbner basis of (g) in every order, so neither the quotient nor
    the None verdict depends on the order the leads are read in."""
    if not g:
        raise ZeroDivisionError("exact_div by zero")
    if not f:
        return f.ring.zero
    quo: dict = {}
    rem = f
    ge, gc = g.lead()
    while rem:
        e, c = rem.lead()
        if any(a < b for a, b in zip(e, ge)):
            return None
        q = tuple(a - b for a, b in zip(e, ge))
        qc = c / gc
        quo[q] = qc
        rem = rem - Poly(f.ring, {q: qc}) * g
    return Poly(f.ring, quo)


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

class Frac:
    """Normalized fraction of polynomials from one ring.

    A sum or product of two fractions with denominator `ring.one`, or the
    quotient of such a fraction by a fraction 1/c, is already normalized, so
    it is built as is: nothing cancels against one, and the scale is right.
    Over Q the content scaling makes a denominator-one fraction's
    coefficients, and a normalized denominator's, integers, and integer sums
    and products stay integer; over F_p and a `FracDomain` the denominator
    need only be monic. So every `Frac` over `ring.one` must be normalized,
    and only this module decides that a pair is: each `normalize=False` site
    builds the negation, power, sum or product of normalized fractions, a
    rescaled pair, or a polynomial over one that `Frac.of` found normal.

    In a one-variable ring every normalized fraction is in lowest terms, so
    `+ - * /` there follow Henrici's rule (Knuth, TAOCP Vol. 2, §4.5.1): in
    a/b + c/d only gcd(t, g) can cancel, for g = gcd(b, d) and t = a(d/g) +
    c(b/g); in (a/b)(c/d) only gcd(a, d) and gcd(c, b). No gcd of the
    products is taken, and only the result's scale is fixed (`_rescale`).
    When b = d, g is b itself, so a/b + c/b is (a + c)/b cancelled against b
    only, with no Euclid on (b, d).

    A zero operand never reaches those formulas: `+` returns the other
    operand, and `*` and `/` return the zero numerator's fraction. That is
    exact because normalization is idempotent: the general formula would
    normalize the other operand's own pair, or 0/(bd), and get that operand
    back unchanged, in one variable and in the partial multivariate case
    alike. Like `Poly`, a `Frac` is never written to after construction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, normalize: bool = True):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num.ring != den.ring:
            raise SpecError("fraction parts from different rings")
        if normalize:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    @staticmethod
    def of(x, ring: PolyRing) -> "Frac":
        """x, a `Frac` or `Poly` over `ring` or a scalar, as a fraction over
        `ring`. A polynomial p is normalized only when (p, one) is not normal
        already: over Q when a coefficient is no integer, elsewhere never."""
        if isinstance(x, (Frac, Poly)):
            if x.ring != ring:
                raise SpecError("fraction from a different ring")
            if isinstance(x, Frac):
                return x
        else:
            x = ring.const(x)
        dom = ring.domain
        rational = isinstance(dom, FieldSpec) and dom.char == 0
        return Frac(x, ring.one, normalize=rational and any(c.denominator != 1 for c in x.terms.values()))

    def _coerce(self, other):
        return Frac.of(other, self.ring) if isinstance(other, (Frac, Poly, int, Fraction, Fp)) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        one = self.ring.one
        if b == one and d == one:
            return Frac(a + c, one, normalize=False)
        if self.ring.nvars != 1:
            return Frac(a * d + c * b, b * d)
        if b == d:  # g = b: only gcd(a + c, b) can cancel, and 0 cancels nothing
            t = a + c
            if not t:
                return Frac(t, one, normalize=False)
            t, b, _ = _cancel_univariate(t, b, 0)
            return _lowest(t, b)
        b1, d1, g = _cancel_univariate(b, d, 0)
        if g is None:
            return _lowest(a * d + c * b, b * d)
        t, g1, g2 = _cancel_univariate(a * d1 + c * b1, g, 0)
        return _lowest(t, b1 * (d if g2 is None else d1 * g1))

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return other
        return self._times(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero fraction")
        return self._times(other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def _times(self, c: Poly, d: Poly) -> "Frac":
        """self * (c/d), d != 0; in a one-variable ring the cross gcds cancel
        before the parts are multiplied."""
        a, b = self.num, self.den
        if not a:
            return self
        one = self.ring.one
        if b == one and d == one:
            return Frac(a * c, one, normalize=False)
        if self.ring.nvars != 1:
            return Frac(a * c, b * d)
        a, d, _ = _cancel_univariate(a, d, 0)
        c, b, _ = _cancel_univariate(c, b, 0)
        return _lowest(a * c, b * d)

    def __pow__(self, n: int):
        if n < 0:
            return Frac(self.den, self.num) ** (-n)
        return Frac(self.num**n, self.den**n, normalize=False)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ring.nvars <= 1:  # a normalized fraction's parts are unique here
            return self.num == other.num and self.den == other.den
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        num, den = self.num, self.den
        if num.is_const() and den.is_const():  # as its scalar value, which it equals
            return hash(num.const_value() / den.const_value())
        if self.ring.nvars <= 1:
            return hash((num, den))
        # partial cancellation leaves equal fractions with different parts;
        # a/b = c/d gives deg a - deg b = deg c - deg d, and a constant value
        # has constant parts, as `exact_div` cancels it
        return hash(num.total_degree() - den.total_degree())

    def __str__(self):
        if self.den == self.ring.one:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"Frac({self})"


def _normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    ring = num.ring
    if not num:
        return ring.zero, ring.one
    dom = ring.domain
    zero = (0,) * ring.nvars
    if num.terms.keys() == den.terms.keys() == {zero}:
        # constant over constant: the pair _normalize_general returns, without
        # its quotient Poly and content gcds
        c = num.terms[zero] / den.terms[zero]
        if isinstance(dom, FieldSpec) and dom.char == 0:
            return (
                Poly(ring, {zero: Fraction(c.numerator)}),
                Poly(ring, {zero: Fraction(c.denominator)}),
            )
        return Poly(ring, {zero: c}), ring.one
    return _normalize_general(num, den)


def _lowest(num: Poly, den: Poly) -> Frac:
    """num/den, in lowest terms in a one-variable ring, with its scale fixed."""
    if not num or num.is_const() and den.is_const():  # `_normalize`'s fast paths
        return Frac(num, den)
    return Frac(*_rescale(num, den), normalize=False)


def _normalize_general(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Cancel what is cheap to find and fix the denominator's scale; num != 0.

    How much cancels depends on the variables that occur:
    - a constant denominator divides into the numerator term by term;
    - when num and den together involve one variable, their gcd divides out
      and the fraction ends in lowest terms (`_cancel_univariate`);
    - with two or more variables, den cancels only when it divides num. A
      multivariate gcd is not computed, so this case stays partial, and
      cancelling more would change the text of the fractions reports print.
    So in a one-variable ring every normalized `Frac` is in lowest terms, and
    its `+ - * /` keep it so without calling this (Henrici's rule, see `Frac`).
    """
    if not den.is_const():
        nvars = num.variables() | den.variables()
        if len(nvars) == 1:
            num, den, _ = _cancel_univariate(num, den, nvars.pop())
        else:
            q = exact_div(num, den)
            if q is not None:
                num, den = q, num.ring.one
    return _rescale(num, den)


def _rescale(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The scalar multiple of num/den that normalization keeps, num != 0: a
    constant den becomes one, then den's leading coefficient in grevlex, the
    print order, is made positive over Q, with the contents' gcd fixed, and
    one elsewhere. Every scalar multiple of a pair goes to the same pair, so
    a univariate fraction in lowest terms is unique."""
    ring = num.ring
    dom = ring.domain
    if den.is_const():
        if den != ring.one:  # dividing by one would rebuild every term unchanged
            c = den.const_value()
            num = Poly(ring, {e: v / c for e, v in num.terms.items()})
        den = ring.one
    lc = den.terms[max(den.terms, key=grevlex_key)]
    if isinstance(dom, FieldSpec) and dom.char == 0:
        # one over the content of num and den together: the gcd of their
        # numerators over the lcm of their denominators
        cs = (*num.terms.values(), *den.terms.values())
        scale = Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs)))
        if lc < 0:
            scale = -scale
        return (num, den) if scale == 1 else (num.scale(scale), den.scale(scale))
    # prime field or fraction coefficients: monic denominator
    one = dom.one
    if lc == one:
        return num, den
    return num.scale(one / lc), den.scale(one / lc)


def _cancel_univariate(num: Poly, den: Poly, i: int) -> tuple[Poly, Poly, Poly | None]:
    """(num/g, den/g, g) for the monic gcd g of num and den, or (num, den,
    None) when they are coprime; neither involves a variable but x_i, and
    den != 0. A constant num or den, 0 included, counts as coprime.

    Euclid runs on dense coefficient lists in x_i (entry k is the coefficient
    of x_i^k) with each divisor made monic first, so the remainders need one
    division per divisor coefficient and the exact quotients by the gcd none.
    """
    if den.is_const() or num.is_const():
        return num, den, None
    ring, dom = num.ring, num.ring.domain
    zero, one = dom.coerce(0), dom.one
    a, b = _dense(num, i, zero), _dense(den, i, zero)
    g, r = a, b
    while len(r) > 1:
        lc = r[-1]
        r = [c / lc for c in r[:-1]] + [one]
        g, r = r, _dense_divmod(g, r)[1]
    if r:  # a nonzero constant remainder: num and den are coprime
        return num, den, None
    return _sparse(ring, i, _dense_divmod(a, g)[0]), _sparse(ring, i, _dense_divmod(b, g)[0]), _sparse(ring, i, g)


def _dense(p: Poly, i: int, zero) -> list:
    coeffs = [zero] * (p.degree_in(i) + 1)
    for e, c in p.terms.items():
        coeffs[e[i]] = c
    return coeffs


def _sparse(ring: PolyRing, i: int, coeffs: list) -> Poly:
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * ring.nvars
            e[i] = k
            terms[tuple(e)] = c
    return Poly(ring, terms)


def _dense_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of dense coefficient lists; b is monic, a has
    a nonzero top entry, and the remainder has none of its top zeros."""
    db = len(b) - 1
    r = list(a)
    q = r[db:]
    for k in range(len(q) - 1, -1, -1):
        c = r[db + k]
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] = r[k + j] - c * b[j]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    dom = p.ring.domain
    one = dom.one
    over_field = isinstance(dom, FieldSpec)  # Q or F_p, not a fraction field
    to_str = str if over_field else dom.to_str
    # F_p prints its coefficients in 0..p-1, never as -1
    prime_field = over_field and dom.char > 0
    parts = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[e]
        factors = []
        for i, d in enumerate(e):
            if d == 1:
                factors.append(p.ring.names[i])
            elif d > 1:
                factors.append(f"{p.ring.names[i]}^{d}")
        mono = "*".join(factors)
        if not mono:
            cs = to_str(c)
        elif c == one:
            cs = mono
        elif not prime_field and c == -one:
            cs = f"-{mono}"
        else:
            cs = f"{to_str(c)}*{mono}"
        parts.append(cs)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


class ParseError(SpecError):
    """Bad polynomial text; carries an offset into the source string."""

    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\[[0-9,;]*\])?)|(?P<num>\d+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        pos = m.end()
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        elif m.group("num"):
            tokens.append(("num", int(m.group("num")), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_frac(ring: PolyRing, text: str, resolve=None) -> Frac:
    """Parse polynomial/fraction text into the fraction field of `ring`.

    `resolve` optionally maps an unknown name to a Poly or Frac (used for jet
    aliases); other names must be ring variables.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def parse_expr():
        if peek()[:2] == ("op", "-"):
            take()
            acc = -parse_term()
        else:
            acc = parse_term()
        while peek()[0] == "op" and peek()[1] in "+-":
            op = take()[1]
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term():
        acc = parse_factor()
        while peek()[0] == "op" and peek()[1] in "*/":
            op = take()[1]
            f = parse_factor()
            if op == "*":
                acc = acc * f
            else:
                if not f:
                    raise ParseError("division by zero", peek()[2])
                acc = acc / f
        return acc

    def parse_factor():
        base = parse_base()
        if peek()[:2] == ("op", "^"):
            take()
            kind, val, p0 = take()
            if kind != "num":
                raise ParseError("exponent must be an integer", p0)
            return base**val
        return base

    def parse_base():
        kind, val, p0 = take()
        if kind == "num":
            return Frac(ring.const(val), ring.one)
        if kind == "name":
            if val in ring:
                return Frac.of(ring.var(val), ring)
            if resolve is not None:
                r = resolve(val)
                if r is not None:
                    return Frac.of(r, ring)
            raise ParseError(f"unknown name {val!r}", p0)
        if kind == "op" and val == "(":
            inner = parse_expr()
            k, v, p1 = take()
            if (k, v) != ("op", ")"):
                raise ParseError("expected ')'", p1)
            return inner
        raise ParseError("expected a term", p0)

    try:
        result = parse_expr()
    except RecursionError:  # recursive descent: each "(" takes four frames
        raise ParseError("expression nested too deeply") from None
    if peek()[0] != "end":
        raise ParseError("trailing input", peek()[2])
    return result


def parse_poly(ring: PolyRing, text: str, resolve=None) -> Poly:
    """Parse text that must denote a polynomial (constant denominators only)."""
    f = parse_frac(ring, text, resolve=resolve)
    if not f.den.is_const():
        raise ParseError("expected a polynomial, got a proper fraction")
    return f.num.scale(ring.domain.one / f.den.const_value())
