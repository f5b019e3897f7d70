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
from fractions import Fraction
from math import gcd

from .scalars import Fp, FieldSpec, SpecError


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrevLex:
    """Graded reverse lexicographic order: the print order, and the one whose
    leading coefficient scales a fraction's denominator."""

    def key(self, exp: tuple[int, ...]):
        return (sum(exp), tuple(-e for e in reversed(exp)))


@dataclass(frozen=True)
class Lex:
    """Lexicographic order with later variables biggest: every Gröbner basis's."""

    def key(self, exp: tuple[int, ...]):
        return exp[::-1]


GREVLEX = GrevLex()
LEX = Lex()


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracDomain:
    """Fraction-field coefficients over a base polynomial ring.

    Over a base with no generators the fraction field is the scalar field,
    so coefficients are plain `Fraction` / `Fp` values, printed as the
    constant `Frac` they stand for."""

    base: "PolyRing"

    @property
    def char(self):
        return self.base.domain.char

    @property
    def one(self):
        if not self.base.names:
            return self.base.domain.one
        return Frac(self.base.one, self.base.one)

    def coerce(self, x):
        if isinstance(x, Poly):
            x = Frac(x, x.ring.one)
        if isinstance(x, Frac):
            if x.ring is not self.base and x.ring != self.base:
                raise SpecError("fraction from a different base ring")
            return x if self.base.names else x.num.const_value() / x.den.const_value()
        x = self.base.domain.coerce(x)
        return Frac(self.base.const(x), self.base.one) if self.base.names else x

    def is_element(self, x):
        return isinstance(x, (Frac, Poly, Fraction, Fp, int))

    def to_str(self, x):
        if isinstance(x, Frac):
            return f"({x})"
        # what str() of the constant Frac gives, without building that Frac
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"(({x.numerator})/({x.denominator}))"
        return f"({x})"


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\[[0-9,;]*\])?")


class PolyRing:
    """Polynomial ring with a fixed ordered list of variable names."""

    __slots__ = ("names", "domain", "_index")

    def __init__(self, names, domain=None):
        self.names = tuple(names)
        self.domain = domain if domain is not None else FieldSpec()
        self._index = {n: i for i, n in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise SpecError("duplicate variable names in ring")

    def __eq__(self, other):
        return (
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

    @property
    def one(self) -> "Poly":
        return self.const(self.domain.one)

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
    """Immutable-by-convention sparse polynomial: exponent tuple -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

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
        return hash((self.ring.names, frozenset(self.terms.items())))

    def is_const(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

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
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = res.get(e)
                s = c if s is None else s + c
                if s:
                    res[e] = s
                elif e in res:
                    del res[e]
        return Poly(self.ring, res)

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

    # -- leading data -------------------------------------------------------
    def lead(self, order=GREVLEX):
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def lm(self, order=GREVLEX):
        return self.lead(order)[0]

    def lc(self, order=GREVLEX):
        return self.lead(order)[1]

    def monic(self, order=GREVLEX) -> "Poly":
        if not self.terms:
            return self
        c = self.lc(order)
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
    the None verdict depends on the order; the leads are read in LEX."""
    if not g:
        raise ZeroDivisionError("exact_div by zero")
    if not f:
        return f.ring.zero
    quo: dict = {}
    rem = f
    ge, gc = g.lead(LEX)
    while rem:
        e, c = rem.lead(LEX)
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

def _rat_content(p: Poly) -> Fraction:
    nums = [c.numerator for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    return Fraction(g, l)


class Frac:
    """Normalized fraction of polynomials from one ring."""

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
        if isinstance(x, Frac):
            if x.ring != ring:
                raise SpecError("fraction from a different ring")
            return x
        if isinstance(x, Poly):
            return Frac(x, x.ring.one)
        return Frac(ring.const(x), ring.one)

    def _coerce(self, other):
        if isinstance(other, Frac):
            if other.ring != self.ring:
                raise SpecError("fractions from different rings")
            return other
        if isinstance(other, Poly):
            return Frac(other, other.ring.one)
        if isinstance(other, (int, Fraction, Fp)):
            return Frac(self.ring.const(other), self.ring.one)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

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
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero fraction")
        return Frac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

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
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

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
    if isinstance(dom, FieldSpec) and num.terms.keys() == den.terms.keys() == {zero}:
        # constant over constant: the pair _normalize_general returns, without
        # its quotient Poly and content gcds
        c = num.terms[zero] / den.terms[zero]
        if dom.char == 0:
            return (
                Poly(ring, {zero: Fraction(c.numerator)}),
                Poly(ring, {zero: Fraction(c.denominator)}),
            )
        return Poly(ring, {zero: c}), ring.one
    return _normalize_general(num, den)


def _normalize_general(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Cancel what is cheap to find and fix the denominator's scale; num != 0.

    How much cancels depends on the variables that occur:
    - a constant denominator divides into the numerator term by term;
    - when num and den together involve one variable, their gcd divides out
      and the fraction ends in lowest terms (`_cancel_univariate`);
    - with two or more variables, den cancels only when it divides num. A
      multivariate gcd is not computed, so this case stays partial, and
      cancelling more would change the text of the fractions reports print.
    A univariate fraction in lowest terms is unique up to a scalar, and the
    scaling below sends every scalar multiple to the same pair.
    """
    ring = num.ring
    dom = ring.domain
    zero = (0,) * ring.nvars
    if len(den.terms) == 1 and zero in den.terms:
        c = den.terms[zero]
        num, den = Poly(ring, {e: v / c for e, v in num.terms.items()}), ring.one
    else:
        nvars = num.variables() | den.variables()
        if len(nvars) == 1:
            num, den = _cancel_univariate(num, den, nvars.pop())
        else:
            q = exact_div(num, den)
            if q is not None:
                num, den = q, ring.one
    if isinstance(dom, FieldSpec) and dom.char == 0:
        cn, cd = _rat_content(num), _rat_content(den)
        g = Fraction(gcd(cn.numerator, cd.numerator), (cn.denominator * cd.denominator) // gcd(cn.denominator, cd.denominator))
        lc = den.lc()
        sign = -1 if lc < 0 else 1
        scale = 1 / (g * sign)
        return num.scale(scale), den.scale(scale)
    # prime field or fraction coefficients: monic denominator
    lc = den.lc()
    one = dom.one
    if lc == one:
        return num, den
    return num.scale(one / lc), den.scale(one / lc)


def _cancel_univariate(num: Poly, den: Poly, i: int) -> tuple[Poly, Poly]:
    """num and den divided by their monic gcd; neither involves a variable
    but x_i, and den is not constant.

    Euclid runs on dense coefficient lists in x_i (entry k is the coefficient
    of x_i^k) with each divisor made monic first, so the remainders need one
    division per divisor coefficient and the exact quotients by the gcd none.
    """
    dom = num.ring.domain
    zero, one = dom.coerce(0), dom.one
    a, b = _dense(num, i, zero), _dense(den, i, zero)
    g, r = a, b
    while len(r) > 1:
        lc = r[-1]
        r = [c / lc for c in r[:-1]] + [one]
        g, r = r, _dense_divmod(g, r)[1]
    if r:  # a nonzero constant remainder: num and den are coprime
        return num, den
    return _sparse(num.ring, i, _dense_divmod(a, g)[0]), _sparse(num.ring, i, _dense_divmod(b, g)[0])


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
    for e in sorted(p.terms, key=GREVLEX.key, reverse=True):
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


class ParseError(ValueError):
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
                return Frac(ring.var(val), ring.one, normalize=False)
            if resolve is not None:
                r = resolve(val)
                if r is not None:
                    return r if isinstance(r, Frac) else Frac(r, ring.one)
            raise ParseError(f"unknown name {val!r}", p0)
        if kind == "op" and val == "(":
            inner = parse_expr()
            k, v, p1 = take()
            if (k, v) != ("op", ")"):
                raise ParseError("expected ')'", p1)
            return inner
        raise ParseError("expected a term", p0)

    result = parse_expr()
    if peek()[0] != "end":
        raise ParseError("trailing input", peek()[2])
    return result


def parse_poly(ring: PolyRing, text: str, resolve=None) -> Poly:
    """Parse text that must denote a polynomial (constant denominators only)."""
    f = parse_frac(ring, text, resolve=resolve)
    if not f.den.is_const():
        raise ParseError("expected a polynomial, got a proper fraction")
    return f.num.scale(ring.domain.one / f.den.const_value())
