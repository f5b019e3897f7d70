"""Exact scalar arithmetic: rationals and word-sized prime fields."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Miller–Rabin on the prime bases to 37: exact below 3.18e23 (Sorenson
    and Webster 2015), so for every characteristic `FieldSpec` accepts."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        # a witnesses that n is composite unless x = 1 or x^(2^k) = -1, k < s
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


class Fp:
    """Element of the prime field F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.v - other.v, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(other.v - self.v, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return Fp(1, self.p) / self ** (-e)
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"

    def __str__(self):
        return str(self.v)


class SpecError(ValueError):
    """Malformed mathematical spec (bad characteristic, grades, names...)."""


class CodedError(ValueError):
    """A check that failed: `code` names it, `witness` shows where."""

    def __init__(self, code: str, witness=None, detail: str = ""):
        self.code = code
        self.witness = witness
        msg = code if not detail else f"{code}: {detail}"
        if witness is not None:
            msg += f" witness={witness}"
        super().__init__(msg)


def spec_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):  # JSON true is no integer
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def spec_json(value, kind: str, what: str):
    """`value` if it is a JSON `kind` ("list", "object" or "string"), else SpecError."""
    if not isinstance(value, {"list": (list, tuple), "object": dict, "string": str}[kind]):
        raise SpecError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


_GEN_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class FieldSpec:
    """A computable base field: Q or F_p, with ordered transcendental generators.

    Without generators it is the prime field Q or F_p itself, and serves as the
    coefficient domain of a `PolyRing` (`char`, `one`, `coerce`, `is_element`)."""

    char: int = 0
    gens: tuple[str, ...] = ()

    def __post_init__(self):
        if self.char >= 2**64:  # prime fields are word-sized
            raise SpecError(f"characteristic {self.char} is not below 2^64")
        if self.char != 0 and not is_prime(self.char):
            raise SpecError(f"characteristic {self.char} is not 0 or a prime")
        if len(set(self.gens)) != len(self.gens):
            raise SpecError("duplicate generator names")
        for g in self.gens:  # names the expression parser reads back, never a jet's
            if not _GEN_NAME.fullmatch(g):
                raise SpecError(f"bad generator name {g!r}")

    def coerce(self, x):
        """Coerce an int, string like '3/2' or '-0.25', Fraction or Fp into
        this field; a string with an exponent, like '1e3', is refused."""
        if isinstance(x, Fraction):
            if self.char == 0:
                return x
            den = x.denominator % self.char
            if den == 0:
                raise SpecError(f"{x} has no image in F_{self.char}")
            return Fp(x.numerator, self.char) / Fp(den, self.char)
        if isinstance(x, Fp):
            if self.char != x.p:
                raise SpecError("scalar from wrong characteristic")
            return x
        if isinstance(x, int):
            if isinstance(x, bool):  # JSON true is no scalar
                raise SpecError(f"{x!r} is not a scalar")
            return Fraction(x) if self.char == 0 else Fp(x, self.char)
        if isinstance(x, str):
            if "e" in x or "E" in x:  # 1e2000000 is a short string with a huge value
                raise SpecError(f"{x!r} is not a scalar: no exponent notation")
            try:
                value = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"{x!r} is not a scalar") from None
            return self.coerce(value)
        raise SpecError(f"cannot coerce {x!r} to a scalar")

    def is_element(self, x) -> bool:
        return isinstance(x, (Fraction, Fp, int))

    @cached_property  # built once per field; a frozen dataclass without slots allows it
    def zero(self):
        return Fraction(0) if self.char == 0 else Fp(0, self.char)

    @cached_property
    def one(self):
        return Fraction(1) if self.char == 0 else Fp(1, self.char)
