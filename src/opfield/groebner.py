"""Buchberger Gröbner engine: reduced bases, membership, elimination.

Deliberately small: normal-pair criteria only, no F4/F5. Critical pairs wait
in a heap keyed on the order key of their lcm (ties broken by index), and each
basis element's leading monomial is computed once, when it is added. Intended
for desk scale (tens of variables, single-digit degrees). A degree cap,
configurable through the WORKBENCH_GB_DEGREE_CAP environment variable, aborts
runaway computations with a clean error.

Every basis is in one order, `LEX`: lex with later variables biggest. It
eliminates later variables first: for every k, the basis elements in
x_0..x_k are a basis of the ideal's intersection with K[x_0..x_k]. Kernel
jets are indexed level by level, so the one basis an `Ideal` caches is the
one leader detection reads and every membership test reduces against.
"""

from __future__ import annotations

import heapq
import os

from .polynomials import LEX, Poly, PolyRing
from .scalars import SpecError

DEFAULT_DEGREE_CAP = 12


class DegreeCapExceeded(RuntimeError):
    def __init__(self, degree: int, limit: int):
        super().__init__(
            f"Gröbner computation produced degree {degree} beyond cap {limit}; "
            "raise WORKBENCH_GB_DEGREE_CAP to continue"
        )


def _degree_cap() -> int:
    raw = os.environ.get("WORKBENCH_GB_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise SpecError(f"WORKBENCH_GB_DEGREE_CAP must be a non-negative integer, got {raw!r}")
    return cap


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form_list(f: Poly, basis: list[Poly]) -> Poly:
    """Full remainder of f on division by `basis`."""
    if not basis:
        return f
    ring = f.ring
    leads = [g.lead(LEX) for g in basis]
    rem_terms: dict = {}
    work = f
    while work:
        e, c = work.lead(LEX)
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                q = tuple(a - b for a, b in zip(e, ge))
                work = work - Poly(ring, {q: c / gc}) * g
                break
        else:
            rem_terms[e] = c
            work = Poly(ring, {k: v for k, v in work.terms.items() if k != e})
    return Poly(ring, rem_terms)


def s_poly(f: Poly, g: Poly) -> Poly:
    fe, fc = f.lead(LEX)
    ge, gc = g.lead(LEX)
    l = _lcm(fe, ge)
    mf = Poly(f.ring, {tuple(a - b for a, b in zip(l, fe)): f.ring.domain.one / fc})
    mg = Poly(f.ring, {tuple(a - b for a, b in zip(l, ge)): f.ring.domain.one / gc})
    return mf * f - mg * g


def buchberger(gens) -> tuple[Poly, ...]:
    """The unique reduced Gröbner basis of the ideal generated by `gens`."""
    cap = _degree_cap()
    basis = [g.monic(LEX) for g in gens if g]
    # deterministic start ordering
    basis.sort(key=lambda g: LEX.key(g.lm(LEX)))
    # drop duplicates
    seen = []
    for g in basis:
        if all(g != h for h in seen):
            seen.append(g)
    if not seen:
        return ()

    basis = []
    lms: list[tuple] = []  # lms[k] is the leading monomial of basis[k]
    # Heap of (order key of lcm(lms[i], lms[j]), i, j) with i > j: the pair
    # with the smallest lcm pops first, ties by index, so the run is
    # deterministic whatever the push order.
    pairs: list = []
    processed: set[tuple[int, int]] = set()

    def add(g: Poly) -> None:
        i = len(basis)
        lm = g.lm(LEX)
        basis.append(g)
        lms.append(lm)
        for j in range(i):
            heapq.heappush(pairs, (LEX.key(_lcm(lm, lms[j])), i, j))

    for g in seen:
        add(g)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        li, lj = lms[i], lms[j]
        l = _lcm(li, lj)
        # first criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(li, lj, l)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lms[k], l):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik in processed and pjk in processed:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form_list(s_poly(basis[i], basis[j]), basis)
        if r:
            if r.total_degree() > cap:
                raise DegreeCapExceeded(r.total_degree(), cap)
            add(r.monic(LEX))
    return _reduce_basis(basis)


def _reduce_basis(basis: list[Poly]) -> tuple[Poly, ...]:
    # minimalize: drop elements whose lead is divisible by another lead
    minimal: list[Poly] = []
    leads = [g.lm(LEX) for g in basis]
    for idx, g in enumerate(basis):
        lm = leads[idx]
        if any(
            k != idx
            and _divides(leads[k], lm)
            and (leads[k] != lm or k < idx)
            for k in range(len(basis))
        ):
            continue
        minimal.append(g)
    # inter-reduce tails in one pass: the leads of a minimal basis never
    # change, and a remainder has no term any lead divides, so an element
    # stays reduced while the others are reduced after it
    for idx in range(len(minimal)):
        minimal[idx] = normal_form_list(minimal[idx], minimal[:idx] + minimal[idx + 1 :])
    minimal.sort(key=lambda g: LEX.key(g.lm(LEX)))
    return tuple(minimal)


class Ideal:
    """Generator list with its reduced Gröbner basis, cached."""

    __slots__ = ("ring", "gens", "_basis")

    def __init__(self, ring: PolyRing, gens=()):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._basis: tuple[Poly, ...] | None = None

    def groebner(self) -> tuple[Poly, ...]:
        if self._basis is None:
            self._basis = buchberger(self.gens)
        return self._basis

    def normal_form(self, f: Poly) -> Poly:
        return normal_form_list(f, list(self.groebner()))

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def saturate(self, f: Poly) -> "Ideal":
        """I : f^∞, generated by this ideal's generators and then, in basis
        order, the elements of its reduced basis that I lacks; that basis is
        the one it caches.

        Rabinowitsch: a new variable y, the last and so the biggest, and the
        generator 1 - y*f; the basis elements free of y eliminate it, and they
        form the reduced basis of I : f^∞ (Cox–Little–O'Shea §3.1, §4.4).
        I : f^∞ is the unit ideal iff f lies in the radical of I."""
        ext = self.ring.extend(("__sat__",))
        y = ext.nvars - 1
        gens = [ext.lift(g) for g in self.groebner()] + [ext.one - ext.var(y) * ext.lift(f)]
        basis = tuple(Poly(self.ring, {e[:y]: c for e, c in g.terms.items()})
                      for g in buchberger(gens) if not g.degree_in(y))
        saturated = Ideal(self.ring, self.gens + tuple(g for g in basis if not self.contains(g)))
        saturated._basis = basis
        return saturated

    def __eq__(self, other):
        """The reduced basis of an ideal is unique (Cox–Little–O'Shea §2.7)."""
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner() == other.groebner()
