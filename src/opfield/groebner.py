"""Buchberger Gröbner engine: reduced bases, membership, elimination.

Deliberately small: Buchberger's two criteria, no F4/F5 (Cox–Little–O'Shea
§2.9, §2.10). A pair with coprime leads is never queued; the others wait in
a heap keyed on the order key of their lcm (ties broken by index), and the
chain criterion skips those it covers. Intended for desk scale (tens of
variables, single-digit degrees). A degree cap, configurable through the
WORKBENCH_GB_DEGREE_CAP environment variable, aborts runaway computations
with a clean error.

Every basis is in the order of `Poly.lead`, lex with later variables
biggest (`lex_key`). It eliminates later variables first: for every k, the
basis elements in x_0..x_k are a basis of the ideal's intersection with
K[x_0..x_k]. Kernel jets are indexed level by level, so the one basis an
`Ideal` caches is the one leader detection reads and every membership test
reduces against. A prolongation that clears no denominator builds its
basis by appending its new relations, reduced, to the previous level's
(`extend_reduced_basis`).
"""

from __future__ import annotations

import heapq
import os

from .polynomials import Poly, PolyRing, coeff_div, lex_key
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


def _coprime(a: tuple, b: tuple) -> bool:
    return not any(x and y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form_list(f: Poly, basis: list[Poly]) -> Poly:
    """Full remainder of f on division by `basis`."""
    if not basis:
        return f
    ring = f.ring
    leads = [g.lead() for g in basis]
    rem_terms: dict = {}
    work = f
    while work:
        e, c = work.lead()
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                q = tuple(a - b for a, b in zip(e, ge))
                work = work - Poly(ring, {q: coeff_div(c, gc)}) * g
                break
        else:
            rem_terms[e] = c
            work = Poly(ring, {k: v for k, v in work.terms.items() if k != e})
    return Poly(ring, rem_terms)


def s_poly(f: Poly, g: Poly) -> Poly:
    fe, fc = f.lead()
    ge, gc = g.lead()
    l, one = _lcm(fe, ge), f.ring.domain.one
    mf = Poly(f.ring, {tuple(a - b for a, b in zip(l, fe)): coeff_div(one, fc)})
    mg = Poly(f.ring, {tuple(a - b for a, b in zip(l, ge)): coeff_div(one, gc)})
    return mf * f - mg * g


def buchberger(gens) -> tuple[Poly, ...]:
    """The unique reduced Gröbner basis of the ideal generated by `gens`."""
    cap = _degree_cap()
    basis: list[Poly] = []
    lms: list[tuple] = []  # lms[k] is the leading monomial of basis[k]
    # Heap of (order key of l, i, j, l) for l = lcm(lms[i], lms[j]), i > j: the
    # pair with the smallest lcm pops first, ties by index, so the run is
    # deterministic whatever the push order.
    pairs: list = []
    processed: set[tuple[int, int]] = set()  # the pairs popped so far

    def add(g: Poly) -> None:
        i, lm = len(basis), g.lm()
        for j, lj in enumerate(lms):
            if not _coprime(lm, lj):
                l = _lcm(lm, lj)
                heapq.heappush(pairs, (lex_key(l), i, j, l))
        basis.append(g)
        lms.append(lm)

    def done(a: int, b: int) -> bool:
        # popped, or never queued: the S-polynomial of coprime leads reduces
        # to 0 (CLO §2.9 Prop. 4), all the chain criterion asks of a pair
        return (max(a, b), min(a, b)) in processed or _coprime(lms[a], lms[b])

    # deterministic start ordering; `_reduce_basis` drops repeats
    for g in sorted((g.monic() for g in gens if g), key=lambda g: lex_key(g.lm())):
        add(g)

    while pairs:
        _, i, j, l = heapq.heappop(pairs)
        processed.add((i, j))
        # chain criterion (CLO §2.10): a k with lms[k] | l whose pairs
        # with i and j are both done makes (i, j) redundant
        if any(k != i and k != j and _divides(lk, l) and done(i, k) and done(j, k)
               for k, lk in enumerate(lms)):
            continue
        r = normal_form_list(s_poly(basis[i], basis[j]), basis)
        if r:
            if r.total_degree() > cap:
                raise DegreeCapExceeded(r.total_degree(), cap)
            add(r.monic())
    return _reduce_basis(basis)


def _reduce_basis(basis: list[Poly]) -> tuple[Poly, ...]:
    """The reduced basis of the ideal of which `basis`, monic, is a Gröbner
    basis, sorted by lead (CLO §2.7).

    In lead order an element is kept when no kept lead divides its lead, and
    its tail is reduced by the kept elements before it only: a lead divides
    only monomials at least as big as itself, so no later lead divides a term
    below this element's lead, and a repeated lead is dropped."""
    kept: list[Poly] = []
    leads: list[tuple] = []
    for g in sorted(basis, key=lambda g: lex_key(g.lm())):
        lm = g.lm()
        if not any(_divides(h, lm) for h in leads):
            kept.append(normal_form_list(g, kept))
            leads.append(lm)
    return tuple(kept)


def extend_reduced_basis(basis, rels) -> tuple[Poly, ...]:
    """The reduced basis of the ideal of `basis` and `rels`, where `basis` is a
    reduced basis sorted by lead, and `rels` come in lead order, each leading
    with its own variable, to degree 1, that occurs in no element of `basis`.

    Every pair of leads is then coprime, so the union is a Gröbner basis
    (CLO §2.9, Prop. 4). No new lead divides a term of `basis`, whose elements
    so stay reduced; the rels, monic, are reduced in turn as in
    `_reduce_basis`, and follow them, unless `basis` is (1), which divides
    every lead."""
    kept = list(basis)
    for g in rels:
        r = normal_form_list(g.monic(), kept)
        if r:
            kept.append(r)
    return tuple(kept)


class Ideal:
    """Generator list with its reduced Gröbner basis, cached."""

    __slots__ = ("ring", "gens", "_basis", "_seed")

    def __init__(self, ring: PolyRing, gens=()):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._basis: tuple[Poly, ...] | None = None
        self._seed: tuple | None = None  # the arguments of `extend_reduced_basis`

    def groebner(self) -> tuple[Poly, ...]:
        if self._basis is None:
            self._basis = buchberger(self.gens) if self._seed is None else extend_reduced_basis(*self._seed)
            self._seed = None
        return self._basis

    def extended(self, ring: PolyRing, basis: list[Poly], rels: list[Poly]) -> "Ideal":
        """The ideal of this one's generators, lifted to `ring`, and `rels`.

        `ring` appends variables to this ideal's ring, `basis` is this ideal's
        basis lifted to it, and the rels, in lead order, each lead with their
        own appended variable to degree 1. The new basis is
        `extend_reduced_basis(basis, rels)`, built on first use."""
        ideal = Ideal(ring, [ring.lift(g) for g in self.gens] + rels)
        ideal._seed = (basis, rels)
        return ideal

    def normal_form(self, f: Poly) -> Poly:
        return normal_form_list(f, list(self.groebner()))

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def _saturated_basis(self, f: Poly) -> tuple[Poly, ...]:
        """The reduced basis of I : f^∞.

        Rabinowitsch: a new variable y, the last and so the biggest, and the
        generator 1 - y*f; the basis elements free of y eliminate it, and they
        form the reduced basis of I : f^∞ (Cox–Little–O'Shea §3.1, §4.4)."""
        ext = self.ring.extend(("__sat__",))
        y = ext.nvars - 1
        gens = [ext.lift(g) for g in self.groebner()] + [ext.one - ext.var(y) * ext.lift(f)]
        return tuple(Poly(self.ring, {e[:y]: c for e, c in g.terms.items()})
                     for g in buchberger(gens) if not g.degree_in(y))

    def saturate(self, f: Poly) -> "Ideal":
        """I : f^∞, generated by this ideal's generators and then, in basis
        order, the elements of its reduced basis that I lacks; that basis is
        the one it caches."""
        basis = self._saturated_basis(f)
        saturated = Ideal(self.ring, self.gens + tuple(g for g in basis if not self.contains(g)))
        saturated._basis = basis
        return saturated

    def in_radical(self, f: Poly) -> bool:
        """f lies in the radical of I iff I : f^∞ is the unit ideal."""
        return any(g.is_const() for g in self._saturated_basis(f))

    def __eq__(self, other):
        """The reduced basis of an ideal is unique (Cox–Little–O'Shea §2.7)."""
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner() == other.groebner()
