"""Kernels: truncated operator-field extensions presented by jet relations.

A kernel of length r in n variables over an operator field K is the
polynomial data of a field tower K(jets of order <= r) together with the
partially defined operator action d_i(x^xi) = x^(i,xi). Relations live in
K[jets]; non-normal jets are always rewritten through the reorder identity,
so the presentation uses normalized jet variables only. Leader detection,
generic prolongation, the realisation criterion, realisation itself, and
point checks all operate on this presentation with exact arithmetic. The
criterion reads the r-truncation of a length-2r kernel from the kernel's own
leader report: its elimination order makes the truncation's report a prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import takewhile
from math import prod

from .commutation import Verdict
from .dfields import DField, ehom_frac, solve_by_grade
from .groebner import Ideal, normal_form_list
from .indices import Word, chi, dickson_minimize, normal_words, op_key, rho, tri_key
from .local_algebra import DVector, frobenius_assumption
from .polynomials import Frac, FracDomain, Poly, PolyRing, parse_frac
from .scalars import CodedError, SpecError


class KernelError(CodedError):
    """A kernel that fails a check; `code` ends in _FAIL or is INSEPARABLE_KERNEL."""


def jet_name(t: int, word: Word) -> str:
    inner = ";".join(f"{u},{i}" for (u, i) in word)
    return f"x{t}_[{inner}]"


_JET_RE = re.compile(r"^x(\d+)_\[((?:\d+,\d+(?:;\d+,\d+)*)?)\]$")  # "u,i" pairs joined by ";"


def parse_jet_name(name: str) -> tuple[int, Word] | None:
    m = _JET_RE.match(name)
    if not m:
        return None
    t = int(m.group(1))
    inner = m.group(2)
    word = []
    if inner:
        for part in inner.split(";"):
            u, i = part.split(",")
            word.append((int(u), int(i)))
    return t, tuple(word)


@dataclass
class LeaderInfo:
    word: Word
    t: int
    status: str  # FREE | SEPARABLE | INSEPARABLE
    witness: Poly | None = None

    @property
    def is_leader(self) -> bool:
        return self.status != "FREE"


@dataclass
class LeaderReport:
    entries: list[LeaderInfo]
    minimal_separable: list[tuple[Word, int]]
    inseparable: list[tuple[Word, int]]
    separable: bool

    def info(self, word: Word, t: int) -> LeaderInfo:
        for e in self.entries:
            if e.word == word and e.t == t:
                return e
        raise KeyError((word, t))


class Kernel:
    def __init__(self, field: DField, n: int, r: int, relations=(), check: bool = True):
        if n < 1 or r < 0:
            raise SpecError("need n >= 1 and r >= 0")
        self.field = field
        self.gamma = field.gamma
        self.n = n
        self.r = r
        self.fc = field.fc
        self.jets: list[tuple[Word, int]] = []
        for level in range(r + 1):
            for t in range(1, n + 1):
                for w in normal_words(self.gamma.m1, self.gamma.m2, level):
                    self.jets.append((w, t))
        names = [jet_name(t, w) for (w, t) in self.jets]
        self.ring = PolyRing(tuple(names), FracDomain(field.ring))
        self.position = {jt: k for k, jt in enumerate(self.jets)}
        rels = []
        for rel in relations:
            if isinstance(rel, str):
                rel = self.parse_relation(rel)
            elif rel.ring != self.ring:
                rel = self.ring.lift(rel)
            if rel:
                rels.append(rel)
        self.ideal = Ideal(self.ring, rels)
        self._leader_report: LeaderReport | None = None
        self._image_cache: dict = {}
        self.claim_routes_checked = 0
        if check:
            self.validate()

    # -- presentation ---------------------------------------------------------
    def jet_var(self, t: int, word: Word) -> Frac:
        idx = self.position[(tuple(word), t)]
        return Frac(self.ring.var(idx), self.ring.one, normalize=False)

    def lift_coeff(self, c) -> Frac:
        """Base-field element as a kernel-ring constant."""
        return Frac(self.ring.const(c), self.ring.one, normalize=False)

    def subst_free(self, t: int, vec) -> Frac:
        """Evaluate a free-module vector at the t-th jet family."""
        acc = Frac.of(0, self.ring)
        for word, c in vec.items():
            acc = acc + self.lift_coeff(c) * self.jet_var(t, word)
        return acc

    def jet_value(self, t: int, word: Word) -> Frac:
        """x^word rewritten through the reorder identity; word may be non-normal
        but no longer than the kernel."""
        word = tuple(word)
        if (word, t) in self.position:
            return self.jet_var(t, word)
        value = self.subst_free(t, self.fc.ell(word))
        if chi(word):
            value = value + self.jet_var(t, rho(word))
        return value

    def parse_relation(self, text: str) -> Poly:
        ops = set(self.field.ops)

        def resolve(name):
            parsed = parse_jet_name(name)
            if parsed is None:
                if name in self.field.ring:
                    return Frac(self.ring.const(self.field.gen(name)), self.ring.one)
                return None
            t, word = parsed
            if not (1 <= t <= self.n):
                raise SpecError(f"jet family {t} out of range")
            for u, i in word:
                if (u, i) not in ops:
                    raise SpecError(f"jet {name}: the field has no operator {u},{i}")
            if len(word) > self.r:
                raise SpecError(f"jet {name} beyond length {self.r}")
            return self.jet_value(t, word)

        f = parse_frac(self.ring, text, resolve=resolve)
        return f.num  # denominators are units in the kernel field

    # -- operator action ------------------------------------------------------
    def _images(self, u: int) -> dict:
        alg = self.gamma.algebra(u)
        images = {}
        for idx, (word, t) in enumerate(self.jets):
            if len(word) >= self.r:
                continue  # top-order jets have no image inside this kernel
            coords = [self.jet_var(t, word)]
            for i in range(1, alg.m + 1):
                coords.append(self.jet_value(t, ((u, i),) + word))
            images[idx] = DVector(alg, tuple(coords))
        return images

    def e(self, u: int, x: Frac) -> DVector:
        images = self._image_cache.get(u)
        if images is None:
            images = self._images(u)
            self._image_cache[u] = images
        return ehom_frac(x, images, self.field.e_into(u, self.ring))

    def partial(self, op, x: Frac) -> Frac:
        u, i = op
        return self.e(u, x).coords[i]

    # -- validation -----------------------------------------------------------
    def lower_order_basis(self, order_bound: int) -> list[Poly]:
        """Lex-basis elements supported on jets of order <= order_bound.

        Jets are indexed level by level and the basis is sorted by top jet
        (see `leaders`), so these elements are a prefix of the basis."""
        count = sum(len(w) <= order_bound for w, _ in self.jets)
        basis = self.ideal.groebner()
        return list(takewhile(lambda g: max(g.variables(), default=-1) < count, basis))

    def validate(self):
        """The operator action must send relations among lower jets into the ideal."""
        if self.r < 1:
            return
        for g in self.lower_order_basis(self.r - 1):
            # one e_u per family: its coordinates are every d_(u, i) g
            images = {u: self.e(u, Frac(g, self.ring.one)).coords for u in self.gamma.families}
            for op in self.gamma.ops:
                if self.ideal.normal_form(images[op[0]][op[1]].num):
                    raise KernelError(
                        "GAMMA_FAIL",
                        detail="relations are not closed under the operators",
                        witness=(op, str(g)),
                    )

    # -- leaders ----------------------------------------------------------------
    def leaders(self) -> LeaderReport:
        """Each jet's status, read off the reduced lex basis G of the ideal I.

        The witness for jet v is the first g in G with top variable v; v is
        FREE when there is none, else SEPARABLE when ∂g/∂v != 0 and
        INSEPARABLE when it is 0. The lex order makes later jets biggest, and
        G is sorted by lex leading monomial, whose top variable is g's own at
        its full degree: the elements with top variable v form one run,
        ordered by v-degree first, so g has the least v-degree d among them.
        No membership test is needed, whether or not I is prime:
        - G ∩ K[x<=v] is a reduced basis of I ∩ K[x<=v] (Cox–Little–O'Shea §3.1);
        - lc_v(g) ∉ I: else lm(h) divides lm(lc_v(g)) for some h in
          G ∩ K[x<v], so h divides lm(g) = v^d lm(lc_v(g)): G is not reduced;
        - ∂g/∂v ∈ I only if ∂g/∂v = 0, in every characteristic: a nonzero
          ∂g/∂v has lead v^e lm(c_{e+1}) with e < d. An h in G dividing it
          has top variable v and v-degree <= e < d, against the minimality of
          d, or lies in K[x<v] and divides the monomial v^{e+1} lm(c_{e+1})
          of g, against reducedness.
        """
        if self._leader_report is not None:
            return self._leader_report
        witnesses: dict[int, Poly] = {}
        for g in self.ideal.groebner():
            if not g.is_const():
                witnesses.setdefault(max(g.variables()), g)
        entries = []
        for idx, (word, t) in enumerate(self.jets):
            g = witnesses.get(idx)
            status = "FREE" if g is None else "SEPARABLE" if g.deriv(idx) else "INSEPARABLE"
            entries.append(LeaderInfo(word, t, status, g))
        seps = [(e.word, e.t) for e in entries if e.status == "SEPARABLE"]
        insep = [(e.word, e.t) for e in entries if e.status == "INSEPARABLE"]
        minimal = dickson_minimize(seps, self.gamma.m1, self.gamma.m2)
        separable = all(len(w) < self.r for (w, t) in insep)
        self._leader_report = LeaderReport(entries, minimal, insep, separable)
        return self._leader_report

    def _leading_v_coeff(self, g: Poly, v: int) -> Poly:
        d = g.degree_in(v)
        terms = {}
        for e, c in g.terms.items():
            if e[v] == d:
                ne = list(e)
                ne[v] = 0
                terms[tuple(ne)] = c
        return Poly(self.ring, terms)

    # -- prolongation -----------------------------------------------------------
    def prolong(self) -> "Kernel":
        """The generic prolongation to length r + 1.

        The images of the operator action are the new kernel's own
        (`_images`, built only when there is a separable leader of order r),
        except at those leaders: their derivative values are forced by the
        witness relation, and `solve_by_grade` writes them into the images.
        The leaders are solved in jet order, so each one sees the values
        already solved for the leaders before it; its witness involves no
        later jet. Solved values must agree with the correction term wherever
        an operator word collapses, and all routes to a jet of order r + 1
        must agree modulo the old ideal; the first route then gives the jet's
        new relation, its denominator cleared. When a cleared denominator is
        not constant, the new ideal is saturated by their product
        (`Ideal.saturate`), and the saturation's new basis elements follow
        the generators.

        Otherwise the new basis extends the old one (`Ideal.extended`): the
        relation of jet x_mu is x_mu - p, and p holds only jets below x_mu.
        Jets are ranked by (order, family, psi of the word), and an operator
        adds one to one entry of psi, so it keeps the ranking; a witness
        holds only jets up to its leader, a correction term `ell` only
        shorter words, and coordinate i of a product in D_u only the
        coordinates of lower grade, so of lower index, whose jets rank below
        x_mu. So each relation leads with its own new jet to degree 1.
        """
        s = self.r
        char = self.field.spec.char
        if char > 0:
            ok, wit = frobenius_assumption(self.gamma.d1, self.gamma.d2)
            if not ok:
                raise KernelError("FROBENIUS_FAIL", witness=wit)
        report = self.leaders()
        for (w, t) in report.inseparable:
            if len(w) == s:
                raise KernelError("INSEPARABLE_KERNEL", witness=(jet_name(t, w),))

        new = Kernel(self.field, self.n, s + 1, (), check=False)
        ring = new.ring
        # The new jets take the highest indices, so the new lex order restricts
        # to the old one and the lifted reduced basis stays a reduced basis.
        old_gb = [ring.lift(g) for g in self.ideal.groebner()]

        def zero_mod_old(x: Frac) -> bool:
            return not normal_form_list(x.num, old_gb)

        def correction(t: int, word: Word) -> Frac:
            return new.subst_free(t, self.fc.ell(word))

        # the order-s leaders, in jet order (the report has one entry per jet)
        leaders = [(idx, e) for idx, e in enumerate(report.entries) if len(e.word) == s and e.is_leader]
        images = {u: new._images(u) for u in sorted(self.gamma.families)} if leaders else {}
        solved: dict[tuple[Word, int], dict] = {}
        for idx, e in leaders:
            fprime = Frac(ring.lift(e.witness.deriv(idx)), ring.one)
            solved[(e.word, e.t)] = solve_by_grade(self.field, ring.lift(e.witness), idx, fprime, images)

        for (tau, t), per_op in solved.items():
            for op in self.gamma.ops:
                if chi((op,) + tau) == 0 and not zero_mod_old(per_op[op] - correction(t, (op,) + tau)):
                    raise KernelError(
                        "GAMMA_FAIL",
                        detail="collapsed derivative disagrees with its correction term",
                        witness=(op, jet_name(t, tau)),
                    )

        new_rels: list[Poly] = []
        dens: list[Poly] = []  # the non-constant denominators cleared
        routes_checked = 0
        for t in range(1, self.n + 1):
            for mu in normal_words(self.gamma.m1, self.gamma.m2, s + 1):
                first: dict = {}  # each operator's route drops its first occurrence in mu
                for k, op in enumerate(mu):
                    first.setdefault(op, mu[:k] + mu[k + 1 :])
                routes = [(op, tau) for op, tau in first.items() if (tau, t) in solved]
                if not routes:
                    continue
                routes.sort(key=lambda rt: (tri_key(rt[1], t, self.gamma.m1, self.gamma.m2), op_key(rt[0])))
                values = [solved[(tau, t)][op] - correction(t, (op,) + tau) for op, tau in routes]
                for other in values[1:]:
                    if not zero_mod_old(values[0] - other):
                        raise KernelError(
                            "GAMMA_FAIL",
                            detail="two derivative routes disagree",
                            witness=(jet_name(t, mu),),
                        )
                routes_checked += len(values) - 1
                rel = new.jet_var(t, mu).num * values[0].den - values[0].num
                if rel:
                    new_rels.append(rel)
                if not values[0].den.is_const():
                    dens.append(values[0].den)

        if dens:  # units of the kernel's field, not of its ring
            new.ideal = Ideal(ring, [ring.lift(g) for g in self.ideal.gens] + new_rels)
            new.ideal = new.ideal.saturate(prod(dens[1:], start=dens[0]))
        else:
            new.ideal = self.ideal.extended(ring, old_gb, new_rels)
        new.claim_routes_checked = routes_checked
        return new

    # -- output -----------------------------------------------------------------
    def triangular_relations(self) -> list[str]:
        """Reduced basis for the elimination order (solved forms where possible)."""
        return [str(g) for g in self.ideal.groebner()]

    # -- diagnostics ------------------------------------------------------------
    def radical_diagnostic(self) -> list[str]:
        """Primality is assumed, never verified; this spot-check flags leader
        classifications whose crucial non-membership fails radically. Neither
        a nonzero leading coefficient nor a nonzero separant of a witness lies
        in the ideal (see `leaders`)."""
        warnings = []
        for info in self.leaders().entries:
            if not info.is_leader:
                continue
            idx = self.position[(info.word, info.t)]
            for label, poly in (
                ("leading-coefficient", self._leading_v_coeff(info.witness, idx)),
                ("separant", info.witness.deriv(idx)),
            ):
                if poly and self.ideal.in_radical(poly):
                    warnings.append(
                        f"{jet_name(info.t, info.word)}: {label} lies in the radical "
                        "but not the ideal; the presentation is not prime"
                    )
        return warnings

    def __repr__(self):
        return f"Kernel(n={self.n}, r={self.r}, relations={len(self.ideal.gens)})"


# ---------------------------------------------------------------------------
# realisation
# ---------------------------------------------------------------------------

def realisation_criterion(kernel: Kernel, r: int) -> Verdict:
    """Can this length-2r kernel be realised without new leaders?

    The minimal leaders of the r-truncation are read from the kernel's own
    leader report, restricted to jets of order <= r:
    - jets are indexed level by level and the lex order makes later jets
      biggest, so it eliminates every jet of order > r;
    - the basis elements in jets of order <= r are then the reduced basis of
      I ∩ K[jets <= r], the r-truncation's ideal (Cox–Little–O'Shea §3.1);
    - for jet idx, `leaders` reads only basis elements in jets <= idx.
    So the truncation's report is the prefix of this one, witnesses included.
    """
    if kernel.r != 2 * r:
        raise SpecError(f"criterion needs a kernel of length {2 * r}, got {kernel.r}")
    report = kernel.leaders()
    if not report.separable:
        w, t = next((w, t) for (w, t) in report.inseparable if len(w) == kernel.r)
        return Verdict(False, "INSEPARABLE_KERNEL", (jet_name(t, w),))
    gamma = kernel.gamma
    if gamma.m1 == 0 or (gamma.m1 + gamma.m2) <= 1:
        # one operator never branches; a pure HS family has no jets above order 1
        return Verdict(True)
    low = set(dickson_minimize(
        [(e.word, e.t) for e in report.entries if e.status == "SEPARABLE" and len(e.word) <= r],
        gamma.m1, gamma.m2,
    ))
    high = set(report.minimal_separable)
    if low == high:
        return Verdict(True)
    offending = sorted(
        high.symmetric_difference(low),
        key=lambda wt: tri_key(wt[0], wt[1], gamma.m1, gamma.m2),
    )
    return Verdict(False, "NEW_MINIMAL_LEADER", (jet_name(offending[0][1], offending[0][0]),))


def realize(kernel: Kernel, r: int, order: int) -> Kernel:
    """Iterated generic prolongation up to the target order."""
    verdict = realisation_criterion(kernel, r)
    if not verdict:
        raise KernelError("CRITERION_FAIL", detail=str(verdict))
    if order < kernel.r:
        raise SpecError("target order below the kernel length")
    current = kernel
    base_min = set(kernel.leaders().minimal_separable)
    base_insep = set(kernel.leaders().inseparable)
    while current.r < order:
        nxt = current.prolong()
        nxt_report = nxt.leaders()
        if set(nxt_report.minimal_separable) != base_min or set(nxt_report.inseparable) != base_insep:
            raise KernelError("GAMMA_FAIL", detail="prolongation changed the minimal leader structure")
        current = nxt
    return current


def specialize_check(kernel: Kernel, values) -> Verdict:
    """Does substituting jets by derivatives of the given points kill every relation?"""
    values = list(values)
    if len(values) != kernel.n:
        raise SpecError(f"expected {kernel.n} values")
    K = kernel.field
    values = [K.scalar(v) for v in values]
    table = {}
    for idx, (word, t) in enumerate(kernel.jets):
        table[idx] = K.partial_word(word, values[t - 1])
    for g in kernel.ideal.gens:
        if g.subst(table):
            return Verdict(False, "POINT_REJECTED", (str(g),))
    return Verdict(True)


def isomorphic(a: Kernel, b: Kernel) -> bool:
    """Equality of relation ideals under the canonical jet identification."""
    if a.field.spec != b.field.spec or a.n != b.n or a.r != b.r:
        return False
    if a.ring != b.ring:
        return False
    return bool(a.ideal == b.ideal)
