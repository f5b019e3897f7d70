"""The free module of formal jets w^xi and its operator action.

Vectors are finite F-linear combinations of symbols indexed by normal words;
`FreeCalculus.apply` realizes one operator step, built by the descending
two-case recursion and memoized per (operator, word). Only Jacobi-associative
coefficient tensors make the action commute correctly; the validators live in
`commutation`, the identity tests in the suite.
"""

from __future__ import annotations

from .commutation import GammaSystem, coeff_partial
from .indices import Op, Word, chi, is_hs, op_key, rho
from .local_algebra import accumulate

FreeVector = dict  # Word -> coefficient, a value of gamma.domain


class FreeCalculus:
    def __init__(self, gamma: GammaSystem, field=None):
        """`field` is the operator field the coefficients live in; None means
        every coefficient is a constant."""
        self.gamma = gamma
        self.field = field
        self._memo: dict = {}
        self._ell: dict = {}

    # -- vector helpers ------------------------------------------------------
    def zero(self) -> FreeVector:
        return {}

    def one_coeff(self):
        return self.gamma.domain.one

    def wvec(self, word: Word) -> FreeVector:
        return {tuple(word): self.one_coeff()}

    def add(self, a: FreeVector, b: FreeVector) -> FreeVector:
        return accumulate(dict(a), self.one_coeff(), b.items())

    def scale(self, c, a: FreeVector) -> FreeVector:
        return accumulate({}, self.gamma.domain.coerce(c), a.items())

    def sub(self, a: FreeVector, b: FreeVector) -> FreeVector:
        return accumulate(dict(a), -self.one_coeff(), b.items())

    def equal(self, a: FreeVector, b: FreeVector) -> bool:
        return not self.sub(a, b)

    def order(self, a: FreeVector) -> int:
        return max((len(k) for k in a), default=-1)

    # -- the action ------------------------------------------------------------
    def d_word(self, op: Op, word: Word) -> FreeVector:
        key = (op, word)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if not word:
            out = self.wvec((op,))
        else:
            j = word[0]
            tail = word[1:]
            terms = self.gamma.pair_terms.get((op, j), ())
            if op_key(op) >= op_key(j):
                if is_hs(op):
                    # both HS: the composition collapses through the coefficients
                    out = self.zero()
                    for l, c in terms:
                        accumulate(out, c, self.d_word(l, tail).items())
                else:
                    out = self.wvec((op,) + word)
            else:
                out = self.zero()
                if not (is_hs(op) and is_hs(j)):
                    out = self.apply(j, self.d_word(op, tail))
                for l, c in terms:
                    accumulate(out, c, self.d_word(l, tail).items())
        self._memo[key] = out
        return out

    def apply(self, op: Op, vec: FreeVector) -> FreeVector:
        """One operator step, with the twisted rule on coefficients: d_i(c w)
        adds d_i(c) w, c d_i(w) and alpha_i^{pq} d_p(c) d_q(w) over the
        nonzero products e_p e_q of op's family."""
        u, i = op
        products = self.gamma.algebra(u).by_target.get(i, ())
        out = self.zero()
        for word, c in vec.items():
            dc = coeff_partial(self.field, op, c)
            if dc:
                accumulate(out, dc, self.wvec(word).items())
            accumulate(out, c, self.d_word(op, word).items())
            partials: dict = {}
            for p, q, a in products:
                if p not in partials:
                    partials[p] = coeff_partial(self.field, (u, p), c)
                if partials[p]:
                    accumulate(out, a * partials[p], self.d_word((u, q), word).items())
        return out

    def apply_word(self, word: Word, vec: FreeVector) -> FreeVector:
        for op in reversed(word):
            vec = self.apply(op, vec)
        return vec

    def ell(self, word: Word) -> FreeVector:
        """Lower-order correction: the operator word minus its normal symbol.
        Memoized per word like `d_word`, so callers must only read it."""
        out = self._ell.get(word)
        if out is None:
            out = self.apply_word(word, self.wvec(()))
            if chi(word):
                out = self.sub(out, self.wvec(rho(word)))
            self._ell[word] = out
        return out

    def commutator_defect(self, i: Op, j: Op, word: Word) -> FreeVector:
        """d_i d_j w - chi_ij d_j d_i w - sum_l c_l^{ij} d_l w; zero when the
        system commutes."""
        w = self.wvec(word)
        lhs = self.apply(i, self.apply(j, w))
        rhs = self.zero()
        if not (is_hs(i) and is_hs(j)):
            rhs = self.apply(j, self.apply(i, w))
        for l, c in self.gamma.pair_terms.get((i, j), ()):
            accumulate(rhs, c, self.apply(l, w).items())
        return self.sub(lhs, rhs)
