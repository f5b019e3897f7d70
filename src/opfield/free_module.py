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
from .polynomials import Frac

FreeVector = dict  # Word -> Frac coefficient


class FreeCalculus:
    def __init__(self, gamma: GammaSystem, field=None):
        """`field` is the operator field the coefficients live in; None means
        every coefficient is a constant."""
        self.gamma = gamma
        self.field = field
        self.ring = gamma.ring
        self._memo: dict = {}

    # -- vector helpers ------------------------------------------------------
    def zero(self) -> FreeVector:
        return {}

    def one_coeff(self) -> Frac:
        return Frac.of(1, self.ring)

    def wvec(self, word: Word) -> FreeVector:
        return {tuple(word): self.one_coeff()}

    def add(self, a: FreeVector, b: FreeVector) -> FreeVector:
        out = dict(a)
        for k, v in b.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return out

    def scale(self, c, a: FreeVector) -> FreeVector:
        c = Frac.of(c, self.ring)
        if not c:
            return {}
        return {k: c * v for k, v in a.items()}

    def sub(self, a: FreeVector, b: FreeVector) -> FreeVector:
        return self.add(a, self.scale(-1, b))

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
                        out = self.add(out, self.scale(c, self.d_word(l, tail)))
                else:
                    out = self.wvec((op,) + word)
            else:
                out = self.zero()
                if not (is_hs(op) and is_hs(j)):
                    out = self.apply(j, self.d_word(op, tail))
                for l, c in terms:
                    out = self.add(out, self.scale(c, self.d_word(l, tail)))
        self._memo[key] = out
        return out

    def apply(self, op: Op, vec: FreeVector) -> FreeVector:
        """One operator step, with the twisted rule on coefficients."""
        out = self.zero()
        for word, c in vec.items():
            dc = coeff_partial(self.field, op, c)
            if dc:
                out = self.add(out, {word: dc})
            out = self.add(out, self.scale(c, self.d_word(op, word)))
            for p in self.gamma.ops:
                if p[0] != op[0]:
                    continue
                dpc = coeff_partial(self.field, p, c)
                if not dpc:
                    continue
                for q in self.gamma.ops:
                    a = self.gamma.alpha(op, p, q)
                    if a:
                        out = self.add(out, self.scale(a * dpc, self.d_word(q, word)))
        return out

    def apply_word(self, word: Word, vec: FreeVector) -> FreeVector:
        for op in reversed(word):
            vec = self.apply(op, vec)
        return vec

    def ell(self, word: Word) -> FreeVector:
        """Lower-order correction: the operator word minus its normal symbol."""
        full = self.apply_word(word, self.wvec(()))
        if chi(word):
            full = self.sub(full, self.wvec(rho(word)))
        return full

    def commutator_defect(self, i: Op, j: Op, word: Word) -> FreeVector:
        """d_i d_j w - chi_ij d_j d_i w - sum_l c_l^{ij} d_l w; zero when the
        system commutes."""
        w = self.wvec(word)
        lhs = self.apply(i, self.apply(j, w))
        rhs = self.zero()
        if not (is_hs(i) and is_hs(j)):
            rhs = self.apply(j, self.apply(i, w))
        for l, c in self.gamma.pair_terms.get((i, j), ()):
            rhs = self.add(rhs, self.scale(c, self.apply(l, w)))
        return self.sub(lhs, rhs)
