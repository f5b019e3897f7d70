import itertools

import pytest
from helpers import (
    all_words_upto,
    identity_breaking_perturbations,
    passing_fixtures,
    sl2_constants,
    trivial_derivation,
    two_derivations,
)

from opfield.commutation import GammaSystem, iterative_hs_coeffs
from opfield.dfields import DField
from opfield.free_module import FreeCalculus
from opfield.indices import chi, normal_words_upto, rho
from opfield.local_algebra import from_table
from opfield.scalars import FieldSpec


def calc(gamma):
    return FreeCalculus(gamma)


def test_apply_single_derivation():
    fc = calc(trivial_derivation())
    v = fc.apply((1, 1), fc.wvec(((1, 1),)))
    assert v == fc.wvec(((1, 1), (1, 1)))


def test_apply_case2_constant_coefficients():
    fc = calc(sl2_constants())
    a, b = (1, 1), (1, 2)
    v = fc.apply(a, fc.wvec((b,)))
    expect = fc.wvec((b, a))
    for l in fc.gamma.ops:
        c = fc.gamma.c(l, a, b)
        if c:
            expect = fc.add(expect, fc.scale(c, fc.wvec((l,))))
    assert fc.equal(v, expect)
    # [d1,d2] = d3 contributes exactly w^{(3)}
    assert v.get(((1, 3),)) == fc.one_coeff()


def test_apply_iterative_f2():
    fc = calc(iterative_hs_coeffs(2, 2))
    v = fc.apply((2, 1), fc.wvec(((2, 1),)))
    assert v == {}  # binom(2,1) = 0 mod 2
    v13 = fc.apply((2, 1), fc.wvec(((2, 2),)))
    assert v13 == fc.wvec(((2, 3),))  # binom(3,1) = 1 mod 2


def test_ell_normal_words_vanish():
    for name, gamma in passing_fixtures().items():
        fc = calc(gamma)
        for w in normal_words_upto(gamma.m1, gamma.m2, 3):
            assert fc.ell(w) == {}, (name, w)


def test_ell_two_letter_words():
    gamma = sl2_constants()
    fc = calc(gamma)
    for i in gamma.ops:
        for j in gamma.ops:
            if i < j:
                got = fc.ell((i, j))
                expect = fc.zero()
                for l in gamma.ops:
                    c = gamma.c(l, i, j)
                    if c:
                        expect = fc.add(expect, fc.scale(c, fc.wvec((l,))))
                assert fc.equal(got, expect)


def test_ell_hs_on_lie_normal_vanishes():
    gamma = passing_fixtures()["mixed_f2"]
    fc = calc(gamma)
    j = (2, 1)
    for w in normal_words_upto(gamma.m1, 0, 3):
        if all(op[0] == 1 for op in w):
            assert fc.ell((j,) + w) == {}


def test_gamma_commutativity_identity_short():
    for name, gamma in passing_fixtures().items():
        fc = calc(gamma)
        for lam in normal_words_upto(gamma.m1, gamma.m2, 3):
            for i in gamma.ops:
                for j in gamma.ops:
                    assert fc.commutator_defect(i, j, lam) == {}, (name, i, j, lam)


def test_degree_drop_and_reconstruction():
    for name, gamma in passing_fixtures().items():
        fc = calc(gamma)
        for xi in all_words_upto(gamma.m1, gamma.m2, 5):
            lxi = fc.ell(xi)
            assert fc.order(lxi) <= len(xi) - 1, (name, xi)
            recon = fc.zero()
            if chi(xi):
                recon = fc.wvec(rho(xi))
            recon = fc.add(recon, lxi)
            assert fc.equal(fc.apply_word(xi, fc.wvec(())), recon)


def test_error_recursion_identity():
    # l_{(i,k,eta)} = chi_{ik} d_k l_{(i,eta)} + sum_l c_l^{ik} d_l d_eta w
    for name, gamma in passing_fixtures().items():
        fc = calc(gamma)
        for lam in normal_words_upto(gamma.m1, gamma.m2, 3):
            if not lam:
                continue
            k, eta = lam[0], lam[1:]
            for i in gamma.ops:
                if not (k > i):
                    continue
                lhs = fc.ell((i,) + lam)
                rhs = fc.zero()
                if not (i[0] == 2 and k[0] == 2):
                    rhs = fc.apply(k, fc.ell((i,) + eta))
                base = fc.apply_word(eta, fc.wvec(()))
                for l in gamma.ops:
                    c = gamma.c(l, i, k)
                    if c:
                        rhs = fc.add(rhs, fc.scale(c, fc.apply(l, base)))
                assert fc.equal(lhs, rhs), (name, i, lam)


def test_identity_fails_for_perturbed_systems():
    for name, gamma in identity_breaking_perturbations().items():
        fc = calc(gamma)
        violated = False
        for lam in normal_words_upto(gamma.m1, gamma.m2, 3):
            for i in gamma.ops:
                for j in gamma.ops:
                    if fc.commutator_defect(i, j, lam):
                        violated = True
                        break
                if violated:
                    break
            if violated:
                break
        assert violated, name


def test_memoization_consistency():
    gamma = two_derivations()
    fc = calc(gamma)
    v1 = fc.apply_word(((1, 1), (1, 2), (1, 1)), fc.wvec(()))
    v2 = fc.apply_word(((1, 1), (1, 2), (1, 1)), fc.wvec(()))
    assert v1 == v2
    fresh = calc(gamma)
    assert fresh.apply_word(((1, 1), (1, 2), (1, 1)), fresh.wvec(())) == v1


def test_apply_twisted_rule_reads_the_structure_constants():
    # D1 has e_1 e_1 = e_3, so d_3(c w) = d_3(c) w + c d_3(w) + d_1(c) d_1(w)
    # over Q(t) with d_1 t = 1: the alpha term is what carries d_1(c)
    spec = FieldSpec(char=0, gens=("t",))
    d1 = from_table(FieldSpec(0), 4, [1, 1, 2], {(1, 1, 3): 1})
    field = DField(spec, GammaSystem(d1, None, {}, {}, spec), {(1, 1): {"t": 1}})
    fc = FreeCalculus(field.gamma, field)
    t = field.gen("t")
    assert fc.apply((1, 3), {(): t}) == {((1, 3),): t, ((1, 1),): 1}
    assert fc.apply((1, 3), {((1, 2),): t**2}) == {
        ((1, 2),): 1, ((1, 3), (1, 2)): t**2, ((1, 2), (1, 1)): 2 * t,
    }


def test_apply_twisted_rule_reads_both_orders_of_a_product():
    # e_1 e_2 = e_2 e_1 = e_3: d_3(c w) carries d_1(c) d_2(w) and d_2(c) d_1(w)
    spec = FieldSpec(char=0, gens=("s", "t"))
    d1 = from_table(FieldSpec(0), 4, [1, 1, 2], {(1, 2, 3): 1})
    field = DField(spec, GammaSystem(d1, None, {}, {}, spec), {(1, 1): {"s": 1}, (1, 2): {"t": 1}})
    fc = FreeCalculus(field.gamma, field)
    s, t = field.gen("s"), field.gen("t")
    assert fc.apply((1, 3), {(): s * t}) == {(): 1, ((1, 3),): s * t, ((1, 2),): t, ((1, 1),): s}
