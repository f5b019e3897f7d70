"""Kernel machinery in positive characteristic and over mixed systems."""

import random
from fractions import Fraction

import pytest
from helpers import constant_field, mixed_f2

from opfield.commutation import GammaSystem, iterative_hs_coeffs
from opfield.dfields import DField
from opfield.kernels import Kernel, KernelError, realisation_criterion, realize
from opfield.local_algebra import derivation_algebra, trivial_algebra, truncation_algebra
from opfield.scalars import FieldSpec, Fp


def test_hs_kernel_flow_consistency():
    # over F_2[e]/(e^2) the single HS operator squares to zero, so
    # d(x) = x is inconsistent while d(x) = x^2 is fine
    field = constant_field(iterative_hs_coeffs(2, 1))
    good = Kernel(field, 1, 1, ["x1_[2,1] - x1_[]^2"])
    k2 = good.prolong()
    assert k2.r == 2
    # no normal jets exist above order 1 for a single HS operator
    assert len(k2.jets) == len(good.jets)
    with pytest.raises(KernelError) as e:
        Kernel(field, 1, 1, ["x1_[2,1] - x1_[]"]).prolong()
    assert e.value.code == "GAMMA_FAIL"
    assert "collapsed derivative disagrees with its correction term" in str(e.value)
    assert e.value.witness == ((2, 1), "x1_[2,1]")


def test_hs_kernel_realizes():
    field = constant_field(iterative_hs_coeffs(2, 2))
    k = Kernel(field, 1, 1, [])
    k2 = k.prolong()
    assert realisation_criterion(k2, 1)
    k4 = realize(k2, 1, 4)
    assert k4.ideal.gens == ()


def test_mixed_generic_kernel_prolongs_freely():
    field = constant_field(mixed_f2())
    k = Kernel(field, 1, 1, [])
    k3 = k.prolong().prolong()
    assert k3.ideal.gens == ()
    k3.validate()
    assert all(e.status == "FREE" for e in k3.leaders().entries)


def test_mixed_kernel_with_relation_commutes():
    # [d1, d2] = d1 over F_2: a relation d1 x = x prolongs consistently
    field = constant_field(mixed_f2())
    k = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]"])
    k2 = k.prolong()
    k2.validate()
    x = k2.jet_var(1, ())
    d1 = lambda v: k2.partial((1, 1), v)
    d2 = lambda v: k2.partial((1, 2), v)
    defect = d1(d2(x)) - d2(d1(x)) - d1(x)
    assert not k2.ideal.normal_form(defect.num)
    dh = lambda v: k2.partial((2, 1), v)
    mixed_defect = d1(dh(x)) - dh(d1(x))
    assert not k2.ideal.normal_form(mixed_defect.num)


def test_frobenius_gate():
    # F_2[e]/(e^3) on the Lie side: e^2 != 0 breaks the Frobenius condition
    spec = FieldSpec(char=2)
    gamma = GammaSystem(truncation_algebra(3, char=2), None, {}, {}, spec)
    field = DField(spec, gamma, {})
    k = Kernel(field, 1, 1, [])
    with pytest.raises(KernelError) as e:
        k.prolong()
    assert e.value.code == "FROBENIUS_FAIL"


def test_inseparable_kernel_blocks_prolongation():
    spec = FieldSpec(char=2, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1, char=2), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 0}})
    k = Kernel(field, 1, 0, ["x1_[]^2 - t"])
    rep = k.leaders()
    assert rep.info((), 1).status == "INSEPARABLE"
    assert not rep.separable
    with pytest.raises(KernelError) as e:
        k.prolong()
    assert e.value.code == "INSEPARABLE_KERNEL"


def test_insep_below_top_is_tolerated():
    # an inseparable leader strictly below the top order does not make the
    # kernel inseparable
    spec = FieldSpec(char=2, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1, char=2), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 0}})
    k = Kernel(field, 1, 1, ["x1_[]^2 - t"])
    rep = k.leaders()
    assert rep.info((), 1).status == "INSEPARABLE"
    assert rep.separable
    k2 = k.prolong()
    assert k2.r == 2


def test_derivative_closure_rejected_at_construction():
    # x^2 = t with dt = 1 forces 0 = 1 on derivatives
    spec = FieldSpec(char=2, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1, char=2), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 1}})
    with pytest.raises(KernelError) as e:
        Kernel(field, 1, 1, ["x1_[]^2 - t"])
    assert e.value.code == "GAMMA_FAIL"


def test_hs_field_action_on_generator():
    # F_2(w) with the HS operator moving w: d(w) = w^2 squares to zero
    spec = FieldSpec(char=2, gens=("w",))
    gamma = GammaSystem(trivial_algebra(2), truncation_algebra(2, char=2), {}, {}, spec)
    field = DField(spec, gamma, {(2, 1): {"w": "w^2"}})
    w = field.gen("w")
    assert field.partial((2, 1), field.partial((2, 1), w)) == field.scalar(0)
    assert field.partial((2, 1), w * w) == field.scalar(0)
    k = Kernel(field, 1, 1, [])
    k2 = k.prolong()
    k2.validate()
    assert k2.ideal.gens == ()


def test_hs_kernel_relation_over_moving_base():
    # d x = w x over F_2(w), d w = w^2: d d x = d(w x) = w^2 x + w(w x) = 0, consistent
    spec = FieldSpec(char=2, gens=("w",))
    gamma = GammaSystem(trivial_algebra(2), truncation_algebra(2, char=2), {}, {}, spec)
    field = DField(spec, gamma, {(2, 1): {"w": "w^2"}})
    k = Kernel(field, 1, 1, ["x1_[2,1] - w*x1_[]"])
    k2 = k.prolong()
    k2.validate()


@pytest.mark.parametrize("char", [0, 2, 3])
def test_bare_field_matches_frac_tower(char):
    # Over a bare field jet coefficients are plain scalars; over F(t) with t
    # constant they stay fractions of polynomials in t, an independent
    # reference for the same kernels.
    rng = random.Random(700 + char)
    gamma = GammaSystem(derivation_algebra(1, char=char), None, {}, {}, FieldSpec(char))

    def scalar():
        if char == 0:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Fp(rng.randrange(char), char)

    for _ in range(6):
        a, b, c = scalar(), scalar(), scalar()
        relation = f"x1_[1,1] - ({a})*x1_[]^2 - ({b})*x1_[] - ({c})"
        reports = []
        for gens in ((), ("t",)):
            k = realize(Kernel(constant_field(gamma, gens), 1, 1, [relation]).prolong(), 1, 3)
            entries = [(e.status, str(e.witness)) for e in k.leaders().entries]
            reports.append((k.triangular_relations(), entries))
        assert reports[0] == reports[1], relation
