"""Coupled systems, several jet families, and nonzero correction terms."""

import pytest
from helpers import constant_field, trivial_derivation, two_derivations

from opfield.commutation import GammaSystem
from opfield.kernels import Kernel, isomorphic, realisation_criterion, realize
from opfield.local_algebra import derivation_algebra


def solvable_bracket_field():
    # [d1, d2] = d1 over Q: the two-dimensional nonabelian bracket
    gamma = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): 1, (2, 1, 1): -1}, {})
    return constant_field(gamma)


def test_two_route_claim_with_correction_term():
    # d1 x = 0, d2 x = x is compatible with [d1, d2] = d1; the two derivative
    # routes to the top jet agree only through the correction term
    field = solvable_bracket_field()
    k = Kernel(field, 1, 1, ["x1_[1,1]", "x1_[1,2] - x1_[]"])
    k2 = k.prolong()
    assert k2.claim_routes_checked >= 1
    k2.validate()
    # d1 stays zero on the flow: the mixed jet collapses
    mixed = k2.jet_var(1, ((1, 2), (1, 1)))
    assert not k2.ideal.normal_form(mixed.num)


def test_incompatible_flow_with_correction_term():
    field = solvable_bracket_field()
    # d1 x = x and d2 x = x force [d1,d2] x = 0 != d1 x
    k = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]"])
    with pytest.raises(Exception) as e:
        k.prolong()
    assert getattr(e.value, "code", "") == "GAMMA_FAIL"
    assert "two derivative routes disagree" in str(e.value)
    assert e.value.witness == ("x1_[1,2;1,1]",)


def test_later_leader_uses_solved_values_of_earlier_leaders():
    # d1 x = y with y^2 = x, d2 x = y: the witness of the leader x1_[1,2]
    # involves the earlier leader x1_[1,1], so its derivatives must be solved
    # from x1_[1,1]'s solved values, not from the free top-order jets. The
    # cleared denominator x1_[1,1] is saturated away: the last two
    # generators hold only where x1_[1,1] != 0, which the field ensures
    k = Kernel(constant_field(two_derivations()), 1, 1, ["x1_[1,1]^2 - x1_[]", "x1_[1,2] - x1_[1,1]"])
    k2 = k.prolong()
    assert k2.claim_routes_checked == 1
    assert [str(g) for g in k2.ideal.gens] == [
        "x1_[1,1]^2 - x1_[]",
        "-x1_[1,1] + x1_[1,2]",
        "x1_[1,1;1,1] + ((-1)/(2))",
        "x1_[1,1]*x1_[1,2;1,1] + ((-1)/(2))*x1_[1,2]",
        "x1_[1,1]*x1_[1,2;1,2] + ((-1)/(2))*x1_[1,2]",
        "x1_[1,2;1,1] + ((-1)/(2))",
        "x1_[1,2;1,2] + ((-1)/(2))",
    ]
    k2.validate()


def test_coupled_pair_realisation():
    # dx = y, dy = x over one derivation: second derivatives close up
    field = constant_field(trivial_derivation())
    k = Kernel(field, 2, 1, ["x1_[1,1] - x2_[]", "x2_[1,1] - x1_[]"])
    k2 = k.prolong()
    assert realisation_criterion(k2, 1)
    k4 = realize(k2, 1, 4)
    for t in (1, 2):
        jet2 = k4.jet_var(t, ((1, 1), (1, 1))).num
        base = k4.jet_var(t, ()).num
        assert not k4.ideal.normal_form(jet2 - base)
    rep = k4.leaders()
    assert set(rep.minimal_separable) == {(((1, 1),), 1), (((1, 1),), 2)}


def test_two_families_one_constrained():
    field = constant_field(two_derivations())
    k = Kernel(field, 2, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]"])
    k3 = k.prolong().prolong()
    k3.validate()
    # the second family stays free at every order
    assert all(e.status == "FREE" for e in k3.leaders().entries if e.t == 2)
    a = Kernel(field, 2, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]"]).prolong().prolong()
    assert isomorphic(a, k3)


def test_riccati_pair_two_derivations():
    # commuting flows d_a x = x^2, d_b x = 2 x^2 stay consistent to order 3
    field = constant_field(two_derivations())
    k = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]^2", "x1_[1,2] - 2 * x1_[]^2"])
    k3 = k.prolong().prolong()
    k3.validate()
    x0 = k3.jet_var(1, ()).num
    top = k3.jet_var(1, ((1, 2), (1, 1), (1, 1))).num
    # d_b d_a d_a x = 12 x^4 (differentiate 2x^3 twice more)
    assert not k3.ideal.normal_form(top - 12 * x0**4)


def test_radical_diagnostic():
    field = constant_field(trivial_derivation())
    clean = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]^2"])
    assert clean.radical_diagnostic() == []
    assert clean.ideal.in_radical(clean.jet_var(1, ((1, 1),)).num - clean.jet_var(1, ()).num ** 2)
    assert not clean.ideal.in_radical(clean.jet_var(1, ()).num)
    # a visibly non-prime presentation: the square of a flow relation
    shady = Kernel(field, 1, 1, ["(x1_[1,1] - x1_[]^2)^2"], check=False)
    g = shady.jet_var(1, ((1, 1),)).num - shady.jet_var(1, ()).num ** 2
    assert shady.ideal.in_radical(g) and not shady.ideal.contains(g)
    assert shady.radical_diagnostic() != []
