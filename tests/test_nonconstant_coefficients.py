"""Systems whose bracket coefficients live in the field, not the constants.

The fixture realizes [d1, d2] = t*d1 on Q(t) by the vector fields d/dt and
(t^2/2) d/dt, so every derivative-correction term in the validators and in
the free-module action is nonzero somewhere.
"""

import pytest

from opfield.commutation import GammaSystem, check_jacobi, check_jacobi_associative
from opfield.dfields import DField, GammaFail
from opfield.free_module import FreeCalculus
from opfield.indices import normal_words_upto
from opfield.kernels import Kernel, isomorphic, realize
from opfield.local_algebra import derivation_algebra
from opfield.scalars import FieldSpec


@pytest.fixture(scope="module")
def flow_field():
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(
        derivation_algebra(2),
        None,
        {(1, 2, 1): "t", (2, 1, 1): "-t"},
        {},
        spec,
    )
    return DField(spec, gamma, {(1, 1): {"t": 1}, (1, 2): {"t": "t^2/2"}})


def test_field_validates(flow_field):
    K = flow_field
    t = K.gen("t")
    lhs = K.partial((1, 1), K.partial((1, 2), t)) - K.partial((1, 2), K.partial((1, 1), t))
    assert lhs == t * K.partial((1, 1), t)


def test_jacobi_with_derivative_terms(flow_field):
    gamma = flow_field.gamma
    assert check_jacobi(gamma, flow_field)
    assert check_jacobi_associative(gamma, flow_field)


def test_jacobi_rejects_wrong_flow():
    # same bracket constants but an action that does not realize them
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(2), None, {(1, 2, 1): "t", (2, 1, 1): "-t"}, {}, spec)
    with pytest.raises(GammaFail):
        DField(spec, gamma, {(1, 1): {"t": 1}, (1, 2): {"t": "t"}})


def test_free_module_commutes_with_nonconstant_coefficients(flow_field):
    gamma = flow_field.gamma
    fc = FreeCalculus(gamma, flow_field)
    for lam in normal_words_upto(gamma.m1, gamma.m2, 3):
        for i in gamma.ops:
            for j in gamma.ops:
                assert fc.commutator_defect(i, j, lam) == {}, (i, j, lam)


def test_generic_kernel_over_flow_field(flow_field):
    k = Kernel(flow_field, 1, 1, [])
    k3 = k.prolong().prolong()
    k3.validate()
    assert k3.ideal.gens == ()
    a = Kernel(flow_field, 1, 1, []).prolong().prolong()
    assert isomorphic(a, k3)


def test_relation_kernel_over_flow_field(flow_field):
    # d1 x = x is compatible: d1 d2 x - d2 d1 x = t x must be preserved
    k = Kernel(flow_field, 1, 1, ["x1_[1,1] - x1_[]"])
    k2 = k.prolong()
    k2.validate()
    x = k2.jet_var(1, ())
    t = k2.lift_coeff(flow_field.gen("t"))
    d1 = lambda v: k2.partial((1, 1), v)
    d2 = lambda v: k2.partial((1, 2), v)
    defect = d1(d2(x)) - d2(d1(x)) - t * d1(x)
    assert not k2.ideal.normal_form(defect.num)


def test_base_field_values_mix_with_kernel_fractions(flow_field):
    # a value of Q(t) lifts into the kernel ring from either side
    k = Kernel(flow_field, 1, 1, ["x1_[1,1] - x1_[]"])
    x, t = k.jet_var(1, ()), flow_field.gen("t")
    s = 1 / t + t
    for c in (t, s):
        lifted = k.lift_coeff(c)
        for ours, ref in (
            (x + c, x + lifted), (c + x, lifted + x), (x - c, x - lifted), (c - x, lifted - x),
            (x * c, x * lifted), (c * x, lifted * x), (x / c, x / lifted), (c / x, lifted / x),
            (x.num + c, x + lifted), (c + x.num, lifted + x),
        ):
            assert ours.ring is k.ring and ours == ref and str(ours) == str(ref)
        assert c == lifted and lifted == c and hash(c) == hash(lifted)
