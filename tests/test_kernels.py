import json
import random
from fractions import Fraction
from importlib.resources import files
from math import factorial
from pathlib import Path

import pytest
from helpers import constant_field, sl2_constants, trivial_derivation, two_derivations

from opfield import groebner
from opfield.cli import main
from opfield.commutation import GammaSystem
from opfield.dfields import DField
from opfield.free_module import FreeCalculus
from opfield.indices import psi
from opfield.kernels import (
    Kernel,
    KernelError,
    isomorphic,
    jet_name,
    parse_jet_name,
    realisation_criterion,
    realize,
    specialize_check,
)
from opfield.local_algebra import derivation_algebra
from opfield.polynomials import Frac, PolyRing, parse_frac
from opfield.scalars import FieldSpec
from opfield.specs import load_kernel

FIXTURES = Path(str(files("opfield") / "fixtures"))


# -- independent oracle: forward differentiation of y' = y^2 ------------------

def riccati_oracle(order):
    """d^k x as univariate polynomials in y, via p_{k+1} = p_k' * y^2."""
    ring = PolyRing(("y",))
    y = ring.var("y")
    polys = [y]
    for _ in range(order):
        polys.append(polys[-1].deriv(0) * y * y)
    return ring, polys


def test_riccati_oracle_is_factorial_powers():
    ring, polys = riccati_oracle(6)
    y = ring.var("y")
    for k, p in enumerate(polys):
        assert p == y ** (k + 1) * factorial(k)


# -- fixtures -----------------------------------------------------------------

def riccati_kernel(field=None):
    field = field or constant_field(trivial_derivation())
    return Kernel(field, 1, 1, ["x1_[1,1] - x1_[]^2"])


def generic_two_derivations(r=2):
    field = constant_field(two_derivations())
    return Kernel(field, 1, r, [])


def equal_flows_kernel():
    field = constant_field(two_derivations())
    return Kernel(field, 1, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]"])


# -- names ----------------------------------------------------------------------

def test_jet_names_roundtrip():
    w = ((1, 2), (1, 1), (2, 1))
    assert parse_jet_name(jet_name(3, w)) == (3, w)
    assert parse_jet_name("x1_[]") == (1, ())
    assert parse_jet_name("t") is None


# -- leaders ----------------------------------------------------------------------

def test_leaders_riccati():
    k = riccati_kernel()
    rep = k.leaders()
    assert rep.info((), 1).status == "FREE"
    assert rep.info(((1, 1),), 1).status == "SEPARABLE"
    assert rep.minimal_separable == [(((1, 1),), 1)]
    assert rep.separable


def test_leaders_empty():
    k = generic_two_derivations()
    rep = k.leaders()
    assert all(e.status == "FREE" for e in rep.entries)
    assert rep.minimal_separable == []


def test_leaders_base_algebraic():
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 1}})
    k = Kernel(field, 1, 0, ["x1_[]^2 - t"])
    rep = k.leaders()
    assert rep.info((), 1).status == "SEPARABLE"


def test_non_normal_jets_rewritten():
    # over the sl2 system, x1_[1,1;1,2] rewrites through the bracket
    field = constant_field(sl2_constants())
    k = Kernel(field, 1, 2, [])
    rel = k.parse_relation("x1_[1,1;1,2]")
    # equals x1_[1,2;1,1] + c contribution on w^{(3)}: [d1,d2] = d3
    a = k.jet_var(1, ((1, 2), (1, 1))).num
    b = k.jet_var(1, (((1, 3),))[0:1]).num
    assert rel == a + b


# -- prolongation -----------------------------------------------------------------

def test_prolong_riccati_relation():
    k = riccati_kernel()
    k2 = k.prolong()
    assert k2.r == 2
    x0 = k2.jet_var(1, ()).num
    top = k2.jet_var(1, ((1, 1), (1, 1))).num
    assert not k2.ideal.normal_form(top - 2 * x0**3)
    k2.validate()  # operators stay closed on the prolonged presentation


def test_prolong_shares_the_field_calculus():
    k = generic_two_derivations(r=1)
    k3 = k.prolong().prolong()
    assert k3.fc is k.fc is k.field.fc


@pytest.mark.parametrize("name", ["kernel_riccati_qt.json", "kernel_equal_flows.json"])
def test_ell_is_memoized_and_kernels_leave_it_unchanged(name):
    # prolong and jet_value read fc.ell(word) for each jet they rewrite; the
    # shared calculus hands every caller one vector, which must stay as built
    k = load_kernel(FIXTURES / name)
    k.prolong().prolong().validate()
    memo = dict(k.fc._ell)
    assert memo
    fresh = FreeCalculus(k.field.gamma, k.field)
    for word, vec in memo.items():
        assert k.fc.ell(word) is vec
        assert vec == fresh.ell(word)


@pytest.mark.parametrize("name", ["kernel_riccati.json", "kernel_equal_flows.json"])
def test_lifted_lex_basis_is_the_prolonged_reduced_basis(name):
    # prolong reduces against the previous level's lex basis, lifted unchanged
    k = load_kernel(FIXTURES / name)
    for _ in range(2):
        new = k.prolong()
        lifted = tuple(new.ring.lift(g) for g in k.ideal.groebner())
        gens = [new.ring.lift(g) for g in k.ideal.gens]
        assert lifted == groebner.buchberger(gens)
        k = new


# ROADMAP's scratch kernels, r = 1 over the field of kernel_equal_flows.json:
# the family count, the relations and the field's generators and action
SHAPES = {
    "pair": (2, ["x1_[1,1] - x2_[]", "x1_[1,2] - x2_[]", "x2_[1,1] - x1_[]", "x2_[1,2] - x1_[]"], {}),
    "ric_eq": (1, ["x1_[1,1] - x1_[]^2", "x1_[1,2] - x1_[]^2"], {}),
    "qt_lin": (1, ["x1_[1,1] - t*x1_[]", "x1_[1,2] - x1_[]"], {"gens": ["t"], "action": {"t": {"1,1": "1"}}}),
    "inv2": (1, ["x1_[]*x1_[1,1] - 1", "x1_[]*x1_[1,2] - 1"], {}),
}


def _shape_kernel(name):
    if name not in SHAPES:
        return load_kernel(FIXTURES / name)
    n, rels, field = SHAPES[name]
    spec = json.loads((FIXTURES / "kernel_equal_flows.json").read_text())
    return load_kernel(spec | {"n": n, "relations": rels, "dfield": spec["dfield"] | field})


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("kernel_*.json")) + sorted(SHAPES))
def test_prolongation_extends_the_reduced_basis(name, monkeypatch):
    # A level that clears no denominator appends its reduced new relations to
    # the lifted old basis (`Ideal.extended`), with no Buchberger run; that
    # must be the basis Buchberger computes from the generators. Only inv2's
    # first level clears one (x1_[]), and saturates with two runs.
    k = _shape_kernel(name)
    runs = []
    buchberger = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: runs.append(gens) or buchberger(gens))
    for level in range(3):
        k = k.prolong()
        assert k.ideal.groebner() == buchberger(k.ideal.gens)
        assert len(runs) == (2 if name == "inv2" else 0), level


@pytest.mark.parametrize("name", ["kernel_riccati.json", "kernel_equal_flows.json"])
def test_kernel_prolong_runs_buchberger_once(name, tmp_path, monkeypatch):
    # the loaded kernel's basis is built by Buchberger; the next level's
    # extends it, and nothing reads the last level's
    runs = []
    buchberger = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: runs.append(gens) or buchberger(gens))
    out = tmp_path / "prolonged.json"
    assert main(["kernel", "prolong", str(FIXTURES / name), "--steps", "2", "-o", str(out)]) == 0
    assert len(runs) == 1
    assert json.loads(out.read_text())["r"] == 3


def test_validate_makes_one_e_per_lower_order_basis_element(monkeypatch):
    k2 = load_kernel(FIXTURES / "kernel_equal_flows.json").prolong()
    kernel = Kernel(k2.field, k2.n, k2.r, k2.ideal.gens, check=False)
    assert len(kernel.lower_order_basis(k2.r - 1)) == 2
    calls = []
    e = Kernel.e
    monkeypatch.setattr(Kernel, "e", lambda self, u, x: calls.append(u) or e(self, u, x))
    kernel.validate()
    assert calls == [1, 1]


def test_prolong_generic_adds_nothing():
    k = generic_two_derivations(r=1)
    k2 = k.prolong()
    assert k2.ideal.gens == ()


def test_prolong_checks_route_consistency():
    k = equal_flows_kernel()
    k2 = k.prolong()
    assert k2.claim_routes_checked >= 1
    k2.validate()
    # d_b d_a x = d_a d_b x as kernel values
    va = k2.partial((1, 2), k2.jet_var(1, ((1, 1),)))
    vb = k2.partial((1, 1), k2.jet_var(1, ((1, 2),)))
    diff = va - vb
    assert not k2.ideal.normal_form(diff.num)


def test_prolong_rejects_incompatible_flows():
    field = constant_field(two_derivations())
    k = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]^2"])
    with pytest.raises(KernelError) as e:
        k.prolong()
    assert e.value.code == "GAMMA_FAIL"
    assert "two derivative routes disagree" in str(e.value)
    assert e.value.witness == ("x1_[1,2;1,1]",)


def test_prolong_with_nonzero_bracket():
    field = constant_field(sl2_constants())
    k = Kernel(field, 1, 1, [])
    k2 = k.prolong()
    k2.validate()
    assert k2.ideal.gens == ()


# -- criterion and realisation ------------------------------------------------------

def test_criterion_single_derivation_shortcut():
    k = riccati_kernel().prolong()
    assert realisation_criterion(k, 1)
    k4 = k.prolong().prolong()
    assert realisation_criterion(k4, 2)


def test_criterion_generic_true():
    k = generic_two_derivations(r=2)
    assert realisation_criterion(k, 1)


def test_criterion_detects_late_leader():
    field = constant_field(two_derivations())
    k = Kernel(field, 1, 2, ["x1_[1,2;1,1]"])
    v = realisation_criterion(k, 1)
    assert not v
    assert v.code == "NEW_MINIMAL_LEADER"
    assert v.witness == ("x1_[1,2;1,1]",)


def test_criterion_requires_even_split():
    with pytest.raises(Exception):
        realisation_criterion(riccati_kernel(), 1)


def _seeded_kernel(seed):
    """A kernel over one or two commuting derivations, over Q or F_3: either
    a flow x' = f(x) (the same f, scaled, for the second derivation) prolonged
    once, or one drawn relation among jets of order 1 and 2."""
    rng = random.Random(seed)
    char, m = rng.choice((0, 3)), rng.choice((1, 2))
    field = constant_field(GammaSystem(derivation_algebra(m, char), None, {}, {}))
    a, b, c = (rng.randint(-2, 2) for _ in range(3))
    f = f"(({a})*x1_[]^2 + ({b})*x1_[] + ({c}))"
    if rng.random() < 0.5:
        rels = [f"x1_[1,1] - {f}"] + [f"x1_[1,2] - {rng.randint(1, 2)}*{f}"] * (m == 2)
        return Kernel(field, 1, 1, rels).prolong()
    jets = ["x1_[]", "x1_[1,1]"] + ["x1_[1,2]"] * (m == 2)
    top = f"x1_[1,{m};1,1]"
    low = rng.choice(jets)
    rel = rng.choice((f"{top} - {low}^2", f"{top}*{low} - ({c})", f"{low}^2 - {top} + ({a})"))
    return Kernel(field, 1, 2, [rel])


def _truncation_report(kernel, r):
    """The leader report of the r-truncation, from a kernel built afresh on
    the text of the basis elements in jets of order <= r."""
    rels = [str(g) for g in kernel.lower_order_basis(r)]
    return Kernel(kernel.field, kernel.n, r, rels, check=False).leaders()


def _entry_texts(entries):
    return [(e.word, e.t, e.status, str(e.witness)) for e in entries]


KERNEL_CASES = [("fixture", name) for name in sorted(p.name for p in FIXTURES.glob("kernel_*.json"))]
KERNEL_CASES += [("seed", seed) for seed in range(16)]


@pytest.mark.parametrize("source, key", KERNEL_CASES, ids=[f"{s}-{k}" for s, k in KERNEL_CASES])
def test_criterion_reads_the_truncation_as_a_prefix_of_the_report(source, key):
    k = load_kernel(FIXTURES / key) if source == "fixture" else _seeded_kernel(key)
    for r in (1, 2):
        while k.r < 2 * r:
            k = k.prolong()
        basis, prefix = k.ideal.groebner(), k.lower_order_basis(r)
        assert list(basis[: len(prefix)]) == prefix
        low, report = _truncation_report(k, r), k.leaders()
        assert _entry_texts(low.entries) == _entry_texts(report.entries[: len(low.entries)])
        # the verdict the separate truncation gives, as the criterion once built it
        verdict = realisation_criterion(k, r)
        if report.separable and k.gamma.m1 + k.gamma.m2 > 1:
            assert bool(verdict) == (set(low.minimal_separable) == set(report.minimal_separable))
        if not verdict:
            return  # a kernel that fails the criterion is not prolonged further


def test_prolongation_of_a_valid_kernel_validates():
    # without the saturation by the non-constant denominators prolong clears,
    # seeds 14, 43, 118, 173 and 192 give relations not closed under the operators
    for seed in range(200):
        try:
            k = _seeded_kernel(seed)
            k.validate()
            k2 = k.prolong()
        except KernelError:
            continue
        k2.validate()


def test_realize_riccati_matches_oracle():
    k2 = riccati_kernel().prolong()
    k6 = realize(k2, 1, 6)
    _, polys = riccati_oracle(6)
    x0 = k6.jet_var(1, ()).num
    for order in range(7):
        jet = k6.jet_var(1, ((1, 1),) * order).num
        expect = k6.ring.zero
        for (e,), c in polys[order].terms.items():
            expect = expect + x0**e * c
        assert not k6.ideal.normal_form(jet - expect), order


def test_realize_generic_stays_free():
    k = generic_two_derivations(r=2)
    k4 = realize(k, 1, 4)
    assert k4.ideal.gens == ()
    assert k4.r == 4
    assert all(e.status == "FREE" for e in k4.leaders().entries)


def test_realize_requires_criterion():
    field = constant_field(two_derivations())
    k = Kernel(field, 1, 2, ["x1_[1,2;1,1]"])
    with pytest.raises(KernelError) as e:
        realize(k, 1, 4)
    assert e.value.code == "CRITERION_FAIL"


def test_prolongation_deterministic_isomorphic():
    k = riccati_kernel()
    assert isomorphic(k, k)
    for mk in (riccati_kernel, equal_flows_kernel, lambda: generic_two_derivations(r=1)):
        a = mk().prolong().prolong()
        b = mk().prolong().prolong()
        assert isomorphic(a, b)
    assert not isomorphic(riccati_kernel(), generic_two_derivations(r=1))


def test_upward_closure_of_separable_leaders():
    k6 = realize(riccati_kernel().prolong(), 1, 5)
    rep = k6.leaders()
    base = psi(((1, 1),), 1, 0)
    for e in rep.entries:
        vec = psi(e.word, 1, 0)
        if all(a >= b for a, b in zip(vec, base)):
            assert e.status == "SEPARABLE"
            # the jet value lies in the field of its predecessors: linear witness
            assert e.witness.degree_in(k6.position[(e.word, e.t)]) == 1


# -- point checks -----------------------------------------------------------------

def test_specialize_riccati_zero():
    k = riccati_kernel()
    assert specialize_check(k, [0])
    assert not specialize_check(k, [1])


def test_specialize_riccati_over_qt():
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 1}})
    k = riccati_kernel(field)
    minus_inv_t = parse_frac(field.ring, "-1/t")
    assert specialize_check(k, [minus_inv_t])
    assert not specialize_check(k, [field.scalar(1)])


def test_specialize_respects_brackets():
    field = constant_field(sl2_constants())
    k = Kernel(field, 1, 1, [])
    assert specialize_check(k, [0])


def test_specialize_accepts_string_values():
    spec = FieldSpec(char=0, gens=("t",))
    gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
    field = DField(spec, gamma, {(1, 1): {"t": 1}})
    k = riccati_kernel(field)
    assert specialize_check(k, ["-1/t"])
    assert not specialize_check(k, ["1"])
