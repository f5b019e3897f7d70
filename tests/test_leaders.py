"""Leader detection against the membership-based classification it replaced.

`Kernel.leaders` reads each status off the reduced lex basis. The reference
below asks the ideal instead: it takes the first candidate of least degree
whose leading coefficient is not in the ideal, and calls it INSEPARABLE when
its separant is. Both must agree on every kernel, prime presentation or not.
"""

from importlib.resources import files
from pathlib import Path

import pytest
from helpers import constant_field, trivial_derivation, two_derivations
from test_kernels import _entry_texts, _seeded_kernel

from opfield.commutation import GammaSystem
from opfield.dfields import DField
from opfield.groebner import Ideal
from opfield.kernels import Kernel, LeaderInfo
from opfield.local_algebra import derivation_algebra
from opfield.scalars import FieldSpec
from opfield.specs import load_kernel

FIXTURES = Path(str(files("opfield") / "fixtures"))


def reference_entries(kernel):
    """Leader entries by membership tests on the reduced lex basis."""
    basis = kernel.ideal.groebner()
    entries = []
    for idx, (word, t) in enumerate(kernel.jets):
        allowed = set(range(idx + 1))
        candidates = [g for g in basis if g.variables() <= allowed and g.degree_in(idx) > 0]
        info = LeaderInfo(word, t, "FREE")
        if candidates:
            candidates.sort(key=lambda g: g.degree_in(idx))
            chosen = None
            for g in candidates:
                if not kernel.ideal.contains(kernel._leading_v_coeff(g, idx)):
                    chosen = g
                    break
            if chosen is None:
                chosen = candidates[0]
            status = "INSEPARABLE" if kernel.ideal.contains(chosen.deriv(idx)) else "SEPARABLE"
            info = LeaderInfo(word, t, status, chosen)
        entries.append(info)
    return entries


def assert_matches_reference(kernel):
    assert _entry_texts(kernel.leaders().entries) == _entry_texts(reference_entries(kernel))


def _char_p_field(char):
    """F_p(t) with dt = 0 under one derivation."""
    gamma = GammaSystem(derivation_algebra(1, char), None, {}, {})
    return DField(FieldSpec(char=char, gens=("t",)), gamma, {(1, 1): {"t": 0}})


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("kernel_*.json")))
def test_fixtures_and_prolongations(name):
    k = load_kernel(FIXTURES / name)
    assert_matches_reference(k)
    while k.r < 4:
        k = k.prolong()
        assert_matches_reference(k)


def test_seeded_kernels():
    for seed in range(64):
        assert_matches_reference(_seeded_kernel(seed))


@pytest.mark.parametrize("char, rels", [
    (2, ["x1_[]^2 - t"]),
    (2, ["x1_[1,1]^2 - t", "x1_[]^2 - t*x1_[]"]),
    (3, ["x1_[]^3 - t"]),
    (3, ["x1_[1,1]^3 - t*x1_[]^3"]),
])
def test_inseparable_kernels(char, rels):
    k = Kernel(_char_p_field(char), 1, 1, rels, check=False)
    assert k.leaders().inseparable
    assert_matches_reference(k)


@pytest.mark.parametrize("rels", [
    ["(x1_[1,1] - x1_[]^2)^2"],
    ["(x1_[1,1] - x1_[]^2)*(x1_[1,1] - x1_[])"],
    ["x1_[]^2*(x1_[1,1] - 1)", "x1_[]^3"],
    ["1"],
])
def test_non_prime_presentations(rels):
    assert_matches_reference(Kernel(constant_field(trivial_derivation()), 1, 1, rels, check=False))
    two = Kernel(constant_field(two_derivations()), 1, 1, rels + ["x1_[1,2]*x1_[1,1]^2"], check=False)
    assert_matches_reference(two)


def test_leaders_asks_the_ideal_nothing(monkeypatch):
    kernels = [load_kernel(FIXTURES / "kernel_equal_flows.json").prolong().prolong()]
    kernels += [Kernel(_char_p_field(2), 1, 1, ["x1_[]^2 - t"], check=False)]
    kernels += [_seeded_kernel(seed) for seed in range(8)]

    def refuse(*args):
        raise AssertionError("leaders() asked the ideal a membership question")

    calls = []
    groebner = Ideal.groebner

    def counting(ideal, *args):
        calls.append(ideal)
        return groebner(ideal, *args)

    monkeypatch.setattr(Ideal, "contains", refuse)
    monkeypatch.setattr(Ideal, "normal_form", refuse)
    monkeypatch.setattr(Ideal, "groebner", counting)
    for k in kernels:
        calls.clear()
        assert k.leaders().entries
        assert len(calls) == 1 and calls[0] is k.ideal  # one pass, not one lookup per jet
