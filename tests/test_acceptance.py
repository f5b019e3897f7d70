"""Acceptance suite: one criterion per test, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion, with its wall time against the stated budget.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from importlib.resources import files
from math import factorial
from pathlib import Path

import jsonschema
import pytest
from helpers import (
    constant_field,
    identity_breaking_perturbations,
    passing_fixtures,
    trivial_derivation,
    two_derivations,
)

from opfield.cli import main
from opfield.commutation import (
    GammaSystem,
    check_associative,
    check_cross,
    check_jacobi,
    hs_system,
    hs_tensor_reduce,
    iterative_hs_coeffs,
)
from opfield.dfields import DField, extend_inseparable_decide, extend_separable
from opfield.free_module import FreeCalculus
from opfield.groebner import Ideal
from opfield.indices import dominates, normal_words_upto, psi
from opfield.kernels import Kernel, isomorphic, realisation_criterion, realize, specialize_check
from opfield.local_algebra import (
    derivation_algebra,
    frobenius_assumption,
    tensor_basis_pairs,
    trivial_algebra,
    truncation_algebra,
)
from opfield.polynomials import Frac, PolyRing, parse_frac
from opfield.scalars import FieldSpec
from opfield.specs import canonicalize

FIXTURES = Path(str(files("opfield") / "fixtures"))
SCHEMAS = Path(str(files("opfield") / "schemas"))


class budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s / {self.seconds}s budget)")
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded its time budget"
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def test_01_free_module_commutativity():
    with budget("1 (free-module commutativity)", 50):
        for name, gamma in passing_fixtures().items():
            t0 = time.perf_counter()
            fc = FreeCalculus(gamma)
            for lam in normal_words_upto(gamma.m1, gamma.m2, 4):
                for i in gamma.ops:
                    for j in gamma.ops:
                        assert fc.commutator_defect(i, j, lam) == {}, (name, i, j, lam)
            assert time.perf_counter() - t0 < 10, f"{name} exceeded 10s"


def test_02_converse_perturbations():
    with budget("2 (converse: perturbed coefficients break the identity)", 5):
        for name, bad in identity_breaking_perturbations().items():
            verdicts = [check_jacobi(bad), check_associative(bad), check_cross(bad)]
            assert any(not v for v in verdicts), name
            fc = FreeCalculus(bad)
            assert any(
                fc.commutator_defect(i, j, lam)
                for lam in normal_words_upto(bad.m1, bad.m2, 3)
                for i in bad.ops
                for j in bad.ops
            ), name


def test_03_associativity_binomial():
    with budget("3 (associativity = binomial identity)", 1):
        for p, n in ((2, 1), (2, 2), (3, 1)):
            g = iterative_hs_coeffs(p, n)
            assert g.check_hom(2)
            assert check_associative(g)
            # Perturb each nonzero (binomial) entry to every other field value;
            # the validator pair must reject. Zero entries are excluded: some
            # flips there produce genuinely different associative iterativities
            # (e.g. the multiplicative-type rule r(e) = e(x)1 + 1(x)e + e(x)e
            # over F_2[e]/(e^2)), so (2,1), whose table is all zeros, only
            # exercises the accepting direction.
            for key, old in g.hs.items():
                for new in range(p):
                    if g.fieldspec.coerce(new) == old:
                        continue
                    hs = dict(g.hs)
                    if new:
                        hs[key] = new
                    else:
                        del hs[key]
                    bad = GammaSystem(trivial_algebra(p), g.d2, {}, hs)
                    rejected = (not bad.check_hom(2)) or (not check_associative(bad))
                    assert rejected, (p, n, key, new)


def test_04_tensor_reduction():
    with budget("4 (HS tensor reduction)", 10):
        g = iterative_hs_coeffs(2, 1)
        alg, coeffs = hs_tensor_reduce([(g.d2, g.hs), (g.d2, g.hs)])
        pairs = tensor_basis_pairs(g.d2, g.d2)
        index = {ij: k + 1 for k, ij in enumerate(pairs)}
        index[(0, 0)] = 0

        # independent oracle: expand r1 (x) r2 on every basis element directly
        def component_c(table, alg1, l, i, j):
            if i == 0 and j == 0:
                return 1 if l == 0 else 0
            if i == 0:
                return 1 if l == j else 0
            if j == 0:
                return 1 if l == i else 0
            if l == 0:
                return 0
            v = table.get((i, j, l))
            return 0 if v is None else 1

        full = [(0, 0)] + pairs
        for (l1, l2) in full:
            for (i1, i2) in full:
                for (j1, j2) in full:
                    expect = component_c(g.hs, g.d2, l1, i1, j1) * component_c(
                        g.hs, g.d2, l2, i2, j2
                    )
                    if (l1, l2) == (0, 0) or (i1, i2) == (0, 0) or (j1, j2) == (0, 0):
                        continue  # extended rows are conventions, not stored entries
                    key = (index[(i1, i2)], index[(j1, j2)], index[(l1, l2)])
                    got = coeffs.get(key)
                    got = 0 if got is None else (1 if got else 0)
                    assert got == expect, key

        combined = hs_system(alg, coeffs)
        assert combined.check_hom(2)
        assert check_associative(combined)

        # the combined operator at (i1,i2) is the composition of the factors
        fc = FreeCalculus(combined)
        pos = {ij: k + 1 for k, ij in enumerate(pairs)}
        for lam in normal_words_upto(combined.m1, combined.m2, 3):
            for (i1, i2) in pairs:
                if i1 == 0 or i2 == 0:
                    continue
                lhs = fc.apply((2, pos[(i1, i2)]), fc.wvec(lam))
                rhs = fc.apply(
                    (2, pos[(i1, 0)]), fc.apply((2, pos[(0, i2)]), fc.wvec(lam))
                )
                assert fc.equal(lhs, rhs), (lam, i1, i2)


def riccati_oracle(order):
    ring = PolyRing(("y",))
    polys = [ring.var("y")]
    for _ in range(order):
        polys.append(polys[-1].deriv(0) * ring.var("y") ** 2)
    return polys


def test_05_riccati_realisation_vs_oracle():
    with budget("5 (realisation matches the classical recurrence)", 10):
        polys = riccati_oracle(6)
        y = polys[0]
        for k, p in enumerate(polys):
            assert p == y ** (k + 1) * factorial(k)

        field = constant_field(trivial_derivation())
        kernel = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]^2"]).prolong()
        k6 = realize(kernel, 1, 6)
        x0 = k6.jet_var(1, ()).num
        for order in range(7):
            jet = k6.jet_var(1, ((1, 1),) * order).num
            expect = k6.ring.zero
            for (e,), c in polys[order].terms.items():
                expect = expect + x0**e * c
            assert not k6.ideal.normal_form(jet - expect), order

        spec = FieldSpec(char=0, gens=("t",))
        gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
        K = DField(spec, gamma, {(1, 1): {"t": 1}})
        kq = Kernel(K, 1, 1, ["x1_[1,1] - x1_[]^2"])
        assert specialize_check(kq, [parse_frac(K.ring, "-1/t")])
        assert not specialize_check(kq, [K.scalar(1)])


def test_06_generic_kernel_stays_free():
    with budget("6 (generic kernel realises freely)", 10):
        field = constant_field(two_derivations())
        kernel = Kernel(field, 1, 2, [])
        k4 = realize(kernel, 1, 4)
        assert k4.r == 4
        assert k4.ideal.gens == ()
        assert all(e.status == "FREE" for e in k4.leaders().entries)


def fixture_kernels():
    field1 = constant_field(trivial_derivation())
    field2 = constant_field(two_derivations())
    return {
        "riccati": lambda: Kernel(field1, 1, 1, ["x1_[1,1] - x1_[]^2"]),
        "generic_two": lambda: Kernel(field2, 1, 1, []),
        "equal_flows": lambda: Kernel(field2, 1, 1, ["x1_[1,1] - x1_[]", "x1_[1,2] - x1_[]"]),
    }


def test_07_generic_prolongation_unique():
    with budget("7 (independent prolongation runs are isomorphic)", 10):
        for name, mk in fixture_kernels().items():
            runs = []
            for _ in range(2):
                k = mk()
                while k.r < 3:
                    k = k.prolong()
                runs.append(k)
            assert isomorphic(runs[0], runs[1]), name


def test_08_specialisation_well_defined():
    with budget("8 (derivative routes agree)", 30):
        exercised = 0
        for name, mk in fixture_kernels().items():
            k = mk()
            if len(k.gamma.ops) < 2:
                continue
            while k.r < 3:
                k = k.prolong()  # raises GAMMA_FAIL when any two routes disagree
                exercised += k.claim_routes_checked
        assert exercised >= 1


def test_09_leader_structure():
    with budget("9 (upward closure and Dickson minimization)", 2):
        field = constant_field(trivial_derivation())
        kernel = Kernel(field, 1, 1, ["x1_[1,1] - x1_[]^2"]).prolong()
        k5 = realize(kernel, 1, 5)
        rep = k5.leaders()
        base = psi(((1, 1),), 1, 0)
        for e in rep.entries:
            if dominates(psi(e.word, 1, 0), base):
                assert e.status == "SEPARABLE"
                # solved form: the jet lies in the field of its predecessors
                assert e.witness.degree_in(k5.position[(e.word, e.t)]) == 1

        m1, m2 = 3, 0
        words = normal_words_upto(m1, m2, 6)
        rng = random.Random(2024)
        from opfield.indices import dickson_minimize

        for _ in range(50):
            sample = [(rng.choice(words), rng.choice((1, 2))) for _ in range(50)]
            mine = dickson_minimize(sample, m1, m2)
            uniq = {(psi(w, m1, m2), t): (w, t) for w, t in sample}
            brute = [
                item
                for key, item in uniq.items()
                if not any(k2 != key and k2[1] == key[1] and dominates(key[0], k2[0]) for k2 in uniq)
            ]
            assert sorted(mine) == sorted(brute)


def _euclid_squarefree(f):
    # univariate gcd(f, f') must be constant
    a, b = f, f.deriv(0)
    while b:
        _, r = divmod_uni(a, b)
        a, b = b, r
    return a.is_const()


def divmod_uni(a, b):
    ring = a.ring
    q = ring.zero
    r = a
    db = b.degree_in(0)
    while r and r.degree_in(0) >= db:
        sh = r.degree_in(0) - db
        coef = r.terms[max(r.terms, key=lambda e: e[0])] / b.terms[max(b.terms, key=lambda e: e[0])]
        t = ring.var(0) ** sh * ring.const(coef) if sh else ring.const(coef)
        q = q + t
        r = r - t * b
    return q, r


def test_10_extension_rules():
    with budget("10 (extension rules)", 5):
        spec = FieldSpec(char=0, gens=("t",))
        gamma = GammaSystem(derivation_algebra(1), None, {}, {}, spec)
        K = DField(spec, gamma, {(1, 1): {"t": 1}})
        aring = K.adjunction_ring("a")
        a = aring.var(0)
        t = Frac(K.ring.var("t"), K.ring.one)
        rng = random.Random(7)

        produced = 0
        while produced < 20:
            deg = rng.choice((2, 3))
            f = a**deg
            for d in range(deg):
                cnum = rng.randrange(-3, 4)
                cden = rng.randrange(0, 2)
                coeff = t * cnum if cden else Frac.of(cnum, K.ring)
                f = f + aring.const(coeff) * a**d
            if not _euclid_squarefree(f):
                continue
            values = extend_separable(K, "a", f)
            # recheck exactness of f^e(e(a)) = 0 from the returned values
            modulus = Ideal(aring, [f])
            alg = K.gamma.d1
            from opfield.local_algebra import DVector

            b = DVector(alg, (Frac(a, aring.one),) + tuple(values[(1, i)] for i in range(1, alg.m + 1)))
            acc = None
            for (d,), c in f.terms.items():
                cvec = DVector(alg, tuple(Frac(aring.const(x), aring.one) for x in K.e(1, c).coords))
                term = cvec if d == 0 else cvec * b**d
                acc = term if acc is None else acc + term
            for coord in acc.coords:
                assert not modulus.normal_form(coord.num)
            produced += 1

        # char-2 counterexample: t moves under the second operator
        spec2 = FieldSpec(char=2, gens=("s", "t"))
        gamma2 = GammaSystem(truncation_algebra(3, char=2), None, {}, {}, spec2)
        K2 = DField(spec2, gamma2, {(1, 2): {"t": "s"}})
        ar2 = K2.adjunction_ring("a")
        tt = Frac(K2.ring.var("t"), K2.ring.one)
        assert extend_inseparable_decide(K2, "a", ar2.var(0) ** 2 - ar2.const(tt)) is False
        cc = Frac(K2.ring.one, K2.ring.one)
        assert extend_inseparable_decide(K2, "a", ar2.var(0) ** 2 - ar2.const(cc)) is True
        ok, witness = frobenius_assumption(truncation_algebra(3, char=2))
        assert not ok and witness == (1, 1)


def test_11_cli_contract(tmp_path, capsys):
    with budget("11 (CLI round-trips, exit codes, schemas)", 30):
        kinds = {
            "algebra": [p for p in FIXTURES.glob("algebra_*.json")],
            "dfield": [p for p in FIXTURES.glob("dfield_*.json")],
            "gamma": [p for p in FIXTURES.glob("gamma_*.json")],
            "kernel": [p for p in FIXTURES.glob("kernel_*.json")],
        }
        for kind, paths in kinds.items():
            assert paths
            for path in paths:
                first = canonicalize(path, kind=kind)
                assert canonicalize(first, kind=kind) == first
                assert json.loads(path.read_text()) == first

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        code, out = run(["--format", "json", "kernel", "leaders", str(FIXTURES / "kernel_riccati.json")])
        assert code == 0
        jsonschema.validate(json.loads(out), json.loads((SCHEMAS / "leaders.schema.json").read_text()))

        code, out = run(["--format", "json", "gamma", "check", str(FIXTURES / "gamma_mixed_f2.json")])
        assert code == 0
        jsonschema.validate(json.loads(out), json.loads((SCHEMAS / "report.schema.json").read_text()))

        code, out = run(
            ["--format", "json", "kernel", "realize", str(FIXTURES / "kernel_riccati.json"), "--r", "2", "--order", "6"]
        )
        assert code == 0
        jsonschema.validate(json.loads(out), json.loads((SCHEMAS / "realize.schema.json").read_text()))

        code, out = run(["--format", "json", "free", "table", "--gamma", str(FIXTURES / "gamma_sl2.json"), "--order", "1"])
        assert code == 0
        jsonschema.validate(json.loads(out), json.loads((SCHEMAS / "freetable.schema.json").read_text()))

        # exit code 1: validator failure with witness
        bad = tmp_path / "idempotent.json"
        bad.write_text(json.dumps({
            "char": 0, "dim": 2, "grades": [1],
            "products": [{"p": 1, "q": 1, "coeffs": {"1": 1}}],
        }))
        code, out = run(["--format", "json", "algebra", "validate", str(bad)])
        assert code == 1
        assert json.loads(out)["code"] == "NOT_LOCAL"

        # exit code 2: malformed input
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        assert main(["algebra", "validate", str(broken)]) == 2
        capsys.readouterr()
