"""Only `polynomials.py` decides how a polynomial or fraction is represented.

Every other module wraps a polynomial over one with `Frac.of` and reads leads
through `Poly`, so none of them may tell `Frac` that a pair is already
normal, nor build `Frac(p, <ring>.one)`, which normalises a pair whose
normality `Frac.of` reads off its coefficients."""

import ast
from pathlib import Path

import opfield

SOURCES = sorted(p for p in Path(opfield.__file__).resolve().parent.glob("*.py") if p.name != "polynomials.py")


def _offending_calls(predicate):
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and predicate(node)
    ]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"dfields.py", "groebner.py", "kernels.py"}


def test_no_module_but_polynomials_passes_normalize():
    assert _offending_calls(lambda call: any(kw.arg == "normalize" for kw in call.keywords)) == []


def test_no_module_but_polynomials_wraps_a_polynomial_over_one():
    def over_one(call):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        return name == "Frac" and len(call.args) >= 2 and getattr(call.args[1], "attr", None) == "one"

    assert _offending_calls(over_one) == []


def test_groebner_divides_coefficients_only_through_coeff_div():
    # over Q `int / int` is a float, so a `/` there would lose exactness
    path = next(p for p in SOURCES if p.name == "groebner.py")
    divisions = [
        f"groebner.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []
