"""Only `polynomials.py` decides how a polynomial or fraction is represented.

Every other module wraps a polynomial over one with `Frac.of` and reads leads
through `Poly`, so none of them may tell `Frac` that a pair is already
normal."""

import ast
from pathlib import Path

import opfield

SOURCES = sorted(p for p in Path(opfield.__file__).resolve().parent.glob("*.py") if p.name != "polynomials.py")


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"dfields.py", "groebner.py", "kernels.py"}


def test_no_module_but_polynomials_passes_normalize():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and any(kw.arg == "normalize" for kw in node.keywords)
    ]
    assert offenders == []
