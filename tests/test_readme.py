"""The README's library sketch runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from math import factorial
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_prints_the_factorial_chain_and_true():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), str(README), "exec"), {})
    relations, verdict = out.getvalue().splitlines()
    # d^k x = k! x^(k+1) for dx = x^2, one relation per order 1..6
    chain = ["-x1_[]^2 + x1_[1,1]"] + [
        f"({-factorial(k)})*x1_[]^{k + 1} + x1_[{';'.join(['1,1'] * k)}]" for k in range(2, 7)
    ]
    assert ast.literal_eval(relations) == chain
    assert verdict == "True"
