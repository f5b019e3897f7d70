"""Output checks for the benchmark, run outside the timed region.

Each oracle gets the call (with the data its generator recorded) and the
call's exit code and stdout, and returns None when the output is right or a
one-line reason when it is not. The checks are independent of opfield's own
arithmetic: expressions are evaluated at rational points with Fraction, jets
come from the Taylor recurrence of the Riccati equation, tensor and reduce
results are rebuilt from the factors' tables, and the free-module table must
satisfy the commutator identity. Only extend_separable is rechecked with the
library's own vectors, as the acceptance suite does.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*(?:\[[0-9,;]*\])?)|(.))")


def evaluate(text: str, env: dict, one=Fraction(1)):
    """Value of an opfield expression (+ - * / ^, parentheses) under `env`.

    Numbers become `one * n`, so the same parser serves Fraction points and
    dual numbers.
    """
    tokens = [m.groups() for m in _TOKEN.finditer(text) if m.group(0).strip()]
    tokens.append((None, None, "$"))
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def peek():
        return tokens[pos][2]

    def expr():
        neg = peek() == "-"
        if neg:
            take()
        acc = term()
        acc = -acc if neg else acc
        while peek() in ("+", "-"):
            op = take()[2]
            rhs = term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term():
        acc = factor()
        while peek() in ("*", "/"):
            op = take()[2]
            rhs = factor()
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def factor():
        base = atom()
        if peek() == "^":
            take()
            base = base ** int(take()[0])
        return base

    def atom():
        num, name, op = take()
        if num is not None:
            return one * int(num)
        if name is not None:
            return env[name]
        if op == "(":
            inner = expr()
            if take()[2] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        raise ValueError(f"unexpected {op!r} in {text!r}")

    value = expr()
    if peek() != "$":
        raise ValueError(f"trailing input in {text!r}")
    return value


class Dual:
    """a + b eps with eps^2 = 0: carries one derivative through evaluation."""

    def __init__(self, a, b=Fraction(0)):
        self.a, self.b = Fraction(a), Fraction(b)

    def _d(self, o):
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = self._d(o)
        return Dual(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        o = self._d(o)
        return Dual(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __mul__(self, o):
        o = self._d(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        o = self._d(o)
        return Dual(self.a / o.a, (self.b * o.a - self.a * o.b) / (o.a * o.a))

    def __pow__(self, n: int):
        return Dual(self.a**n, n * self.a ** (n - 1) * self.b)


# Generic points; a relation in the ideal vanishes at all of them.
POINTS = ((Fraction(13, 7), Fraction(5, 3)), (Fraction(-11, 5), Fraction(3, 8)))


def parse_output(stdout: str) -> dict:
    """The report as a dict: JSON as is, text as `key: value` lines."""
    if stdout.startswith("{"):
        return json.loads(stdout)
    out: dict = {}
    key = None
    for line in stdout.splitlines():
        if line.startswith("  ") and key:
            out[key].append(line.strip())
        elif ": " in line:
            k, v = line.split(": ", 1)
            out[k] = v
        elif line.endswith(":"):
            key = line[:-1]
            out[key] = []
    return out


def _word(k: int) -> str:
    return "x1_[" + ";".join(["1,1"] * k) + "]"


def _taylor(coeffs, t0: Fraction, n: int) -> list:
    """First n+1 Taylor coefficients at t0 of the polynomial sum coeffs[k] t^k."""
    return [sum(Fraction(c) * comb(k, m) * t0 ** (k - m) for k, c in enumerate(coeffs) if k >= m)
            for m in range(n + 1)]


def riccati_jets(check: dict, t0: Fraction, x0: Fraction, order: int) -> dict:
    """Jet values of the solution of x' = a x^2 + b x + c through x(t0) = x0."""
    a, b, c = (_taylor(check[k], t0, order) for k in "abc")
    xs = [x0]
    for k in range(order):
        rhs = sum(a[i] * sum(xs[j] * xs[k - i - j] for j in range(k - i + 1)) for i in range(k + 1))
        rhs += sum(b[i] * xs[k - i] for i in range(k + 1)) + c[k]
        xs.append(rhs / (k + 1))
    env = {_word(k): factorial(k) * xs[k] for k in range(order + 1)}
    env["t"] = t0
    return env


def flow_jets(rates, x0: Fraction, order: int) -> dict:
    """x = x0 exp(a s1 + b s2): the jet of word w is a^#1 b^#2 x0."""
    env = {}
    for n1 in range(order + 1):
        for n2 in range(order + 1 - n1):
            word = ";".join(["1,2"] * n2 + ["1,1"] * n1)
            env[f"x1_[{word}]"] = rates[0] ** n1 * rates[1] ** n2 * x0
    return env


def _jet_count(m: int, r: int) -> int:
    return sum(comb(k + m - 1, m - 1) for k in range(r + 1))


def _vanish(polys, envs) -> str | None:
    for p in polys:
        for env in envs:
            if evaluate(p, env):
                return f"relation {p} does not vanish on the solution"
    return None


def check_kernel(call, report: dict) -> str | None:
    chk = call.check
    oracle = chk["oracle"]
    cmd = chk.get("cmd", "realize")
    m = 2 if oracle in ("flow", "free") else 1
    if cmd == "leaders":
        r = 1
    elif cmd.startswith("prolong"):
        r = 1 + int(cmd[-1])
    else:
        r = chk.get("order") or int(cmd[-1])
    if oracle == "riccati":
        envs = [riccati_jets(chk, t0, x0, r) for t0, x0 in POINTS]
    elif oracle == "flow":
        envs = [flow_jets(chk["rates"], x0, r) for _, x0 in POINTS]
    else:
        envs = []
    n_rel = 0 if oracle == "free" else _jet_count(m, r) - 1
    if cmd == "leaders":
        got = {e["jet"]: e["status"] for e in report["entries"]}
        want = {"x1_[]": "FREE"} | {f"x1_[1,{i}]": "FREE" if oracle == "free" else "SEPARABLE" for i in range(1, m + 1)}
        if got != want:
            return f"leaders {got} != {want}"
        return _vanish([e["min_poly"] for e in report["entries"] if "min_poly" in e], envs)
    if cmd.startswith("prolong"):
        rels = report["relations"]
        if report["r"] != r or len(rels) != n_rel:
            return f"prolong gave r={report['r']} with {len(rels)} relations, want r={r} with {n_rel}"
        return _vanish(rels, envs)
    rels = report["relations"]
    jets = report["jets"]
    n_jets = jets if isinstance(jets, str) else len(jets)
    if report["status"] != "PASS" or int(report["order"]) != r or int(n_jets) != _jet_count(m, r):
        return f"realize status/order/jets {report['status']}/{report['order']}/{n_jets}"
    if len(rels) != n_rel:
        return f"realize gave {len(rels)} relations, want {n_rel}"
    return _vanish(rels, envs)


def check_status(call, report: dict) -> str | None:
    chk = call.check
    if report.get("status") != chk["status"]:
        return f"status {report.get('status')} != {chk['status']}"
    code = chk.get("code")
    if code is not None:
        allowed = code if isinstance(code, tuple) else (code,)
        if report.get("code") not in allowed:
            return f"code {report.get('code')} not in {allowed}"
        if not report.get("witness"):
            return "FAIL without a witness"
    if chk.get("witness") is not None and report.get("witness") != chk["witness"]:
        return f"witness {report.get('witness')} != {chk['witness']}"
    return None


def check_algebra(call, report: dict) -> str | None:
    want = {"status": "PASS", "dim": call.check["dim"], "grades": call.check["grades"],
            "nilpotency": call.check["nilpotency"]}
    got = {k: report.get(k) for k in want}
    return None if got == want else f"algebra report {got} != {want}"


def scalar(text, char: int):
    """A scalar literal or Fraction as a Fraction (char 0) or a residue mod char."""
    q = evaluate(text, {}) if isinstance(text, str) else Fraction(text)
    return q if char == 0 else q.numerator * pow(q.denominator, -1, char) % char


def _table(spec: dict) -> dict:
    """(p, q) -> {i: c} for both orders of p, q."""
    char = spec.get("char", 0)
    out: dict = {}
    for e in spec["products"]:
        for key in ((e["p"], e["q"]), (e["q"], e["p"])):
            out.setdefault(key, {}).update({int(i): scalar(c, char) for i, c in e["coeffs"].items()})
    return out


def _ext(table: dict, i: int, p: int, q: int):
    """Structure constant with the unit at index 0."""
    if p == 0 or q == 0:
        return int(i == p + q)
    return 0 if i == 0 else table.get((p, q), {}).get(i, 0)


def _pairs(ga, gb):
    sa, sb = [0] + list(ga), [0] + list(gb)
    pairs = [(i, j) for i in range(len(sa)) for j in range(len(sb)) if (i, j) != (0, 0)]
    pairs.sort(key=lambda ij: (sa[ij[0]] + sb[ij[1]], ij))
    return pairs, sa, sb


def _products(spec: dict) -> dict:
    char = spec.get("char", 0)
    out = {}
    for e in spec["products"]:
        for i, c in e["coeffs"].items():
            c = scalar(c, char)
            if c:
                out[(min(e["p"], e["q"]), max(e["p"], e["q"]), int(i))] = c
    return out


def check_tensor(call, report: dict) -> str | None:
    fa, fb = call.check["factors"]
    char = fa["char"]
    pairs, sa, sb = _pairs(fa["grades"], fb["grades"])
    index = {ij: k + 1 for k, ij in enumerate(pairs)}
    ta, tb = _table(fa), _table(fb)
    want = {}
    for (p1, p2) in pairs:
        for (q1, q2) in pairs:
            if index[(p1, p2)] > index[(q1, q2)]:
                continue
            for (i1, i2) in pairs:
                c = _ext(ta, i1, p1, q1) * _ext(tb, i2, p2, q2)
                c = c % char if char else c
                if c:
                    want[(index[(p1, p2)], index[(q1, q2)], index[(i1, i2)])] = c
    grades = [sa[i] + sb[j] for (i, j) in pairs]
    if report["dim"] != len(pairs) + 1 or report["grades"] != grades:
        return f"tensor dim/grades {report['dim']}/{report['grades']}"
    return None if _products(report) == want else "tensor structure constants differ from the factors'"


def check_reduce(call, report: dict) -> str | None:
    char = call.check["char"]
    (da, ta), (db, tb) = [(d2, dict(items)) for d2, items in call.check["factors"]]
    pairs, _, _ = _pairs(da["grades"], db["grades"])
    index = {ij: k + 1 for k, ij in enumerate(pairs)}

    def ext_c(table, l, i, j):
        if i == 0 or j == 0:
            return int(l == i + j)
        return 0 if l == 0 else table.get((i, j, l), 0)

    want = {}
    for (i1, i2) in pairs:
        for (j1, j2) in pairs:
            for (l1, l2) in pairs:
                c = ext_c(ta, l1, i1, j1) * ext_c(tb, l2, i2, j2) % char
                if c:
                    want[(index[(i1, i2)], index[(j1, j2)], index[(l1, l2)])] = c
    got = {(e["i"], e["j"], e["l"]): scalar(e["c"], char) for e in report["hs"]}
    got = {k: v for k, v in got.items() if v}
    if report["d2"]["dim"] != len(pairs) + 1:
        return f"reduced algebra has dim {report['d2']['dim']}"
    return None if got == want else "reduced coefficients differ from the factor products"


def check_free_table(call, report: dict) -> str | None:
    m, order = call.check["m"], call.check["order"]
    lie = {tuple(k): Fraction(c) for k, c in call.check["lie"]}
    table = {}
    for e in report["entries"]:
        table[(e["op"], e["index"])] = {w: evaluate(c, {}) for w, c in e["value"]}
    words = {w for (_, w) in table}
    if len(table) != m * _jet_count(m, order) or len(words) != _jet_count(m, order):
        return f"free table has {len(table)} entries"

    def apply(op, vec):
        out: dict = {}
        for w, c in vec.items():
            for w2, c2 in table[(op, w)].items():
                out[w2] = out.get(w2, 0) + c * c2
        return out

    for w in words:
        if w.count(",") >= order:
            continue
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                lhs = apply(f"1,{i}", table[(f"1,{j}", w)])
                rhs = apply(f"1,{j}", table[(f"1,{i}", w)])
                for l in range(1, m + 1):
                    c = lie.get((i, j, l), 0)
                    for w2, c2 in table[(f"1,{l}", w)].items():
                        rhs[w2] = rhs.get(w2, 0) + c * c2
                diff = {k for k in set(lhs) | set(rhs) if lhs.get(k, 0) != rhs.get(k, 0)}
                if diff:
                    return f"[d{i}, d{j}] {w} breaks the commutator identity"
    return None


def check_apply(call, report: dict) -> str | None:
    chk = call.check
    spec = chk["field"]
    for t0, s0 in POINTS:
        point = {"t": t0, "s": s0}
        env = {}
        for g in spec["gens"]:
            d = spec["action"].get(g, {}).get(chk["op"], "0")
            env[g] = Dual(point[g], evaluate(d, point))
        want = evaluate(chk["expr"], env, one=Dual(1)).b
        got = evaluate(report["value"], point)
        if got != want:
            return f"d({chk['expr']}) at {point} is {got}, want {want}"
    return None


ORACLES = {
    "riccati": check_kernel,
    "flow": check_kernel,
    "free": check_kernel,
    "status": check_status,
    "algebra": check_algebra,
    "tensor": check_tensor,
    "reduce": check_reduce,
    "free_table": check_free_table,
    "apply": check_apply,
}


def check_cli(call, code, stdout: str) -> str | None:
    if code != call.exit:
        return f"exit {code!r}, want {call.exit}"
    try:
        return ORACLES[call.check["oracle"]](call, parse_output(stdout))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        return f"unreadable output: {e!r}"


def check_extend(prepared, values) -> str | None:
    """f^e(e(a)) must vanish in K[a]/(f), recomputed from the returned values."""
    from opfield.groebner import Ideal
    from opfield.local_algebra import DVector
    from opfield.polynomials import Frac

    field, f = prepared
    aring = f.ring
    modulus = Ideal(aring, [f])
    alg = field.gamma.d1
    b = DVector(alg, (Frac(aring.var(0), aring.one),) + tuple(values[(1, i)] for i in range(1, alg.m + 1)))
    acc = None
    for (d,), c in f.terms.items():
        cvec = DVector(alg, tuple(Frac(aring.const(x), aring.one) for x in field.e(1, c).coords))
        term = cvec if d == 0 else cvec * b**d
        acc = term if acc is None else acc + term
    for coord in acc.coords:
        if modulus.normal_form(coord.num):
            return "extend_separable values leave a nonzero residual"
    return None
