"""Seeded input generator for the opfield benchmark.

Each workload is a fixed plan of call families. The seed only chooses the
coefficients, scalings and perturbations inside a family, never the plan, so
every seed costs about the same and the per-call latency distribution keeps
its shape. Every input is written as a JSON file the CLI reads; the program
sees nothing else. Each call carries what the oracle needs to check its
output, and three static flags (base-field generators, runs Buchberger, works
in positive characteristic on an HS side) from which the workload's shares
are reported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

from oracles import scalar

FIXTURES = "src/opfield/fixtures"


@dataclass
class Call:
    label: str
    argv: list | None = None  # one opfield.cli.main(argv) call
    library: dict | None = None  # extend_separable(field, name, f), which has no CLI
    exit: int = 0  # documented exit code for this input
    check: dict = field(default_factory=dict)  # oracle name and data
    gens: bool = False
    groebner: bool = False
    hs: bool = False


def _rat(rng: random.Random) -> Fraction:
    """A nonzero rational with one-digit numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _lit(q: Fraction) -> str:
    return f"({q})"


def _dump(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    return str(path)


def _d1(m: int, char: int = 0) -> dict:
    return {"char": char, "dim": m + 1, "grades": [1] * m, "products": []}


def _kernel(relations, m=1, gens=(), action=None) -> dict:
    return {
        "dfield": {"char": 0, "gens": list(gens), "action": action or {}, "d1": _d1(m)},
        "n": 1,
        "r": 1,
        "relations": relations,
    }


def _poly_t(coeffs) -> str:
    """Text of sum c_k t^k for coefficient list [c_0, c_1, ...]."""
    terms = [f"{_lit(c)}*t^{k}" if k else _lit(c) for k, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"


class _Builder:
    def __init__(self, workdir: Path, seed: int, salt: int):
        self.dir = workdir
        self.rng = random.Random(seed * 1000 + salt)
        self.calls: list[Call] = []
        self.files = 0

    def file(self, stem: str, data: dict) -> str:
        self.files += 1
        return _dump(self.dir / f"{stem}_{self.files:03d}.json", data)

    def add(self, label: str, argv=None, **kw) -> None:
        self.calls.append(Call(f"{label} #{len(self.calls):03d}", argv, **kw))

    def shuffled(self) -> list[Call]:
        # A seeded interleaving, so that no family runs as one block.
        calls = list(self.calls)
        self.rng.shuffle(calls)
        return calls


# ---------------------------------------------------------------------------
# jets_q: kernel machinery over bare Q
# ---------------------------------------------------------------------------

# Why: Buchberger and polynomial arithmetic do nearly all the work and every
# coefficient is a Frac over a ring without variables, the target of the
# Groebner pair heap, incremental prolongation, the coefficient collapse and
# a per-field FreeCalculus memo. The counts put the median inside the
# leaders/prolong cluster and the 90th percentile inside the order-3 realise
# cluster, so neither sits on a gap between call families.
JETS_Q_PLAN = {
    "riccati_q leaders": 20,
    "flow2_q leaders": 16,
    "riccati_q prolong1": 16,
    "free2_q prolong2": 12,
    "flow2_q prolong1": 6,
    "riccati_q prolong2": 6,
    "free2_q realize4": 4,
    "flow2_q realize2": 4,
    "riccati_q realize3": 10,
    "riccati_q realize4": 4,
    "riccati_q realize5": 1,
}


def jets_q(workdir: Path, seed: int) -> list[Call]:
    b = _Builder(workdir, seed, 1)
    # ROADMAP baseline fixtures, verbatim.
    for order in (6, 8):
        b.add(
            f"fixture kernel_riccati realize r2 o{order}",
            ["kernel", "realize", f"{FIXTURES}/kernel_riccati.json", "--r", "2", "--order", str(order)],
            check={"oracle": "riccati", "a": [1], "b": [0], "c": [0], "order": order},
            groebner=True,
        )
    for family, count in JETS_Q_PLAN.items():
        kind, cmd = family.split()
        for _ in range(count):
            if kind == "riccati_q":
                # x' = a x^2 + b x + c with seeded nonzero rationals.
                a, bb, c = _rat(b.rng), _rat(b.rng), _rat(b.rng)
                rel = f"x1_[1,1] - {_lit(a)}*x1_[]^2 - {_lit(bb)}*x1_[] - {_lit(c)}"
                path = b.file("riccati_q", _kernel([rel]))
                check = {"oracle": "riccati", "a": [a], "b": [bb], "c": [c]}
            elif kind == "flow2_q":
                # Two commuting flows d1 x = a x, d2 x = b x: every jet is a
                # leader, so prolongation solves a full linear system.
                a, bb = _rat(b.rng), _rat(b.rng)
                rels = [f"x1_[1,1] - {_lit(a)}*x1_[]", f"x1_[1,2] - {_lit(bb)}*x1_[]"]
                path = b.file("flow2_q", _kernel(rels, m=2))
                check = {"oracle": "flow", "rates": [a, bb]}
            else:
                # No relations: every jet stays free, Groebner bases are empty.
                path = b.file("free2_q", _kernel([], m=2))
                check = {"oracle": "free", "m": 2}
            b.add(f"{kind} {cmd}", _kernel_argv(cmd, path), check=dict(check, cmd=cmd), groebner=True)
    return b.shuffled()


def _kernel_argv(cmd: str, path: str) -> list:
    if cmd == "leaders":
        return ["--format", "json", "kernel", "leaders", path]
    if cmd.startswith("prolong"):
        return ["--format", "json", "kernel", "prolong", path, "--steps", cmd[-1]]
    return ["--format", "json", "kernel", "realize", path, "--r", "1", "--order", cmd[-1]]


# ---------------------------------------------------------------------------
# jets_qt: the same machinery over Q(t), t' = 1
# ---------------------------------------------------------------------------

# Why: coefficients are genuine rational functions in t, so a change that only
# helps generator-free base fields (the coefficient collapse) must leave this
# workload unchanged. dfields (e, partial_word) does real work here and
# Groebner mostly computes normal forms against small fixed bases.
JETS_QT_PLAN = {
    "riccati_qt leaders": 8,
    "riccati_qt prolong1": 8,
    "riccati_qt realize3": 8,
    "riccati_qt realize4": 2,
    "point_qt accept": 10,
    "point_qt reject": 10,
    "dfield_qt validate": 8,
    "dfield_qt2 validate": 6,
    "dfield_bad validate": 4,
    "dfield_qt apply": 14,
    "dfield_qt2 apply": 12,
    "extend_qt degree2": 6,
    "extend_qt degree3": 6,
    "extend_qt degree4": 6,
}

QT_FIELD = {"char": 0, "gens": ["t"], "action": {"t": {"1,1": "1"}}, "d1": _d1(1)}


def jets_qt(workdir: Path, seed: int) -> list[Call]:
    b = _Builder(workdir, seed, 2)
    act = {"t": {"1,1": "1"}}
    b.add(
        "fixture kernel_riccati_qt realize r1 o4",
        ["kernel", "realize", f"{FIXTURES}/kernel_riccati_qt.json", "--r", "1", "--order", "4"],
        check={"oracle": "riccati", "a": [1], "b": [0], "c": [0], "order": 4},
        gens=True, groebner=True,
    )
    b.add(
        "fixture kernel_riccati_qt check-point",
        ["kernel", "check-point", f"{FIXTURES}/kernel_riccati_qt.json", "--values=-1/t"],
        check={"oracle": "status", "status": "ACCEPT"},
        gens=True, groebner=True,
    )
    qt_field = b.file("dfield_qt", QT_FIELD)
    for family, count in JETS_QT_PLAN.items():
        kind, cmd = family.split()
        for k in range(count):
            if kind == "riccati_qt":
                # x' = a x^2 + b x + (c1 t + c0): only the constant term moves.
                a, bb = _rat(b.rng), _rat(b.rng)
                c = [_rat(b.rng), _rat(b.rng)]
                rel = f"x1_[1,1] - {_lit(a)}*x1_[]^2 - {_lit(bb)}*x1_[] - ({_poly_t(c)})"
                path = b.file("riccati_qt", _kernel([rel], gens=["t"], action=act))
                check = {"oracle": "riccati", "a": [a], "b": [bb], "c": c, "cmd": cmd}
                b.add(f"{kind} {cmd}", _kernel_argv(cmd, path), check=check, gens=True, groebner=True)
            elif kind == "point_qt":
                # Build c so that x0 = u/(t + k) solves x' = a x^2 + b x + c:
                # x0 is accepted and x0 + 1 is rejected (2 a x0 + a + b != 0).
                a, bb, u = _rat(b.rng), _rat(b.rng), _rat(b.rng)
                k = Fraction(b.rng.randint(1, 9), b.rng.randint(1, 3))
                x0 = f"{_lit(u)}/(t + {_lit(k)})"
                c = f"(-{_lit(u)} - {_lit(a * u * u)})/(t + {_lit(k)})^2 - {_lit(bb * u)}/(t + {_lit(k)})"
                rel = f"x1_[1,1] - {_lit(a)}*x1_[]^2 - {_lit(bb)}*x1_[] - ({c})"
                path = b.file("point_qt", _kernel([rel], gens=["t"], action=act))
                accept = cmd == "accept"
                value = x0 if accept else f"{x0} + 1"
                b.add(
                    f"{kind} {cmd}",
                    ["kernel", "check-point", path, f"--values={value}"],
                    exit=0 if accept else 1,
                    check={"oracle": "status", "status": "ACCEPT" if accept else "REJECT"},
                    gens=True, groebner=True,
                )
            elif kind == "extend_qt":
                b.add(f"{kind} {cmd}", library=_separable_poly(b.rng, int(cmd[-1]), k, qt_field),
                      check={"oracle": "extend"}, gens=True, groebner=True)
            else:
                _dfield_call(b, kind, cmd)
    return b.shuffled()


def _separable_poly(rng: random.Random, degree: int, k: int, field_path: str) -> dict:
    """f = a^d + p t a^j + s a^i + c t + r over Q(t), squarefree in a.

    The k-th polynomial of a degree takes the k-th exponent pair (j, i) in a
    fixed cycle, because the pair sets the cost (at degree 4 from about 60 to
    250 ms); the seed picks only the coefficients. f is monic in a with coefficients in Q[t]; if f(t0, a) is squarefree over Q
    for one rational t0, so is f over Q(t), because a square factor over Q(t)
    can be taken monic in Q[t][a] and survives the specialisation.
    """
    pairs = [(j, i) for j in range(1, degree) for i in range(1, degree)]
    j, i = pairs[k % len(pairs)]
    while True:
        p, s, c, r = (_rat(rng) for _ in range(4))
        coeffs = {d: [Fraction(0), Fraction(0)] for d in range(degree + 1)}  # [t^0, t^1]
        coeffs[degree][0] = Fraction(1)
        coeffs[j][1] += p
        coeffs[i][0] += s
        coeffs[0] = [r, c]
        if _squarefree([v0 + 2 * v1 for v0, v1 in coeffs.values()]):  # t0 = 2
            return {"field": field_path, "name": "a", "coeffs": {d: _poly_t(v) for d, v in coeffs.items() if any(v)}}


def _squarefree(coeffs: list) -> bool:
    """gcd(f, f') is constant for f = sum coeffs[k] a^k over Q."""
    f = list(coeffs)
    g = [k * c for k, c in enumerate(coeffs)][1:]
    while any(g):
        while g and not g[-1]:
            g.pop()
        while len(f) >= len(g) and any(f):
            q = f[-1] / g[-1]
            shift = len(f) - len(g)
            for k, c in enumerate(g):
                f[k + shift] -= q * c
            f.pop()
        f, g = g, f
    return len(f) == 1


def _dfield_call(b: _Builder, kind: str, cmd: str) -> None:
    rng = b.rng
    if kind == "dfield_qt":
        # Q(t) with t' = 1.
        spec = QT_FIELD
        ops = ["1,1"]
    elif kind == "dfield_qt2":
        # Q(t, s) with two commuting derivations: d1 t = 1, d2 s = s'(s).
        p = _rat(rng)
        spec = {"char": 0, "gens": ["s", "t"], "d1": _d1(2),
                "action": {"t": {"1,1": "1"}, "s": {"1,2": f"{_lit(p)}*s + 1"}}}
        ops = ["1,1", "1,2"]
    else:
        # d1 t = s, d2 s = 1: [d1, d2] t = -1, so the identities FAIL.
        spec = {"char": 0, "gens": ["s", "t"], "d1": _d1(2),
                "action": {"t": {"1,1": "s"}, "s": {"1,2": "1"}}}
        ops = []
    path = b.file(kind, spec)
    if cmd == "validate":
        bad = kind == "dfield_bad"
        b.add(f"{kind} {cmd}", ["--format", "json", "dfield", "validate", path], exit=1 if bad else 0,
              check={"oracle": "status", "status": "FAIL" if bad else "PASS",
                     "code": "GAMMA_FAIL" if bad else None}, gens=True)
        return
    op = rng.choice(ops)
    expr = _random_rational_function(rng, spec["gens"])
    b.add(f"{kind} {cmd}", ["--format", "json", "dfield", "apply", path, "--op", op, "--expr", expr],
          check={"oracle": "apply", "field": spec, "op": op, "expr": expr}, gens=True)


def _random_rational_function(rng: random.Random, gens: list) -> str:
    def poly():
        terms = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            terms.append(f"{_lit(_rat(rng))}*{g}^{rng.randint(1, 3)}")
        return " + ".join(terms + [_lit(_rat(rng))])

    return f"({poly()})/({poly()})"


# ---------------------------------------------------------------------------
# algebras: structure constants and validators, no Groebner at all
# ---------------------------------------------------------------------------

# (2, 3) takes ~10 s and (3, 2) ~22 s per check, more than a run should spend
# on one call. (2, 1) has no nonzero entry to perturb.
HS_SYSTEMS = ((2, 1), (2, 2), (3, 1))
HS_PERTURBED = ((2, 2), (3, 1), (2, 2))
# One heavy call each per batch: trunc5 (x) trunc3 (~1.2 s), (2,2) (x) (2,2) (~1 s).
SMALL_TENSORS = (("trunc", 3, "trunc", 3, 3), ("deriv", 2, "trunc", 3, 0), ("trunc", 4, "trunc", 2, 2),
                 ("trunc", 3, "trunc", 3, 0))
TENSORS = (("trunc", 5, "trunc", 3, 0),) + SMALL_TENSORS * 2  # (kind, size, kind, size, char)
SMALL_REDUCES = (((2, 1), (2, 2)), ((3, 1), (3, 1)), ((2, 1), (2, 1)))
REDUCES = (((2, 2), (2, 2)),) + SMALL_REDUCES * 2
FREE_TABLES = ((3, 3), (4, 3), (5, 3), (3, 3), (4, 3), (5, 2), (3, 3), (4, 3), (5, 2))  # (order, m)

# Why: the bypass workload for every Groebner change, and the target of a
# sparse product table and of nonzero-only check_jacobi / check_associative.
# Half the calls are small validations, so call_p50 tracks per-call overhead.
ALGEBRAS_PLAN = {
    "algebra validate": 36,
    "algebra perturbed": 12,
    "algebra tensor": len(TENSORS),
    "sl2 jacobi": 3,
    "sl2 perturbed": 6,
    "hs assoc": 9,
    "hs perturbed": 9,
    "hs reduce": len(REDUCES),
    "free table": len(FREE_TABLES),
}

SL2_LIE = {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 1): 2, (1, 3, 1): -2, (3, 2, 2): -2, (2, 3, 2): 2}


SCALES = tuple(Fraction(n, d) for n, d in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 2)))


def _unit(rng: random.Random, char: int):
    """A nonzero basis scale: small rationals in char 0, residues in char p.

    Scales stay small so that every seed's rescaled algebras cost about the
    same to validate.
    """
    return rng.choice((-1, 1)) * rng.choice(SCALES) if char == 0 else rng.randint(1, char - 1)


def truncation_spec(order: int, char: int, scale) -> dict:
    """k[e]/(e^order) on the basis scale[k] e^k: e_p e_q = s_p s_q / s_(p+q) e_(p+q)."""
    m = order - 1
    products = []
    for p in range(1, m + 1):
        for q in range(p, m + 1):
            if p + q <= m:
                c = scalar(Fraction(scale[p] * scale[q]) / scale[p + q], char)
                products.append({"p": p, "q": q, "coeffs": {str(p + q): str(c)}})
    return {"char": char, "dim": order, "grades": list(range(1, order)), "products": products}


def _tensor_factor(rng, kind, size, char):
    """A tensor factor with seeded basis signs (residues in char p).

    Signs only in char 0: the product table is rebuilt over Fractions, and
    other scales would make its cost depend on the seed.
    """
    if kind == "deriv":
        return _d1(size, char)
    scale = [rng.choice((-1, 1)) if char == 0 else _unit(rng, char) for _ in range(size)]
    return truncation_spec(size, char, [None] + scale)


def gamma_spec(lie: dict, hs: dict, d2: dict | None, char: int, m1: int) -> dict:
    out = {"char": char, "gens": [], "action": {}, "d1": _d1(m1, char),
           "lie": [{"i": i, "j": j, "l": l, "c": str(c)} for (i, j, l), c in sorted(lie.items())],
           "hs": [{"i": i, "j": j, "l": l, "c": str(c)} for (i, j, l), c in sorted(hs.items())]}
    if d2 is not None:
        out["d2"] = d2
    return out


def iterative_hs(p: int, n: int) -> tuple[dict, dict]:
    """The binomial iteration rule on F_p[e]/(e^(p^n)), as (d2 spec, table)."""
    order = p**n
    table = {}
    for i in range(1, order):
        for j in range(1, order - i):
            v = comb(i + j, i) % p
            if v:
                table[(i, j, i + j)] = v
    return truncation_spec(order, p, [1] * (order + 1)), table


def _status(status: str, code=None, witness=None) -> dict:
    return {"oracle": "status", "status": status, "code": code, "witness": witness}


def _algebra_call(b: _Builder, family: str, k: int) -> None:
    rng = b.rng
    json_argv = ["--format", "json"]
    if family == "algebra validate":
        # Rescaled truncation and derivation algebras, chars 0, 2, 3.
        char = (0, 2, 3)[k % 3]
        if k % 4 == 3:
            spec, nil = _d1(rng.randint(1, 4), char), 1
        else:
            order = rng.randint(2, 6)
            spec = truncation_spec(order, char, [None] + [_unit(rng, char) for _ in range(order)])
            nil = order - 1
        check = {"oracle": "algebra", "dim": spec["dim"], "grades": spec["grades"], "nilpotency": nil}
        b.add(family, json_argv + ["algebra", "validate", b.file("algebra", spec)], check=check, hs=char > 0)
    elif family == "algebra perturbed":
        char = (0, 2, 3)[k % 3]
        spec, code, witness = _perturbed_algebra(rng, k % 4, char)
        b.add(family, json_argv + ["algebra", "validate", b.file("algebra_bad", spec)], exit=1,
              check=_status("FAIL", code, witness), hs=char > 0)
    elif family == "algebra tensor":
        ka, sa, kb, sb, char = TENSORS[k]
        specs = [_tensor_factor(rng, ka, sa, char), _tensor_factor(rng, kb, sb, char)]
        b.add(f"{family} {ka}{sa}x{kb}{sb} char{char}", ["algebra", "tensor", *(b.file("tensor", s) for s in specs)],
              check={"oracle": "tensor", "factors": specs}, hs=char > 0)
    elif family == "sl2 jacobi":
        # Rescaling the basis keeps sl2 a Lie algebra: must PASS.
        path = b.file("sl2", gamma_spec(_rescaled_sl2(rng), {}, None, 0, 3))
        b.add(family, json_argv + ["gamma", "check", path, "--jacobi"], check=_status("PASS"))
    elif family == "sl2 perturbed":
        # One entry changed without its mirror: skew-symmetry FAILs first,
        # at the smaller of the two index triples.
        lie = _rescaled_sl2(rng)
        key = rng.choice(sorted(lie))
        lie[key] = lie[key] + rng.choice((1, -1)) * rng.randint(1, 3) or Fraction(7)
        witness = [str(v) for v in min(key, (key[1], key[0], key[2]))]
        path = b.file("sl2_bad", gamma_spec(lie, {}, None, 0, 3))
        b.add(family, json_argv + ["gamma", "check", path, "--jacobi"], exit=1,
              check=_status("FAIL", "JACOBI_SKEW", witness))
    elif family == "hs assoc":
        p, n = HS_SYSTEMS[k % len(HS_SYSTEMS)]
        d2, table = iterative_hs(p, n)
        path = b.file("hs", gamma_spec({}, table, d2, p, 0))
        b.add(f"{family} ({p},{n})", json_argv + ["gamma", "check", path, "--assoc"], check=_status("PASS"),
              hs=True)
    elif family == "hs perturbed":
        # Change one nonzero binomial entry: the --assoc pair of checks
        # (multiplicativity, then the identity) must FAIL.
        p, n = HS_PERTURBED[k % len(HS_PERTURBED)]
        d2, table = iterative_hs(p, n)
        key = rng.choice(sorted(table))
        table[key] = (table[key] + rng.randint(1, p - 1)) % p
        path = b.file("hs_bad", gamma_spec({}, table, d2, p, 0))
        b.add(f"{family} ({p},{n})", json_argv + ["gamma", "check", path, "--assoc"], exit=1,
              check=_status("FAIL", ("HOM_FAIL", "ASSOC_IDENTITY")), hs=True)
    elif family == "hs reduce":
        pair = REDUCES[k]
        char = pair[0][0]
        factors = [iterative_hs(p, n) for (p, n) in pair]
        paths = [b.file("hs", gamma_spec({}, table, d2, char, 0)) for d2, table in factors]
        b.add(f"{family} {pair[0]}x{pair[1]}", ["gamma", "reduce", *paths], hs=True,
              check={"oracle": "reduce", "char": char, "factors": [[d2, sorted(t.items())] for d2, t in factors]})
    else:
        order, m = FREE_TABLES[k]
        lie = _rescaled_sl2(rng) if m == 3 else {}  # m = 2: commuting derivations
        path = b.file("free", gamma_spec(lie, {}, None, 0, m))
        b.add(f"{family} o{order} m{m}", ["free", "table", "--gamma", path, "--order", str(order)],
              check={"oracle": "free_table", "m": m, "order": order,
                     "lie": [[list(key), str(c)] for key, c in sorted(lie.items())]})


def algebras(workdir: Path, seed: int) -> list[Call]:
    b = _Builder(workdir, seed, 3)
    b.add("fixture gamma_sl2 check", ["gamma", "check", f"{FIXTURES}/gamma_sl2.json"], check=_status("PASS"))
    for family, count in ALGEBRAS_PLAN.items():
        for k in range(count):
            _algebra_call(b, family, k)
    return b.shuffled()


def _rescaled_sl2(rng: random.Random) -> dict:
    """sl2 on the basis s_i d_i, s = (2, 3, 1/2) with seeded signs.

    Only the signs are seeded: the Jacobi check costs up to twice as much
    for some permutations of the same magnitudes, which would make a run's
    cost depend on its seed.
    """
    s = [None] + [rng.choice((-1, 1)) * m for m in (Fraction(2), Fraction(3), Fraction(1, 2))]
    return {(i, j, l): Fraction(c) * s[i] * s[j] / s[l] for (i, j, l), c in SL2_LIE.items()}


def _perturbed_algebra(rng: random.Random, variant: int, char: int):
    """A one-entry perturbation of a truncation algebra and its known verdict."""
    order = 5
    spec = truncation_spec(order, char, [None] + [_unit(rng, char) for _ in range(order)])
    products = spec["products"]
    if variant == 0:
        # e_2 e_1 given as 0 while e_1 e_2 reaches e_3: COMM_FAIL.
        products.append({"p": 2, "q": 1, "coeffs": {"3": "0"}})
        return spec, "COMM_FAIL", ["3", "1", "2"]
    if variant == 1:
        # A unit component in e_1 e_1 breaks locality.
        products[0]["coeffs"]["0"] = "1"
        return spec, "NOT_LOCAL", ["1", "1"]
    if variant == 2:
        # Doubling e_2 e_2 alone (dropping it in char 2) breaks
        # (e_1 e_1) e_2 = e_1 (e_1 e_2).
        for entry in products:
            if (entry["p"], entry["q"]) == (2, 2):
                entry["coeffs"]["4"] = str(scalar(Fraction(entry["coeffs"]["4"]) * 2, char))
        return spec, "ASSOC_FAIL", ["1", "1", "2"]
    # k[e]/(e^4) with grades declared (1, 1, 2): e_1 e_1 = e_2 climbs two
    # grades into a grade-1 vector.
    spec = truncation_spec(4, char, [None] + [_unit(rng, char) for _ in range(4)])
    spec["grades"] = [1, 1, 2]
    return spec, "RANK_FAIL", ["2", "1", "1"]


def bad_inputs(workdir: Path) -> list:
    """(label, argv, environment) of inputs documented to exit 2.

    The first five raised a traceback (exit 1, read as a validator FAIL) when
    the benchmark was written; the rest already answer PARSE_ERROR.
    """
    kernel = f"{FIXTURES}/kernel_riccati.json"
    files = {
        "dim_not_int": {"dim": "three"},
        "product_without_p": {"char": 0, "dim": 3, "grades": [1, 2], "products": [{"q": 1, "coeffs": {"2": "1"}}]},
        "op_key_11": {"char": 0, "gens": ["t"], "action": {"t": {"11": "1"}}},
        "dim_zero": {"char": 0, "dim": 0, "grades": [], "products": []},
    }
    path = {k: _dump(workdir / f"bad_{k}.json", v) for k, v in files.items()}
    (workdir / "bad_json.json").write_text("{\"dim\": ")
    return [
        ("dim_not_int", ["algebra", "validate", path["dim_not_int"]], {}),
        ("product_without_p", ["algebra", "validate", path["product_without_p"]], {}),
        ("op_key_11", ["dfield", "validate", path["op_key_11"]], {}),
        ("apply_op_1", ["dfield", "apply", "--op", "1", "--expr", "t^2", f"{FIXTURES}/dfield_qt.json"], {}),
        ("degree_cap_abc", ["kernel", "leaders", kernel], {"WORKBENCH_GB_DEGREE_CAP": "abc"}),
        ("dim_zero", ["algebra", "validate", path["dim_zero"]], {}),
        ("invalid_json", ["algebra", "validate", str(workdir / "bad_json.json")], {}),
        ("missing_file", ["kernel", "leaders", str(workdir / "missing.json")], {}),
        ("order_not_int", ["kernel", "realize", kernel, "--r", "1", "--order", "x"], {}),
    ]


WORKLOADS = {"jets_q": jets_q, "jets_qt": jets_qt, "algebras": algebras}
