"""Command-line front end.

Exit codes: 0 = validation passed / computation succeeded, 1 = a validator
FAILed (witness in the report), 2 = malformed input. An error's base class
picks its code: a `SpecError` (which `ParseError` and `SpecFileError` are)
or a missing file exits 2, a `CodedError` (`AlgebraError`, `GammaFail`,
`KernelError`) or `DegreeCapExceeded` exits 1. An `-o` path that cannot be
written, a directory say, is malformed input and exits 2. The environment
variable WORKBENCH_GB_DEGREE_CAP (default 12) bounds Gröbner intermediate
degrees.

The argument parser is built once per process, on the first `main` call,
and every later call reuses it with a fresh `Namespace`. The `cmd_*`
handlers are bound at that first build; they look up the library functions
they call through this module's globals at each call.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .commutation import Verdict, check_all, check_associative, check_jacobi
from .dfields import GammaFail
from .groebner import DegreeCapExceeded
from .indices import normal_words_upto
from .kernels import jet_name, realisation_criterion, realize, specialize_check
from .local_algebra import AlgebraError, tensor
from .polynomials import parse_frac
from .scalars import CodedError, SpecError
from .specs import (
    SpecFileError,
    canonical_json,
    canonicalize,
    dump_algebra,
    dump_gamma,
    dump_kernel,
    load_algebra,
    load_dfield,
    load_gamma,
    load_kernel,
    parse_op_key,
)

OK, FAIL, BAD_INPUT = 0, 1, 2


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.data: dict = {}
        self.lines: list[str] = []

    def put(self, key, value, line=None):
        self.data[key] = value
        self.lines.append(line if line is not None else f"{key}: {value}")

    def emit(self):
        if self.fmt == "json":
            sys.stdout.write(canonical_json(self.data))
        else:
            for line in self.lines:
                print(line)


def _write_out(path, data: dict):
    text = canonical_json(data)
    if path:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise SpecError(f"cannot write output {path}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def _verdict_exit(report: Report, verdict) -> int:
    report.put("status", "PASS" if verdict else "FAIL")
    if not verdict:
        report.put("code", verdict.code)
        if verdict.witness is not None:
            report.put("witness", [str(w) for w in verdict.witness])
    report.emit()
    return OK if verdict else FAIL


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_algebra_validate(args) -> int:
    report = Report(args.format)
    try:
        alg = load_algebra(args.file)
    except AlgebraError as e:
        return _verdict_exit(report, Verdict(False, e.code, e.witness))
    report.put("status", "PASS")
    report.put("dim", alg.dim)
    report.put("grades", list(alg.grades))
    report.put("nilpotency", alg.d)
    report.emit()
    return OK


def cmd_algebra_tensor(args) -> int:
    a = load_algebra(args.file1)
    b = load_algebra(args.file2)
    _write_out(args.output, dump_algebra(tensor(a, b)))
    return OK


def cmd_gamma_check(args) -> int:
    report = Report(args.format)
    field = load_gamma(args.file)
    gamma = field.gamma
    if args.jacobi:
        verdict = check_jacobi(gamma, field)
    elif args.assoc:
        v = gamma.check_hom(2)
        verdict = v if not v else check_associative(gamma, field)
    else:
        verdict = check_all(gamma, field)
    return _verdict_exit(report, verdict)


def cmd_gamma_reduce(args) -> int:
    from .commutation import hs_system, hs_tensor_reduce

    systems = []
    for f in args.files:
        g = load_gamma(f).gamma
        if g.m1 != 0 or g.d2 is None:
            raise SpecFileError(f"{f}: reduction needs pure HS systems")
        systems.append((g.d2, g.hs))
    alg, coeffs = hs_tensor_reduce(systems)
    _write_out(args.output, dump_gamma(hs_system(alg, coeffs)))
    return OK


def cmd_dfield_validate(args) -> int:
    report = Report(args.format)
    try:
        field = load_dfield(args.file)
    except GammaFail as e:
        return _verdict_exit(report, Verdict(False, e.code, e.witness))
    report.put("status", "PASS")
    report.put("gens", list(field.spec.gens))
    report.put("operators", [f"{u},{i}" for (u, i) in field.ops])
    report.emit()
    return OK


def cmd_dfield_apply(args) -> int:
    report = Report(args.format)
    field = load_dfield(args.file)
    op = parse_op_key(args.op)
    if op not in field.ops:
        raise SpecError(f"operator {args.op!r} is not an operator of the field")
    expr = parse_frac(field.ring, args.expr)
    value = field.partial(op, expr)
    report.put("op", args.op)
    report.put("expr", args.expr)
    report.put("value", field.gamma.domain.text(value))
    report.emit()
    return OK


def cmd_free_table(args) -> int:
    if args.order < 0:
        raise SpecError(f"--order must be non-negative, got {args.order}")
    field = load_gamma(args.gamma)
    gamma, fc = field.gamma, field.fc
    entries = []
    for word in normal_words_upto(gamma.m1, gamma.m2, args.order):
        windex = "[" + ";".join(f"{u},{i}" for (u, i) in word) + "]"
        for op in gamma.ops:
            image = fc.d_word(op, word)
            entries.append(
                {
                    "op": f"{op[0]},{op[1]}",
                    "index": windex,
                    "value": [
                        ["[" + ";".join(f"{u},{i}" for (u, i) in w) + "]", gamma.domain.text(c)]
                        for w, c in sorted(image.items())
                    ],
                }
            )
    sys.stdout.write(canonical_json({"order": args.order, "entries": entries}))
    return OK


def cmd_kernel_leaders(args) -> int:
    report = Report(args.format)
    kernel = load_kernel(args.file)
    rep = kernel.leaders()
    if args.radical_spot_check:
        warnings = kernel.radical_diagnostic()
        report.put("radical_warnings", warnings, line="\n".join(warnings) if warnings else "radical spot-check: clean")
    entries = [
        {"jet": jet_name(e.t, e.word), "status": e.status}
        | ({"min_poly": str(e.witness)} if e.witness is not None else {})
        for e in rep.entries
    ]
    report.put("entries", entries, line="\n".join(f"{e['jet']}: {e['status']}" for e in entries))
    report.put(
        "minimal_separable",
        [jet_name(t, w) for (w, t) in rep.minimal_separable],
    )
    report.put("inseparable", [jet_name(t, w) for (w, t) in rep.inseparable])
    report.put("separable", rep.separable)
    report.emit()
    return OK


def cmd_kernel_prolong(args) -> int:
    if args.steps < 0:
        raise SpecError(f"--steps must be non-negative, got {args.steps}")
    kernel = load_kernel(args.file)
    for _ in range(args.steps):
        kernel = kernel.prolong()
    _write_out(args.output, dump_kernel(kernel))
    return OK


def cmd_kernel_realize(args) -> int:
    report = Report(args.format)
    kernel = load_kernel(args.file)
    target_len = 2 * args.r
    if kernel.r > target_len:
        raise SpecFileError(f"kernel length {kernel.r} exceeds 2r = {target_len}")
    while kernel.r < target_len:
        kernel = kernel.prolong()
    verdict = realisation_criterion(kernel, args.r)
    if not verdict:
        return _verdict_exit(report, verdict)
    result = realize(kernel, args.r, args.order)
    report.put("status", "PASS")
    report.put("order", result.r)
    report.put(
        "jets",
        [jet_name(t, w) for (w, t) in result.jets],
        line=f"jets: {len(result.jets)}",
    )
    rels = result.triangular_relations()
    report.put("relations", rels, line="relations:\n  " + "\n  ".join(rels) if rels else "relations: (none)")
    report.emit()
    return OK


def cmd_kernel_check_point(args) -> int:
    report = Report(args.format)
    kernel = load_kernel(args.file)
    raw = [v.strip() for v in args.values.split(",")]
    if len(raw) != kernel.n:
        raise SpecFileError(f"expected {kernel.n} comma-separated values")
    values = [parse_frac(kernel.field.ring, v) for v in raw]
    verdict = specialize_check(kernel, values)
    report.put("status", "ACCEPT" if verdict else "REJECT")
    if not verdict:
        report.put("witness", [str(w) for w in (verdict.witness or ())])
    report.emit()
    return OK if verdict else FAIL


def cmd_spec_canonical(args) -> int:
    data = canonicalize(args.file, kind=args.kind)
    _write_out(args.output, data)
    return OK


# ---------------------------------------------------------------------------
# argument tree
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opfield",
        description="Exact workbench for fields with commuting operator systems.",
        epilog="WORKBENCH_GB_DEGREE_CAP bounds Gröbner degrees (default 12).",
    )
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("-v", "--verbose", action="store_true", help="progress notes on stderr")
    sub = top.add_subparsers(dest="command", required=True)

    algebra = sub.add_parser("algebra").add_subparsers(dest="sub", required=True)
    v = algebra.add_parser("validate")
    v.add_argument("file")
    v.set_defaults(handler=cmd_algebra_validate)
    t = algebra.add_parser("tensor")
    t.add_argument("file1")
    t.add_argument("file2")
    t.add_argument("-o", "--output")
    t.set_defaults(handler=cmd_algebra_tensor)

    gamma = sub.add_parser("gamma").add_subparsers(dest="sub", required=True)
    c = gamma.add_parser("check")
    c.add_argument("file")
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--jacobi", action="store_true")
    mode.add_argument("--assoc", action="store_true")
    mode.add_argument("--all", action="store_true")
    c.set_defaults(handler=cmd_gamma_check)
    r = gamma.add_parser("reduce")
    r.add_argument("files", nargs="+")
    r.add_argument("-o", "--output")
    r.set_defaults(handler=cmd_gamma_reduce)

    dfield = sub.add_parser("dfield").add_subparsers(dest="sub", required=True)
    v = dfield.add_parser("validate")
    v.add_argument("file")
    v.set_defaults(handler=cmd_dfield_validate)
    a = dfield.add_parser("apply")
    a.add_argument("file")
    a.add_argument("--op", required=True)
    a.add_argument("--expr", required=True)
    a.set_defaults(handler=cmd_dfield_apply)

    free = sub.add_parser("free").add_subparsers(dest="sub", required=True)
    ft = free.add_parser("table")
    ft.add_argument("--gamma", required=True)
    ft.add_argument("--order", type=int, required=True)
    ft.set_defaults(handler=cmd_free_table)

    kernel = sub.add_parser("kernel").add_subparsers(dest="sub", required=True)
    kl = kernel.add_parser("leaders")
    kl.add_argument("file")
    kl.add_argument("--radical-spot-check", action="store_true")
    kl.set_defaults(handler=cmd_kernel_leaders)
    kp = kernel.add_parser("prolong")
    kp.add_argument("file")
    kp.add_argument("--steps", type=int, default=1)
    kp.add_argument("-o", "--output")
    kp.set_defaults(handler=cmd_kernel_prolong)
    kr = kernel.add_parser("realize")
    kr.add_argument("file")
    kr.add_argument("--r", type=int, required=True)
    kr.add_argument("--order", type=int, required=True)
    kr.set_defaults(handler=cmd_kernel_realize)
    kc = kernel.add_parser("check-point")
    kc.add_argument("file")
    kc.add_argument("--values", required=True)
    kc.set_defaults(handler=cmd_kernel_check_point)

    spec = sub.add_parser("spec").add_subparsers(dest="sub", required=True)
    sc = spec.add_parser("canonical")
    sc.add_argument("file")
    sc.add_argument("--kind", choices=("algebra", "dfield", "gamma", "kernel"))
    sc.add_argument("-o", "--output")
    sc.set_defaults(handler=cmd_spec_canonical)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        inputs = [v for k, v in vars(args).items() if k in ("file", "file1", "file2", "gamma") and v]
        inputs += list(getattr(args, "files", ()) or ())
        print(f"opfield {args.command}: reading {', '.join(inputs) or 'stdin-free arguments'}", file=sys.stderr)
    try:
        return args.handler(args)
    except (SpecError, FileNotFoundError) as e:
        print(f"PARSE_ERROR: {e}", file=sys.stderr)
        return BAD_INPUT
    except (CodedError, DegreeCapExceeded) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return FAIL

