"""Report pins: the sha256 of the exit code, stdout and stderr of a fixed list
of in-process CLI calls, each in text and in json format.

The calls cover every fixture's validator, `free table` and `spec canonical`,
the kernel commands on the four kernel fixtures, and one input per FAIL code
of the checks that a refactor is most likely to touch, with the leader
reports of an inseparable and of a non-prime kernel, and the checks, `free
table` and `spec canonical` of an sl2 system with non-integer coefficients. A change that must not
alter any report keeps every pin. After an intended output change, re-record
with `PYTHONPATH=src python tests/test_report_pins.py --record`.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

from opfield.cli import main

FIXTURES = Path(str(files("opfield") / "fixtures"))
PINS = Path(__file__).resolve().parent / "report_pins.json"
FORMATS = ("text", "json")


def _fixture_calls():
    calls = []
    for path in sorted(FIXTURES.glob("*.json")):
        kind, f = path.stem.split("_")[0], str(path)
        if kind == "algebra":
            calls.append(["algebra", "validate", f])
        elif kind == "dfield":
            calls.append(["dfield", "validate", f])
        elif kind == "gamma":
            calls += [["gamma", "check", f] + mode for mode in ([], ["--jacobi"], ["--assoc"])]
        else:
            calls += [
                ["kernel", "leaders", f],
                ["kernel", "leaders", f, "--radical-spot-check"],
                ["kernel", "prolong", f, "--steps", "2"],
                ["kernel", "realize", f, "--r", "1", "--order", "4"],
                ["kernel", "realize", f, "--r", "2", "--order", "6"],
            ]
        if kind in ("dfield", "gamma"):
            calls.append(["free", "table", "--gamma", f, "--order", "2"])
        calls.append(["spec", "canonical", f])
    return calls


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _fail_specs():
    """[(file name, spec, argv before the file)]: one input per FAIL code, and
    the kernels whose leader reports read an INSEPARABLE entry or print a
    radical warning."""
    # sl2 with every bracket coefficient halved: still a Lie bracket, and the
    # one input whose reports print non-integer constants such as (1)/(2)
    halved = _fixture("gamma_sl2.json")
    for entry in halved["lie"]:
        entry["c"] = str(Fraction(entry["c"]) / 2)
    sl2 = _fixture("gamma_sl2.json")
    for entry in sl2["lie"]:
        if (entry["i"], entry["j"], entry["l"]) == (1, 2, 3):
            entry["c"] = "2"
    # D1 = k[e1, e2, e3] with e1*e1 = e3: the null is {2, 3}, and d_1 t = 1
    # makes d_1 c_2^{23} = 1 the only nonzero term of the identity at (1, 2, 3, 2)
    d_term = {
        "char": 0, "gens": ["t"], "action": {"t": {"1,1": "1"}},
        "d1": {"char": 0, "dim": 4, "grades": [1, 1, 2],
               "products": [{"p": 1, "q": 1, "coeffs": {"3": "1"}}]},
        "lie": [{"i": 2, "j": 3, "l": 2, "c": "t"}, {"i": 3, "j": 2, "l": 2, "c": "-t"}],
    }
    hom = _fixture("gamma_iterative_2_2.json")
    hom["hs"] = hom["hs"][:1]
    # the same D1 with c_3^{23} = 1: r(e_1) r(e_1) = 1 (x) e_3 misses the
    # c-terms of r(e_3), so the Lie side fails at (1, 1)
    hom_lie = {"char": 0, "gens": [], "action": {}, "d1": d_term["d1"],
               "lie": [{"i": 2, "j": 3, "l": 3, "c": "1"}, {"i": 3, "j": 2, "l": 3, "c": "-1"}]}
    assoc = _fixture("gamma_iterative_2_2.json")
    assoc["hs"].append({"i": 2, "j": 3, "l": 1, "c": "1"})
    grade = {"char": 0, "dim": 3, "grades": [1, 2], "products": []}
    new_leader = _fixture("kernel_equal_flows.json") | {"r": 2, "relations": ["x1_[1,1;1,2]"]}
    e1 = {"p": 1, "q": 1, "coeffs": {"2": "1"}}
    e12 = {"p": 1, "q": 2, "coeffs": {"3": "1"}}
    not_local = {"char": 0, "dim": 3, "grades": [1, 2],
                 "products": [{"p": 1, "q": 1, "coeffs": {"0": "1", "2": "1"}}]}
    # k[e]/(e^4) with e_2 e_1 given as 0 while e_1 e_2 = e_3
    comm = {"char": 0, "dim": 4, "grades": [1, 2, 3],
            "products": [e1, e12, {"p": 2, "q": 1, "coeffs": {"3": "0"}}]}
    # k[e]/(e^5) with e_2 e_2 doubled: (e_1 e_1) e_2 != e_1 (e_1 e_2)
    assoc_alg = {"char": 0, "dim": 5, "grades": [1, 2, 3, 4],
                 "products": [e1, e12, {"p": 1, "q": 3, "coeffs": {"4": "1"}},
                              {"p": 2, "q": 2, "coeffs": {"4": "2"}}]}
    # d1 t = s, d2 s = 1: [d1, d2] t = -1 while the bracket is zero
    dfield_bad = {"char": 0, "gens": ["s", "t"],
                  "d1": {"char": 0, "dim": 3, "grades": [1, 1], "products": []},
                  "action": {"t": {"1,1": "s"}, "s": {"1,2": "1"}}}
    f2_dual = {"char": 2, "dim": 2, "grades": [1], "products": []}
    # x^2 = t with dt = 0 over F_2(t): the separant 2x vanishes
    inseparable = {"dfield": {"char": 2, "gens": ["t"], "d1": f2_dual, "action": {}},
                   "n": 1, "r": 1, "relations": ["x1_[]^2 - t"]}
    # (x')^2 = 0: the separant 2x' lies in the radical but not the ideal
    non_prime = _fixture("kernel_riccati.json") | {"relations": ["x1_[1,1]^2"]}
    # one HS operator over F_2[e]/(e^2) squares to zero, so d x = x collapses
    hs_collapse = {"dfield": {"char": 2, "gens": [], "action": {}, "lie": [], "hs": [],
                              "d1": {"char": 2, "dim": 1, "grades": [], "products": []},
                              "d2": f2_dual},
                   "n": 1, "r": 1, "relations": ["x1_[2,1] - x1_[]"]}
    leaders = ["kernel", "leaders"]
    return [
        ("jacobi_skew.json", sl2, ["gamma", "check"]),
        ("jacobi_identity_d_term.json", d_term, ["gamma", "check", "--jacobi"]),
        ("hom_fail.json", hom, ["gamma", "check"]),
        ("hom_fail_lie.json", hom_lie, ["gamma", "check"]),
        ("assoc_identity.json", assoc, ["gamma", "check", "--assoc"]),
        ("grade_filtration.json", grade, ["algebra", "validate"]),
        ("new_minimal_leader.json", new_leader, ["kernel", "realize", "--r", "1", "--order", "2"]),
        ("not_local.json", not_local, ["algebra", "validate"]),
        ("comm_fail.json", comm, ["algebra", "validate"]),
        ("assoc_fail.json", assoc_alg, ["algebra", "validate"]),
        ("dfield_bad.json", dfield_bad, ["dfield", "validate"]),
        ("inseparable_f2t.json", inseparable, leaders),
        ("inseparable_f2t.json", inseparable, leaders + ["--radical-spot-check"]),
        ("non_prime.json", non_prime, leaders),
        ("non_prime.json", non_prime, leaders + ["--radical-spot-check"]),
        ("hs_collapse.json", hs_collapse, ["kernel", "prolong"]),
    ] + [
        ("sl2_halved.json", halved, argv)
        for argv in (["gamma", "check"], ["gamma", "check", "--jacobi"], ["gamma", "check", "--assoc"],
                     ["free", "table", "--order", "2", "--gamma"], ["spec", "canonical"])
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digests(tmp_path) -> dict:
    """{call label: sha256 of [exit code, stdout, stderr]}, with the fixture
    directory and `tmp_path` written as placeholders."""
    calls = _fixture_calls()
    for name, spec, argv in _fail_specs():
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        calls.append(argv + [str(path)])
    places = ((str(FIXTURES), "<fixtures>"), (str(tmp_path), "<tmp>"))
    out = {}
    for argv in calls:
        for fmt in FORMATS:
            full = ["--format", fmt] + argv
            text = json.dumps(_run(full))
            for path, placeholder in places:
                text = text.replace(path, placeholder)
            label = " ".join(full)
            for path, placeholder in places:
                label = label.replace(path, placeholder)
            out[label] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_reports_match_pins(tmp_path):
    pins = json.loads(PINS.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(pins), "the call list differs from the pinned one"
    changed = [label for label in pins if got[label] != pins[label]]
    assert not changed, "reports changed for: " + "; ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_report_pins.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINS.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
