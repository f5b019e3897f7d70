import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest
from helpers import validate_schema
from hypothesis import given, settings, strategies as st

import opfield
from opfield import cli, groebner
from opfield.cli import main
from opfield.specs import load_kernel

FIXTURES = Path(str(files("opfield") / "fixtures"))

RICCATI = json.loads((FIXTURES / "kernel_riccati.json").read_text())
RICCATI_QT = json.loads((FIXTURES / "kernel_riccati_qt.json").read_text())


def fixture(name):
    return json.loads((FIXTURES / name).read_text())


def with_dfield(kernel_spec, **fields):
    """The kernel spec with these fields of its dfield section replaced."""
    return kernel_spec | {"dfield": kernel_spec["dfield"] | fields}


def with_lie_index(value):
    """gamma_sl2 with the i index of its first Lie entry, 1, written as `value`."""
    spec = fixture("gamma_sl2.json")
    spec["lie"][0]["i"] = value
    return spec


def run_json(argv, capsys):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# The directory holding the imported opfield package goes first on the
# child's PYTHONPATH, so a child process runs these same sources from any
# working directory, installed or not.
PACKAGE_ROOT = str(Path(opfield.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CHILD_TIMEOUT_S = 120


def run_cli_process(argv, command=(sys.executable, "-m", "opfield"), **env):
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [*command, *argv],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=CHILD_TIMEOUT_S,
    )


def test_entry_point_runs():
    argv = ["algebra", "validate", str(FIXTURES / "algebra_dual_numbers.json")]
    proc = run_cli_process(argv)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    script = shutil.which("opfield")
    if script:
        installed = run_cli_process(argv, command=(script,))
        assert installed.returncode == proc.returncode, installed.stderr
        assert installed.stdout == proc.stdout
    # tomllib is in the standard library from Python 3.11 on.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["opfield"] == "opfield.cli:main"


def test_algebra_validate_json(capsys):
    code, data = run_json(["algebra", "validate", str(FIXTURES / "algebra_truncation3.json")], capsys)
    assert code == 0
    validate_schema(data, "report")
    assert data["status"] == "PASS"


def test_algebra_validate_bad_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "char": 0, "dim": 2, "grades": [1],
        "products": [{"p": 1, "q": 1, "coeffs": {"1": 1}}],
    }))
    code, data = run_json(["algebra", "validate", str(bad)], capsys)
    assert code == 1
    assert data["code"] == "NOT_LOCAL"
    validate_schema(data, "report")


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    assert main(["algebra", "validate", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["algebra", "validate", str(missing)]) == 2


def test_algebra_without_dim_is_parse_error(tmp_path, capsys):
    path = tmp_path / "nodim.json"
    path.write_text(json.dumps({"char": 0, "grades": [1], "products": []}))
    assert main(["algebra", "validate", str(path)]) == 2
    assert capsys.readouterr().err == "PARSE_ERROR: algebra spec missing field 'dim'\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verbose_note_goes_to_stderr_only(fmt, capsysbinary):
    argv = ["--format", fmt, "kernel", "realize", str(FIXTURES / "kernel_riccati.json"), "--r", "2", "--order", "6"]
    assert main(argv) == 0
    quiet = capsysbinary.readouterr()
    assert main(["-v", *argv]) == 0
    verbose = capsysbinary.readouterr()
    assert quiet.err == b""
    assert verbose.err == f"opfield kernel: reading {FIXTURES / 'kernel_riccati.json'}\n".encode()
    assert verbose.out == quiet.out != b""


def test_non_utf8_spec_is_parse_error(tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    proc = run_cli_process(["algebra", "validate", str(bad)])
    assert proc.returncode == 2, proc.stderr
    assert "PARSE_ERROR" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_degree_cap_is_parse_error():
    argv = ["kernel", "leaders", str(FIXTURES / "kernel_riccati.json")]
    proc = run_cli_process(argv, WORKBENCH_GB_DEGREE_CAP="abc")
    assert proc.returncode == 2, proc.stderr
    assert "PARSE_ERROR" in proc.stderr and "WORKBENCH_GB_DEGREE_CAP" in proc.stderr
    assert "'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr
    realize = ["kernel", "realize", str(FIXTURES / "kernel_riccati.json"), "--r", "2", "--order", "6"]
    proc = run_cli_process(realize, WORKBENCH_GB_DEGREE_CAP="-1")
    assert proc.returncode == 2, proc.stderr
    assert "PARSE_ERROR" in proc.stderr and "'-1'" in proc.stderr


def test_kernel_realize_saturates_cleared_denominators(tmp_path, capsys, monkeypatch):
    # x = (s + t)^2 / 4 under d_s, d_t solves (x')^2 = x, d2 x = d1 x; solving
    # the second derivatives divides by x1_[1,1]
    spec = fixture("kernel_equal_flows.json") | {"relations": ["x1_[1,1]^2 - x1_[]", "x1_[1,2] - x1_[1,1]"]}
    path = tmp_path / "sqrt_flow.json"
    path.write_text(json.dumps(spec))
    for order in (4, 5):
        code, data = run_json(["kernel", "realize", str(path), "--r", "1", "--order", str(order)], capsys)
        assert code == 0 and data["order"] == order
        assert "x1_[1,2;1,2] + ((-1)/(2))" in data["relations"]
    prolonged = tmp_path / "prolonged.json"
    assert main(["kernel", "prolong", str(path), "-o", str(prolonged)]) == 0
    code, data = run_json(["kernel", "leaders", str(prolonged)], capsys)
    assert code == 0 and data["minimal_separable"] == ["x1_[1,1]", "x1_[1,2]"]
    kernel = load_kernel(path)
    kernel.leaders()
    runs = []
    buchberger = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: runs.append(gens) or buchberger(gens))
    kernel.prolong().leaders()
    # the new ideal's basis, then the saturation's, which the saturated ideal keeps
    assert len(runs) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_kernel_realize_inseparable_witness_names_the_jet(fmt, tmp_path, capsys):
    spec = {
        "dfield": {"char": 2, "gens": ["t"], "d1": {"char": 2, "dim": 2, "grades": [1], "products": []},
                   "action": {}},
        "n": 1, "r": 2, "relations": ["x1_[1,1;1,1]^2 - t"],
    }
    path = tmp_path / "inseparable.json"
    path.write_text(json.dumps(spec))
    assert main(["--format", fmt, "kernel", "realize", str(path), "--r", "1", "--order", "3"]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        data = json.loads(out)
        assert (data["code"], data["witness"]) == ("INSEPARABLE_KERNEL", ["x1_[1,1;1,1]"])
        validate_schema(data, "realize")
    else:
        assert "code: INSEPARABLE_KERNEL\nwitness: ['x1_[1,1;1,1]']\n" in out


def test_degree_cap_exceeded_is_fail(tmp_path, monkeypatch, capsys):
    # x' y' = 1 and y' = x'^2 reduce to x'^3 - 1, beyond a cap of 1
    path = tmp_path / "capped.json"
    rels = ["x1_[1,1]*x2_[1,1] - 1", "x1_[1,1]^2 - x2_[1,1]"]
    path.write_text(json.dumps(RICCATI | {"n": 2, "relations": rels}))
    monkeypatch.setenv("WORKBENCH_GB_DEGREE_CAP", "1")
    assert main(["kernel", "leaders", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL: Gröbner computation produced degree")
    assert "beyond cap 1" in captured.err
    monkeypatch.delenv("WORKBENCH_GB_DEGREE_CAP")
    assert main(["kernel", "leaders", str(path)]) == 0


@pytest.mark.parametrize(
    "spec, argv",
    [
        ({"dim": "three"}, ["algebra", "validate"]),
        (
            {"char": 0, "dim": 3, "grades": [1, 2], "products": [{"q": 1, "coeffs": {"2": "1"}}]},
            ["algebra", "validate"],
        ),
        ({"char": 0, "gens": ["t"], "action": {"t": {"11": "1"}}}, ["dfield", "validate"]),
        (None, ["dfield", "apply", "--op", "1", "--expr", "t^2", str(FIXTURES / "dfield_qt.json")]),
        (None, ["dfield", "apply", "--op", "1,5", "--expr", "t", str(FIXTURES / "dfield_qt.json")]),
        (
            {"char": 0, "dim": 3, "grades": [1, 2], "products": [{"p": 1, "q": 1, "coeffs": {"x": 1}}]},
            ["algebra", "validate"],
        ),
        ({"char": "two", "dim": 2, "grades": [1]}, ["algebra", "validate"]),
        (RICCATI | {"n": "x"}, ["kernel", "leaders"]),
        (RICCATI | {"r": [1]}, ["kernel", "leaders"]),
        (RICCATI | {"relations": [5]}, ["kernel", "leaders"]),
        (RICCATI | {"n": True}, ["kernel", "leaders"]),
        (with_dfield(RICCATI, action=[1]), ["kernel", "leaders"]),
        (with_dfield(RICCATI_QT, action={"t": "x"}), ["kernel", "leaders"]),
        (with_dfield(RICCATI, char=[0]), ["kernel", "leaders"]),
        (with_dfield(RICCATI, d1=3), ["kernel", "leaders"]),
        (with_dfield(RICCATI, d1=""), ["kernel", "leaders"]),
        (RICCATI | {"dfield": []}, ["kernel", "leaders"]),
        (with_dfield(RICCATI_QT, gens="tu", action={}), ["kernel", "leaders"]),
        (with_dfield(RICCATI, gens=[5]), ["kernel", "leaders"]),
        ([RICCATI["dfield"]], ["dfield", "validate"]),
        (RICCATI_QT | {"relations": ["x1_[1,9] - 1"]}, ["kernel", "leaders"]),
        (RICCATI_QT | {"relations": ["x1_[1,0] - 1"]}, ["kernel", "leaders"]),
        (fixture("gamma_sl2.json") | {"lie": 5}, ["gamma", "check", "--all"]),
        (fixture("gamma_iterative_2_2.json") | {"hs": 5}, ["gamma", "check"]),
        (fixture("dfield_qt.json") | {"lie": 5}, ["dfield", "validate"]),
        (RICCATI, ["kernel", "prolong", "--steps", "-2"]),
        (None, ["free", "table", "--gamma", str(FIXTURES / "gamma_sl2.json"), "--order", "-1"]),
        (RICCATI | {"gamma": 5}, ["kernel", "leaders"]),
        (RICCATI | {"gamma": []}, ["kernel", "leaders"]),
        (RICCATI | {"gamma": True}, ["kernel", "leaders"]),
        (
            {"char": 0, "dim": 3, "grades": [1, 2], "products": [{"p": 1, "q": 1, "coeffs": {"2": True}}]},
            ["algebra", "validate"],
        ),
        (
            {"dfield": {"char": 0, "gens": [], "action": {}}, "n": 1, "r": 1, "relations": ["x1_[1,1;1,1]"]},
            ["kernel", "leaders"],
        ),
        (with_lie_index(1.5), ["gamma", "check"]),
        (with_lie_index(True), ["gamma", "check"]),
        (with_lie_index("1"), ["gamma", "check"]),
        ({"n": 1, "r": 1, "relations": []}, ["kernel", "leaders"]),
        (RICCATI_QT | {"relations": ["x1_[1] - 1"]}, ["kernel", "leaders"]),
        (RICCATI_QT | {"relations": ["x1_[1,1,1] - 1"]}, ["kernel", "leaders"]),
        (RICCATI_QT | {"relations": ["x1_[;] - 1"]}, ["kernel", "leaders"]),
        (fixture("gamma_sl2.json") | {"lie": fixture("gamma_sl2.json")["lie"] + [{"i": 1, "j": 2, "l": 3, "c": "5"}]},
         ["gamma", "check"]),
        (None, ["gamma", "check", str(FIXTURES / "kernel_riccati.json")]),
        (None, ["gamma", "check", str(FIXTURES / "algebra_truncation3.json")]),
        (None, ["dfield", "validate", str(FIXTURES / "kernel_riccati.json")]),
        (None, ["dfield", "validate", str(FIXTURES / "algebra_truncation3.json")]),
    ],
    ids=["dim_not_int", "product_without_p", "op_key_11", "apply_op_1", "apply_op_not_in_field",
         "coeff_key_not_int", "char_not_int", "kernel_n_not_int", "kernel_r_list",
         "kernel_relation_not_str", "kernel_n_bool", "dfield_action_list", "dfield_action_row_str",
         "dfield_char_list", "dfield_d1_int", "dfield_d1_empty", "dfield_list", "dfield_gens_str",
         "dfield_gen_int", "dfield_file_list", "jet_op_out_of_range", "jet_op_index_0",
         "gamma_lie_int", "gamma_hs_int", "dfield_lie_int", "prolong_steps_negative",
         "free_order_negative", "kernel_gamma_int", "kernel_gamma_list", "kernel_gamma_bool",
         "coeff_bool", "jet_beyond_length", "gamma_index_float", "gamma_index_bool",
         "gamma_index_str", "kernel_no_gamma_no_dfield", "jet_word_one_number", "jet_word_three_numbers",
         "jet_word_empty_pair", "gamma_lie_conflicting_repeat", "gamma_check_kernel", "gamma_check_algebra",
         "dfield_validate_kernel", "dfield_validate_algebra"],
)
def test_malformed_input_is_parse_error(spec, argv, tmp_path):
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + [str(path)]
    proc = run_cli_process(argv)
    assert proc.returncode == 2, proc.stderr
    assert "PARSE_ERROR" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["", "t^2", "a b", "x1_[]"], ids=["empty", "power", "space", "jet"])
def test_generator_names_the_parser_cannot_read_are_parse_errors(name, tmp_path, capsys):
    # the parser reads no name but [A-Za-z_][A-Za-z_0-9]*: t^2 is read as a
    # power, and x1_[] as a jet, which would shadow the generator
    for spec, argv in [
        ({"char": 0, "gens": [name]}, ["dfield", "validate"]),
        (with_dfield(RICCATI_QT, gens=[name], action={}), ["kernel", "leaders"]),
    ]:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("PARSE_ERROR: ") and f"bad generator name {name!r}" in captured.err


def _nested_parse_error(argv, message):
    """Run the CLI; it must exit 2 with `message` and no traceback, within a
    few seconds, interpreter start included."""
    start = time.perf_counter()
    proc = run_cli_process(argv)
    assert time.perf_counter() - start < 3.0
    assert proc.returncode == 2, proc.stderr
    assert f"PARSE_ERROR: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [["kernel", "leaders"], ["algebra", "validate"], ["gamma", "check"], ["spec", "canonical"]],
    ids=lambda c: "_".join(c),
)
def test_deeply_nested_json_is_parse_error(command, tmp_path):
    # the JSON decoder recurses once per array, and 100 000 levels exhaust
    # the interpreter's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    _nested_parse_error(command + [str(path)], "invalid JSON: ")


NESTED_T = "(" * 300 + "t" + ")" * 300


@pytest.mark.parametrize(
    "spec, argv",
    [
        (RICCATI | {"relations": ["(" * 300 + "x1_[]" + ")" * 300 + " - x1_[1,1]"]}, ["kernel", "leaders"]),
        (None, ["dfield", "apply", "--op", "1,1", "--expr", NESTED_T, str(FIXTURES / "dfield_qt.json")]),
        (None, ["kernel", "check-point", str(FIXTURES / "kernel_riccati_qt.json"), f"--values={NESTED_T}"]),
    ],
    ids=["kernel_relation", "dfield_apply_expr", "check_point_values"],
)
def test_deeply_nested_expression_is_parse_error(spec, argv, tmp_path):
    # the expression parser takes four frames per parenthesis
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = argv + [str(path)]
    _nested_parse_error(argv, "expression nested too deeply")


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "prolong", str(FIXTURES / "kernel_riccati.json")],
        ["algebra", "tensor", *[str(FIXTURES / "algebra_dual_numbers.json")] * 2],
        ["gamma", "reduce", str(FIXTURES / "gamma_iterative_2_2.json")],
        ["spec", "canonical", str(FIXTURES / "kernel_riccati.json")],
    ],
    ids=lambda argv: "_".join(argv[:2]),
)
def test_output_to_a_directory_is_parse_error(argv, tmp_path):
    proc = run_cli_process(argv + ["-o", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"PARSE_ERROR: cannot write output {tmp_path}: Is a directory\n"
    assert proc.stdout == ""


def test_algebra_tensor(tmp_path, capsys):
    out = tmp_path / "tensor.json"
    code = main([
        "algebra", "tensor",
        str(FIXTURES / "algebra_dual_numbers.json"),
        str(FIXTURES / "algebra_dual_numbers.json"),
        "-o", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    validate_schema(data, "algebra")
    assert data["dim"] == 4
    assert main(["algebra", "validate", str(out)]) == 0


def test_gamma_check_modes(capsys):
    for flags in (["--jacobi"], ["--all"], []):
        code, data = run_json(["gamma", "check", str(FIXTURES / "gamma_sl2.json")] + flags, capsys)
        assert code == 0 and data["status"] == "PASS"
    code, data = run_json(["gamma", "check", str(FIXTURES / "gamma_iterative_3_1.json"), "--assoc"], capsys)
    assert code == 0


def test_gamma_check_fail_exit(tmp_path, capsys):
    spec = json.loads((FIXTURES / "gamma_sl2.json").read_text())
    for entry in spec["lie"]:
        if (entry["i"], entry["j"], entry["l"]) == (1, 2, 3):
            entry["c"] = "2"
    bad = tmp_path / "bad_gamma.json"
    bad.write_text(json.dumps(spec))
    code, data = run_json(["gamma", "check", str(bad), "--jacobi"], capsys)
    assert code == 1
    assert data["status"] == "FAIL"
    assert data["code"] == "JACOBI_SKEW"
    validate_schema(data, "report")


def test_gamma_reduce(tmp_path, capsys):
    g21 = tmp_path / "g21.json"
    from opfield.commutation import iterative_hs_coeffs
    from opfield.specs import canonical_json, dump_gamma

    g21.write_text(canonical_json(dump_gamma(iterative_hs_coeffs(2, 1))))
    out = tmp_path / "combined.json"
    assert main(["gamma", "reduce", str(g21), str(g21), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    validate_schema(data, "gamma")
    assert data["d2"]["dim"] == 4
    code, verdict = run_json(["gamma", "check", str(out), "--assoc"], capsys)
    assert code == 0 and verdict["status"] == "PASS"


def test_dfield_validate_and_apply(capsys):
    code, data = run_json(["dfield", "validate", str(FIXTURES / "dfield_qt.json")], capsys)
    assert code == 0 and data["status"] == "PASS"
    code, data = run_json(
        ["dfield", "apply", "--op", "1,1", "--expr", "t^2", str(FIXTURES / "dfield_qt.json")],
        capsys,
    )
    assert code == 0 and data["value"] == "2*t"


def test_dfield_char2_apply(capsys):
    code, data = run_json(
        ["dfield", "apply", "--op", "1,2", "--expr", "t*s", str(FIXTURES / "dfield_char2_pair.json")],
        capsys,
    )
    assert code == 0 and data["value"] == "s^2"


def test_free_table(capsys):
    code = main(["free", "table", "--gamma", str(FIXTURES / "gamma_sl2.json"), "--order", "2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    validate_schema(data, "freetable")
    assert any(e["index"] == "[]" for e in data["entries"])


def test_kernel_leaders_cli(capsys):
    code, data = run_json(["kernel", "leaders", str(FIXTURES / "kernel_riccati.json")], capsys)
    assert code == 0
    validate_schema(data, "leaders")
    statuses = {e["jet"]: e["status"] for e in data["entries"]}
    assert statuses["x1_[]"] == "FREE"
    assert statuses["x1_[1,1]"] == "SEPARABLE"


def test_kernel_gamma_slot_path_and_inline_read_alike(tmp_path, capsys):
    shutil.copy(FIXTURES / "gamma_sl2.json", tmp_path)
    kernel = {"n": 1, "r": 1, "relations": ["x1_[1,1]"]}
    outputs = []
    for slot in ("gamma_sl2.json", fixture("gamma_sl2.json")):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(kernel | {"gamma": slot}))
        assert main(["kernel", "leaders", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "x1_[1,3]: FREE" in outputs[0]  # the gamma's own three derivations


def test_kernel_gamma_without_a_field_overrides_the_dfield():
    d1 = {"char": 0, "dim": 3, "grades": [1, 1], "products": []}
    dfield = {"char": 0, "gens": ["t"], "action": {"t": {"1,1": "1"}}}
    kernel = load_kernel({"dfield": dfield, "gamma": {"d1": d1}, "n": 1, "r": 1,
                          "relations": ["x1_[1,2] - t"]})
    assert kernel.field.spec.gens == ("t",) and kernel.gamma.m1 == 2


def test_kernel_prolong_roundtrips(tmp_path, capsys):
    out = tmp_path / "prolonged.json"
    code = main(["kernel", "prolong", str(FIXTURES / "kernel_riccati.json"), "--steps", "2", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    validate_schema(data, "kernel")
    assert data["r"] == 3
    code, leaders = run_json(["kernel", "leaders", str(out)], capsys)
    assert code == 0 and leaders["separable"]


def test_kernel_realize_cli(capsys):
    code, data = run_json(
        ["kernel", "realize", str(FIXTURES / "kernel_riccati.json"), "--r", "2", "--order", "6"],
        capsys,
    )
    assert code == 0
    validate_schema(data, "realize")
    assert data["order"] == 6
    assert "-x1_[]^2 + x1_[1,1]" in data["relations"]


@pytest.mark.parametrize(
    "char, relation, expected",
    [
        (3, "x1_[1,1] - x1_[]^2 - 2*x1_[] + 1", [
            "-x1_[]^2 + x1_[] + x1_[1,1] + (1)",
            "x1_[]^3 + x1_[] + x1_[1,1;1,1] + (2)",
            "x1_[]^2 - x1_[] + x1_[1,1;1,1;1,1] + (2)",
        ]),
        (0, "x1_[1,1] + 1/2*x1_[]^2 - 1/3*x1_[] - 2", [
            "((1)/(2))*x1_[]^2 + ((-1)/(3))*x1_[] + x1_[1,1] + (-2)",
            "((-1)/(2))*x1_[]^3 + ((1)/(2))*x1_[]^2 + ((17)/(9))*x1_[] + x1_[1,1;1,1] + ((-2)/(3))",
            "((3)/(4))*x1_[]^4 - x1_[]^3 + ((-65)/(18))*x1_[]^2 + ((71)/(27))*x1_[]"
            " + x1_[1,1;1,1;1,1] + ((34)/(9))",
        ]),
    ],
    ids=["char3", "char0_rational"],
)
def test_kernel_realize_report_text_over_bare_field(char, relation, expected, tmp_path, capsys):
    # Jet coefficients over a bare field print as the constant fractions they
    # stand for, "(c)" and "((n)/(d))"; in char 3 a coefficient -1 prints as a
    # sign, as it does over F_3(t).
    d1 = {"char": char, "dim": 2, "grades": [1], "products": []}
    spec = {"dfield": {"char": char, "gens": [], "action": {}, "d1": d1}, "n": 1, "r": 1, "relations": [relation]}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(spec))
    code, data = run_json(["kernel", "realize", str(path), "--r", "1", "--order", "3"], capsys)
    assert code == 0
    assert data["relations"] == expected


def test_kernel_check_point_cli(capsys):
    code, data = run_json(
        ["kernel", "check-point", str(FIXTURES / "kernel_riccati.json"), "--values", "0"], capsys
    )
    assert code == 0 and data["status"] == "ACCEPT"
    code, data = run_json(
        ["kernel", "check-point", str(FIXTURES / "kernel_riccati.json"), "--values", "1"], capsys
    )
    assert code == 1 and data["status"] == "REJECT"
    validate_schema(data, "report")
    code, data = run_json(
        ["kernel", "check-point", str(FIXTURES / "kernel_riccati_qt.json"), "--values=-1/t"], capsys
    )
    assert code == 0 and data["status"] == "ACCEPT"


def test_reports_byte_identical(capsys):
    argv = ["--format", "json", "kernel", "leaders", str(FIXTURES / "kernel_equal_flows.json")]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; argparse's own
    exits read as ("SystemExit", code)."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = ("SystemExit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_reads_each_call_as_a_fresh_one(monkeypatch, capsys):
    # one parser serves every call of a process: a flag, a rejected call or
    # a help text must leave nothing behind for the next call to read
    kernel, gamma = str(FIXTURES / "kernel_riccati.json"), str(FIXTURES / "gamma_sl2.json")
    sequence = [
        ["--format", "json", "kernel", "leaders", kernel, "--radical-spot-check"],
        ["kernel", "leaders", kernel],
        ["kernel", "realize", kernel, "--order", "4"],
        ["kernel", "realize", kernel, "--r", "2", "--order", "4"],
        ["gamma", "check", gamma, "--assoc"],
        ["gamma", "check", gamma],
        ["--help"],
        ["--help"],
    ]
    cli.build_parser.cache_clear()
    reused = [_outcome(argv, capsys) for argv in sequence]
    assert cli.build_parser.cache_info()[:2] == (len(sequence) - 1, 1)  # hits, misses
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(argv, capsys) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, ("SystemExit", 2), 0, 0, 0, ("SystemExit", 0), ("SystemExit", 0)]
    assert reused[0][1] != reused[1][1] and "radical" not in reused[1][1]
    assert "--r" in reused[2][2]
    assert reused[6] == reused[7] and reused[6][1].startswith("usage: opfield")


def test_import_builds_no_parser():
    probe = "import opfield.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = run_cli_process(["-c", probe], command=(sys.executable,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_main_builds_its_parsers_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.__wrapped__()
    per_tree = len(built)  # the top parser and each sub-parser: 19 today
    assert per_tree > 1
    built.clear()
    cli.build_parser.cache_clear()
    argv = ["algebra", "validate", str(FIXTURES / "algebra_dual_numbers.json")]
    for _ in range(5):
        assert main(argv) == 0
    assert len(built) == per_tree


def test_reports_byte_identical_across_processes():
    argv = ["--format", "json", "kernel", "leaders", str(FIXTURES / "kernel_equal_flows.json")]
    # Different hash seeds: the report must not depend on set or dict order.
    procs = [run_cli_process(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    outs = [proc.stdout for proc in procs]
    assert outs[0] == outs[1] and outs[0]


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


@st.composite
def mutated_algebra_specs(draw):
    """An algebra fixture with one key dropped, one field of the wrong type or
    one index out of range (for a coefficient value: an integer)."""
    path = draw(st.sampled_from(sorted(FIXTURES.glob("algebra_*.json"))))
    spec = json.loads(path.read_text())
    products = spec["products"]
    entry = draw(st.sampled_from(products)) if products else None
    how = draw(st.sampled_from(("drop", "wrong_type", "out_of_range")))
    if how == "drop":
        target = entry if entry is not None and draw(st.booleans()) else spec
        target.pop(draw(st.sampled_from(sorted(target))))
        return spec
    field = draw(st.sampled_from(("dim", "char", "grades", "p", "q", "coeff_key", "coeff_value")))
    if field in ("p", "q", "coeff_key", "coeff_value") and entry is None:
        field = "dim"
    if how == "wrong_type":
        value = draw(WRONG_TYPES)
    else:
        value = draw(st.one_of(st.integers(-3, 0), st.integers(spec["dim"], spec["dim"] + 3), st.just(10**6)))
    if field in ("dim", "char"):
        spec[field] = value
    elif field == "grades":
        if spec["grades"] and draw(st.booleans()):
            spec["grades"][draw(st.integers(0, len(spec["grades"]) - 1))] = value
        else:
            spec["grades"] = value
    elif field == "coeff_key":
        old = draw(st.sampled_from(sorted(entry["coeffs"])))
        entry["coeffs"][str(value)] = entry["coeffs"].pop(old)
    elif field == "coeff_value":
        entry["coeffs"][draw(st.sampled_from(sorted(entry["coeffs"])))] = value
    else:
        entry[field] = value
    return spec


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(spec=mutated_algebra_specs())
def test_algebra_validate_fuzzed_fixtures_exit_cleanly(fuzz_dir, spec):
    path = fuzz_dir / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["algebra", "validate", str(path)])
    assert code in (0, 1, 2), err.getvalue()


@st.composite
def mutated_gamma_specs(draw):
    """A gamma fixture with one key dropped, one field of the wrong type or
    one integer out of range, in the spec, one of its algebras or one of its
    coefficient entries; and a `gamma check` mode."""
    path = draw(st.sampled_from(sorted(FIXTURES.glob("gamma_*.json"))))
    spec = json.loads(path.read_text())
    parts = [spec] + [spec[k] for k in ("d1", "d2") if k in spec] + spec["lie"] + spec["hs"]
    target = draw(st.sampled_from(parts))
    key = draw(st.sampled_from(sorted(target)))
    how = draw(st.sampled_from(("drop", "wrong_type", "out_of_range")))
    if how == "drop":
        del target[key]
    elif how == "wrong_type":
        target[key] = draw(WRONG_TYPES)
    else:
        target[key] = draw(st.one_of(st.integers(-3, 0), st.integers(1, 9), st.just(10**6)))
    return spec, draw(st.sampled_from(("--jacobi", "--assoc", "--all")))


@settings(max_examples=150, deadline=None)
@given(case=mutated_gamma_specs())
def test_gamma_check_fuzzed_fixtures_exit_cleanly(fuzz_dir, case):
    spec, mode = case
    path = fuzz_dir / "gamma.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gamma", "check", str(path), mode])
    assert code in (0, 1, 2), err.getvalue()


@st.composite
def mutated_dfield_specs(draw):
    """A dfield fixture with one key dropped, one field of the wrong type or
    one integer out of range, in the spec, its action, its D1 or one of D1's
    products; or with D1 dropped, so that it is inferred from an action or
    Lie index of a few hundred. Then `dfield validate` or `dfield apply`."""
    spec = fixture(draw(st.sampled_from(("dfield_qt.json", "dfield_char2_pair.json"))))
    how = draw(st.sampled_from(("drop", "wrong_type", "out_of_range", "inferred")))
    if how == "inferred":
        del spec["d1"]
        n = draw(st.integers(100, 300))
        if draw(st.booleans()):
            spec["action"]["t"] = {f"1,{n}": value for value in spec["action"]["t"].values()}
        else:
            spec["lie"] = [{"i": n, "j": n, "l": 1, "c": draw(st.sampled_from(("0", "1", "t")))}]
    else:
        parts = [spec, spec["action"], spec["action"]["t"], spec["d1"]] + spec["d1"]["products"]
        target = draw(st.sampled_from(parts))
        key = draw(st.sampled_from(sorted(target)))
        if how == "drop":
            del target[key]
        elif how == "wrong_type":
            target[key] = draw(WRONG_TYPES)
        else:
            target[key] = draw(st.one_of(st.integers(-3, 0), st.integers(1, 9), st.just(10**6)))
    command = draw(st.sampled_from((["validate"], ["apply", "--op", "1,1", "--expr", "t"],
                                    ["apply", "--op", "1,2", "--expr", "t^2"])))
    return spec, command


@settings(max_examples=60, deadline=None)
@given(case=mutated_dfield_specs())
def test_dfield_fuzzed_fixtures_exit_cleanly(fuzz_dir, case):
    spec, command = case
    path = fuzz_dir / "dfield.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dfield", *command, str(path)])
    assert code in (0, 1, 2), err.getvalue()


GARBLED_RELATIONS = st.sampled_from(("x1_[", "x9_[]", "x1_[1,9]", "x1_[3,1]", "x1_[]^", "1/0", "t", "x1_[] +", ""))


@st.composite
def mutated_kernel_specs(draw):
    """A kernel fixture with one key dropped, one field of the wrong type or
    one integer out of range, in the spec, its dfield, its action or its D1,
    or with one relation garbled; then `kernel leaders`, `prolong --steps 1`
    or `check-point`. An integer out of range stays at 9 or below: no cap
    bounds the jet count, so an r or n of a few thousand would not finish."""
    name = draw(st.sampled_from(sorted(p.name for p in FIXTURES.glob("kernel_*.json"))))
    spec = fixture(name)
    how = draw(st.sampled_from(("drop", "wrong_type", "out_of_range", "relation")))
    if how == "relation" and spec["relations"]:
        spec["relations"][draw(st.integers(0, len(spec["relations"]) - 1))] = draw(
            st.one_of(GARBLED_RELATIONS, WRONG_TYPES))
    else:
        dfield = spec["dfield"]
        parts = [spec, dfield, dfield["d1"], dfield["action"], *dfield["action"].values()]
        target = draw(st.sampled_from([part for part in parts if part]))
        key = draw(st.sampled_from(sorted(target)))
        if how == "drop":
            del target[key]
        elif how == "wrong_type":
            target[key] = draw(WRONG_TYPES)
        else:
            target[key] = draw(st.integers(-3, 9))
    values = "-1/t" if name == "kernel_riccati_qt.json" else "0"
    command = draw(st.sampled_from((["leaders"], ["prolong", "--steps", "1"], ["check-point", f"--values={values}"])))
    return spec, command


@settings(max_examples=150, deadline=None)
@given(case=mutated_kernel_specs())
def test_kernel_fuzzed_fixtures_exit_cleanly(fuzz_dir, case):
    spec, command = case
    path = fuzz_dir / "kernel.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["kernel", command[0], str(path), *command[1:]])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_gamma_check_jacobi_on_an_empty_table_is_fast(tmp_path, capsys):
    # D1 is inferred with 30 derivations and the one entry is zero, so no
    # index triple is reached; visiting all m^4 tuples took about 5 s here
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"char": 0, "gens": [], "action": {}, "lie": [{"i": 30, "j": 30, "l": 1, "c": "0"}]}))
    start = time.perf_counter()
    assert main(["gamma", "check", str(spec), "--jacobi"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "PASS" in capsys.readouterr().out


def test_gamma_check_all_on_an_empty_table_is_fast(tmp_path, capsys):
    # D1 is inferred with 1000 derivations and no product, so the Lie side
    # of the homomorphism check reaches no pair; multiplying all m^2/2 pairs
    # of images took about 2.6 s here
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"char": 0, "gens": [], "action": {}, "lie": [{"i": 1000, "j": 1000, "l": 1, "c": "0"}]}))
    start = time.perf_counter()
    assert main(["gamma", "check", str(spec), "--all"]) == 0
    assert time.perf_counter() - start < 0.5
    assert "PASS" in capsys.readouterr().out


def test_dfield_validate_with_one_live_operator_is_fast(tmp_path, capsys):
    # the action of dfield_char2_pair moved to operator 1,1000 of an inferred
    # D1: only pairs with that operator can fail; comparing all ops^2 pairs
    # on each generator took about 6.7 s here
    spec = fixture("dfield_char2_pair.json")
    del spec["d1"]
    spec["action"] = {"t": {"1,1000": "s"}}
    path = tmp_path / "one_live.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    assert main(["dfield", "validate", str(path)]) == 0
    assert time.perf_counter() - start < 0.5
    assert "PASS" in capsys.readouterr().out
