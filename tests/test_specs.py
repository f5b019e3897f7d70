import json
import re
from importlib.resources import files
from pathlib import Path

import pytest
from helpers import SCHEMA_REGISTRY, SCHEMAS, validate_schema
from jsonschema import ValidationError

from opfield.kernels import Kernel
from opfield.specs import (
    SpecFileError,
    canonical_json,
    canonicalize,
    dump_kernel,
    guess_kind,
    load_dfield,
    load_gamma,
    load_kernel,
)

FIXTURES = Path(str(files("opfield") / "fixtures"))

KINDS = {
    "algebra_dual_numbers.json": "algebra",
    "algebra_derivations3.json": "algebra",
    "algebra_truncation3.json": "algebra",
    "algebra_truncation4_f2.json": "algebra",
    "algebra_f2_truncation3.json": "algebra",
    "dfield_qt.json": "dfield",
    "dfield_char2_pair.json": "dfield",
    "gamma_sl2.json": "gamma",
    "gamma_two_derivations.json": "gamma",
    "gamma_iterative_2_2.json": "gamma",
    "gamma_iterative_3_1.json": "gamma",
    "gamma_mixed_f2.json": "gamma",
    "kernel_riccati.json": "kernel",
    "kernel_riccati_qt.json": "kernel",
    "kernel_generic_two_derivations.json": "kernel",
    "kernel_equal_flows.json": "kernel",
}


def test_every_fixture_is_covered():
    assert {p.name for p in FIXTURES.glob("*.json")} == set(KINDS)


@pytest.mark.parametrize("name,kind", sorted(KINDS.items()))
def test_fixture_roundtrip(name, kind):
    path = FIXTURES / name
    first = canonicalize(path, kind=kind)
    again = canonicalize(first, kind=kind)
    assert first == again
    # shipped fixtures are already canonical
    assert json.loads(path.read_text()) == first


@pytest.mark.parametrize("name,kind", sorted(KINDS.items()))
def test_fixture_schema_valid(name, kind):
    validate_schema(json.loads((FIXTURES / name).read_text()), kind)


def _refs(node):
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _refs(value)


def test_schemas_are_written_once_and_reference_each_other():
    assert SCHEMAS
    for name, schema in SCHEMAS.items():
        assert schema["$id"] == name
        assert "$defs" not in json.dumps(schema)
        resolver = SCHEMA_REGISTRY.resolver(base_uri=schema["$id"])
        for ref in _refs(schema):
            resolver.lookup(ref)  # raises if the reference does not resolve
    # the references are followed: a bad entry deep inside a kernel is caught
    kernel = json.loads((FIXTURES / "kernel_riccati.json").read_text())
    no_c = [{"i": 1, "j": 1, "l": 1}]
    for bad in ({"hs": no_c}, {"d2": {"char": 0}}, {"lie": no_c, "field": {"gens": [1]}}):
        with pytest.raises(ValidationError):
            validate_schema(kernel | {"gamma": bad}, "kernel")


def test_realize_schema_takes_a_pass_or_a_fail_report():
    validate_schema({"status": "FAIL", "code": "INSEPARABLE_KERNEL", "witness": ["x1_[1,1;1,1]"]}, "realize")
    for bad in ({"status": "PASS", "order": 6, "jets": []}, {"status": "FAIL"}, {"status": "ACCEPT", "code": "X"}):
        with pytest.raises(ValidationError):
            validate_schema(bad, "realize")


def test_guess_kind():
    assert guess_kind({"dim": 2}) == "algebra"
    assert guess_kind({"n": 1, "r": 1}) == "kernel"
    assert guess_kind({"gens": ["t"], "action": {}}) == "dfield"


def test_minimal_dfield_form():
    # the compact documented form: algebras inferred from the action keys
    field = load_dfield({"char": 0, "gens": ["t", "s"], "action": {"t": {"1,1": "1"}, "s": {"1,1": "0"}}})
    assert field.gamma.d1.m == 1
    assert field.partial((1, 1), field.gen("t")) == field.scalar(1)


def test_gamma_file_with_field_reference(tmp_path):
    df = tmp_path / "field.json"
    df.write_text(json.dumps({"char": 0, "gens": ["t"], "action": {"t": {"1,1": "1"}}}))
    gm = tmp_path / "gamma.json"
    gm.write_text(json.dumps({"field": "field.json", "d1": {"char": 0, "dim": 3, "grades": [1, 1], "products": []}}))
    field = load_gamma(gm)
    assert field.gamma.m1 == 2
    assert field.spec.gens == ("t",)


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    return path


def _field_beside_a_decoy(directory):
    """sub/f.json, a field over Q(t), beside sub/alg.json, a decoy algebra of dim 2."""
    _write(directory / "sub" / "alg.json", {"char": 0, "dim": 2, "grades": [1]})
    _write(directory / "sub" / "f.json", {"char": 0, "gens": ["t"], "action": {}})


ALG4 = {"char": 0, "dim": 4, "grades": [1, 1, 1]}


def test_gamma_paths_resolve_from_the_gamma_not_its_field(tmp_path):
    _field_beside_a_decoy(tmp_path)
    _write(tmp_path / "alg.json", ALG4)
    gm = _write(tmp_path / "gamma.json", {"field": "sub/f.json", "d1": "alg.json"})
    assert load_gamma(gm).spec.gens == ("t",)
    assert canonicalize(gm)["d1"]["dim"] == 4


def test_kernel_gamma_paths_resolve_from_the_gamma_file(tmp_path):
    _field_beside_a_decoy(tmp_path)
    _write(tmp_path / "g" / "alg.json", ALG4)
    _write(tmp_path / "g" / "gamma.json", {"d1": "alg.json"})
    kn = _write(tmp_path / "kernel.json", {"dfield": "sub/f.json", "gamma": "g/gamma.json", "n": 1, "r": 1})
    kernel = load_kernel(kn)
    assert kernel.gamma.d1.dim == 4 and kernel.field.spec.gens == ("t",)


def test_kernel_dfield_is_read_only_when_it_is_the_field(tmp_path):
    gamma = {"char": 0, "gens": ["s"], "action": {}}
    kernel = load_kernel({"dfield": "missing.json", "gamma": gamma, "n": 1, "r": 1}, tmp_path)
    assert kernel.field.spec.gens == ("s",)
    with pytest.raises(SpecFileError, match="^no such file: .*missing.json$"):
        load_kernel({"dfield": "missing.json", "gamma": {"lie": []}, "n": 1, "r": 1}, tmp_path)
    with pytest.raises(SpecFileError, match="^a spec reference must be a non-empty path or an object, got None$"):
        load_kernel({"dfield": None, "n": 1, "r": 1})
    with pytest.raises(SpecFileError, match="^a spec reference must be a non-empty path or an object, got ''$"):
        load_gamma({"field": gamma, "d2": ""})


@pytest.mark.parametrize("name, key", [("gamma_sl2.json", "lie"), ("gamma_iterative_2_2.json", "hs")])
def test_repeated_coefficient_entries(name, key):
    spec = json.loads((FIXTURES / name).read_text())
    first = spec[key][0]
    # a repeat of an equal value is the same table
    same = spec | {key: spec[key] + [first | {"c": f"({first['c']}) + 0"}]}
    assert canonicalize(same, "gamma") == canonicalize(spec, "gamma")
    # a different value for the same (i, j, l) is refused, not dropped
    conflict = spec | {key: spec[key] + [first | {"c": f"({first['c']}) + 1"}]}
    with pytest.raises(SpecFileError, match="conflicting"):
        canonicalize(conflict, "gamma")


def test_kernel_with_separate_refs(tmp_path):
    df = tmp_path / "field.json"
    df.write_text(json.dumps({"char": 0, "gens": [], "action": {}}))
    kn = tmp_path / "kernel.json"
    kn.write_text(
        json.dumps({"dfield": "field.json", "n": 1, "r": 1, "relations": ["x1_[1,1] - x1_[]^2"]})
    )
    kernel = load_kernel(kn)
    assert kernel.r == 1 and kernel.n == 1
    assert len(kernel.ideal.gens) == 1


def test_kernel_dump_reload_isomorphic():
    kernel = load_kernel(FIXTURES / "kernel_equal_flows.json")
    again = load_kernel(dump_kernel(kernel))
    from opfield.kernels import isomorphic

    assert isomorphic(kernel, again)


def test_whitespace_variants_canonicalize(tmp_path):
    data = json.loads((FIXTURES / "kernel_riccati.json").read_text())
    data["relations"] = ["x1_[1,1]   -   x1_[]^2"]
    messy = tmp_path / "messy.json"
    messy.write_text(json.dumps(data))
    assert canonicalize(messy, kind="kernel") == canonicalize(FIXTURES / "kernel_riccati.json", kind="kernel")


def test_missing_fields_reported():
    with pytest.raises(SpecFileError):
        load_kernel({"n": 1})
    with pytest.raises(SpecFileError):
        canonicalize({"nonsense": True})


def test_nested_input_is_a_spec_file_error(tmp_path):
    # both the JSON decoder and the expression parser recurse; running out of
    # frames is a malformed spec, and a parse error met while a spec loads
    # reaches the caller as the spec's error, with the parser's message
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SpecFileError, match=f"^invalid JSON: maximum recursion depth exceeded .*\\(in {re.escape(str(nested))}\\)$"):
        load_kernel(nested)
    data = json.loads((FIXTURES / "kernel_riccati.json").read_text())
    data["relations"] = ["(" * 300 + "x1_[]" + ")" * 300 + " - x1_[1,1]"]
    with pytest.raises(SpecFileError, match="^expression nested too deeply$"):
        load_kernel(data)
