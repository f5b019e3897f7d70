import json
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

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
SCHEMAS = Path(str(files("opfield") / "schemas"))

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
    data = json.loads((FIXTURES / name).read_text())
    schema = json.loads((SCHEMAS / f"{kind}.schema.json").read_text())
    jsonschema.validate(data, schema)


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
