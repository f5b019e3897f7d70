"""JSON spec parsing, canonical serialization, and fixture loading.

Spec kinds: algebra, dfield (optionally embedding algebras and coefficient
tensors), gamma (referencing or embedding a dfield), kernel (referencing or
embedding both). References are paths relative to the referring file.
"""

from __future__ import annotations

import json
from os import PathLike
from pathlib import Path

from .commutation import GammaSystem, base_ring
from .dfields import DField
from .kernels import Kernel
from .local_algebra import LocalAlgebra, derivation_algebra, trivial_algebra, validate
from .polynomials import parse_frac
from .scalars import FieldSpec, SpecError, spec_int, spec_json


class SpecFileError(ValueError):
    """PARSE_ERROR: bad file contents; carries the offending location."""

    def __init__(self, msg, where=""):
        self.where = where
        super().__init__(f"{msg}" + (f" (in {where})" if where else ""))


def _load_json(source, base_dir: Path | None):
    """The spec object `source` names: an object, or a non-empty path to one."""
    if isinstance(source, dict):
        return source, base_dir
    if not isinstance(source, (str, PathLike)) or source == "":
        raise SpecFileError(f"a spec reference must be a non-empty path or an object, got {source!r}")
    path = Path(source)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SpecFileError(f"no such file: {path}")
    except IsADirectoryError:
        raise SpecFileError(f"not a file: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SpecFileError(f"invalid JSON: {e}", where=str(path))
    try:
        return spec_json(data, "object", "a spec"), path.parent
    except SpecError as e:
        raise SpecFileError(str(e), where=str(path))


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def load_algebra(source, base_dir: Path | None = None) -> LocalAlgebra:
    data, _ = _load_json(source, base_dir)
    for key in ("dim",):
        if key not in data:
            raise SpecFileError(f"algebra spec missing field {key!r}")
    return validate(data)


def dump_algebra(alg: LocalAlgebra) -> dict:
    products: dict = {}
    for (p, q, i, c) in alg.table:
        products.setdefault((p, q), {})[str(i)] = str(c)
    return {
        "char": alg.field.char,
        "dim": alg.dim,
        "grades": list(alg.grades),
        "products": [
            {"p": p, "q": q, "coeffs": dict(sorted(coeffs.items(), key=lambda kv: int(kv[0])))}
            for (p, q), coeffs in sorted(products.items())
        ],
    }


# ---------------------------------------------------------------------------
# operator fields and commutation systems
# ---------------------------------------------------------------------------

def _coeff_entries(data, key) -> list:
    out = []
    for entry in spec_json(data.get(key, []), "list", key):
        try:
            out.append((int(entry["i"]), int(entry["j"]), int(entry["l"]), entry["c"]))
        except (KeyError, TypeError, ValueError):
            raise SpecFileError(f"bad {key} entry {entry!r}")
    return out


def parse_op_key(text: str) -> tuple[int, int]:
    """An operator index written "u,i"."""
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise SpecError(f"operator key {text!r} is not of the form 'u,i'")


def _parse_field_parts(data, base_dir):
    char = spec_int(data.get("char", 0), "char")
    gens = tuple(spec_json(g, "string", "generator") for g in spec_json(data.get("gens", []), "list", "gens"))
    spec = FieldSpec(char=char, gens=gens)
    action = {}
    for gen, row in spec_json(data.get("action", {}), "object", "action").items():
        if gen not in gens:
            raise SpecFileError(f"action references unknown generator {gen!r}")
        for opkey, val in spec_json(row, "object", f"action on {gen}").items():
            action.setdefault(parse_op_key(opkey), {})[gen] = str(val)
    if "d1" in data:
        d1 = load_algebra(data["d1"], base_dir)
    else:
        arity = [i for (u, i) in action if u == 1]
        arity += [max(e[:3]) for e in _coeff_entries(data, "lie")]
        if arity:
            d1 = derivation_algebra(max(arity), char=char)
        elif "d2" in data or data.get("hs"):
            d1 = trivial_algebra(char)
        else:
            d1 = derivation_algebra(1, char=char)
    d2 = load_algebra(data["d2"], base_dir) if "d2" in data else None
    ring = base_ring(spec)

    def coeffs(key):
        return {
            (i, j, l): parse_frac(ring, str(c))
            for (i, j, l, c) in _coeff_entries(data, key)
        }

    return spec, d1, d2, coeffs("lie"), coeffs("hs"), action


def load_dfield(source, base_dir: Path | None = None, overrides: dict | None = None) -> DField:
    data, base_dir = _load_json(source, base_dir)
    if overrides:
        data = {**data, **overrides}
    spec, d1, d2, lie, hs, action = _parse_field_parts(data, base_dir)
    try:
        gamma = GammaSystem(d1, d2, lie, hs, spec)
        return DField(spec, gamma, action)
    except SpecError as e:
        raise SpecFileError(str(e))


def load_gamma(source, base_dir: Path | None = None) -> DField:
    """The operator field a gamma spec describes; its system is `.gamma`."""
    data, base_dir = _load_json(source, base_dir)
    field_ref = data.get("field")
    overrides = {k: data[k] for k in ("d1", "d2", "lie", "hs") if k in data}
    if field_ref is None:
        field_ref = {
            "char": data.get("char", 0),
            "gens": data.get("gens", []),
            "action": data.get("action", {}),
        }
    return load_dfield(field_ref, base_dir, overrides=overrides)


def dump_dfield(field: DField) -> dict:
    gamma = field.gamma
    out = {
        "char": field.spec.char,
        "gens": list(field.spec.gens),
        "d1": dump_algebra(gamma.d1),
        "action": {},
    }
    if gamma.d2 is not None:
        out["d2"] = dump_algebra(gamma.d2)
    for g in field.spec.gens:
        row = {}
        for op in gamma.ops:
            v = field.action[op][g]
            if v:
                row[f"{op[0]},{op[1]}"] = str(v)
        if row:
            out["action"][g] = row
    for key, table in (("lie", gamma.lie), ("hs", gamma.hs)):
        entries = [
            {"i": i, "j": j, "l": l, "c": str(c)}
            for (i, j, l), c in sorted(table.items())
        ]
        if entries:
            out[key] = entries
    return out


def dump_gamma(gamma: GammaSystem, field: DField | None = None) -> dict:
    """The system's spec, with the action of `field` when one is given."""
    out = {
        "d1": dump_algebra(gamma.d1),
        "char": gamma.fieldspec.char,
        "gens": list(gamma.fieldspec.gens),
    }
    if gamma.d2 is not None:
        out["d2"] = dump_algebra(gamma.d2)
    for key, table in (("lie", gamma.lie), ("hs", gamma.hs)):
        out[key] = [
            {"i": i, "j": j, "l": l, "c": str(c)}
            for (i, j, l), c in sorted(table.items())
        ]
    if field is not None:
        out["action"] = dump_dfield(field)["action"]
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def load_kernel(source, base_dir: Path | None = None) -> Kernel:
    data, base_dir = _load_json(source, base_dir)
    for key in ("n", "r"):
        if key not in data:
            raise SpecFileError(f"kernel spec missing field {key!r}")
    gamma_ref = data.get("gamma")
    if "gamma" in data and not isinstance(gamma_ref, (str, dict)):
        raise SpecFileError(f"gamma must be a path or a JSON object, got {gamma_ref!r}")
    if isinstance(gamma_ref, str) or (isinstance(gamma_ref, dict) and "field" in gamma_ref):
        field = load_gamma(gamma_ref, base_dir)
    else:
        overrides = {}
        if isinstance(gamma_ref, dict):
            overrides = {k: v for k, v in gamma_ref.items() if k in ("d1", "d2", "lie", "hs")}
        if "dfield" not in data:
            raise SpecFileError("kernel spec needs a dfield or a gamma with a field")
        field = load_dfield(data["dfield"], base_dir, overrides=overrides or None)
    try:
        n, r = (spec_int(data[key], key) for key in ("n", "r"))
        relations = spec_json(data.get("relations", []), "list", "relations")
        for rel in relations:
            spec_json(rel, "string", "relation")
        return Kernel(field, n, r, relations)
    except SpecError as e:
        raise SpecFileError(str(e))


def dump_kernel(kernel: Kernel) -> dict:
    return {
        "dfield": dump_dfield(kernel.field),
        "n": kernel.n,
        "r": kernel.r,
        "relations": [str(g) for g in kernel.ideal.gens],
    }


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

LOADERS = {
    "algebra": (load_algebra, dump_algebra),
    "dfield": (load_dfield, dump_dfield),
    "gamma": (load_gamma, lambda field: dump_gamma(field.gamma, field)),
    "kernel": (load_kernel, dump_kernel),
}


def guess_kind(data: dict) -> str:
    if "dim" in data:
        return "algebra"
    if "n" in data and "r" in data:
        return "kernel"
    if "field" in data or ("lie" in data and "gens" not in data and "action" not in data):
        return "gamma"
    if "action" in data or "gens" in data:
        return "dfield"
    raise SpecFileError("cannot determine spec kind")


def canonicalize(source, kind: str | None = None, base_dir: Path | None = None) -> dict:
    data, base_dir = _load_json(source, base_dir)
    kind = kind or guess_kind(data)
    loader, dumper = LOADERS[kind]
    return dumper(loader(data, base_dir))


def canonical_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
