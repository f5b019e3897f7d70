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


class SpecFileError(SpecError):
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:  # too deeply nested
        raise SpecFileError(f"invalid JSON: {e}", where=str(path))
    try:
        return spec_json(data, "object", "a spec"), path.parent
    except SpecError as e:
        raise SpecFileError(str(e), where=str(path))


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def load_algebra(source, base_dir: Path | None = None) -> LocalAlgebra:
    return validate(_load_json(source, base_dir)[0])


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
            out.append(tuple(spec_int(entry[k], k) for k in "ijl") + (entry["c"],))
        except (KeyError, TypeError, ValueError):  # SpecError is a ValueError
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
        table: dict = {}
        for (i, j, l, c) in _coeff_entries(data, key):
            value = parse_frac(ring, str(c))
            if (i, j, l) in table and table[(i, j, l)] != value:
                raise SpecFileError(f"conflicting {key} entries for ({i},{j},{l})")
            table[(i, j, l)] = value
        return table

    return spec, d1, d2, coeffs("lie"), coeffs("hs"), action


def load_dfield(source, base_dir: Path | None = None, gamma: tuple | None = None) -> DField:
    """`gamma`, a gamma spec and its directory, lays its d1/d2/lie/hs over
    the field's own; its d1/d2 paths resolve from that directory."""
    data, base_dir = _load_json(source, base_dir)
    if "dim" in data or ("n" in data and "r" in data):
        raise SpecFileError(f"{guess_kind(data)} spec where an operator field spec is expected")
    if gamma is not None:
        over, over_dir = gamma
        # an algebra names no other file, so its object stands in for its path
        data = data | {k: _load_json(over[k], over_dir)[0] if k in ("d1", "d2") else over[k]
                       for k in ("d1", "d2", "lie", "hs") if k in over}
    spec, d1, d2, lie, hs, action = _parse_field_parts(data, base_dir)
    try:
        return DField(spec, GammaSystem(d1, d2, lie, hs, spec), action)
    except SpecError as e:
        raise SpecFileError(str(e))


def load_gamma(source, base_dir: Path | None = None, dfield: tuple | None = None) -> DField:
    """The operator field a gamma spec describes; its system is `.gamma`.

    Its d1/d2/lie/hs are laid over its own `field` or, when it describes no
    field, over `dfield`, a kernel's field reference and directory. Otherwise
    it is read as a dfield, which reads the same keys with these defaults.
    """
    gamma = _load_json(source, base_dir)
    data, gamma_dir = gamma
    if data.get("field") is not None:
        return load_dfield(data["field"], gamma_dir, gamma)
    if dfield is not None and not any(k in data for k in ("field", "char", "gens", "action")):
        return load_dfield(*dfield, gamma)
    return load_dfield(data, gamma_dir)


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
            {"i": i, "j": j, "l": l, "c": gamma.domain.text(c)}
            for (i, j, l), c in sorted(table.items())
        ]
    if field is not None:
        out["action"] = {}
        for g in field.spec.gens:
            row = {f"{u},{i}": gamma.domain.text(v) for u, i in gamma.ops if (v := field.action[(u, i)][g])}
            if row:
                out["action"][g] = row
    return out


def dump_dfield(field: DField) -> dict:
    """The field's spec: its system's, without an empty `lie` or `hs`."""
    out = dump_gamma(field.gamma, field)
    return {key: v for key, v in out.items() if v or key not in ("lie", "hs")}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def load_kernel(source, base_dir: Path | None = None) -> Kernel:
    data, base_dir = _load_json(source, base_dir)
    for key in ("n", "r"):
        if key not in data:
            raise SpecFileError(f"kernel spec missing field {key!r}")
    if "dfield" not in data and "gamma" not in data:
        raise SpecFileError("kernel spec needs a dfield or a gamma")
    # the dfield is read only when it is the field the gamma lies over
    dfield = (data["dfield"], base_dir) if "dfield" in data else None
    field = load_gamma(data.get("gamma", {}), base_dir, dfield)
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
