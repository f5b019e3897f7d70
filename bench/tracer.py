"""Per-layer tracing from outside the program.

The tracer replaces each layer's entry points with wrappers while a traced
batch runs and restores them afterwards; no opfield file changes. Timed entry
points record spans (name, start, end, parent span, call) in memory; hot calls
(Frac construction, Poly and DVector multiply, d_word) are only counted,
because timing them would cost more than the work. Counts depend only on the
inputs, so two traced runs of one seed report the same counts.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import Counter
from time import perf_counter

# (module, attribute, span name); the attribute is patched wherever an opfield
# module binds it, so calls across module boundaries are caught.
SPANS = [
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "Ideal.normal_form", "groebner.nf"),
    ("groebner", "normal_form_list", "groebner.nf"),  # every reduction, in Buchberger too
    ("polynomials", "parse_frac", "polynomials.parse"),
    ("polynomials", "parse_poly", "polynomials.parse"),
    ("kernels", "Kernel.prolong", "kernels.prolong"),
    ("kernels", "Kernel.leaders", "kernels.leaders"),
    ("kernels", "Kernel.validate", "kernels.validate"),
    ("kernels", "realisation_criterion", "kernels.criterion"),
    ("kernels", "specialize_check", "kernels.check_point"),
    ("free_module", "FreeCalculus.ell", "free_module.ell"),
    ("dfields", "DField.e", "dfields.e"),
    ("dfields", "DField.validate_gamma", "dfields.validate_gamma"),
    ("dfields", "extend_separable", "dfields.extend_separable"),
    ("local_algebra", "validate", "local_algebra.validate"),
    ("local_algebra", "tensor", "local_algebra.tensor"),
    ("commutation", "hom_verdict", "commutation.hom"),
    ("commutation", "check_jacobi", "commutation.jacobi"),
    ("commutation", "check_associative", "commutation.assoc"),
    ("commutation", "hs_tensor_reduce", "commutation.reduce"),
] + [("specs", f"load_{k}", "specs.load") for k in ("algebra", "dfield", "gamma", "kernel")] \
  + [("specs", f"dump_{k}", "specs.dump") for k in ("algebra", "dfield", "gamma", "kernel")]

COUNTS = [
    ("polynomials", "Frac.__init__", "polynomials.frac_new"),
    ("polynomials", "_normalize", "polynomials.frac_normalize"),
    ("polynomials", "Poly.__mul__", "polynomials.poly_mul"),
    ("free_module", "FreeCalculus.__init__", "free_module.instances"),
    ("dfields", "DField.partial_word", "dfields.partial_word_calls"),
    ("local_algebra", "DVector.__mul__", "local_algebra.dvector_mul"),
    ("local_algebra", "DVector.invert", "local_algebra.invert_calls"),
]

LAYERS = ("groebner", "polynomials", "kernels", "free_module", "dfields", "local_algebra",
          "commutation", "specs", "cli")

# metric name -> (source, key, unit); source is "count", "calls" or "time"
# (number or total time of the outermost spans of that name, so nested and
# recursive entries count once), "ratio" (of two counts) or "self" (a layer).
METRICS = {
    "groebner.buchberger_calls": ("calls", "groebner.buchberger", "count"),
    "groebner.buchberger_s": ("time", "groebner.buchberger", "s"),
    "groebner.basis_len_max": ("count", "groebner.basis_len_max", "count"),
    "groebner.nf_calls": ("calls", "groebner.nf", "count"),
    "groebner.nf_s": ("time", "groebner.nf", "s"),
    "groebner.basis_hit_ratio": ("ratio", ("groebner.basis_hits", "groebner.basis_calls"), "ratio"),
    "polynomials.frac_new": ("count", "polynomials.frac_new", "count"),
    "polynomials.frac_normalize": ("count", "polynomials.frac_normalize", "count"),
    "polynomials.poly_mul": ("count", "polynomials.poly_mul", "count"),
    "polynomials.parse_s": ("time", "polynomials.parse", "s"),
    "kernels.prolong_calls": ("calls", "kernels.prolong", "count"),
    "kernels.prolong_s": ("time", "kernels.prolong", "s"),
    "kernels.leaders_s": ("time", "kernels.leaders", "s"),
    "kernels.validate_s": ("time", "kernels.validate", "s"),
    "kernels.criterion_s": ("time", "kernels.criterion", "s"),
    "kernels.check_point_s": ("time", "kernels.check_point", "s"),
    "kernels.routes_checked": ("count", "kernels.routes_checked", "count"),
    "free_module.instances": ("count", "free_module.instances", "count"),
    "free_module.d_word_calls": ("count", "free_module.d_word_calls", "count"),
    "free_module.memo_hit_ratio": ("ratio", ("free_module.d_word_hits", "free_module.d_word_calls"), "ratio"),
    "free_module.ell_s": ("time", "free_module.ell", "s"),
    "dfields.e_calls": ("calls", "dfields.e", "count"),
    "dfields.e_s": ("time", "dfields.e", "s"),
    "dfields.partial_word_calls": ("count", "dfields.partial_word_calls", "count"),
    "dfields.validate_gamma_s": ("time", "dfields.validate_gamma", "s"),
    "dfields.extend_separable_s": ("time", "dfields.extend_separable", "s"),
    "local_algebra.validate_calls": ("calls", "local_algebra.validate", "count"),
    "local_algebra.validate_s": ("time", "local_algebra.validate", "s"),
    "local_algebra.dvector_mul": ("count", "local_algebra.dvector_mul", "count"),
    "local_algebra.invert_calls": ("count", "local_algebra.invert_calls", "count"),
    "local_algebra.tensor_s": ("time", "local_algebra.tensor", "s"),
    "commutation.hom_s": ("time", "commutation.hom", "s"),
    "commutation.jacobi_s": ("time", "commutation.jacobi", "s"),
    "commutation.assoc_s": ("time", "commutation.assoc", "s"),
    "commutation.reduce_s": ("time", "commutation.reduce", "s"),
    "specs.load_s": ("time", "specs.load", "s"),
    "specs.dump_s": ("time", "specs.dump", "s"),
    "cli.calls": ("calls", "cli.main", "count"),
} | {f"{layer}.self_s": ("self", layer, "s") for layer in LAYERS}


def _resolve(module: str, attr: str):
    mod = sys.modules[f"opfield.{module}"]
    owner, _, name = attr.rpartition(".")
    return (getattr(mod, owner) if owner else mod), name


class Tracer:
    """Spans and counts of one traced batch; install() patches, remove() restores."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, call, outermost]
        self.stack: list = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.call = -1
        self._undo: list = []
        self._seen = weakref.WeakKeyDictionary()  # FreeCalculus -> (op, word) keys

    # -- spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.call, not self.active[name]])
        self.active[name] += 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.active[span[0]] -= 1
        self.stack.pop()

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------
    def _patch(self, module: str, attr: str, wrapper_for) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = wrapper_for(original)
        if owner is sys.modules[f"opfield.{module}"]:
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "opfield" and getattr(mod, name, None) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        else:
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)

    def install(self) -> None:
        for module, attr, name in SPANS:
            after = None
            if name == "groebner.buchberger":
                after = self._basis_len
            elif name == "kernels.prolong":
                after = self._routes
            self._patch(module, attr, lambda fn, name=name, after=after: self._span(name, fn, after))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))
        self._patch("groebner", "Ideal.groebner", self._ideal_groebner)
        self._patch("free_module", "FreeCalculus.d_word", self._d_word)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _basis_len(self, basis) -> None:
        self.counts["groebner.bases_built"] += 1
        self.counts["groebner.basis_len_max"] = max(self.counts["groebner.basis_len_max"], len(basis))

    def _routes(self, kernel) -> None:
        self.counts["kernels.routes_checked"] += kernel.claim_routes_checked

    def _ideal_groebner(self, fn):
        counts = self.counts

        def wrapper(ideal, *args, **kwargs):
            before = counts["groebner.bases_built"]
            result = fn(ideal, *args, **kwargs)
            counts["groebner.basis_calls"] += 1
            if counts["groebner.bases_built"] == before:
                counts["groebner.basis_hits"] += 1
            return result

        return wrapper

    def _d_word(self, fn):
        counts, seen = self.counts, self._seen

        def wrapper(calc, op, word):
            counts["free_module.d_word_calls"] += 1
            keys = seen.setdefault(calc, set())
            if (op, word) in keys:
                counts["free_module.d_word_hits"] += 1
            else:
                keys.add((op, word))
            return fn(calc, op, word)

        return wrapper

    # -- results ---------------------------------------------------------------
    def write(self, path) -> None:
        """The spans as JSON lines: name, start and end (s), parent index, call."""
        with open(path, "w") as fh:
            for name, start, end, parent, call, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, call]) + "\n")

    def metrics(self) -> dict:
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, outer in self.spans:
            if outer:
                calls[name] += 1
                inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for idx, (name, start, end, *_rest) in enumerate(self.spans):
            own[name.split(".")[0]] += end - start - child[idx]
        out = {}
        for metric, (source, key, unit) in METRICS.items():
            if source == "calls":
                value = calls[key]
            elif source == "time":
                value = inclusive[key]
            elif source == "self":
                value = own[key]
            elif source == "ratio":
                hits, total = (self.counts[k] for k in key)
                value = hits / total if total else 0.0
            else:
                value = self.counts[key]
            out[metric] = (value, unit)
        return out
