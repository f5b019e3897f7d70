"""opfield: exact workbench for fields with commuting operator systems.

Local algebras with ranked bases define generalized derivations; commutation
systems pin down how they compose; kernels are truncated solution germs that
the engine prolongs and realises with exact rational / prime-field
arithmetic.
"""

from .commutation import (
    GammaSystem,
    Verdict,
    check_all,
    check_associative,
    check_cross,
    check_jacobi,
    check_jacobi_associative,
    hs_system,
    hs_tensor_reduce,
    iterative_hs_coeffs,
)
from .dfields import (
    DField,
    GammaFail,
    NotSeparable,
    extend_inseparable_decide,
    extend_separable,
)
from .free_module import FreeCalculus
from .groebner import DegreeCapExceeded, Ideal
from .kernels import (
    Kernel,
    KernelError,
    LeaderReport,
    isomorphic,
    realisation_criterion,
    realize,
    specialize_check,
)
from .local_algebra import (
    AlgebraError,
    DVector,
    LocalAlgebra,
    NotUnit,
    derivation_algebra,
    frobenius_assumption,
    null_set,
    support,
    tensor,
    trivial_algebra,
    truncation_algebra,
    validate,
)
from .polynomials import Frac, Poly, PolyRing
from .scalars import FieldSpec, Fp

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "DField",
    "DVector",
    "DegreeCapExceeded",
    "FieldSpec",
    "Fp",
    "Frac",
    "FreeCalculus",
    "GammaFail",
    "GammaSystem",
    "Ideal",
    "Kernel",
    "KernelError",
    "LeaderReport",
    "LocalAlgebra",
    "NotSeparable",
    "NotUnit",
    "Poly",
    "PolyRing",
    "Verdict",
    "check_all",
    "check_associative",
    "check_cross",
    "check_jacobi",
    "check_jacobi_associative",
    "derivation_algebra",
    "extend_inseparable_decide",
    "extend_separable",
    "frobenius_assumption",
    "hs_system",
    "hs_tensor_reduce",
    "isomorphic",
    "iterative_hs_coeffs",
    "null_set",
    "realisation_criterion",
    "realize",
    "specialize_check",
    "support",
    "tensor",
    "trivial_algebra",
    "truncation_algebra",
    "validate",
]
