"""Normal-subgroup order sums for finite group families.

The package computes D(G), the sum of the orders of all normal subgroups of
G, classifies groups by comparing D(G) with 2|G| (exactly twice: Leinster;
off by one: quasi/almost), provides closed-form D for cyclic, metacyclic,
affine, generalized dihedral and generalized dicyclic families, and backs
every formula with a brute-force oracle on explicit multiplication tables.

`import leinster` loads neither numpy nor the oracle.  The names of
`leinster.oracle` and `leinster.verify` (the builders, `group_divisor_sum`,
`run_verify`, ...) and the two modules themselves are imported on first
access, so `leinster.build_zm` and `from leinster import *` work as before.
"""

import importlib

from .families import (
    GroupKind,
    LatticeTriple,
    ZMTriple,
    affine_divisor_sum,
    classify_kind,
    dicyclic_divisor_sum,
    dihedral_divisor_sum,
    generalized_dihedral_divisor_sum,
    pq_divisor_sum,
    zm_divisor_sum,
    zm_normal_triples,
    zm_subgroup_triples,
    zm_validate,
)
from .numtheory import (
    FactorizationError,
    OrderCapError,
    divisor_sum,
    divisors,
    factorize,
    is_prime,
    lucas_lehmer,
    mult_order,
    perfect_plus_one,
    prime_power_decompose,
)
from .search import SearchRecord, SweepConfig, run_classify, run_sweep

# Names of the modules that load numpy, given on first access (PEP 562), so
# that `import leinster` and the closed-form commands never import them.
_LAZY = {
    "oracle": (
        "FiniteGroup",
        "all_subgroups",
        "build_abelian",
        "build_affine_prime",
        "build_cyclic",
        "build_direct_product",
        "build_generalized_dicyclic",
        "build_generalized_dihedral",
        "build_zm",
        "group_divisor_sum",
        "is_nilpotent",
        "normal_quotients",
    ),
    "verify": ("InvariantResult", "run_verify"),
}
_LAZY_NAME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY_NAME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAME})


__all__ = [
    "FactorizationError",
    "FiniteGroup",
    "GroupKind",
    "InvariantResult",
    "LatticeTriple",
    "OrderCapError",
    "SearchRecord",
    "SweepConfig",
    "ZMTriple",
    "affine_divisor_sum",
    "all_subgroups",
    "build_abelian",
    "build_affine_prime",
    "build_cyclic",
    "build_direct_product",
    "build_generalized_dicyclic",
    "build_generalized_dihedral",
    "build_zm",
    "classify_kind",
    "dicyclic_divisor_sum",
    "dihedral_divisor_sum",
    "divisor_sum",
    "divisors",
    "factorize",
    "generalized_dihedral_divisor_sum",
    "group_divisor_sum",
    "is_nilpotent",
    "is_prime",
    "lucas_lehmer",
    "mult_order",
    "normal_quotients",
    "perfect_plus_one",
    "pq_divisor_sum",
    "prime_power_decompose",
    "run_classify",
    "run_sweep",
    "run_verify",
    "zm_divisor_sum",
    "zm_normal_triples",
    "zm_subgroup_triples",
    "zm_validate",
]

__version__ = "0.1.0"
