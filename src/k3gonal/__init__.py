"""Exact arithmetic for k-gonal loci of nodal curves on K3 surfaces and the
Mori cone of punctual Hilbert schemes.

Subpackages by theme: :mod:`~k3gonal.exactmath` (perfect squares and the
value classes), :mod:`~k3gonal.brillnoether` (the general existence bound),
:mod:`~k3gonal.gonality` (the r=1, d=k specialization and minimal node
numbers), :mod:`~k3gonal.chains` (constructive chain-partition witnesses),
:mod:`~k3gonal.pencil` (exact pencil algebra on Sym^2 of the line),
:mod:`~k3gonal.hilbert` (Beauville-Bogomolov calculus and cone bounds),
:mod:`~k3gonal.cli` (the `k3gonal` command).

Importing the package imports none of them: each name below, and each
submodule that exports one, is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each submodule, and the names the package exports from it
_EXPORTS = {
    "errors": ("InvariantViolation",),
    "exactmath": ("exact_sqrt",),
    "brillnoether": ("rho", "necessary_condition", "NecessityReport"),
    "gonality": ("GonalityCase", "admissible", "decompose", "delta0", "delta0_bruteforce",
                 "expected_dims", "is_optimal"),
    "chains": ("ChainPartition", "validate", "increment", "witness", "enumerate_partitions"),
    "pencil": ("BinaryForm", "Pencil", "SymPlaneCurve", "wedge_curve", "wronskian",
               "diagonal_restriction", "conic_intersection"),
    "hilbert": ("CurveClass", "DivisorClass", "pairing", "gonality_class", "optimal_class",
                "q_case", "tau", "minimal_q_family", "isotropic_case", "lagrangian_report",
                "extremal_ray_status", "genus_for_invariants", "attained_q_values"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    # a name is looked up in its submodule on every access and never bound
    # here, so the package hands out whatever that submodule holds now
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
