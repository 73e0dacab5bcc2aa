"""Exact arithmetic for k-gonal loci of nodal curves on K3 surfaces and the
Mori cone of punctual Hilbert schemes.

Subpackages by theme: :mod:`~k3gonal.exactmath` (integer/rational helpers),
:mod:`~k3gonal.brillnoether` (the general existence bound),
:mod:`~k3gonal.gonality` (the r=1, d=k specialization and minimal node
numbers), :mod:`~k3gonal.chains` (constructive chain-partition witnesses),
:mod:`~k3gonal.pencil` (exact pencil algebra on Sym^2 of the line),
:mod:`~k3gonal.hilbert` (Beauville-Bogomolov calculus and cone bounds),
:mod:`~k3gonal.cli` (the `k3gonal` command).
"""

from .brillnoether import NecessityReport, necessary_condition, rho
from .chains import (
    ChainPartition,
    SymbolicChainCurve,
    construct_minimal,
    enumerate_partitions,
    increment,
    stable_model,
    validate,
    witness,
)
from .errors import InvariantViolation
from .exactmath import ceil_div, exact_sqrt, floor_div
from .gonality import (
    Decomposition,
    GonalityCase,
    admissible,
    decompose,
    delta0,
    delta0_bruteforce,
    expected_dims,
    is_optimal,
)
from .hilbert import (
    CurveClass,
    DivisorClass,
    attained_q_values,
    extremal_ray_status,
    genus_for_invariants,
    gonality_class,
    ht_violation_check,
    isotropic_case,
    lagrangian_report,
    minimal_q_family,
    optimal_class,
    pairing,
    q_case,
    tau,
)
from .pencil import (
    BinaryForm,
    Pencil,
    SymPlaneCurve,
    conic_intersection,
    diagonal_restriction,
    wedge_curve,
    wronskian,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantViolation",
    "floor_div",
    "ceil_div",
    "exact_sqrt",
    "rho",
    "necessary_condition",
    "NecessityReport",
    "GonalityCase",
    "Decomposition",
    "admissible",
    "decompose",
    "delta0",
    "delta0_bruteforce",
    "expected_dims",
    "is_optimal",
    "ChainPartition",
    "SymbolicChainCurve",
    "validate",
    "construct_minimal",
    "increment",
    "witness",
    "enumerate_partitions",
    "stable_model",
    "BinaryForm",
    "Pencil",
    "SymPlaneCurve",
    "wedge_curve",
    "wronskian",
    "diagonal_restriction",
    "conic_intersection",
    "CurveClass",
    "DivisorClass",
    "pairing",
    "gonality_class",
    "optimal_class",
    "q_case",
    "tau",
    "minimal_q_family",
    "isotropic_case",
    "lagrangian_report",
    "extremal_ray_status",
    "genus_for_invariants",
    "attained_q_values",
    "ht_violation_check",
]
