"""Exact loss robustness of graph-state Bell violations.

The analysis lives in `Quad` arithmetic (numbers a + b*sqrt(2) with exact
rational components); the statevector oracle in `lossbell.oracle` provides
an independent numerical cross-check of every closed form.  Only the oracle
and the dense cross-check helpers load numpy: the oracle's names below are
served on first access, so ``import lossbell`` does not load it.
"""

from .bell import (
    MeasurementSetting,
    WeightedStabilizerSum,
    bell_stabilizer_sum,
    classical_bound,
    generic_bell_operator,
    quantum_bound,
)
from .errors import (
    BudgetExceededError,
    DegenerateGraphError,
    DistributionError,
    GraphFormatError,
    NotARootError,
    SizeCapExceededError,
    VerificationError,
)
from .families import KINDS, FamilySpec, family_prediction, generate, leaf_groups
from .graphs import Graph, random_connected_graph
from .loss import (
    LossDistribution,
    LossReport,
    MixtureCurve,
    critical_sets,
    expectation_after_loss,
    generator_expectation,
    loss_size_sweep,
    max_tolerable_loss,
    mixture_expectation,
    root_loss_check,
    single_loss_mixture_curve,
    violation_report,
)
from .pauli import PauliString, stabilizer
from .quad import SQRT2, Quad

__all__ = [
    "BudgetExceededError",
    "DegenerateGraphError",
    "DistributionError",
    "FamilySpec",
    "Graph",
    "GraphFormatError",
    "KINDS",
    "LossDistribution",
    "LossReport",
    "LossyState",
    "MeasurementSetting",
    "MixtureCurve",
    "NotARootError",
    "PauliString",
    "Quad",
    "SQRT2",
    "SizeCapExceededError",
    "VerificationError",
    "WeightedStabilizerSum",
    "basis_block_weights",
    "bell_stabilizer_sum",
    "classical_bound",
    "critical_sets",
    "expectation_after_loss",
    "family_prediction",
    "generate",
    "generator_expectation",
    "generic_bell_operator",
    "graph_state",
    "leaf_groups",
    "loss_size_sweep",
    "max_tolerable_loss",
    "mixture_expectation",
    "quantum_bound",
    "random_connected_graph",
    "root_loss_check",
    "single_loss_mixture_curve",
    "stabilizer",
    "violation_report",
]

_ORACLE_NAMES = frozenset({"LossyState", "basis_block_weights", "graph_state"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
