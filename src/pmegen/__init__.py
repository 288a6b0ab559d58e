"""Symbolic derivation of partitioned matrix expressions.

Given a formal description of a matrix operation (operand properties plus
the equation to solve), this package enumerates the viable ways to block
the operands, distributes the equation over the blocks, and solves each
quadrant by pattern matching against a growing knowledge base, yielding
the operation's partitioned matrix expressions.
"""

from .expr import (
    Equation,
    Expression,
    Inverse,
    Minus,
    OperandRef,
    Plus,
    SolvedBy,
    Times,
    Transpose,
    Zero,
    ZERO,
    normalize,
    serialize,
    serialize_equation,
)
from .opspec import OperandDecl, OperationSpec, Property, parse_operation, render_spec
from .partition import BlockedOperand, PartitionRule, PartitionShape, PropertyFact
from .binding import DimensionVar, RuleCombination, enumerate_combinations
from .blockarith import BlockedEquationGrid, QuadrantEquation, blocked_postcondition
from .engine import (
    KnowledgeBase,
    Pattern,
    PME,
    StuckDerivation,
    derive_all,
    derive_pme,
    learn,
    seed_builtins,
)
from .oracle import NumericBinding, check_pme, evaluate

__version__ = "0.1.0"

__all__ = [
    "Equation",
    "Expression",
    "OperandRef",
    "Plus",
    "Times",
    "Minus",
    "Transpose",
    "Inverse",
    "SolvedBy",
    "Zero",
    "ZERO",
    "normalize",
    "serialize",
    "serialize_equation",
    "OperandDecl",
    "OperationSpec",
    "Property",
    "parse_operation",
    "render_spec",
    "BlockedOperand",
    "PartitionRule",
    "PartitionShape",
    "PropertyFact",
    "DimensionVar",
    "RuleCombination",
    "enumerate_combinations",
    "BlockedEquationGrid",
    "QuadrantEquation",
    "blocked_postcondition",
    "KnowledgeBase",
    "Pattern",
    "PME",
    "StuckDerivation",
    "derive_all",
    "derive_pme",
    "learn",
    "seed_builtins",
    "NumericBinding",
    "check_pme",
    "evaluate",
    "__version__",
]
