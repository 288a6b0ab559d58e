"""Symbolic derivation of partitioned matrix expressions.

Given a formal description of a matrix operation (operand properties plus
the equation to solve), this package enumerates the viable ways to block
the operands, distributes the equation over the blocks, and solves each
quadrant by pattern matching against a growing knowledge base, yielding
the operation's partitioned matrix expressions.
"""

__version__ = "0.1.0"
