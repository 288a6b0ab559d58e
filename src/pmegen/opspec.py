"""Operation descriptions: a small DSL for preconditions and postconditions.

An operation file declares its operands (kind, symbolic dimensions,
known/unknown role, structural properties) followed by the equation to
solve and the name of its solution operator::

    operation cholesky
      operand L : matrix(m,m) , unknown , lower_triangular
      operand A : matrix(m,m) , known , spd
      postcondition: L * trans(L) = A
      solve: Gamma

Comments start with ``#``.  Properties: ``lower_triangular``,
``upper_triangular``, ``symmetric``, ``spd``, ``diagonal``.

A postcondition nests at most 64 levels (brackets, ``trans(``, ``inv(``,
unary ``-``), has a product weight of at most 12 (a name weighs 1, a
product the sum of its factors, another node its heaviest child) and at
most 64 operand references: a blocked product grows exponentially with its
length, and matching a sum permutes its terms.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Iterable, NamedTuple, Optional

from .expr import (
    _IDENT,
    _RESERVED as _EXPR_RESERVED,
    MAX_DEPTH,
    Dimension,
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
    _leaf_names,
    minus,
    normalize,
    plus,
    times,
    trans,
    inv,
)


class Property(str, enum.Enum):
    LOWER_TRIANGULAR = "lower_triangular"
    UPPER_TRIANGULAR = "upper_triangular"
    SYMMETRIC = "symmetric"
    SPD = "spd"
    DIAGONAL = "diagonal"
    GENERAL = "general"


#: properties that force a square matrix and constrain partitioning
STRUCTURAL = frozenset(
    {
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.SYMMETRIC,
        Property.SPD,
        Property.DIAGONAL,
    }
)

KIND_MATRIX = "matrix"
KIND_VECTOR = "vector"
KIND_SCALAR = "scalar"
ROLE_KNOWN = "known"
ROLE_UNKNOWN = "unknown"

_RESERVED = _EXPR_RESERVED | {
    "operation", "operand", "postcondition", "solve",
    "matrix", "vector", "scalar", "known", "unknown",
} | {p.value for p in Property}


class SpecError(ValueError):
    """Base class for operation-description errors."""


class SpecSyntaxError(SpecError):
    def __init__(self, message: str, line: int, col: int = 1) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SpecValidationError(SpecError):
    pass


#: bounds on a postcondition's product weight and operand references
MAX_WEIGHT, MAX_OCCURRENCES = 12, 64


class OperandDecl(NamedTuple):
    """One declared operand, or a pattern slot (a KB slot of any shape has
    no ``dims``).  An empty property set means general."""

    name: str
    kind: str
    dims: Optional[Dimension]
    io_role: str
    properties: frozenset[Property]

    @property
    def is_input(self) -> bool:
        return self.io_role == ROLE_KNOWN

    @property
    def is_output(self) -> bool:
        return self.io_role == ROLE_UNKNOWN

    @property
    def is_structured(self) -> bool:
        return bool(self.properties & STRUCTURAL)


class OperationSpec(NamedTuple):
    name: str
    operands: tuple[OperandDecl, ...]
    postcondition: Equation
    solution_operator: str

    def operand(self, name: str) -> OperandDecl:
        for d in self.operands:
            if d.name == name:
                return d
        raise KeyError(name)

    def inputs(self) -> tuple[OperandDecl, ...]:
        return tuple(d for d in self.operands if d.is_input)

    def outputs(self) -> tuple[OperandDecl, ...]:
        return tuple(d for d in self.operands if d.is_output)

    def known_names(self) -> frozenset[str]:
        return frozenset(d.name for d in self.inputs())


# ---------------------------------------------------------------------------
# validation shared by the parser and programmatic construction


def _validate_decl(decl: OperandDecl) -> OperandDecl:
    if not _IDENT.match(decl.name) or decl.name in _RESERVED:
        raise SpecValidationError(f"invalid operand name {decl.name!r}")
    props = set(decl.properties)
    props.discard(Property.GENERAL)
    if Property.SPD in props:
        props.add(Property.SYMMETRIC)
    exclusive = props & {
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.DIAGONAL,
    }
    if len(exclusive) > 1:
        shapes = sorted(p.value for p in exclusive)
        raise SpecValidationError(f"operand {decl.name}: conflicting shapes {shapes}")
    if props & STRUCTURAL:
        if decl.kind != KIND_MATRIX:
            raise SpecValidationError(f"operand {decl.name}: structural properties need a matrix")
        if decl.dims.rows != decl.dims.cols:
            raise SpecValidationError(
                f"operand {decl.name}: structural properties need square dimensions"
            )
    if decl.kind == KIND_VECTOR and decl.dims.cols != "1":
        raise SpecValidationError(f"operand {decl.name}: vectors have a single column")
    if decl.kind == KIND_SCALAR and decl.dims != Dimension("1", "1"):
        raise SpecValidationError(f"operand {decl.name}: scalars are 1 x 1")
    return OperandDecl(decl.name, decl.kind, decl.dims, decl.io_role, frozenset(props))


def build_spec(
    name: str,
    operands: Iterable[OperandDecl],
    postcondition: Equation,
    solution_operator: str,
) -> OperationSpec:
    """Validate and assemble a spec from already-built pieces."""
    decls = tuple(_validate_decl(d) for d in operands)
    return _assemble(name, decls, normalize(postcondition), solution_operator)


def _weight(e: Expression | Equation) -> int:
    """A product's weight sums its factors'; another node's is its heaviest child's."""
    kind = type(e)
    if kind is OperandRef:
        return 1
    if kind is SolvedBy:
        raise SpecValidationError("postconditions may not contain solution operators")
    weights = [_weight(c) for c in e.children()]
    return sum(weights) if kind is Times else max(weights, default=0)


def _assemble(
    name: str, decls: tuple[OperandDecl, ...], post: Equation, solution_operator: str
) -> OperationSpec:
    """The spec of validated operands and a normalized postcondition."""
    if not _IDENT.match(name):
        raise SpecValidationError(f"invalid operation name {name!r}")
    if not decls:
        raise SpecValidationError("an operation needs at least one operand")
    seen: set[str] = set()
    for d in decls:
        if d.name in seen:
            raise SpecValidationError(f"duplicate operand name {d.name}")
        seen.add(d.name)
    if not any(d.is_output for d in decls):
        raise SpecValidationError("an operation needs at least one unknown operand")
    if not _IDENT.match(solution_operator):
        raise SpecValidationError(f"invalid solution operator {solution_operator!r}")
    occurrences = list(_leaf_names(post))
    used = frozenset(occurrences)
    for n in sorted(used):
        if n not in seen:
            raise SpecValidationError(f"operand {n} used in postcondition but not declared")
    for d in decls:
        if d.name not in used:
            raise SpecValidationError(f"operand {d.name} declared but unused")
    for what, size, bound in (
        ("product weight", _weight(post), MAX_WEIGHT),
        ("operand occurrences", len(occurrences), MAX_OCCURRENCES),
    ):
        if size > bound:
            raise SpecValidationError(f"postcondition too large: {what} {size}, at most {bound}")
    return OperationSpec(name, decls, post, solution_operator)


# ---------------------------------------------------------------------------
# parser


# blanks (group 1), then a token (group 2) or a character that starts none
# (group 3); the matches tile the line up to its trailing blanks
_TOKEN = re.compile(r"([ \t]*)(?:([+\-*(),=:]|[A-Za-z][A-Za-z0-9_]*|1)|([^ \t]))")


def _lex(line: str, lineno: int) -> list[tuple[str, int]]:
    """Each token of ``line`` with its 1-based column."""
    toks: list[tuple[str, int]] = []
    col = 1
    for blanks, text, bad in _TOKEN.findall(line):
        col += len(blanks)
        if bad:
            raise SpecSyntaxError(f"unexpected character {bad!r}", lineno, col)
        toks.append((text, col))
        col += len(text)
    return toks


class _ExprParser:
    """Recursive-descent parser for postcondition expressions."""

    def __init__(self, toks: list[tuple[str, int]], lineno: int) -> None:
        self.toks = toks
        self.lineno = lineno
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[tuple[str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> tuple[str, int]:
        t = self.peek()
        if t is None:
            raise SpecSyntaxError("unexpected end of expression", self.lineno)
        self.i += 1
        return t

    def expect(self, text: str) -> tuple[str, int]:
        t = self.take()
        if t[0] != text:
            raise SpecSyntaxError(f"expected {text!r}, found {t[0]!r}", self.lineno, t[1])
        return t

    def equation(self) -> Equation:
        """``lhs = rhs`` over the remaining tokens."""
        lhs = self.expression()
        self.expect("=")
        rhs = self.expression()
        if (t := self.peek()) is not None:
            raise SpecSyntaxError(f"trailing input {t[0]!r}", self.lineno, t[1])
        return Equation(lhs, rhs)

    def expression(self) -> Expression:
        terms = [self.term()]
        while (t := self.peek()) is not None and t[0] in "+-":
            self.take()
            nxt = self.term()
            terms.append(minus(nxt) if t[0] == "-" else nxt)
        return plus(*terms)

    def term(self) -> Expression:
        factors = [self.factor()]
        while (t := self.peek()) is not None and t[0] == "*":
            self.take()
            factors.append(self.factor())
        return times(*factors)

    def factor(self) -> Expression:
        text, col = self.take()
        if text not in ("-", "(", "trans", "inv"):
            if _IDENT.match(text) and text not in _RESERVED:
                return OperandRef(text)
            raise SpecSyntaxError(f"unexpected token {text!r} in expression", self.lineno, col)
        # each of these opens one nesting level
        if self.depth == MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise SpecSyntaxError(message, self.lineno, col)
        self.depth += 1
        if text == "-":
            e = minus(self.factor())
        else:
            if text != "(":
                self.expect("(")
            e = self.expression()
            self.expect(")")
            e = trans(e) if text == "trans" else inv(e) if text == "inv" else e
        self.depth -= 1
        return e


def _parse_operand_line(toks: list[tuple[str, int]], lineno: int) -> OperandDecl:
    p = _ExprParser(toks, lineno)
    p.expect("operand")
    name = p.take()[0]
    p.expect(":")
    kind, kind_col = p.take()
    def dim_token() -> str:
        text, col = p.take()
        if not _IDENT.match(text) or text in _RESERVED:
            raise SpecSyntaxError(f"expected a size symbol, found {text!r}", lineno, col)
        return text

    if kind == KIND_MATRIX:
        p.expect("(")
        rows = dim_token()
        p.expect(",")
        cols = dim_token()
        p.expect(")")
        dims = Dimension(rows, cols)
    elif kind == KIND_VECTOR:
        p.expect("(")
        rows = dim_token()
        p.expect(")")
        dims = Dimension(rows, "1")
    elif kind == KIND_SCALAR:
        dims = Dimension("1", "1")
    else:
        raise SpecSyntaxError(f"expected matrix/vector/scalar, found {kind!r}", lineno, kind_col)
    p.expect(",")
    role, role_col = p.take()
    if role not in (ROLE_KNOWN, ROLE_UNKNOWN):
        raise SpecSyntaxError(f"expected known or unknown, found {role!r}", lineno, role_col)
    props: set[Property] = set()
    while p.peek() is not None:
        p.expect(",")
        prop_text, prop_col = p.take()
        try:
            prop = Property(prop_text)
        except ValueError:
            raise SpecSyntaxError(f"unknown property {prop_text!r}", lineno, prop_col) from None
        if prop is Property.GENERAL:
            raise SpecSyntaxError("general is implied by omitting properties", lineno, prop_col)
        props.add(prop)
    decl = OperandDecl(name, kind, dims, role, frozenset(props))
    try:
        return _validate_decl(decl)
    except SpecValidationError as exc:
        raise SpecSyntaxError(str(exc), lineno) from exc


def parse_equation(text: str) -> Equation:
    """Parse one ``lhs = rhs`` in the postcondition syntax."""
    return _ExprParser(_lex(text, 1), 1).equation()


def parse_operation(text: str) -> OperationSpec:
    """Parse one operation description; raises SpecError with positions."""
    name: Optional[str] = None
    operands: list[OperandDecl] = []
    post: Optional[Equation] = None
    post_line = 0
    solve: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _lex(line, lineno)
        head = toks[0][0]
        if head == "operation":
            if name is not None:
                raise SpecSyntaxError("duplicate operation line", lineno)
            if len(toks) != 2:
                raise SpecSyntaxError("expected: operation <name>", lineno)
            name = toks[1][0]
        elif head == "operand":
            if post is not None:
                raise SpecSyntaxError("operands must precede the postcondition", lineno)
            operands.append(_parse_operand_line(toks, lineno))
        elif head == "postcondition":
            if len(toks) < 2 or toks[1][0] != ":":
                raise SpecSyntaxError("expected: postcondition: <expr> = <expr>", lineno)
            post = _ExprParser(toks[2:], lineno).equation()
            post_line = lineno
        elif head == "solve":
            if len(toks) != 3 or toks[1][0] != ":":
                raise SpecSyntaxError("expected: solve: <OperatorName>", lineno)
            solve = toks[2][0]
        else:
            raise SpecSyntaxError(f"unexpected line starting with {head!r}", lineno)
    if name is None:
        raise SpecSyntaxError("missing operation line", 1)
    if post is None:
        raise SpecSyntaxError("missing postcondition", 1)
    if solve is None:
        raise SpecSyntaxError("missing solve line", 1)
    # each operand line is validated, and the parser's smart constructors
    # leave the postcondition normalized
    try:
        return _assemble(name, tuple(operands), post, solve)
    except SpecValidationError as exc:
        raise SpecSyntaxError(str(exc), post_line) from exc


# ---------------------------------------------------------------------------
# rendering


class _InfixStyle(NamedTuple):
    """What distinguishes one infix notation from another."""

    name: Callable[[str], str]
    operator: Callable[[str], str]
    product: str
    # children of a product, a negation or a postfix operator that need brackets
    bracketed: tuple[type, ...]
    brackets: tuple[str, str]
    # postfix marks for "trans", "inv" and their composition; None prints
    # transposes and inverses as calls, ``trans(x)`` and ``inv(x)``
    postfix: Optional[dict[str, str]]


def _latex_name(name: str) -> str:
    if "_" in name:
        base, suffix = name.split("_", 1)
        return f"{base}_{{{suffix}}}"
    return name


_OPERATOR_LATEX = {"Gamma": r"\Gamma", "Omega": r"\Omega"}

_TEXT = _InfixStyle(
    name=str,
    operator=str,
    product=" * ",
    bracketed=(Plus, Minus),
    brackets=("(", ")"),
    postfix=None,
)
_LATEX = _InfixStyle(
    name=_latex_name,
    operator=lambda op: _OPERATOR_LATEX.get(op, rf"\mathrm{{{op}}}"),
    product=" ",
    bracketed=(Plus, Times, Minus),
    brackets=(r"\left(", r"\right)"),
    postfix={"trans": "^{T}", "inv": "^{-1}", "inv trans": "^{-T}"},
)


def _infix(e: Expression, style: _InfixStyle) -> str:
    """Infix rendering; sums print positive terms before negated ones."""
    kind = type(e)
    if kind is OperandRef:
        return style.name(e.name)
    if kind is Zero:
        return "0"
    if kind is SolvedBy:
        args = ", ".join(_infix(a, style) for a in e.arguments)
        return f"{style.operator(e.operator_name)}({args})"
    if kind in (Transpose, Inverse):
        if style.postfix is None:
            return f"{e.head}({_infix(e.operand, style)})"
        inner, mark = e.operand, style.postfix[e.head]
        if {kind, type(inner)} == {Transpose, Inverse}:
            inner, mark = inner.operand, style.postfix["inv trans"]
        return _operand(inner, style) + mark
    if kind is Minus:
        return "-" + _operand(e.operand, style)
    if kind is Times:
        return style.product.join(_operand(f, style) for f in e.factors)
    pos = [t for t in e.terms if type(t) is not Minus]
    neg = [t.operand for t in e.terms if type(t) is Minus]
    parts = [_infix(t, style) for t in pos]
    head = " + ".join(parts) if parts else "-" + _infix(neg.pop(0), style)
    return head + "".join(" - " + _infix(t, style) for t in neg)


def _operand(e: Expression, style: _InfixStyle) -> str:
    text = _infix(e, style)
    if type(e) in style.bracketed:
        return style.brackets[0] + text + style.brackets[1]
    return text


def expr_to_text(e: Expression) -> str:
    """Plain-text infix form, the syntax of operation files."""
    return _infix(e, _TEXT)


def expr_to_latex(e: Expression) -> str:
    return _infix(e, _LATEX)


def equation_to_text(eq: Equation) -> str:
    return f"{expr_to_text(eq.lhs)} = {expr_to_text(eq.rhs)}"


def render_spec(spec: OperationSpec) -> str:
    """Emit DSL text; parsing it back yields an equal spec."""
    lines = [f"operation {spec.name}"]
    for d in spec.operands:
        if d.kind == KIND_MATRIX:
            kind = f"matrix({d.dims.rows},{d.dims.cols})"
        elif d.kind == KIND_VECTOR:
            kind = f"vector({d.dims.rows})"
        else:
            kind = "scalar"
        props = "".join(f" , {p.value}" for p in sorted(d.properties, key=lambda p: p.value))
        lines.append(f"  operand {d.name} : {kind} , {d.io_role}{props}")
    lines.append(f"  postcondition: {equation_to_text(spec.postcondition)}")
    lines.append(f"  solve: {spec.solution_operator}")
    return "\n".join(lines) + "\n"
