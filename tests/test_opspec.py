"""Parsing, validation and rendering of operation descriptions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmegen.expr import (
    Dimension,
    Equation,
    Inverse,
    Minus,
    OperandRef,
    Plus,
    SolvedBy,
    Times,
    Transpose,
    Zero,
    normalize,
    minus,
    operand_names,
    plus,
    ref,
    serialize,
    times,
    trans,
    walk,
)
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_SCALAR,
    KIND_VECTOR,
    MAX_OCCURRENCES,
    MAX_WEIGHT,
    OperandDecl,
    Property,
    ROLE_KNOWN,
    ROLE_UNKNOWN,
    SpecError,
    SpecSyntaxError,
    SpecValidationError,
    build_spec,
    equation_to_text,
    parse_equation,
    parse_operation,
    render_spec,
)

from conftest import load_op, random_spec


class TestParse:
    def test_cholesky(self, cholesky_spec):
        assert cholesky_spec.name == "cholesky"
        L, A = cholesky_spec.operands
        assert L.name == "L" and L.is_output
        assert L.properties == frozenset({Property.LOWER_TRIANGULAR})
        assert A.name == "A" and A.is_input
        # spd implies symmetric
        assert A.properties == frozenset({Property.SPD, Property.SYMMETRIC})
        assert A.dims == Dimension("m", "m")
        assert (
            serialize(cholesky_spec.postcondition)
            == "(eq (times L (trans L)) A)"
        )
        assert cholesky_spec.solution_operator == "Gamma"

    def test_sylvester(self, sylvester_spec):
        names = [d.name for d in sylvester_spec.operands]
        assert names == ["L", "U", "C", "X"]
        assert sylvester_spec.operand("U").properties == frozenset(
            {Property.UPPER_TRIANGULAR}
        )
        assert sylvester_spec.operand("X").is_output
        assert (
            serialize(sylvester_spec.postcondition)
            == "(eq (plus (times L X) (times X U)) C)"
        )
        assert sylvester_spec.solution_operator == "Omega"

    def test_trsm(self, trsm_spec):
        assert trsm_spec.operand("X").is_output
        assert (
            serialize(trsm_spec.postcondition)
            == "(eq (times X (trans L)) B)"
        )
        assert trsm_spec.solution_operator == "Trsm"

    def test_standard_symbols_covered(self):
        """The shipped examples exercise the usual operand and size names."""
        specs = [load_op(n) for n in ("cholesky", "sylvester", "trsm")]
        operand_names = {d.name for s in specs for d in s.operands}
        assert {"L", "U", "A", "C", "X", "B"} <= operand_names
        sizes = {
            d.dims.rows for s in specs for d in s.operands
        } | {d.dims.cols for s in specs for d in s.operands}
        assert {"m", "n"} <= sizes
        assert {s.solution_operator for s in specs} == {"Gamma", "Omega", "Trsm"}

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        operation plainassign

          operand X : matrix(m,n) , unknown   # trailing comment
          operand B : matrix(m,n) , known
          postcondition: X = B
          solve: Assign
        """
        spec = parse_operation(text)
        assert spec.name == "plainassign"


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        text = "operation bad\n  operand L ! matrix(m,m) , known\n"
        with pytest.raises(SpecSyntaxError) as err:
            parse_operation(text)
        assert "line 2" in str(err.value)

    def test_undeclared_operand(self):
        text = (
            "operation bad\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  postcondition: X = B\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="not declared"):
            parse_operation(text)

    def test_duplicate_operand(self):
        text = (
            "operation bad\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  operand X : matrix(m,n) , known\n"
            "  postcondition: X = X\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="duplicate"):
            parse_operation(text)

    def test_property_kind_conflict(self):
        text = (
            "operation bad\n"
            "  operand v : vector(m) , known , lower_triangular\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  postcondition: X = v\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="matrix"):
            parse_operation(text)

    def test_conflicting_shapes(self):
        text = (
            "operation bad\n"
            "  operand A : matrix(m,m) , known , lower_triangular , upper_triangular\n"
            "  operand X : matrix(m,m) , unknown\n"
            "  postcondition: X = A\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="conflicting"):
            parse_operation(text)

    def test_structural_property_needs_square(self):
        text = (
            "operation bad\n"
            "  operand A : matrix(m,n) , known , symmetric\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  postcondition: X = A\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="square"):
            parse_operation(text)

    def test_unused_operand_rejected(self):
        text = (
            "operation bad\n"
            "  operand A : matrix(m,m) , known\n"
            "  operand B : matrix(m,m) , known\n"
            "  operand X : matrix(m,m) , unknown\n"
            "  postcondition: X = A\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="unused"):
            parse_operation(text)

    def test_no_output_operand(self):
        text = (
            "operation bad\n"
            "  operand A : matrix(m,m) , known\n"
            "  postcondition: A = A\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecError, match="unknown operand"):
            parse_operation(text)

    def test_missing_sections(self):
        with pytest.raises(SpecSyntaxError, match="postcondition"):
            parse_operation("operation x\n  operand A : scalar , unknown\n  solve: S\n")


# pieces of the malformed operation files below
_HEAD = "operation t\n"
_DECL_A = "  operand A : matrix(m,m) , known\n"
_DECL_X = "  operand X : matrix(m,m) , unknown\n"
_POST = "  postcondition: X = A\n"
_SOLVE = "  solve: S\n"

# the exact message of each malformed file, position included: a change to
# the lexer or to how a parsed spec is assembled must keep every byte
_MALFORMED = [
    pytest.param(
        "!operation t\n",
        "line 1, column 1: unexpected character '!'",
        id="bad-char-col1",
    ),
    pytest.param(
        _HEAD + "\toperand ? : matrix(m,m) , known\n",
        "line 2, column 10: unexpected character '?'",
        id="bad-char-after-tab",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + " \t \tpostcondition: X = A %\n",
        "line 4, column 26: unexpected character '%'",
        id="bad-char-after-tabs-and-blanks",
    ),
    pytest.param(
        "operation t$\n",
        "line 1, column 12: unexpected character '$'",
        id="bad-char-after-token",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m;m) , known\n",
        "line 2, column 23: unexpected character ';'",
        id="bad-char-in-dims",
    ),
    pytest.param(
        _HEAD + "  operand A : tensor(m,m) , known\n",
        "line 2, column 15: expected matrix/vector/scalar, found 'tensor'",
        id="unknown-kind",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) , input\n",
        "line 2, column 29: expected known or unknown, found 'input'",
        id="unknown-role",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) , known , banded\n",
        "line 2, column 37: unknown property 'banded'",
        id="unknown-property",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) , known , general\n",
        "line 2, column 37: general is implied by omitting properties",
        id="general-property",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix m,m) , known\n",
        "line 2, column 22: expected '(', found 'm'",
        id="missing-open-paren",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m m) , known\n",
        "line 2, column 24: expected ',', found 'm'",
        id="missing-comma-in-dims",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) known\n",
        "line 2, column 27: expected ',', found 'known'",
        id="missing-comma-before-role",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m , known\n",
        "line 2, column 26: expected ')', found ','",
        id="missing-close-paren-dims",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: trans(X = A\n" + _SOLVE,
        "line 4, column 26: expected ')', found '='",
        id="missing-close-paren-expr",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) , known spd\n",
        "line 2, column 35: expected ',', found 'spd'",
        id="missing-comma-after-role",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,known) , known\n",
        "line 2, column 24: expected a size symbol, found 'known'",
        id="reserved-size-symbol",
    ),
    pytest.param(
        _HEAD + "  operand trans : matrix(m,m) , known\n",
        "line 2, column 1: invalid operand name 'trans'",
        id="reserved-operand-name",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,m) ,\n",
        "line 2, column 1: unexpected end of expression",
        id="operand-line-ends-early",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X = A A\n" + _SOLVE,
        "line 4, column 24: trailing input 'A'",
        id="trailing-input",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X = A)\n" + _SOLVE,
        "line 4, column 23: trailing input ')'",
        id="trailing-close-paren",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X = A +\n" + _SOLVE,
        "line 4, column 1: unexpected end of expression",
        id="expression-ends-early",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X A\n" + _SOLVE,
        "line 4, column 20: expected '=', found 'A'",
        id="missing-equals",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X = 1\n" + _SOLVE,
        "line 4, column 22: unexpected token '1' in expression",
        id="one-in-expression",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition: X = known\n" + _SOLVE,
        "line 4, column 22: unexpected token 'known' in expression",
        id="keyword-in-expression",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  postcondition X = A\n" + _SOLVE,
        "line 4, column 1: expected: postcondition: <expr> = <expr>",
        id="postcondition-without-colon",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + _POST + "  solve: S T\n",
        "line 5, column 1: expected: solve: <OperatorName>",
        id="solve-malformed",
    ),
    pytest.param(
        _HEAD + _DECL_A + "operation u\n",
        "line 3, column 1: duplicate operation line",
        id="duplicate-operation-line",
    ),
    pytest.param(
        "operation t u\n",
        "line 1, column 1: expected: operation <name>",
        id="operation-line-malformed",
    ),
    pytest.param(
        _HEAD + _DECL_X + _POST + _DECL_A + _SOLVE,
        "line 4, column 1: operands must precede the postcondition",
        id="operand-after-postcondition",
    ),
    pytest.param(
        _HEAD + "  oprand A : matrix(m,m) , known\n",
        "line 2, column 1: unexpected line starting with 'oprand'",
        id="unexpected-line",
    ),
    pytest.param(
        _DECL_A + _DECL_X + _POST + _SOLVE,
        "line 1, column 1: missing operation line",
        id="missing-operation-line",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + _SOLVE,
        "line 1, column 1: missing postcondition",
        id="missing-postcondition",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + _POST,
        "line 1, column 1: missing solve line",
        id="missing-solve-line",
    ),
    pytest.param(
        "# only a comment\n\n",
        "line 1, column 1: missing operation line",
        id="empty-text",
    ),
    pytest.param(
        _HEAD + _DECL_X + _POST + _SOLVE,
        "line 3, column 1: operand A used in postcondition but not declared",
        id="undeclared-operand",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  operand B : matrix(m,m) , known\n" + _POST + _SOLVE,
        "line 5, column 1: operand B declared but unused",
        id="unused-operand",
    ),
    pytest.param(
        _HEAD + "  operand A : matrix(m,n) , known , spd\n" + _DECL_X + _POST + _SOLVE,
        "line 2, column 1: operand A: structural properties need square dimensions",
        id="structural-needs-square",
    ),
    pytest.param(
        "operation t\u00e9\n",
        "line 1, column 12: unexpected character 'é'",
        id="non-ascii-after-token",
    ),
    pytest.param(
        "operation 1\n" + _DECL_A + _DECL_X + _POST + _SOLVE,
        "line 4, column 1: invalid operation name '1'",
        id="invalid-operation-name",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + _POST + "  solve: 1\n",
        "line 4, column 1: invalid solution operator '1'",
        id="invalid-solution-operator",
    ),
    pytest.param(
        _HEAD + _DECL_A + _DECL_X + "  operand A : matrix(m,m) , known\n" + _POST + _SOLVE,
        "line 5, column 1: duplicate operand name A",
        id="duplicate-operand",
    ),
    pytest.param(
        _HEAD + _DECL_A + "  postcondition: A = A\n" + _SOLVE,
        "line 3, column 1: an operation needs at least one unknown operand",
        id="no-unknown-operand",
    ),
    pytest.param(
        _HEAD + _POST + _SOLVE,
        "line 2, column 1: an operation needs at least one operand",
        id="no-operands",
    ),
    pytest.param(
        _HEAD
        + "  operand a : scalar , known , diagonal\n"
        + "  operand x : scalar , unknown\n  postcondition: x = a\n"
        + _SOLVE,
        "line 2, column 1: operand a: structural properties need a matrix",
        id="scalar-structural",
    ),
]


@pytest.mark.parametrize("text, message", _MALFORMED)
def test_error_message_exact(text, message):
    with pytest.raises(SpecError) as err:
        parse_operation(text)
    assert str(err.value) == message

class TestRender:
    @pytest.mark.parametrize("name", ["cholesky", "sylvester", "trsm"])
    def test_round_trip_shipped_ops(self, name):
        spec = load_op(name)
        text = render_spec(spec)
        again = parse_operation(text)
        assert again == spec
        assert render_spec(again) == text

    def test_round_trip_all_property_kinds(self):
        ops = [
            OperandDecl("A", KIND_MATRIX, Dimension("m", "m"), ROLE_KNOWN,
                        frozenset({Property.SPD})),
            OperandDecl("D", KIND_MATRIX, Dimension("m", "m"), ROLE_KNOWN,
                        frozenset({Property.DIAGONAL})),
            OperandDecl("U", KIND_MATRIX, Dimension("m", "m"), ROLE_KNOWN,
                        frozenset({Property.UPPER_TRIANGULAR})),
            OperandDecl("X", KIND_MATRIX, Dimension("m", "m"), ROLE_UNKNOWN,
                        frozenset({Property.LOWER_TRIANGULAR})),
        ]
        post = Equation(
            times(ref("X"), ref("D")), times(ref("A"), trans(ref("U")))
        )
        spec = build_spec("mixed", ops, post, "Theta")
        text = render_spec(spec)
        assert parse_operation(text) == spec

    def test_empty_operand_list_rejected(self):
        with pytest.raises(SpecValidationError):
            build_spec("empty", [], Equation(ref("X"), ref("B")), "S")

    def test_vector_and_scalar_render(self):
        text = (
            "operation vecscale\n"
            "  operand a : scalar , known\n"
            "  operand v : vector(m) , known\n"
            "  operand x : vector(m) , unknown\n"
            "  postcondition: a * x = v\n"
            "  solve: Scale\n"
        )
        spec = parse_operation(text)
        assert spec.operand("v").dims == Dimension("m", "1")
        assert spec.operand("a").dims == Dimension("1", "1")
        assert parse_operation(render_spec(spec)) == spec

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_random_specs(self, seed):
        spec = random_spec(np.random.default_rng(seed))
        assert parse_operation(render_spec(spec)) == spec


def _flat(cls, kids):
    flat = []
    for k in kids:
        flat.extend(k.children() if isinstance(k, cls) else [k])
    return cls(tuple(flat)) if len(flat) >= 2 else flat[0]


# trees of the nodes an operation file can write, not yet normalized
_written = st.recursive(
    st.sampled_from("ABC").map(OperandRef),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: _flat(Plus, ts)),
        st.lists(kids, min_size=2, max_size=3).map(lambda fs: _flat(Times, fs)),
        kids.map(Minus),
        kids.map(Transpose),
        kids.map(Inverse),
    ),
    max_leaves=12,
)


def _depth(e):
    return 1 + max(map(_depth, e.children()), default=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_written, _written, st.booleans())
def test_parsed_postcondition_is_normal(e1, e2, normal_first):
    # the parser builds through the smart constructors, so what it returns
    # is already normal and the spec needs no second normalization.  The
    # text is that of a normalized tree, or of the tree as drawn, which
    # writes what normal trees never show, such as ``-(A + B)`` or ``--A``
    assume(_depth(e1) <= 20 and _depth(e2) <= 20)
    if normal_first:
        e1, e2 = normalize(e1), normalize(e2)
        assume(not any(isinstance(n, Zero) for e in (e1, e2) for n in walk(e)))
    text = equation_to_text(Equation(_flat(Plus, [ref("X"), e1]), e2))
    eq = parse_equation(text)
    names = sorted(operand_names(eq.lhs) | operand_names(eq.rhs))
    spec_text = "operation t\n" + "".join(
        f"  operand {n} : matrix(m,m) , {'unknown' if n == 'X' else 'known'}\n" for n in names
    ) + f"  postcondition: {text}\n  solve: S\n"
    parsed = parse_operation(spec_text).postcondition
    assert serialize(normalize(parsed)) == serialize(parsed)


class TestSizeBounds:
    def _spec(self, post):
        decls = [
            OperandDecl("A", KIND_MATRIX, Dimension("m", "m"), ROLE_KNOWN, frozenset()),
            OperandDecl("X", KIND_MATRIX, Dimension("m", "m"), ROLE_UNKNOWN, frozenset()),
        ]
        return build_spec("big", decls, post, "S")

    def test_product_weight(self):
        chain = [ref("A")] * MAX_WEIGHT
        assert self._spec(Equation(ref("X"), times(*chain)))
        # a sum weighs as its heaviest term, and negation changes nothing
        post = Equation(ref("X"), plus(times(*chain), minus(times(ref("A"), trans(ref("A"))))))
        assert self._spec(post)
        with pytest.raises(SpecValidationError, match="product weight 13, at most 12"):
            self._spec(Equation(ref("X"), times(*chain, ref("A"))))
        with pytest.raises(SpecValidationError, match="product weight 13, at most 12"):
            self._spec(Equation(times(*chain, ref("X")), ref("A")))

    def test_operand_occurrences(self):
        terms = [ref("A")] * (MAX_OCCURRENCES - 1)
        assert self._spec(Equation(ref("X"), plus(*terms)))
        with pytest.raises(SpecValidationError, match="operand occurrences 65, at most 64"):
            self._spec(Equation(ref("X"), plus(*terms, ref("A"))))

    def test_parsed_past_bound_names_postcondition_line(self):
        text = (
            "operation big\n"
            "  operand A : matrix(m,m) , known\n"
            "  operand X : matrix(m,m) , unknown\n"
            "\n"
            "  postcondition: X = " + " * ".join(["A"] * 13) + "\n"
            "  solve: S\n"
        )
        with pytest.raises(SpecSyntaxError) as err:
            parse_operation(text)
        assert str(err.value) == (
            "line 5, column 1: postcondition too large: product weight 13, at most 12"
        )


class TestBuildSpecGuards:
    """What ``build_spec`` rejects that the parser never builds."""

    def _decl(self, name, kind, rows, cols, role=ROLE_KNOWN):
        return OperandDecl(name, kind, Dimension(rows, cols), role, frozenset())

    def test_vector_with_two_columns(self):
        decls = [
            self._decl("x", KIND_VECTOR, "m", "n", ROLE_UNKNOWN),
            self._decl("b", KIND_VECTOR, "m", "1"),
        ]
        with pytest.raises(SpecValidationError) as err:
            build_spec("v", decls, Equation(ref("x"), ref("b")), "S")
        assert str(err.value) == "operand x: vectors have a single column"

    def test_scalar_of_m_rows(self):
        decls = [
            self._decl("a", KIND_SCALAR, "m", "1"),
            self._decl("x", KIND_MATRIX, "m", "m", ROLE_UNKNOWN),
        ]
        with pytest.raises(SpecValidationError) as err:
            build_spec("s", decls, Equation(ref("x"), ref("a")), "S")
        assert str(err.value) == "operand a: scalars are 1 x 1"

    def test_solution_operator_in_postcondition(self):
        decls = [
            self._decl("A", KIND_MATRIX, "m", "m"),
            self._decl("X", KIND_MATRIX, "m", "m", ROLE_UNKNOWN),
        ]
        post = Equation(ref("X"), SolvedBy("F", (ref("A"),)))
        with pytest.raises(SpecValidationError) as err:
            build_spec("f", decls, post, "S")
        assert str(err.value) == "postconditions may not contain solution operators"
