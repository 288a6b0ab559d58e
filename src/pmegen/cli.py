"""Command-line front end: derive PMEs, check them numerically, manage patterns.

Commands::

    pmegen derive <file.op> [--kb PATH] [--ops-dir DIR] [--format text|latex|json]
                  [--learn] [--combination N] [--no-builtin NAME]...
    pmegen check <file.op> <pme.json> [--trials N] [--seed S] [--tolerance T]
    pmegen kb list|show <name> [--kb PATH]

The environment variable ``PME_KB`` supplies the default knowledge-base
path.  Exit codes: 0 success, 1 parse error, unsupported operation,
malformed knowledge base, or a file that cannot be read, decoded or
written, 2 no viable partitionings, 3 stuck derivation, 4 failed or
impossible numeric check, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Any, Callable, Optional, Sequence

from . import engine
from .binding import (
    BindingError,
    NoViablePartitioningsError,
    PartitionRule,
    RuleCombination,
    _combinations,
    analyze,
)
from .blockarith import (
    STATUS_SOLVED,
    STATUS_STAR,
    STATUS_UNSOLVED,
    BlockedOperand,
    QuadrantEquation,
    operand_blockings,
    position_names,
    raw_blocked_equations,
)
from .engine import (
    PME,
    CombinationRangeError,
    KnowledgeBaseError,
    PatternConflictError,
    StuckDerivation,
)
from .expr import operand_names, parse_prefix_equation, serialize
from .opspec import (
    OperationSpec,
    SpecError,
    equation_to_text,
    expr_to_latex,
    parse_operation,
)


EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_VIABLE = 2
EXIT_STUCK = 3
EXIT_CHECK_FAILED = 4
EXIT_USAGE = 64

# The exit code of each failure that ends a command, tried in order:
# NoViablePartitioningsError is a BindingError, so it comes first.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (NoViablePartitioningsError, EXIT_NO_VIABLE),
    (SpecError, EXIT_PARSE),
    (BindingError, EXIT_PARSE),
    (KnowledgeBaseError, EXIT_PARSE),
    (PatternConflictError, EXIT_PARSE),
    (OSError, EXIT_PARSE),
    (UnicodeDecodeError, EXIT_PARSE),
    (CombinationRangeError, EXIT_USAGE),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" or "-inf" as an unknown option and reports
        # a missing value; taking every negative number as a value lets the
        # option's own check name the problem
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _non_negative(kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type: a ``kind`` number that is at least zero (not nan)."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        # the negated test also rejects nan
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must not be negative or nan: {text}")
        return value

    return parse


def _directory(text: str) -> str:
    """An argparse type: the path of an existing directory."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"not a directory: {text!r}")
    return text


# ---------------------------------------------------------------------------
# rendering


def _cell_text(q: QuadrantEquation) -> str:
    if q.status == STATUS_STAR:
        return "*"
    return equation_to_text(q.equation)


def _cell_latex(q: QuadrantEquation) -> str:
    if q.status == STATUS_STAR:
        return r"\star"
    return expr_to_latex(q.equation.lhs) + " = " + expr_to_latex(q.equation.rhs)


def render_combination(combo: RuleCombination) -> list[str]:
    lines = [f"combination {combo.index}:"]
    for name, rule in combo.rules:
        axes = (("rows", rule.split_rows), ("cols", rule.split_cols))
        splits = ", ".join(f"{axis} {k}" for axis, k in axes if k is not None)
        lines.append(f"  {name}: {rule.shape}" + (f" ({splits})" if splits else ""))
    return lines


def render_pme_text(pme: PME) -> list[str]:
    lines = [f"PME (combination {pme.combination.index}):"]
    texts = [[_cell_text(q) for q in row] for row in pme.cells]
    ncols = len(texts[0])
    widths = [max(len(row[j]) for row in texts) for j in range(ncols)]
    for row in texts:
        padded = [cell.ljust(widths[j]) for j, cell in enumerate(row)]
        lines.append("  [ " + " | ".join(padded).rstrip() + " ]")
    return lines


def render_pme_latex(pme: PME) -> list[str]:
    _, nc = pme.shape
    spec = "|".join("c" * nc)
    lines = [rf"\left( \begin{{array}}{{{spec}}}"]
    body_rows = [" & ".join(_cell_latex(q) for q in row) for row in pme.cells]
    lines.append(" \\\\ \\hline\n".join(body_rows))
    lines.append(r"\end{array} \right)")
    return lines


def pme_to_json_dict(pme: PME) -> dict:
    return {
        "operation": pme.operation,
        "combination": {
            "index": pme.combination.index,
            "rules": [
                {
                    "operand": name,
                    "shape": rule.shape,
                    "split_rows": rule.split_rows,
                    "split_cols": rule.split_cols,
                }
                for name, rule in pme.combination.rules
            ],
            "group_choices": [list(c) for c in pme.combination.group_choices],
        },
        "row_sizes": list(pme.row_sizes),
        "col_sizes": list(pme.col_sizes),
        "cells": [
            {
                "position": q.position,
                "status": q.status,
                "partner": q.partner,
                "equation": serialize(q.equation),
            }
            for row in pme.cells
            for q in row
        ],
        "order": list(pme.order),
    }


def _rule_from_json(r: dict) -> PartitionRule:
    """A PME document's rule; its ``shape`` must agree with its splits."""
    rule = PartitionRule(r["operand"], r["split_rows"], r["split_cols"])
    shape = r["shape"]
    if shape not in ("1x1", "1x2", "2x1", "2x2"):
        raise ValueError(f"unknown shape {shape!r} for {rule.operand}")
    for axis, want, got in zip(("rows", "cols"), shape[::2], rule.shape[::2]):
        if want != got:
            raise ValueError(f"{shape} rule for {rule.operand}: split_{axis} mismatch")
    return rule


def _field(record: dict, key: str, kind: type, objects: bool = False) -> Any:
    """``record[key]``, which must be a ``kind`` (a dict or a list); with
    ``objects``, a list of dicts.  A wrong type is named with the field."""
    value = record[key]
    if not isinstance(value, kind) or objects and not all(isinstance(v, dict) for v in value):
        what = "an object" if kind is dict else "a list of objects" if objects else "a list"
        raise ValueError(f"{key!r} must be {what}")
    return value


def pme_from_json_dict(doc: dict) -> PME:
    combo = _field(doc, "combination", dict)
    rules = tuple((r["operand"], _rule_from_json(r)) for r in _field(combo, "rules", list, True))
    combination = RuleCombination(
        index=int(combo["index"]),
        rules=rules,
        group_choices=tuple((int(g), str(c)) for g, c in _field(combo, "group_choices", list)),
    )
    row_sizes = tuple(_field(doc, "row_sizes", list))
    col_sizes = tuple(_field(doc, "col_sizes", list))
    names = position_names(len(row_sizes), len(col_sizes))
    by_pos = {}
    for c in _field(doc, "cells", list, True):
        if c["status"] not in (STATUS_UNSOLVED, STATUS_SOLVED, STATUS_STAR):
            raise ValueError(f"unknown cell status {c['status']!r}")
        by_pos[c["position"]] = QuadrantEquation(
            position=c["position"],
            equation=parse_prefix_equation(c["equation"]),
            status=c["status"],
            partner=c["partner"],
        )
    if len(doc["cells"]) != len(row_sizes) * len(col_sizes) or any(
        n not in by_pos for row in names for n in row
    ):
        raise ValueError("cells must hold one cell per position of the grid")
    cells = tuple(
        tuple(by_pos[names[i][j]] for j in range(len(col_sizes)))
        for i in range(len(row_sizes))
    )
    return PME(
        operation=doc["operation"],
        combination=combination,
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        cells=cells,
        order=tuple(_field(doc, "order", list)),
    )


def _resolve_pme(
    pme: PME, spec: OperationSpec, blocks: Optional[dict[str, BlockedOperand]]
) -> dict[str, BlockedOperand]:
    """``blocks``, the blocked operands of the spec's combination equal to
    ``pme``'s by name, once the PME's layout is that blocking's.

    The PME must be one of ``spec``'s, its combination must exist, the
    block sizes be those of its grid, every cell may name only blocks of
    its blocking, and ``order`` must list distinct solved positions.
    """
    if pme.operation != spec.name:
        raise ValueError(f"PME of operation {pme.operation} given for operation {spec.name}")
    combo = pme.combination
    if blocks is None:
        raise ValueError(
            f"PME combination {combo.index} is not one that "
            f"operation {spec.name} enumerates"
        )
    grid = raw_blocked_equations(spec, blocks)
    sizes = (list(pme.row_sizes), list(pme.col_sizes))
    if sizes != (list(grid.row_sizes), list(grid.col_sizes)):
        raise ValueError(
            f"PME combination {combo.index}: block sizes {sizes[0]} x {sizes[1]} "
            f"are not its blocking's {list(grid.row_sizes)} x {list(grid.col_sizes)}"
        )
    names = {n for b in blocks.values() for n in b.dims}
    for q in pme.all_cells():
        for name in sorted(operand_names(q.equation)):
            if name not in names:
                raise ValueError(
                    f"PME combination {combo.index}: cell {q.position} names {name}, "
                    f"which is not a block of its blocking"
                )
    solved = [q.position for q in pme.all_cells() if q.status == STATUS_SOLVED]
    if any(p not in solved for p in pme.order) or len(set(pme.order)) != len(pme.order):
        raise ValueError(
            f"PME combination {combo.index}: order {list(pme.order)} "
            f"must list distinct solved positions"
        )
    return blocks


def document_to_json(operation: str, pmes: Sequence[PME]) -> str:
    import json

    doc = {"operation": operation, "pmes": [pme_to_json_dict(p) for p in pmes]}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# commands


def _load_spec(path: str) -> OperationSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_operation(fh.read())


def _kb_path(args: argparse.Namespace) -> Optional[str]:
    return args.kb or os.environ.get("PME_KB") or None


def cmd_derive(args: argparse.Namespace) -> int:
    spec = _load_spec(args.op_file)
    kb_path = _kb_path(args)
    kb = engine.load_kb(kb_path)
    for name in args.no_builtin:
        if len(kb.without_builtins([name]).builtins) == len(kb.builtins):
            print(f"error: --no-builtin {name}: no such builtin or family", file=sys.stderr)
            return EXIT_USAGE
    kb = kb.without_builtins(args.no_builtin)
    selection = engine.derive_each(
        spec, kb, ops_dir=args.ops_dir, combination=args.combination
    )
    total = len(selection)
    results = [r for r in selection if r is not None]

    pmes: list[PME] = []
    stuck: list[str] = []
    header = f"combinations: {total}"
    if len(results) != total:
        header += f" (selected: {args.combination})"
    out: list[str] = [f"operation {spec.name}", header]
    for result in results:
        out.append("")
        out.extend(render_combination(result.combination))
        if isinstance(result, StuckDerivation):
            lines = [f"combination {result.combination.index}: stuck"]
            for q in result.unsolved:
                lines.append(f"  unsolved {q.position}: {equation_to_text(q.equation)}")
            for note in result.notes:
                lines.append(f"  note: {note}")
            stuck.extend(lines)
            out.extend(lines)
            continue
        pmes.append(result)
        if args.format == "text":
            out.extend(render_pme_text(result))
        elif args.format == "latex":
            out.append(f"PME (combination {result.combination.index}):")
            out.extend(render_pme_latex(result))
    if args.format == "json":
        # stdout stays machine-readable; diagnostics go to stderr
        print(document_to_json(spec.name, pmes))
        for line in stuck:
            print(line, file=sys.stderr)
    else:
        print("\n".join(out))
    if args.learn and pmes:
        if not kb_path:
            print("error: --learn needs --kb or PME_KB", file=sys.stderr)
            return EXIT_USAGE
        # only learning writes the KB; save_kb replaces the file, so the
        # lock is held on a sidecar that outlives every replacement
        import fcntl

        with open(kb_path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            engine.save_kb(engine.learn(spec, engine.load_kb(kb_path)), kb_path)
    # mirrors the aggregate error of the library pipeline: stuck only
    # when no selected combination could be completed
    return EXIT_STUCK if stuck and not pmes else EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    # the numeric oracle, and numpy with it, is loaded for this command only
    import json

    from . import oracle

    spec = _load_spec(args.op_file)
    try:
        with open(args.pme_json, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("a PME document must be an object")
        records = _field(doc, "pmes", list, True) if "pmes" in doc else [doc]
        pmes = [pme_from_json_dict(d) for d in records]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: cannot read {args.pme_json}: {reason}", file=sys.stderr)
        return EXIT_PARSE
    # the spec decides the blocking: every PME matches it before any trial;
    # the spec is analyzed once, and each operand blocked once per rule
    analysis = analyze(spec) if pmes else None
    combos = _combinations(spec, analysis) if analysis else ()
    own = [next((c for c in combos if c == p.combination), None) for p in pmes]
    blockings = operand_blockings(spec, analysis, [c for c in own if c]) if analysis else {}
    try:
        checks = [(p, _resolve_pme(p, spec, blockings.get(c))) for p, c in zip(pmes, own)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    failed = False
    for pme, blocks in checks:
        try:
            report = oracle._check_pme(
                pme, spec, args.trials, args.tolerance, args.seed, blocks
            )
        except oracle.OracleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if args.trials:
            print(report.render())
        failed = failed or not report.ok
    if args.trials == 0:
        print("warning: trials=0, nothing checked")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_kb(args: argparse.Namespace) -> int:
    kb = engine.load_kb(_kb_path(args))
    if args.action == "list":
        for p in kb.builtins:
            print(f"{p.name} (builtin)")
        for p in kb.learned:
            print(f"{p.name} (learned)")
        return EXIT_OK
    if not args.name:
        print("error: kb show needs a pattern name", file=sys.stderr)
        return EXIT_USAGE
    pattern = kb.get(args.name)
    if pattern is None:
        print(f"error: no pattern named {args.name}", file=sys.stderr)
        return EXIT_PARSE
    print(f"pattern {pattern.name}")
    print(f"  provenance: {pattern.provenance}")
    print(f"  solve: {pattern.solution_operator or '-'}")
    print("  slots:")
    for s in pattern.slots:
        props = ", ".join(sorted(p.value for p in s.properties))
        suffix = f", {props}" if props else ""
        print(f"    {s.name}: {s.kind}, {s.io_role}{suffix}")
    print(f"  postcondition: {equation_to_text(pattern.template)}")
    print(f"  solved: {equation_to_text(pattern.solved)}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pmegen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="derive PMEs for an operation file")
    p_derive.add_argument("op_file")
    p_derive.add_argument("--kb", default=None)
    p_derive.add_argument("--ops-dir", type=_directory, default=None)
    p_derive.add_argument(
        "--format", choices=("text", "latex", "json"), default="text"
    )
    p_derive.add_argument("--learn", action="store_true")
    p_derive.add_argument("--combination", type=int, default=None)
    p_derive.add_argument("--no-builtin", action="append", default=[])
    p_derive.set_defaults(func=cmd_derive)

    p_check = sub.add_parser("check", help="numerically verify PMEs")
    p_check.add_argument("op_file")
    p_check.add_argument("pme_json")
    p_check.add_argument("--trials", type=_non_negative(int), default=50)
    p_check.add_argument("--seed", type=_non_negative(int), default=0)
    p_check.add_argument("--tolerance", type=_non_negative(float), default=1e-8)
    p_check.set_defaults(func=cmd_check)

    p_kb = sub.add_parser("kb", help="inspect the pattern knowledge base")
    p_kb.add_argument("action", choices=("list", "show"))
    p_kb.add_argument("name", nargs="?", default=None)
    p_kb.add_argument("--kb", default=None)
    p_kb.set_defaults(func=cmd_kb)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
