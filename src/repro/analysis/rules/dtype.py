"""dtype-promotion: float needles must not probe int64 haystacks.

``np.searchsorted(int64_store, float_needle)`` silently promotes the
store to float64, which rounds integers beyond 2**53 -- range bounds
land on the wrong row.  A bound changes domain in one place,
``repro.storage.dtypes.normalise_range``; below it every layer takes
keys already in the column's domain (typed ``Key``), so a ``float``
reaching a probe is a bound that skipped the normaliser.

The rule walks each function in source order, tracking which local
names are float-typed (float parameter annotations, ``float(...)`` /
``np.ceil(...)`` results, float constants; reassignment from anything
else clears the mark), and flags:

* ``searchsorted`` calls whose needle is float-typed while the
  haystack is not provably float;
* ``numpy.less/less_equal/greater/greater_equal`` calls with exactly
  one float-typed operand;
* raw ``<``/``<=``/``>``/``>=`` comparisons where one side is
  float-typed and the other carries int64-array evidence (an
  ``.astype(int64)`` result or ``dtype=int64`` construction).

The tracking is linear and path-insensitive -- branch assignments are
treated as having happened: a conversion *before* the probe, on every
path, clears the mark.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.astutil import import_aliases, resolve_call_name
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import LintContext
    from repro.analysis.source import SourceFile

RULE_ID = "dtype-promotion"

_FLOAT_RETURNING = frozenset(
    {"float", "numpy.float64", "numpy.ceil", "numpy.floor", "numpy.trunc"}
)
_FLOAT_DTYPES = frozenset({"float", "numpy.float64", "numpy.float32"})
_INT_DTYPES = frozenset({"int", "numpy.int64", "numpy.int32", "numpy.intp"})
_ARRAY_CTORS = frozenset(
    {
        "numpy.asarray",
        "numpy.array",
        "numpy.full",
        "numpy.empty",
        "numpy.zeros",
        "numpy.ones",
        "numpy.arange",
    }
)
_COMPARE_CALLS = frozenset(
    {"numpy.less", "numpy.less_equal", "numpy.greater", "numpy.greater_equal"}
)


def _annotation_is_float(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "float"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "float"
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        # float | None and friends
        return _annotation_is_float(annotation.left) or _annotation_is_float(
            annotation.right
        )
    return False


def _dtype_keyword(node: ast.Call, aliases: dict[str, str]) -> str | None:
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            return resolve_call_name(keyword.value, aliases)
    return None


class _FunctionScan:
    """Linear, source-ordered float/int tracking for one function."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        aliases: dict[str, str],
        src: "SourceFile",
        findings: list[Finding],
    ) -> None:
        self.aliases = aliases
        self.src = src
        self.findings = findings
        self.float_names: set[str] = set()
        self.int_array_names: set[str] = set()
        args = func.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _annotation_is_float(arg.annotation):
                self.float_names.add(arg.arg)

    # -- classification ------------------------------------------------

    def is_float(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return node.id in self.float_names
        if isinstance(node, ast.Call):
            resolved = resolve_call_name(node.func, self.aliases)
            if resolved in _FLOAT_RETURNING:
                return True
            if resolved in _ARRAY_CTORS:
                return _dtype_keyword(node, self.aliases) in _FLOAT_DTYPES
            return False
        if isinstance(node, ast.BinOp):
            return self.is_float(node.left) or self.is_float(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.is_float(node.operand)
        if isinstance(node, ast.IfExp):
            return self.is_float(node.body) or self.is_float(node.orelse)
        return False

    def is_int_array(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.int_array_names
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and resolve_call_name(node.args[0], self.aliases)
                in _INT_DTYPES
            ):
                return True
            resolved = resolve_call_name(node.func, self.aliases)
            if resolved in _ARRAY_CTORS:
                return _dtype_keyword(node, self.aliases) in _INT_DTYPES
        return False

    # -- effects -------------------------------------------------------

    def assign(self, target: ast.expr, value: ast.expr | None) -> None:
        if not isinstance(target, ast.Name):
            return
        if value is not None and self.is_float(value):
            self.float_names.add(target.id)
        else:
            self.float_names.discard(target.id)
        if value is not None and self.is_int_array(value):
            self.int_array_names.add(target.id)
        else:
            self.int_array_names.discard(target.id)

    # -- flag sites ----------------------------------------------------

    def _flag(self, node: ast.expr, message: str) -> None:
        self.findings.append(
            Finding(
                rule=RULE_ID,
                path=str(self.src.path),
                line=node.lineno,
                message=message,
            )
        )

    def inspect_call(self, node: ast.Call) -> None:
        resolved = resolve_call_name(node.func, self.aliases)
        haystack: ast.expr | None = None
        needle: ast.expr | None = None
        if resolved == "numpy.searchsorted" and len(node.args) >= 2:
            haystack, needle = node.args[0], node.args[1]
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "searchsorted"
            and resolved is not None
            and not resolved.startswith("numpy.")
            and node.args
        ):
            haystack, needle = node.func.value, node.args[0]
        if needle is not None and haystack is not None:
            if self.is_float(needle) and not self.is_float(haystack):
                self._flag(
                    node,
                    "searchsorted with a float needle into a haystack "
                    "not provably float promotes int64 stores to "
                    "float64 (lossy beyond 2**53); normalise the bound "
                    "with storage.dtypes.normalise_range",
                )
            return
        if resolved in _COMPARE_CALLS and len(node.args) >= 2:
            left, right = node.args[0], node.args[1]
            if self.is_float(left) != self.is_float(right):
                self._flag(
                    node,
                    f"{resolved} mixes a float operand with a "
                    "non-float one; normalise the key first "
                    "(storage.dtypes.normalise_bound)",
                )

    def inspect_compare(self, node: ast.Compare) -> None:
        if len(node.ops) != 1 or not isinstance(
            node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        ):
            return
        left, right = node.left, node.comparators[0]
        for a, b in ((left, right), (right, left)):
            if self.is_float(a) and self.is_int_array(b):
                self._flag(
                    node,
                    "comparison between a float value and an int64 "
                    "array promotes the array to float64 (lossy beyond "
                    "2**53); normalise the key first",
                )
                return

    # -- traversal -----------------------------------------------------

    def inspect_expr(self, expr: ast.expr | None) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                self.inspect_call(node)
            elif isinstance(node, ast.Compare):
                self.inspect_compare(node)

    def run_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.run_stmt(stmt)

    def run_stmt(self, stmt: ast.stmt) -> None:
        """Inspect ``stmt`` with the current name state, then apply its
        effects; compound statements recurse body-by-body in order so
        branch assignments (``pivot = math.ceil(pivot)``) are seen
        before later uses."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested functions get their own scan
        if isinstance(stmt, (ast.If, ast.While)):
            self.inspect_expr(stmt.test)
            self.run_block(stmt.body)
            self.run_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.inspect_expr(stmt.iter)
            self.assign(stmt.target, None)
            self.run_block(stmt.body)
            self.run_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.inspect_expr(item.context_expr)
            self.run_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.run_block(stmt.body)
            for handler in stmt.handlers:
                self.run_block(handler.body)
            self.run_block(stmt.orelse)
            self.run_block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Match,)):
            self.inspect_expr(stmt.subject)
            for case in stmt.cases:
                self.run_block(case.body)
            return
        # Simple statement: inspect every expression in it first, then
        # apply assignment effects.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self.inspect_expr(node)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self.assign(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if _annotation_is_float(stmt.annotation) and isinstance(
                stmt.target, ast.Name
            ):
                self.float_names.add(stmt.target.id)
            else:
                self.assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            pass  # x += f keeps x's declared kind


def check(src: "SourceFile", ctx: "LintContext") -> list[Finding]:
    aliases = import_aliases(src.tree)
    findings: list[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scan = _FunctionScan(node, aliases, src, findings)
        scan.run_block(node.body)
    return findings
