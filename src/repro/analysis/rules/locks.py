"""lock-discipline: outside ``CrackerIndex`` a lock is a leaf.

The kernel's one shared structure is a cracker index, and
``CrackerIndex.lock`` serialises every pass on it; tuning workers only
partition under it and hand the pass back to the idle window's thread.
Every other lock guards its own module's state and nothing else, so no
lock order can form around it.  Checked per module, on the syntax:

* outside ``CrackerIndex``, the body of a ``with`` over a lock calls
  into no other ``repro`` module -- directly, or through a function or
  ``self`` method of its own module -- and takes no other lock;
* nowhere is a non-reentrant lock taken while a lock of its class is
  held (two instances, or the same one twice): nothing orders them.

A lock is a name or attribute whose identifier some module assigns a
``threading.Lock``/``RLock``/``Condition``; that identifier is its
class.  A call goes into another module when it resolves through an
import to ``repro.<another module>``, or when it is a method call on an
object other than ``self`` whose name only other ``repro`` modules
define and no builtin container has; a ``raise`` is not followed.  A
context manager that holds a lock at its ``yield`` is not modelled (the
tree has none).
"""

from __future__ import annotations

import ast
import collections
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call_name,
)
from repro.analysis.findings import Finding
from repro.analysis.source import repo_python_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import LintContext
    from repro.analysis.source import SourceFile

RULE_ID = "lock-discipline"

#: The one class whose lock may be held across calls into other modules.
OWNER = "CrackerIndex"

#: Lock constructors -> whether the lock is reentrant.
_CTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": False,
}

#: Method names a builtin container has: a call by such a name is
#: taken for the container's.
_BUILTIN_METHODS = frozenset(
    name
    for kind in (
        dict, list, set, frozenset, str, bytes, tuple, int, float,
        collections.deque,
    )
    for name in dir(kind)
)

#: Nodes a walk does not enter: nested scopes, and ``raise`` (building
#: an error is no call into another module's state).
_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
    ast.Raise,
)


@dataclass
class _Facts:
    """Def names (name -> defining modules) and lock identifiers
    (identifier -> reentrant)."""

    defs: dict[str, set[str]] = field(default_factory=dict)
    locks: dict[str, bool] = field(default_factory=dict)

    def add(self, tree: ast.Module, module: str) -> None:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs.setdefault(node.name, set()).add(module)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if not isinstance(value, ast.Call):
                    continue
                ctor = resolve_call_name(value.func, aliases)
                reentrant = _CTORS.get(ctor or "")
                if reentrant is None:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    ident = _identifier(target)
                    if ident is not None:
                        self.locks[ident] = (
                            self.locks.get(ident, True) and reentrant
                        )


@dataclass
class _Summary:
    """What calling a function of the module does, transitively."""

    calls_out: str | None = None
    takes: set[str] = field(default_factory=set)
    callees: set[tuple[str | None, str]] = field(default_factory=set)


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _module_name(path: Path, root: Path) -> str:
    """``repro.x.y`` for a file under ``root``; its stem otherwise."""
    try:
        rel = path.resolve().relative_to(root.resolve().parent)
    except ValueError:
        return path.stem
    return ".".join(rel.with_suffix("").parts).removesuffix(".__init__")


@functools.lru_cache(maxsize=4)
def _tree_facts(root: str) -> _Facts:
    facts = _Facts()
    base = Path(root)
    for path in repo_python_files(base):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError, ValueError):
            continue
        facts.add(tree, _module_name(path, base))
    return facts


def _walk(nodes: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every node under ``nodes`` outside :data:`_SKIPPED` ones."""
    stack: list[ast.AST] = list(reversed(nodes))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in reversed(list(ast.iter_child_nodes(node)))
            if not isinstance(child, _SKIPPED)
        )


def _functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function with the class it is (nested) in."""

    def visit(node: ast.AST, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield cls, child
                yield from visit(child, cls)

    yield from visit(tree, None)


class _Module:
    """One module's locks, calls and function summaries."""

    def __init__(self, src: "SourceFile", root: Path) -> None:
        self.tree = src.tree
        self.name = _module_name(src.path, root)
        self.aliases = import_aliases(src.tree)
        own = _Facts()
        own.add(src.tree, self.name)
        self.own_defs = own.defs
        self.facts = _tree_facts(str(root.resolve()))
        self.locks = {**self.facts.locks, **own.locks}
        self.summaries: dict[tuple[str | None, str], _Summary] = {}
        for cls, fn in _functions(src.tree):
            self.summaries.setdefault((cls, fn.name), _Summary())
        for cls, fn in _functions(src.tree):
            summary = self.summaries[(cls, fn.name)]
            for node in _walk(fn.body):
                summary.takes.update(self.acquired(node))
                kind, target = self.callee(node, cls)
                if kind == "out" and summary.calls_out is None:
                    summary.calls_out = target
                elif kind == "local":
                    summary.callees.add(target)
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for key in summary.callees:
                    other = self.summaries[key]
                    if summary.calls_out is None and other.calls_out:
                        summary.calls_out = other.calls_out
                        changed = True
                    if not other.takes <= summary.takes:
                        summary.takes |= other.takes
                        changed = True

    def acquired(self, node: ast.AST) -> list[str]:
        """The locks a ``with`` statement takes, in order."""
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            return []
        idents = (_identifier(item.context_expr) for item in node.items)
        return [i for i in idents if i is not None and i in self.locks]

    def callee(self, node: ast.AST, cls: str | None):
        """``("out", what)`` for a call into another ``repro`` module,
        ``("local", key)`` for a call to a summarised function of this
        one, ``(None, None)`` otherwise."""
        if not isinstance(node, ast.Call):
            return None, None
        func = node.func
        if isinstance(func, ast.Name) and (None, func.id) in self.summaries:
            return "local", (None, func.id)
        name = dotted_name(func)
        head = None if name is None else name.partition(".")[0]
        if head in ("self", "cls") and isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                key = (cls, func.attr)
                if key in self.summaries:
                    return "local", key
                return None, None
        elif head in self.aliases:
            resolved = resolve_call_name(func, self.aliases) or ""
            inside = resolved == self.name or resolved.startswith(
                self.name + "."
            )
            if resolved.startswith("repro.") and not inside:
                return "out", resolved
            return None, None
        if isinstance(func, ast.Attribute):
            attr = func.attr
            elsewhere = self.facts.defs.get(attr, set()) - {self.name}
            if (
                elsewhere
                and attr not in _BUILTIN_METHODS
                and attr not in self.own_defs
            ):
                return "out", f"{attr}() of {min(elsewhere)}"
        return None, None

    def effects(self, node: ast.AST, cls: str | None):
        """The locks ``node`` takes, the call into another module it
        makes (or ``None``), and `` (via f)`` when both come through
        this module's function ``f``."""
        kind, target = self.callee(node, cls)
        if kind == "local":
            summary = self.summaries[target]
            via = f" (via {target[1]})"
            return sorted(summary.takes), summary.calls_out, via
        return self.acquired(node), target if kind == "out" else None, ""

    def nesting(self, outer: str, inner: str, cls: str | None) -> str | None:
        """Why taking ``inner`` while holding ``outer`` is refused."""
        if outer == inner:
            if self.locks[inner]:
                return None
            return (
                f"a second `{inner}` is taken while one is held: one "
                "non-reentrant lock class twice, which nothing orders"
            )
        if cls != OWNER:
            return (
                f"`{inner}` is taken while `{outer}` is held; outside "
                f"{OWNER} a lock is a leaf"
            )
        return None


def check(src: "SourceFile", ctx: "LintContext") -> list[Finding]:
    module = _Module(src, ctx.root)
    scopes = [(None, src.tree.body)]
    scopes += [(cls, fn.body) for cls, fn in _functions(src.tree)]
    found: dict[tuple[int, str], None] = {}
    for cls, body in scopes:
        for node in _walk(body):
            held = module.acquired(node)
            if not held:
                continue
            # ``with a, b:`` takes b while holding a.
            steps = [(node, held[:i], [lock], None, "")
                     for i, lock in enumerate(held) if i]
            steps += [
                (inside, held, *module.effects(inside, cls))
                for inside in _walk(node.body)
            ]
            for inside, outers, takes, out, via in steps:
                line = getattr(inside, "lineno", node.lineno)
                for inner in takes:
                    for outer in outers:
                        why = module.nesting(outer, inner, cls)
                        if why is not None:
                            found[(line, why + via)] = None
                if out is not None and cls != OWNER:
                    found[(
                        line,
                        f"`{held[-1]}` is held across a call into another "
                        f"repro module ({out}); outside {OWNER} a lock "
                        f"guards its own module's state{via}",
                    )] = None
    return [
        Finding(rule=RULE_ID, path=str(src.path), line=line, message=why)
        for line, why in sorted(found)
    ]
