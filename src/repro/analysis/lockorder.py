"""Static lock-order analysis over the lock-acquisition call graph.

Deadlock freedom for the worker threads rests on a global acquisition
order.  This module recovers that order statically:

1. every class's lock-like attributes become *lock classes*
   (``threading.Lock/RLock/Condition`` attrs are named
   ``Class.attr``, module-level locks ``module.name``);
2. each function is summarised as an ordered event list -- scoped
   ``with`` acquisitions, calls into other analysed functions, and
   ``yield`` points for ``@contextmanager`` functions (whose
   held-set-at-yield flows into their ``with`` callers);
3. a fixpoint propagates held-lock contexts through the call graph,
   recording an edge ``A -> B`` whenever ``B`` is acquired while
   ``A`` is held;
4. a cycle in the resulting order graph is a potential deadlock and
   fails the analysis.

A non-reentrant lock class acquired while one of its own is held (two
instances, or the same one twice) cannot be ordered by class alone and
nothing orders it at run time, so such a *same-class nesting* fails
the analysis too.  Calls the analyser cannot resolve are counted, not
ignored silently -- the count is part of the report so the
under-approximation stays visible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.source import SourceFile, load_sources, repo_python_files

_LOCK_CTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": False,
}
_MAX_PASSES = 30


# -- events ----------------------------------------------------------------


@dataclass
class Event:
    kind: str  # with_lock | with_cm | call | enter_cm | yield
    token: str | None = None  # lock class, or callee qualname
    body: list["Event"] = field(default_factory=list)
    line: int = 0


@dataclass
class Func:
    qual: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    is_cm: bool = False
    cm_alias: str | None = None  # qualname whose held_at_yield we inherit
    returns_cls: str | None = None
    synchronized_lock: str | None = None  # decorator-implied scoped lock
    events: list[Event] = field(default_factory=list)
    #: lock classes held at the yield point, in acquisition order --
    #: order matters: ``with`` callers replay these acquisitions, and
    #: a set here would fabricate reversed edges (phantom cycles).
    held_at_yield: tuple = ()
    entry: frozenset = frozenset()


@dataclass
class ClassInfo:
    name: str
    module: str
    #: attr -> ("lock", token) | ("type", class name)
    attrs: dict[str, tuple[str, str]] = field(default_factory=dict)
    reentrant: set[str] = field(default_factory=set)  # lock tokens


# -- analyser --------------------------------------------------------------


class LockOrderAnalyzer:
    def __init__(self, sources: list[SourceFile]) -> None:
        self.sources = sources
        self.classes: dict[str, ClassInfo] = {}
        self.funcs: dict[str, Func] = {}
        self.method_index: dict[tuple[str, str], str] = {}
        self.module_funcs: dict[tuple[str, str], str] = {}
        self.module_locks: dict[tuple[str, str], str] = {}
        self.reentrant: set[str] = set()
        self.edges: dict[tuple[str, str], str] = {}
        self.same_class: dict[str, str] = {}
        self.unresolved = 0

    # -- registry pass -----------------------------------------------------

    def _module_name(self, src: SourceFile) -> str:
        parts = list(Path(src.path).parts)
        if "repro" in parts:
            parts = parts[parts.index("repro") :]
        name = ".".join(parts)
        return name[:-3] if name.endswith(".py") else name

    def build_registry(self) -> None:
        for src in self.sources:
            module = self._module_name(src)
            for node in src.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._register_class(src, module, node)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._register_func(src, module, None, node)
                elif isinstance(node, ast.Assign):
                    self._register_module_lock(module, node)
        # second pass: attribute types that name other classes resolve
        # only once every class is known -- nothing to redo here since
        # attrs store names, resolved lazily.

    def _register_module_lock(self, module: str, node: ast.Assign) -> None:
        ctor = self._lock_ctor(node.value)
        if ctor is None:
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                token = f"{module}.{target.id}"
                self.module_locks[(module, target.id)] = token
                if _LOCK_CTORS[ctor]:
                    self.reentrant.add(token)

    def _lock_ctor(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        name = _dotted(value.func)
        if name is None:
            return None
        tail = name.split(".")[-1]
        for ctor in _LOCK_CTORS:
            if name == ctor or tail == ctor.split(".")[-1]:
                return ctor
        return None

    def _register_class(
        self, src: SourceFile, module: str, node: ast.ClassDef
    ) -> None:
        info = ClassInfo(name=node.name, module=module)
        self.classes.setdefault(node.name, info)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_func(src, module, node.name, item)
                self._scan_attr_assignments(info, item)

    def _scan_attr_assignments(
        self, info: ClassInfo, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        params = {
            a.arg: _annotation_name(a.annotation)
            for a in func.args.args + func.args.kwonlyargs
        }
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                resolved = self._attr_value(info, attr, value, params)
                if resolved is not None and attr not in info.attrs:
                    info.attrs[attr] = resolved

    def _attr_value(
        self,
        info: ClassInfo,
        attr: str,
        value: ast.expr | None,
        params: dict[str, str | None],
    ) -> tuple[str, str] | None:
        if value is None:
            return None
        if isinstance(value, ast.IfExp):
            return self._attr_value(
                info, attr, value.body, params
            ) or self._attr_value(info, attr, value.orelse, params)
        ctor = self._lock_ctor(value)
        if ctor is not None:
            token = f"{info.name}.{attr}"
            if _LOCK_CTORS[ctor]:
                self.reentrant.add(token)
            return ("lock", token)
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None:
                tail = name.split(".")[-1]
                if tail and tail[0].isupper():
                    return ("type", tail)
        if isinstance(value, ast.Name) and value.id in params:
            cls = params[value.id]
            if cls is not None:
                return ("type", cls)
        return None

    def _register_func(
        self,
        src: SourceFile,
        module: str,
        cls: str | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        qual = f"{module}:{cls}.{node.name}" if cls else f"{module}:{node.name}"
        func = Func(
            qual=qual,
            module=module,
            cls=cls,
            node=node,
            path=str(src.path),
        )
        for dec in node.decorator_list:
            name = _dotted(dec) or _dotted(
                dec.func if isinstance(dec, ast.Call) else dec
            )
            if name is None:
                continue
            tail = name.split(".")[-1]
            if tail == "contextmanager":
                func.is_cm = True
            if tail == "_synchronized" and cls is not None:
                func.synchronized_lock = f"{cls}.lock"
                self.reentrant.add(f"{cls}.lock")
        returns = _annotation_name(node.returns)
        if returns is not None and returns[0].isupper():
            func.returns_cls = returns
        self.funcs[qual] = func
        if cls is not None:
            self.method_index.setdefault((cls, node.name), qual)
        else:
            self.module_funcs[(module, node.name)] = qual

    # -- event pass --------------------------------------------------------

    def build_events(self) -> None:
        for func in self.funcs.values():
            env: dict[str, tuple[str, str]] = {}
            for arg in func.node.args.args + func.node.args.kwonlyargs:
                cls = _annotation_name(arg.annotation)
                if cls is not None and cls in self.classes:
                    env[arg.arg] = ("type", cls)
            events = self._events_for_block(func, func.node.body, env)
            if func.synchronized_lock is not None:
                events = [
                    Event(
                        kind="with_lock",
                        token=func.synchronized_lock,
                        body=events,
                        line=func.node.lineno,
                    )
                ]
            func.events = events
            func.cm_alias = self._cm_alias(func, env)

    def _cm_alias(
        self, func: Func, env: dict[str, tuple[str, str]]
    ) -> str | None:
        if func.is_cm:
            return None
        for node in ast.walk(func.node):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Call
            ):
                target = self._resolve_call(func, node.value, env)
                if target is not None and self.funcs[target].is_cm:
                    return target
        return None

    def _events_for_block(
        self,
        func: Func,
        stmts: list[ast.stmt],
        env: dict[str, tuple[str, str]],
    ) -> list[Event]:
        events: list[Event] = []
        for stmt in stmts:
            events.extend(self._events_for_stmt(func, stmt, env))
        return events

    def _events_for_stmt(
        self,
        func: Func,
        stmt: ast.stmt,
        env: dict[str, tuple[str, str]],
    ) -> list[Event]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body = self._events_for_block(func, stmt.body, env)
            events: list[Event] = []
            wrapped = body
            for item in reversed(stmt.items):
                expr = item.context_expr
                resolved = self._resolve_expr(func, expr, env)
                if resolved is not None and resolved[0] == "lock":
                    wrapped = [
                        Event(
                            kind="with_lock",
                            token=resolved[1],
                            body=wrapped,
                            line=stmt.lineno,
                        )
                    ]
                elif isinstance(expr, ast.Call):
                    target = self._resolve_call(func, expr, env)
                    if target is not None and self._is_cm_like(target):
                        wrapped = [
                            Event(
                                kind="with_cm",
                                token=target,
                                body=wrapped,
                                line=stmt.lineno,
                            )
                        ]
                    elif target is not None:
                        wrapped = [
                            Event(kind="call", token=target, line=stmt.lineno)
                        ] + wrapped
                    else:
                        self.unresolved += 1
                else:
                    self.unresolved += 1
            events.extend(wrapped)
            return events
        if isinstance(stmt, (ast.If, ast.While)):
            return (
                self._expr_events(func, stmt.test, env)
                + self._events_for_block(func, stmt.body, env)
                + self._events_for_block(func, stmt.orelse, env)
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return (
                self._expr_events(func, stmt.iter, env)
                + self._events_for_block(func, stmt.body, env)
                + self._events_for_block(func, stmt.orelse, env)
            )
        if isinstance(stmt, ast.Try):
            events = self._events_for_block(func, stmt.body, env)
            for handler in stmt.handlers:
                events += self._events_for_block(func, handler.body, env)
            events += self._events_for_block(func, stmt.orelse, env)
            events += self._events_for_block(func, stmt.finalbody, env)
            return events
        # simple statement: scan expressions in evaluation order, then
        # record assignment types for later resolution
        events = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                events.extend(self._expr_events(func, child, env))
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, (ast.Call, ast.Attribute, ast.Name)
        ):
            resolved = self._resolve_expr(func, stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if resolved is not None:
                        env[target.id] = resolved
                    else:
                        env.pop(target.id, None)
        return events

    def _expr_events(
        self,
        func: Func,
        expr: ast.expr,
        env: dict[str, tuple[str, str]],
    ) -> list[Event]:
        events: list[Event] = []
        for node in ast.walk(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                events.append(Event(kind="yield", line=node.lineno))
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "enter_context" and node.args:
                    inner = node.args[0]
                    if isinstance(inner, ast.Call):
                        target = self._resolve_call(func, inner, env)
                        if target is not None and self._is_cm_like(target):
                            events.append(
                                Event(
                                    kind="enter_cm",
                                    token=target,
                                    line=node.lineno,
                                )
                            )
                            continue
                    self.unresolved += 1
                    continue
            target = self._resolve_call(func, node, env)
            if target is not None:
                events.append(
                    Event(kind="call", token=target, line=node.lineno)
                )
        return events

    def _is_cm_like(self, qual: str) -> bool:
        func = self.funcs[qual]
        return func.is_cm or func.cm_alias is not None

    # -- resolution --------------------------------------------------------

    def _resolve_expr(
        self,
        func: Func,
        expr: ast.expr,
        env: dict[str, tuple[str, str]],
    ) -> tuple[str, str] | None:
        """("lock", token) or ("type", class) for ``expr``, else None."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.cls is not None:
                return ("type", func.cls)
            if expr.id in env:
                return env[expr.id]
            token = self.module_locks.get((func.module, expr.id))
            if token is not None:
                return ("lock", token)
            return None
        if isinstance(expr, ast.Attribute):
            base = self._resolve_expr(func, expr.value, env)
            if base is None or base[0] != "type":
                return None
            info = self.classes.get(base[1])
            if info is None:
                return None
            return info.attrs.get(expr.attr)
        if isinstance(expr, ast.Call):
            target = self._resolve_call(func, expr, env)
            if target is None:
                return None
            callee = self.funcs[target]
            if callee.returns_cls is not None:
                return ("type", callee.returns_cls)
            return None
        return None

    def _resolve_call(
        self,
        func: Func,
        call: ast.Call,
        env: dict[str, tuple[str, str]],
    ) -> str | None:
        if isinstance(call.func, ast.Name):
            qual = self.module_funcs.get((func.module, call.func.id))
            if qual is not None:
                return qual
            return None
        if isinstance(call.func, ast.Attribute):
            base = self._resolve_expr(func, call.func.value, env)
            if base is not None and base[0] == "type":
                return self.method_index.get((base[1], call.func.attr))
        return None

    # -- fixpoint ----------------------------------------------------------

    def propagate(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for func in self.funcs.values():
                if func.cm_alias is not None:
                    inherited = self.funcs[func.cm_alias].held_at_yield
                    if inherited != func.held_at_yield:
                        func.held_at_yield = inherited
                        changed = True
            for func in self.funcs.values():
                held: dict[str, int] = {}
                for token in func.entry:
                    held[token] = held.get(token, 0) + 1
                if self._simulate(func, func.events, held):
                    changed = True
            if not changed:
                return

    def _note_acquire(self, func: Func, token: str, held: dict[str, int]) -> None:
        for holder in held:
            if holder == token:
                if token not in self.reentrant:
                    self.same_class.setdefault(token, func.qual)
                continue
            self.edges.setdefault((holder, token), func.qual)

    def _enter_callee(
        self, qual: str, held: dict[str, int]
    ) -> bool:
        callee = self.funcs[qual]
        merged = frozenset(callee.entry | set(held))
        if merged != callee.entry:
            callee.entry = merged
            return True
        return False

    def _simulate(
        self, func: Func, events: list[Event], held: dict[str, int]
    ) -> bool:
        changed = False
        for event in events:
            if event.kind == "with_lock":
                assert event.token is not None
                self._note_acquire(func, event.token, held)
                held[event.token] = held.get(event.token, 0) + 1
                changed |= self._simulate(func, event.body, held)
                held[event.token] -= 1
                if held[event.token] == 0:
                    del held[event.token]
            elif event.kind == "call":
                assert event.token is not None
                changed |= self._enter_callee(event.token, held)
            elif event.kind in ("with_cm", "enter_cm"):
                assert event.token is not None
                changed |= self._enter_callee(event.token, held)
                callee = self.funcs[event.token]
                yielded = callee.held_at_yield
                for token in yielded:
                    self._note_acquire(func, token, held)
                    held[token] = held.get(token, 0) + 1
                if event.kind == "with_cm":
                    changed |= self._simulate(func, event.body, held)
                    for token in yielded:
                        held[token] -= 1
                        if held[token] == 0:
                            del held[token]
                # enter_cm: held until function end (no pop)
            elif event.kind == "yield":
                # dict preserves insertion (= acquisition) order
                snapshot = tuple(held)
                if func.is_cm:
                    merged = func.held_at_yield + tuple(
                        t for t in snapshot if t not in func.held_at_yield
                    )
                    if merged != func.held_at_yield:
                        func.held_at_yield = merged
                        changed = True
        return changed

    # -- reporting ---------------------------------------------------------

    def find_cycle(self) -> list[str] | None:
        graph: dict[str, list[str]] = {}
        for a, b in self.edges:
            graph.setdefault(a, []).append(b)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in graph}
        stack: list[str] = []

        def dfs(node: str) -> list[str] | None:
            colour[node] = GREY
            stack.append(node)
            for succ in graph.get(node, []):
                if colour.get(succ, WHITE) == GREY:
                    return stack[stack.index(succ) :] + [succ]
                if colour.get(succ, WHITE) == WHITE:
                    colour.setdefault(succ, WHITE)
                    found = dfs(succ)
                    if found is not None:
                        return found
            stack.pop()
            colour[node] = BLACK
            return None

        for node in list(graph):
            if colour.get(node, WHITE) == WHITE:
                found = dfs(node)
                if found is not None:
                    return found
        return None

    def report(self) -> dict[str, Any]:
        cycle = self.find_cycle()
        nodes = sorted(
            {a for a, _ in self.edges}
            | {b for _, b in self.edges}
            | set(self.same_class)
        )
        return {
            "lock_classes": nodes,
            "edges": [
                {"from": a, "to": b, "via": via}
                for (a, b), via in sorted(self.edges.items())
            ],
            "same_class_nestings": [
                {"lock": token, "via": via}
                for token, via in sorted(self.same_class.items())
            ],
            "reentrant": sorted(self.reentrant),
            "unresolved_sites": self.unresolved,
            "cycle": cycle,
            "ok": cycle is None and not self.same_class,
        }


def analyze(paths: list[Path] | None = None) -> dict[str, Any]:
    """Run the analysis over ``paths`` (default: the repro tree)."""
    if paths is None:
        root = Path(__file__).resolve().parent.parent
        paths = repo_python_files(root)
    sources, _ = load_sources(paths)
    analyzer = LockOrderAnalyzer(sources)
    analyzer.build_registry()
    analyzer.build_events()
    analyzer.propagate()
    return analyzer.report()


# -- small AST helpers -----------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Name):
        return None if annotation.id == "None" else annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return _annotation_name(annotation.left) or _annotation_name(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript):
        base = _annotation_name(annotation.value)
        if base == "Optional":
            return _annotation_name(annotation.slice)
        return None
    return None
