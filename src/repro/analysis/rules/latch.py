"""latch-discipline: every latch acquisition must be release-protected.

A call to ``acquire_read``/``acquire_write`` (or a ``try_acquire``
variant) is a leak waiting to happen unless a matching release is
structurally guaranteed to run.  The rule accepts an acquisition when,
at some enclosing statement level inside the same function, either

* the statement sits in the body of a ``try`` whose ``finally`` block
  contains a matching release, or
* the statement is followed in its block -- with only provably
  side-effect-free statements in between -- by such a ``try``.

``try_acquire*`` calls are conditional (the caller may not hold
anything afterwards), so for those the rule only requires that the
enclosing function has a matching release inside *some* ``finally``:
a grant/defer protocol may release via ``release_all`` at the end
of each phase.

A matching release is ``release_read``/``release_write`` agreeing with
the acquisition mode, or any bulk release (a callee whose name starts
with ``release`` -- e.g. ``release_all``).  When both the acquire and
the release receivers are simple dotted expressions, they must also
name the same object.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.astutil import (
    build_parents,
    call_has_no_side_effects,
    dotted_name,
)
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import LintContext
    from repro.analysis.source import SourceFile

RULE_ID = "latch-discipline"

#: acquisition method name -> mode ("r", "w", or None for mode-agnostic)
_ACQUIRE_MODES = {
    "acquire_read": "r",
    "acquire_write": "w",
    "try_acquire": None,
    "try_acquire_read": "r",
    "try_acquire_write": "w",
}

_MODE_RELEASE = {"r": "release_read", "w": "release_write"}


def _call_method_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _receiver_text(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return dotted_name(node.func.value)
    return None


def _release_matches(
    release: ast.Call, mode: str | None, receiver: str | None
) -> bool:
    name = _call_method_name(release)
    if name is None or not name.startswith("release"):
        return False
    if name in _MODE_RELEASE.values():
        if mode is not None and name != _MODE_RELEASE[mode]:
            return False
        rel_receiver = _receiver_text(release)
        if (
            receiver is not None
            and rel_receiver is not None
            and rel_receiver != receiver
        ):
            return False
        return True
    # Bulk releases (release_all and friends) match any mode/receiver.
    return True


def _finally_releases(
    try_node: ast.Try, mode: str | None, receiver: str | None
) -> bool:
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _release_matches(
                node, mode, receiver
            ):
                return True
    return False


def _statement_chain(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> list[ast.stmt]:
    """Enclosing statements of ``node``, innermost first, up to the
    function boundary."""
    chain: list[ast.stmt] = []
    current: ast.AST | None = node
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        if isinstance(current, ast.stmt):
            chain.append(current)
        current = parents.get(current)
    return chain


def _next_relevant_sibling(
    stmt: ast.stmt, parent: ast.AST | None
) -> ast.stmt | None:
    """The first following sibling that is not provably side-effect
    free (docstrings, plain constant-only assignments)."""
    if parent is None:
        return None
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(parent, attr, None)
        if isinstance(block, list) and stmt in block:
            index = block.index(stmt)
            for follower in block[index + 1 :]:
                if call_has_no_side_effects(follower):
                    continue
                return follower
            return None
    return None


def _protected(
    call: ast.Call,
    mode: str | None,
    parents: dict[ast.AST, ast.AST],
) -> bool:
    receiver = _receiver_text(call)
    for stmt in _statement_chain(call, parents):
        parent = parents.get(stmt)
        # (a) inside a try body whose finally performs the release
        if (
            isinstance(parent, ast.Try)
            and stmt in parent.body
            and _finally_releases(parent, mode, receiver)
        ):
            return True
        # (b) immediately followed by such a try in the same block
        follower = _next_relevant_sibling(stmt, parent)
        if isinstance(follower, ast.Try) and _finally_releases(
            follower, mode, receiver
        ):
            return True
    return False


def _function_has_release(
    func: ast.AST, mode: str | None, receiver: str | None
) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and _finally_releases(
            node, mode, receiver
        ):
            return True
    return False


def check(src: "SourceFile", ctx: "LintContext") -> list[Finding]:
    findings: list[Finding] = []
    parents = build_parents(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_method_name(node)
        mode = _ACQUIRE_MODES.get(name or "")
        if name not in _ACQUIRE_MODES:
            continue
        if name.startswith("try_"):
            # Conditional grant: require a finally-release anywhere in
            # the enclosing function (the grant/defer protocol).
            func: ast.AST | None = None
            for stmt in _statement_chain(node, parents):
                func = parents.get(stmt)
            if func is not None and _function_has_release(func, mode, None):
                continue
        elif _protected(node, mode, parents):
            continue
        findings.append(
            Finding(
                rule=RULE_ID,
                path=str(src.path),
                line=node.lineno,
                message=(
                    f"{name}() is not paired with a matching release in "
                    "a finally block reachable from this statement; a "
                    "raise or early return here leaks the latch"
                ),
            )
        )
    return findings
