"""Shared AST plumbing for the lint rules."""

from __future__ import annotations

import ast


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully dotted origin, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only
    top-of-tree imports matter for the rules (function-local imports
    are walked too -- ast.walk sees them).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                    if alias.asname
                    else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_name(
    func: ast.AST, aliases: dict[str, str]
) -> str | None:
    """Fully dotted origin of a call target, through import aliases.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; unresolvable shapes (calls on call
    results, subscripts) return ``None``.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin
