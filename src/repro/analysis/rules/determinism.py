"""determinism: no ambient wall-clock or unseeded randomness in the
reproducible core.

The cracking, simtime, holistic, engine and serving planes must be a
pure function of (dataset seed, workload seed, simulated clock) -- a
stray ``time.time()`` or ``random.random()`` silently breaks replay,
the differential fingerprint oracle and crash-restart equivalence.
Wall time is allowed only through the one audited escape hatch,
``repro.simtime.clock.wall_sleep`` (retry backoff; it and the
``WallClock`` carry the only waivers), and anywhere under ``bench/``,
``workload/`` and ``faults/``, whose job is to talk to the real world.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.astutil import import_aliases, resolve_call_name
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import LintContext
    from repro.analysis.source import SourceFile

RULE_ID = "determinism"

#: Directories (relative to the lint root) exempt from this rule.
EXEMPT_DIRS = frozenset({"bench", "workload", "faults"})

_BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "random.SystemRandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)


def _banned(resolved: str, node: ast.Call) -> str | None:
    """Why ``resolved`` is banned here, or None if it is fine."""
    if resolved in _BANNED_CALLS:
        return f"{resolved}() is nondeterministic"
    if resolved.startswith("random.") and resolved != "random.Random":
        # Module-level stdlib random functions share hidden global
        # state; random.Random(seed) instances are the sanctioned form.
        tail = resolved.removeprefix("random.")
        if tail and tail[0].islower():
            return (
                f"{resolved}() uses the process-global RNG; construct a "
                "seeded random.Random / numpy Generator instead"
            )
    if resolved.startswith("numpy.random."):
        tail = resolved.removeprefix("numpy.random.")
        if tail == "default_rng":
            unseeded = not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if unseeded and not any(k.arg == "seed" for k in node.keywords):
                return (
                    "numpy.random.default_rng() without a seed draws "
                    "entropy from the OS"
                )
            return None
        if tail and tail[0].islower():
            return (
                f"{resolved}() is the legacy global numpy RNG; use a "
                "seeded numpy.random.default_rng(seed) generator"
            )
    return None


def exempt(ctx: "LintContext", src: "SourceFile") -> bool:
    return bool(EXEMPT_DIRS.intersection(ctx.rel_parts(src.path)))


def check(src: "SourceFile", ctx: "LintContext") -> list[Finding]:
    if exempt(ctx, src):
        return []
    aliases = import_aliases(src.tree)
    findings: list[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolve_call_name(node.func, aliases)
        if resolved is None:
            continue
        reason = _banned(resolved, node)
        if reason is not None:
            findings.append(
                Finding(
                    rule=RULE_ID,
                    path=str(src.path),
                    line=node.lineno,
                    message=(
                        f"{reason}; sleep through "
                        "simtime.clock.wall_sleep, read time from the "
                        "engine's clock, or thread a seeded generator "
                        "from the config"
                    ),
                )
            )
    return findings
