"""List the functions under ``src/`` that no root enters.

::

    python tools/reachability.py            # the fast roots, ~1 min
    python tools/reachability.py --full     # plus one full-size perfbench pass

Runs every root (the paper artefacts at ``--scale tiny``, the five
correctness-gate suites against their committed documents,
``perfbench --smoke`` untraced and traced, ``examples/*.py`` and
``repro.analysis --check``) with ``tools/reach_hook`` first on
``PYTHONPATH``, so each process they start records the functions it
enters.  Every ``def`` under ``src/`` that none entered is printed
with its length.  The exit status is 1 when a root fails, or when an
unreached function has no line in ``tools/reachability_readers.txt``
(``qualname<TAB>reader``: why it stays although no root enters it).

Dunders, ``@overload`` stubs, ``@abstractmethod`` declarations and
the bodies of ``Protocol`` classes are exempt: they are declarations,
not paths.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOOK = Path(__file__).resolve().parent / "reach_hook"
READERS = Path(__file__).resolve().parent / "reachability_readers.txt"

ARTEFACTS = (
    "table1", "table2", "figure1", "figure2", "exp1", "exp2", "parallel",
    "ablation-policies", "ablation-stochastic", "ablation-cache",
    "ablation-batch",
)
SUITES = ("e2e", "serve", "mixed", "snapshot", "chaos")
EXEMPT_DECORATORS = {"overload", "abstractmethod"}


@dataclass(frozen=True)
class Def:
    path: Path
    qualname: str
    line: int  # the ``def`` line
    first_line: int  # the first decorator line, else the ``def`` line
    end_line: int

    @property
    def lines(self) -> int:
        return self.end_line - self.first_line + 1


def roots(scratch: Path, full: bool) -> list[list[str]]:
    """Each root is one command, run from the repository root."""
    python = sys.executable
    commands = [
        [python, "-m", "repro.bench", name, "--scale", "tiny"]
        for name in ARTEFACTS
    ]
    commands += [
        [python, "-m", "repro.bench", suite, "--quick",
         "--check", f"BENCH_{suite}_quick.json"]
        for suite in SUITES
    ]
    commands += [
        [python, "-m", "perfbench", "--smoke", "--trace", trace,
         "--out", str(scratch / f"smoke-{trace}.json")]
        for trace in ("0", "1")
    ]
    commands += [
        [python, str(example)]
        for example in sorted((ROOT / "examples").glob("*.py"))
    ]
    commands.append([python, "-m", "repro.analysis", "--check"])
    if full:
        commands.append(
            [python, "-m", "perfbench", "--seconds", "1", "--trace", "0",
             "--out", str(scratch / "full.json")]
        )
    return commands


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(_decorator_name(base) == "Protocol" for base in node.bases)


def list_defs(src: Path) -> list[Def]:
    """Every non-exempt ``def`` under ``src``, nested ones included."""
    found: list[Def] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not _is_protocol(child):
                    walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                decorators = {_decorator_name(d) for d in child.decorator_list}
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and not decorators & EXEMPT_DECORATORS:
                    first = min(
                        [d.lineno for d in child.decorator_list]
                        + [child.lineno]
                    )
                    found.append(Def(
                        path, qualname, child.lineno, first,
                        child.end_lineno or child.lineno,
                    ))
                walk(child, path, f"{qualname}.")
            else:
                walk(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        walk(tree, path.resolve(), f"{module}.")
    return found


def run_roots(
    commands: list[list[str]], src: Path, cwd: Path, out: Path
) -> tuple[set[tuple[str, int]], list[str]]:
    """Run each command under the hook; the entries seen, and failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HOOK), str(src)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REACH_OUT"] = str(out)
    env["REACH_SRC"] = str(src)
    failed = []
    for command in commands:
        shown = " ".join(["python", *command[1:]])
        print(f"root: {shown}", file=sys.stderr, flush=True)
        done = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.DEVNULL
        )
        if done.returncode != 0:
            failed.append(f"{shown} exited {done.returncode}")
    seen: set[tuple[str, int]] = set()
    for record in out.glob("*.reach"):
        for row in record.read_text().splitlines():
            filename, line = row.split("\t")
            seen.add((filename, int(line)))
    return seen, failed


def unreached(defs: list[Def], seen: set[tuple[str, int]]) -> list[Def]:
    """The defs whose ``def`` line and first decorator line were never
    entered (``co_firstlineno`` is the first decorator's line)."""
    return [
        d for d in defs
        if (str(d.path), d.line) not in seen
        and (str(d.path), d.first_line) not in seen
    ]


def load_readers(path: Path) -> dict[str, str]:
    readers: dict[str, str] = {}
    for row in path.read_text(encoding="utf-8").splitlines():
        if not row.strip() or row.startswith("#"):
            continue
        qualname, _, reader = row.partition("\t")
        readers[qualname.strip()] = reader.strip()
    return readers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/reachability.py")
    parser.add_argument(
        "--full", action="store_true",
        help="also run one 1-second full-size pass of each perfbench "
             "workload (needs several GB of memory)",
    )
    args = parser.parse_args(argv)
    src = ROOT / "src"
    defs = list_defs(src)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "reach"
        out.mkdir()
        seen, failed = run_roots(
            roots(Path(scratch), args.full), src, ROOT, out
        )
    readers = load_readers(READERS)
    missing = unreached(defs, seen)
    unlisted = [d for d in missing if d.qualname not in readers]
    for d in missing:
        where = f"{d.path.relative_to(ROOT)}:{d.line}"
        reader = readers.get(d.qualname, "NO READER")
        print(f"{where:<48} {d.qualname} ({d.lines} lines): {reader}")
    print(
        f"{len(defs)} functions under src/ ({sum(d.lines for d in defs)} "
        f"lines); {len(missing)} unreached "
        f"({sum(d.lines for d in missing)} lines); "
        f"{len(unlisted)} without a reader"
    )
    for failure in failed:
        print(f"root failed: {failure}")
    return 1 if failed or unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
