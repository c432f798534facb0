"""``docs/ARCHITECTURE.md`` describes the code as it is.

The document is read by people who then go looking for what it names,
so it is held to the tree mechanically: every code name and file it
cites exists, every link and docstring citation into it resolves, no
heading is named after an issue rather than after what the code does,
and it stays short enough that a new number replaces an old one.  The
code is held to the same reader: no comment or docstring under ``src``
cites an issue or pull request by number, which names no place to
look.  The tree is read as text; nothing is imported.
"""

from __future__ import annotations

import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "ARCHITECTURE.md"

#: Where a cited name must occur.
CODE_DIRS = ("src", "perfbench", "tests", "tools", "examples")

#: Files whose links into the document must resolve.
LINKING_FILES = ("README.md", "CONTRIBUTING.md")

#: The most lines the document may have: a number that supersedes
#: another replaces it, and per-change narrative goes to CHANGES.md.
MAX_LINES = 900

#: The section whose names may be gone: designs measured and taken out.
REJECTED = "Rejected designs"

#: Names from numpy and the standard library the document cites that
#: the code does not spell out.
OUTSIDE_NAMES = frozenset({"np.result_type"})

_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*(?:\(\))?"
)
_FILE = re.compile(r"[\w./-]+\.(?:py|md|json|txt|ini|yml|toml)")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LINK = re.compile(r"docs/ARCHITECTURE\.md#([\w-]+)")
_CITATION = re.compile(r'\(docs/ARCHITECTURE\.md,\s+"([^"]+)"\)')
_BOLD_LEAD = re.compile(r"^(?:[-*] |\d+\. )?\*\*(.+?)\*\*")
_NUMBERED = re.compile(r"\b(?:(?i:issue)|PR)\s*#?\d+")


def _sections(text: str) -> list[tuple[str, list[str]]]:
    """``(heading, lines)`` per section, fenced code left out; the
    lines before the first heading come under ``""``."""
    sections: list[tuple[str, list[str]]] = [("", [])]
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            continue
        elif line.startswith("#"):
            sections.append((line.lstrip("#").strip(), []))
        else:
            sections[-1][1].append(line)
    return sections


def _plain(text: str) -> str:
    """``text`` without backticks, its whitespace collapsed."""
    return " ".join(text.replace("`", "").split())


def _is_code_name(name: str) -> bool:
    """Whether ``name`` reads as code: an underscore, a dot or an
    inner capital (``select_keys``, ``index.lock``, ``CrackerIndex``)."""
    return "_" in name or "." in name or bool(re.search("[a-z][A-Z]", name))


def cited(text: str) -> tuple[set[str], set[str]]:
    """The code names and the file paths ``text`` cites in backticks,
    the rejected designs' section left out."""
    names: set[str] = set()
    files: set[str] = set()
    for heading, lines in _sections(text):
        if heading == REJECTED:
            continue
        for line in lines:
            for span in _SPAN.findall(line):
                for part in span.split("::"):
                    if _FILE.fullmatch(part):
                        files.add(part)
                    elif _NAME.fullmatch(part) and _is_code_name(part):
                        names.add(part.removesuffix("()"))
    return names, files


def _code() -> list[Path]:
    """The Python files under :data:`CODE_DIRS`, this one left out (its
    allowlist would vouch for itself)."""
    this = Path(__file__).resolve()
    return [
        path
        for directory in CODE_DIRS
        for path in (ROOT / directory).rglob("*.py")
        if path.resolve() != this
    ]


def missing_names(text: str) -> list[str]:
    """The cited code names one of whose dotted parts occurs nowhere in
    the code."""
    words = set()
    for path in _code():
        words.update(_WORD.findall(path.read_text(encoding="utf-8")))
    names, _ = cited(text)
    return sorted(
        name
        for name in names - OUTSIDE_NAMES
        if not all(part in words for part in name.split("."))
    )


def missing_files(text: str) -> list[str]:
    """The cited paths that exist from neither the repository root,
    ``src`` nor the package root (``cracking/index.py``).  A bare file
    name (``index.py`` in its package's section) may name any code
    file, or a file the code writes (``manifest.json``)."""
    code = _code()
    source = "\n".join(path.read_text(encoding="utf-8") for path in code)
    names = {path.name for path in code}
    _, files = cited(text)
    return sorted(
        path
        for path in files
        if not any(
            (base / path).exists()
            for base in (ROOT, ROOT / "src", ROOT / "src" / "repro")
        )
        and not ("/" not in path and (path in names or path in source))
    )


def slugs(text: str) -> set[str]:
    """The anchors GitHub gives the headings of ``text``."""
    seen: Counter[str] = Counter()
    anchors = set()
    for heading, _ in _sections(text)[1:]:
        slug = re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        anchors.add(f"{slug}-{seen[slug]}" if seen[slug] else slug)
        seen[slug] += 1
    return anchors


def citable(text: str) -> set[str]:
    """What a docstring may cite: every heading and every bold lead,
    without backticks or a closing full stop."""
    targets = set()
    for heading, lines in _sections(text)[1:]:
        targets.add(_plain(heading))
        for line in lines:
            lead = _BOLD_LEAD.match(line)
            if lead:
                targets.add(_plain(lead.group(1)).rstrip(".:"))
    return targets


def broken_links(text: str) -> list[str]:
    anchors = slugs(text)
    return [
        f"{name}: #{anchor}"
        for name in LINKING_FILES
        for anchor in _LINK.findall((ROOT / name).read_text(encoding="utf-8"))
        if anchor not in anchors
    ]


def broken_citations(text: str) -> list[str]:
    targets = citable(text)
    broken = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for citation in _CITATION.findall(source):
            if _plain(citation) not in targets:
                broken.append(f"{path.relative_to(ROOT)}: {citation!r}")
    return broken


def issue_headings(text: str) -> list[str]:
    return [
        heading
        for heading, _ in _sections(text)[1:]
        if re.search(r"\bissues?\b", heading, re.IGNORECASE)
    ]


def numbered_citations() -> list[str]:
    """``path:line`` of each comment or string under ``src`` that
    cites an issue or pull request by number."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type in (tokenize.COMMENT, tokenize.STRING):
                if _NUMBERED.search(token.string):
                    line = token.start[0]
                    found.append(f"{path.relative_to(ROOT)}:{line}")
    return found


def _doc() -> str:
    return DOC.read_text(encoding="utf-8")


def test_every_cited_name_is_in_the_code():
    assert missing_names(_doc()) == []


def test_every_cited_file_exists():
    assert missing_files(_doc()) == []


def test_every_link_into_the_doc_resolves():
    assert broken_links(_doc()) == []


def test_every_docstring_citation_names_a_heading_or_bold_lead():
    assert broken_citations(_doc()) == []


def test_no_heading_names_an_issue():
    assert issue_headings(_doc()) == []


def test_the_doc_stays_short():
    assert len(_doc().splitlines()) <= MAX_LINES


def test_no_comment_or_docstring_cites_an_issue_number():
    assert numbered_citations() == []
