#!/usr/bin/env python
"""CI gate: every relative link and bare file reference must resolve.

Scans ``README.md`` and ``docs/*.md`` for Markdown links, and those
files plus the ``.py`` files under ``src/repro`` and ``benchmarks`` for
bare file references, and fails when one points at a file that does not
exist — the docs map paper algorithms to concrete modules, so a
dangling reference means the map rotted.

Checked:  ``[text](relative/path)`` including ``path#anchor`` forms
          (the path part must exist; anchors are not validated);
          bare ``*.md`` names and bare repo paths under ``src/``,
          ``tests/``, ``benchmarks/``, ``tools/`` and ``docs/``,
          resolved against the referencing file's directory or the
          repo root.
Skipped:  absolute URLs (``http(s)://``, ``mailto:``), pure in-page
          anchors (``#section``), ``<placeholder>`` and glob
          (``*``, ``{a,b}``) forms, and :data:`GENERATED` outputs.

Run:  python tools/check_doc_links.py
Exit: 0 when everything resolves, 1 otherwise (broken entries on stderr).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) — target captured lazily so
#: titles ("path \"title\"") and anchors stay attached for splitting.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Bare references: a repo path under one of the checked roots, or any
#: token ending in ``.md``. The look-behind keeps the match at the start
#: of a path (``../src/x.py`` is a Markdown link target, checked above).
BARE_REF = re.compile(
    r"(?<![\w./<>*{}-])"
    r"((?:src|tests|benchmarks|tools|docs)/[\w./<>*{},-]*|[\w./<>*{},-]*\.md)"
    r"(?![\w-])"
)

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Placeholder and glob markers: such a reference names a pattern.
PATTERN_CHARS = frozenset("<>*{}")

#: Files tools write on demand and the repo does not keep
#: (``python -m repro.bench.report`` writes ``EXPERIMENTS.md``).
GENERATED = frozenset({"EXPERIMENTS.md"})


def iter_doc_files():
    """The Markdown files under the link-check contract."""
    yield ROOT / "README.md"
    docs = ROOT / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def iter_source_files():
    """The Python files whose bare references are checked."""
    for top in ("src/repro", "benchmarks"):
        base = ROOT / top
        if base.is_dir():
            yield from sorted(base.rglob("*.py"))


def check_file(path: Path) -> list[str]:
    """Return 'file: target' entries for every broken link in ``path``."""
    broken = []
    text = path.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(f"{path.relative_to(ROOT)}: {target}")
    return broken


def check_bare_refs(path: Path) -> list[str]:
    """Return 'file:line: ref' entries for unresolved bare references."""
    broken = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        for match in BARE_REF.finditer(line):
            ref = match.group(1).rstrip(".,")
            if PATTERN_CHARS.intersection(ref) or ref in GENERATED:
                continue
            relative = ref.rstrip("/")
            if (path.parent / relative).exists() or (ROOT / relative).exists():
                continue
            broken.append(f"{path.relative_to(ROOT)}:{lineno}: {ref}")
    return broken


def main() -> int:
    """Check every doc and source file; print a summary; fail on breaks."""
    docs = [path for path in iter_doc_files() if path.exists()]
    sources = list(iter_source_files())
    broken = [entry for path in docs for entry in check_file(path)]
    broken += [entry for path in docs + sources for entry in check_bare_refs(path)]
    print(f"link check: {len(docs)} doc files, {len(sources)} source files scanned")
    if broken:
        print("broken references:", file=sys.stderr)
        for entry in broken:
            print(f"  - {entry}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
