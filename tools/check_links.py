#!/usr/bin/env python
"""Fail on broken intra-repo links in the documentation.

Scans ``README.md`` and ``docs/*.md`` for inline Markdown links
(``[text](target)``), resolves every relative target against the file that
contains it, and exits non-zero listing any target that does not exist.
Anchors (``architecture.md#layer-map``) are checked against the headings of
the target file.  External links (``http(s)://``, ``mailto:``) are skipped —
this is a hermetic check, meant for CI.

It also scans every ``.py`` file under ``src/``, ``benchmarks/``,
``examples/`` and ``tools/`` for Markdown file names, bare
(``workloads.md``) or repo-relative (``docs/workloads.md``), and fails on
any name that is no file in the repository root or in ``docs/``: a
docstring or comment that sends its reader to a page that does not exist.

    python tools/check_links.py [root]
"""
from __future__ import annotations

import functools
import re
import sys
from pathlib import Path
from typing import List, Tuple

#: inline links; the target is the first token, an optional "title" may follow
_LINK = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: a Markdown file name in Python source, bare or repo-relative (never the
#: tail of a URL)
_MD_NAME = re.compile(r"(?<![\w./-])([\w-][\w./-]*\.md)\b")
#: the Python trees whose Markdown mentions must resolve
_SOURCE_DIRS = ("src", "benchmarks", "examples", "tools")


def slugify(heading: str) -> str:
    """GitHub-style anchor of a heading."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def anchors_of(path: Path) -> set:
    content = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {slugify(m.group(1)) for m in _HEADING.finditer(content)}


def check_file(path: Path, root: Path) -> List[Tuple[str, str]]:
    """Broken links of one file as (target, reason) pairs."""
    content = path.read_text(encoding="utf-8")
    # links inside fenced code blocks are examples, not navigation
    content = _CODE_FENCE.sub("", content)
    broken = []
    for match in _LINK.finditer(content):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if slugify(target[1:]) not in anchors_of(path):
                broken.append((target, "no such heading in this file"))
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            broken.append((target, "points outside the repository"))
            continue
        if not resolved.exists():
            broken.append((target, "file does not exist"))
            continue
        if anchor and resolved.suffix == ".md":
            if slugify(anchor) not in anchors_of(resolved):
                broken.append((target, f"no heading '#{anchor}' in {file_part}"))
    return broken


def dangling_md_names(path: Path, root: Path) -> List[str]:
    """Markdown file names in a Python file that name no file in ``root``
    or ``root/docs``."""
    names = set(_MD_NAME.findall(path.read_text(encoding="utf-8")))
    return sorted(
        name for name in names
        if not (root / name).is_file() and not (root / "docs" / name).is_file()
    )


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    pages = sorted([root / "README.md", *(root / "docs").glob("*.md")])
    missing_pages = [p for p in pages if not p.is_file()]
    if missing_pages:
        for page in missing_pages:
            print(f"ERROR: expected documentation page {page} is missing")
        return 1

    failures = 0
    for page in pages:
        for target, reason in check_file(page, root):
            print(f"BROKEN {page.relative_to(root)}: ({target}) — {reason}")
            failures += 1
    sources = sorted(p for d in _SOURCE_DIRS for p in (root / d).rglob("*.py"))
    for source in sources:
        for name in dangling_md_names(source, root):
            print(f"BROKEN {source.relative_to(root)}: {name} — no such file in the "
                  "repository root or docs/")
            failures += 1
    checked = ", ".join(str(p.relative_to(root)) for p in pages)
    checked += f" and {len(sources)} Python file(s) under " + ", ".join(
        f"{d}/" for d in _SOURCE_DIRS)
    if failures:
        print(f"\n{failures} broken link(s) across {checked}")
        return 1
    print(f"all intra-repo links OK in {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
