#!/usr/bin/env python3
"""Docs link checker: keeps the prose wired to the repository.

The failure mode this guards against, which no compiler sees: a relative
link or intra-repo anchor in README.md or docs/*.md points at a file or
heading that no longer exists (file moved, heading reworded).

That docs/spec-format.md documents every spec key, and no key that the
parser does not accept, is checked against the parser's own field tables
by a gtest (SchemaDocsTest in tests/spec_io_test.cpp), not here.

Runs as a ctest (`check_docs`) and as a CI step. Pure stdlib Python, no
build needed.

Usage: check_docs.py --root <repo root>
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor rule: lowercase, drop punctuation,
    spaces to hyphens (good enough for the ASCII headings we write)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md_path: pathlib.Path) -> set[str]:
    return {github_anchor(h) for h in HEADING_RE.findall(md_path.read_text())}


def check_links(root: pathlib.Path, docs: list[pathlib.Path]) -> list[str]:
    errors = []
    for doc in docs:
        text = doc.read_text()
        # Strip fenced code blocks: example snippets are not live links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = doc if not path_part else (doc.parent / path_part).resolve()
            rel = doc.relative_to(root)
            if not dest.exists():
                errors.append(f"{rel}: dead link '{target}' (no such file)")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(
                        f"{rel}: dead anchor '{target}' "
                        f"(no heading '#{anchor}' in {dest.name})")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    docs = [d for d in docs if d.exists()]
    errors = check_links(root, docs)
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(docs)} documents — all links wired")
    return 0


if __name__ == "__main__":
    sys.exit(main())
