"""Every ``DESIGN.md §N`` that the source cites is a section of DESIGN.md."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r"DESIGN\.md\s+§(\d+)")
HEADING = re.compile(r"^#+\s+§(\d+)\b", re.MULTILINE)


def test_every_cited_design_section_exists():
    cited = {
        (path.relative_to(ROOT).as_posix(), section)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for section in CITATION.findall(path.read_text(encoding="utf-8"))
    }
    assert cited, "no DESIGN.md section is cited under src/"
    sections = set(HEADING.findall((ROOT / "DESIGN.md").read_text(encoding="utf-8")))
    missing = sorted(f"{path} cites §{section}" for path, section in cited
                     if section not in sections)
    assert not missing, missing
