"""Built-in example corpus.

Entries ship as JSON data files (polynomial grammar for the
expressions) so users can drop in their own.  Each entry records the
expected verdicts where a definite expectation exists; the examples
runner diffs observed verdicts against these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .poly import Polynomial, parse


@dataclass
class CorpusEntry:
    name: str
    nvars: int
    p_expr: str
    pos3_mode: str
    q_expr: str = "1"
    expected: dict = field(default_factory=dict)  # condition -> verdict string
    scan_m_max: Optional[int] = None
    expect_onset: Optional[object] = None  # int, "finite", "none", or None
    notes: str = ""

    @property
    def p(self) -> Polynomial:
        return parse(self.p_expr, self.nvars)

    @property
    def q(self) -> Polynomial:
        return parse(self.q_expr, self.nvars)


def _entry_from_dict(data: dict) -> CorpusEntry:
    scan = data.get("scan") or {}
    return CorpusEntry(
        name=data["name"],
        nvars=int(data["nvars"]),
        p_expr=data["p"],
        pos3_mode=data["pos3_mode"],
        q_expr=data.get("q", "1"),
        expected=data.get("expected", {}),
        scan_m_max=scan.get("m_max"),
        expect_onset=scan.get("expect_onset"),
        notes=data.get("notes", ""),
    )


def load_corpus() -> dict[str, CorpusEntry]:
    entries: dict[str, CorpusEntry] = {}
    root = resources.files(__package__) / "corpus"
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json"):
            entry = _entry_from_dict(json.loads(path.read_text()))
            entries[entry.name] = entry
    return entries

