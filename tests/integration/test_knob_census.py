"""Knob census: every ``REPRO_*`` variable the package mentions is
documented in the EXPERIMENTS.md knob table, and nothing else is.

A knob added (or removed) in ``src/`` without its table row fails
here, so the table stays the one list of what a run can be told.
"""

from __future__ import annotations

import pathlib
import re

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _source_knobs():
    names = set()
    for path in (_ROOT / "src").rglob("*.py"):
        names.update(_NAME.findall(path.read_text()))
    return names


def _table_knobs():
    text = (_ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Single-host supervision", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `REPRO_"):
            first_cell = line.split("|")[1]
            names.update(_NAME.findall(first_cell))
    return names


def test_source_knobs_match_the_documented_table():
    source, table = _source_knobs(), _table_knobs()
    assert source == table, (
        f"undocumented: {sorted(source - table)}; "
        f"documented but unused: {sorted(table - source)}"
    )
    # A ratchet, not a target: lower it when a knob goes away.
    assert len(source) <= 18
