"""tools/mutate.py finds its mutants in the sources as they stand.

The mutation pass itself runs the suite once per mutant, so it is not part
of the suite; these checks keep its table of equivalent flips and its
operator edits in step with the code they name.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _mutants(tool):
    """Each module's source and its mutants."""
    sources = {m: (ROOT / tool.PACKAGE / m).read_text(encoding="utf-8") for m in tool.MODULES}
    return {m: (source, tool.mutants(m, source)) for m, source in sources.items()}


def test_every_listed_equivalent_flip_is_one_mutant():
    tool = _load_tool()
    rows = [row for _, module_rows in _mutants(tool).values() for row in module_rows]
    flagged = [(r["module"], r["function"], r["comparison"]) for r in rows if r["equivalent"]]
    assert sorted(flagged) == sorted((m, f, c) for m, f, c, _, _ in tool.EQUIVALENT)


def test_each_flip_changes_one_operator_and_nothing_else():
    tool = _load_tool()
    for source, rows in _mutants(tool).values():
        assert rows
        for row in rows:
            mutant = tool.flip(source, row)
            ast.parse(mutant)
            changed = [(a, b) for a, b in zip(source.splitlines(), mutant.splitlines()) if a != b]
            assert len(changed) == 1 and changed[0][0].strip() == row["source_line"]
            (line, flipped), col = changed[0], row["column"]
            old, new = row["operator"].split(" -> ")
            assert flipped == line[:col] + new + line[col + len(old):]
