"""The README's Python quickstart runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_quickstart_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quickstart (Python)")[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("P=") for line in lines), lines
