"""The README's quickstarts run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from cellrisk.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _block(heading: str, language: str) -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(heading)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_python_quickstart_runs(monkeypatch, capsys):
    code = _block("## Quickstart (Python)", "python")
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("P=") for line in lines), lines


def test_readme_cli_quickstart_runs(monkeypatch, tmp_path):
    # Every `cellrisk ...` line, backslash continuations joined, in a scratch
    # directory that sees the shipped configs.
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    script = _block("## Quickstart (CLI)", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("cellrisk ")]
    assert len(commands) == 4
    for argv in commands:
        res = CliRunner().invoke(main, argv[1:])
        assert res.exit_code == 0, (argv, res.output)


def test_readme_names_exactly_the_commands_options():
    # Every --flag the README names is an option of a command, and every option is named.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) - {"--no-build-isolation"}
    options = {opt for command in main.commands.values() for param in command.params
               for opt in param.opts}
    assert named == options
