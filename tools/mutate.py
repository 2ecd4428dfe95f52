"""A mutation pass over the core: flip one comparison at a time and see whether tier-1 notices.

Each comparison operator inside a function of the modules below (<, <=, >,
>=, == and !=) is flipped to its partner (< and <=, > and >=, == and !=),
one mutant at a time, in a temporary copy of the checkout; for each mutant
tier-1 runs with -x, the mutated module's own test file first. A mutant is
killed when the run fails or times out. The JSON written holds one row per
mutant (module, function, line, operator, killed, first failing test,
equivalent) and the score: killed over the mutants not known to be
equivalent. Only the standard library is used.

    python tools/mutate.py > mutants.json

A full pass runs tier-1 once per mutant, one after another: about 115 runs
of up to a minute each, some 40 minutes on a 2-CPU Xeon.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "cellrisk"
MODULES = ("bpa.py", "mapper.py", "cellspace.py", "configuration.py")
# Each module's own tests, run first so that a mutant they kill is found fast.
OWN_TESTS = {"bpa.py": "tests/test_bpa.py", "mapper.py": "tests/test_mapper.py",
             "cellspace.py": "tests/test_cellspace.py",
             "configuration.py": "tests/test_configuration.py"}
# Seconds before a tier-1 run counts as killed by a timeout.
TIMEOUT = 600.0
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
_OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}

# Flips no test can kill, each found by (module, function, the comparison's
# source, a piece of its line) and given its reason.
EQUIVALENT = [
    ("bpa.py", "TopEvent.validate_against", "self.lower[l] < spec.upper[l]",
     "self.lower[l] < spec.upper[l]",
     "lower < upper <= spec.upper implies it, and the upper bound is checked first"),
    ("bpa.py", "backtrack", "entry[source] > 1.0", "if entry[source] > 1.0:",
     "capping an entry of exactly 1.0 at 1.0 changes nothing"),
    ("bpa.py", "backtrack", "q <= 0.0", "q < truncation or q <= 0.0",
     "map entries are positive, so no level-1 q is 0.0"),
    ("cellspace.py", "bin_points", "k > 1", "if k > 1]",
     "a one-interval dimension floors to 0, or to 1 at its top bound, which the clip makes 0"),
    ("mapper.py", "build_map", "workers <= 1", "piece = n_j if workers <= 1",
     "with one worker the piece is ceil(n_j / 1) == n_j either way"),
    ("mapper.py", "TransitionMap.__post_init__", "src < C", "inner = (src < C) & (col < C)",
     "the exterior row's one edge is its self-loop, which col < C drops"),
    ("mapper.py", "_off_rows", "np.abs(sums - 1.0) > ROW_SUM_TOL", "> ROW_SUM_TOL",
     "no double near one is exactly ROW_SUM_TOL from it"),
    ("mapper.py", "forward_step", "abs(total - 1.0) > ROW_SUM_TOL", "> ROW_SUM_TOL",
     "no double near one is exactly ROW_SUM_TOL from it"),
    ("configuration.py", "ComponentMatrix.__post_init__", "abs(total - 1.0) > ROW_SUM_TOL",
     "> ROW_SUM_TOL", "no double near one is exactly ROW_SUM_TOL from it"),
]


def mutants(module: str, source: str) -> list[dict]:
    """One row per comparison operator inside a function of the module's source.

    A row holds where the operator token is (line, column, its text) so
    that flipping it edits only that token.
    """
    lines = source.splitlines()
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
           if t.type == tokenize.OP and t.string in FLIPS]
    rows, segment = [], lambda node: ast.get_source_segment(source, node)

    def visit(node: ast.AST, scope: list[str], in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
            in_function = in_function or not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.Compare) and in_function:
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if type(op) not in _OPS:   # in, not in, is, is not
                    continue
                before, after = operands[k], operands[k + 1]
                start = (before.end_lineno, before.end_col_offset)
                end = (after.lineno, after.col_offset)
                token, = [t for t in ops if start <= t.start and t.end <= end]
                rows.append({"module": module, "function": ".".join(scope),
                             "line": token.start[0], "column": token.start[1],
                             "operator": f"{_OPS[type(op)]} -> {FLIPS[_OPS[type(op)]]}",
                             "comparison": " ".join(segment(node).split()),
                             "source_line": lines[token.start[0] - 1].strip()})
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    for row in rows:
        row["equivalent"] = next((reason for m, f, comparison, line, reason in EQUIVALENT
                                  if (m, f, comparison) == (row["module"], row["function"],
                                                            row["comparison"])
                                  and line in row["source_line"]), None)
    return rows


def flip(source: str, row: dict) -> str:
    """The source with the one operator token of row flipped."""
    lines = source.splitlines(keepends=True)
    i, col = row["line"] - 1, row["column"]
    old, new = row["operator"].split(" -> ")
    assert lines[i][col:col + len(old)] == old, (row, lines[i])
    lines[i] = lines[i][:col] + new + lines[i][col + len(old):]
    return "".join(lines)


def run_tier1(checkout: Path, own_tests: str) -> tuple[bool, str | None]:
    """Whether tier-1 fails in the checkout, and its first failing test."""
    shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)   # no examples kept from before
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    # The suite's check of this script reads the mutated source, so it is left out.
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "--ignore=tests/test_mutate_tool.py", own_tests, "tests"]
    try:
        res = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, f"timeout after {TIMEOUT:.0f} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.MULTILINE)
    return res.returncode != 0, failed.group(1) if failed else (
        None if res.returncode == 0 else f"exit {res.returncode}")


def copy_checkout(into: Path) -> Path:
    """A copy of the checkout's sources, tests and configs in the directory into."""
    ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                    ".benchmarks", ".bench_*", "*.egg-info")
    for name in ("src", "tests", "configs", "bench"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md", "ROADMAP.md"):
        shutil.copy2(ROOT / name, into / name)
    return into


def main() -> int:
    sources = {m: (ROOT / PACKAGE / m).read_text(encoding="utf-8") for m in MODULES}
    rows = [row for m, source in sources.items() for row in mutants(m, source)]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        checkout = copy_checkout(Path(tmp))
        for row in rows:
            target = checkout / PACKAGE / row["module"]
            t0 = time.perf_counter()
            target.write_text(flip(sources[row["module"]], row), encoding="utf-8")
            row["killed"], row["first_failure"] = run_tier1(checkout, OWN_TESTS[row["module"]])
            target.write_text(sources[row["module"]], encoding="utf-8")
            row["seconds"] = round(time.perf_counter() - t0, 1)
            print(f"{row['module']}:{row['line']} {row['function']} {row['operator']}: "
                  f"{'killed by ' + str(row['first_failure']) if row['killed'] else 'SURVIVED'}"
                  f"{' (equivalent)' if row['equivalent'] else ''}", file=sys.stderr, flush=True)
    counted = [row for row in rows if not row["equivalent"]]
    killed = sum(row["killed"] for row in counted)
    json.dump({"mutants": rows, "counted": len(counted), "killed": killed,
               "equivalent": len(rows) - len(counted),
               "score": round(killed / len(counted), 4) if counted else None,
               "survivors": [f"{row['module']}:{row['line']} {row['function']} {row['operator']}"
                             for row in counted if not row["killed"]]},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
