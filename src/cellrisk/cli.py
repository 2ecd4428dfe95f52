"""Command-line orchestration: the four commands, their exit codes and the run report.

The inputs are read by cellrisk.run (the config, the simulator registry and
the rule pairing a map with its config). See the project README for the
config schema and the documented exit codes.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import NoReturn

import click
import numpy as np

from . import bpa as bpa_mod
from . import mapper as mapper_mod
from .bpa import (
    backtrack,
    event_cells,
    rank_paths,  # unused here; bench/tracer.py wraps cli.rank_paths by name
    tree_to_dot,
    tree_to_text,
    write_tree,
)
from .cellspace import id_to_coord
from .configuration import _Field, _range_problem
from .mapper import (
    BudgetError,
    BuildError,
    MapFormatError,
    TransitionMap,
    build_map,
    json_array,
    load_map,  # called as cli.load_map, which bench/tracer.py wraps by name
    save_map,
    write_json,
)
# _make_simulator too is called as cli._make_simulator, which bench/tracer.py wraps by name.
from .run import _SETTINGS, ConfigError, RunConfig, _make_simulator, _map_mismatches, load_config

__all__ = [
    "EXIT_OK",
    "EXIT_NO_PATHS",
    "EXIT_CONFIG_ERROR",
    "EXIT_VALIDATION_FAILURE",
    "EXIT_BUDGET_ERROR",
    "main",
]

EXIT_OK = 0
EXIT_NO_PATHS = 2
EXIT_CONFIG_ERROR = 3
EXIT_VALIDATION_FAILURE = 4
EXIT_BUDGET_ERROR = 5

REPORT_FORMAT = "cellrisk-run-report"
REPORT_FORMAT_VERSION = 1


def _unwritable(inputs: dict[str, str], outputs: dict[str, str | None]) -> list[str]:
    """A problem for every output path that is a directory, lies in none, or is the same
    file as an input or an earlier output (both flags named)."""
    problems, taken = [], {os.path.realpath(path): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        if path is None:
            continue
        full = os.path.abspath(path)
        if os.path.isdir(full):
            problems.append(f"{flag} {path!r} is a directory")
        elif not os.path.isdir(os.path.dirname(full)):
            problems.append(f"{flag} {path!r}: directory does not exist")
        elif (real := os.path.realpath(full)) in taken:
            problems.append(f"{flag} {path!r} is the same file as {taken[real]}")
        else:
            taken[real] = flag
    return problems


def _fail(kind: str, problems: list[str], code: int = EXIT_CONFIG_ERROR) -> NoReturn:
    """Name every problem on stderr and exit with a documented code."""
    for p in problems:
        click.echo(f"{kind} error: {p}", err=True)
    sys.exit(code)


def _load_inputs(config_path: str, map_path: str) -> tuple[RunConfig, TransitionMap]:
    """Config and map of a search command; a map built for another config is a config error."""
    cfg, tmap = load_config(config_path), load_map(map_path)
    if mismatches := _map_mismatches(cfg, tmap):
        raise ConfigError([f"{m}; rebuild the map for this config" for m in mismatches])
    return cfg, tmap


_EXITS = {
    ConfigError: ("config", EXIT_CONFIG_ERROR),
    MapFormatError: ("map", EXIT_CONFIG_ERROR),
    BuildError: ("build", EXIT_CONFIG_ERROR),
    BudgetError: ("budget", EXIT_BUDGET_ERROR),
}


class _Commands(click.Group):
    """The commands; one that raises an error in _EXITS exits with its (kind, exit code).

    A usage error (no or an unknown command, bad or missing option) exits
    EXIT_CONFIG_ERROR with click's message, not click's 2, which is EXIT_NO_PATHS.
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:  # the group's own arguments, or none at all
            exc.exit_code = EXIT_CONFIG_ERROR
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG_ERROR
            raise
        except tuple(_EXITS) as exc:
            kind, code = next(v for t, v in _EXITS.items() if isinstance(exc, t))
            _fail(kind, getattr(exc, "problems", [str(exc)]), code)


@click.group(cls=_Commands)
def main() -> None:
    """Cell-to-cell risk mapping and backtracking scenario search."""


# An input option's file must exist and not be a directory: click names either problem.
_INPUT_FILE = click.Path(exists=True, dir_okay=False)


@main.command("build-map")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--out", "out_path", required=True, type=click.Path())
def build_map_cmd(config_path, out_path) -> None:
    """Build the transition map for a configuration and persist it."""
    if problems := _unwritable({"--config": config_path}, {"--out": out_path}):
        _fail("option", problems)
    cfg = load_config(config_path)
    model = _make_simulator(cfg)
    t0 = time.perf_counter()
    tmap = build_map(model, cfg.spec, cfg.config_model, dt=cfg.dt,
                     samples=cfg.samples_per_cell, seed=cfg.seed, workers=cfg.workers,
                     sample_budget=cfg.sample_budget)
    elapsed = time.perf_counter() - t0
    save_map(tmap, out_path)
    click.echo(
        f"built map: {tmap.n_cells} sources, {tmap.n_edges} edges, "
        f"exterior mass {tmap.total_exterior_mass():.6g}, {elapsed:.1f}s -> {out_path}"
    )


@main.command("run-bpa")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--out-tree", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-report", type=click.Path(), default=None)
@click.option("--out-text", type=click.Path(), default=None)
@click.option("--depth", type=int, default=None, help="Search depth; defaults to search_depth.")
def run_bpa_cmd(config_path, map_path, out_tree, out_graph, out_report, out_text, depth) -> None:
    """Backtrack from the Top Event and write tree, graph, report and indented text."""
    problems = _unwritable(
        {"--config": config_path, "--map": map_path},
        {"--out-tree": out_tree, "--out-graph": out_graph, "--out-report": out_report,
         "--out-text": out_text})
    if problem := _range_problem(depth, _SETTINGS["search_depth"], "--depth"):  # None: no --depth
        problems.insert(0, problem)
    if problems:
        _fail("option", problems)
    cfg, tmap = _load_inputs(config_path, map_path)
    if depth is not None:
        cfg.search_depth = depth  # the report echoes the depth searched
    t0 = time.perf_counter()
    tree = backtrack(tmap, cfg.event, depth=cfg.search_depth,
                     truncation=cfg.truncation, node_budget=cfg.node_budget)
    t1 = time.perf_counter()
    ranking = tree.ranking()
    t2 = time.perf_counter()

    if out_tree:
        write_tree(tree, out_tree)
    for out, render in ((out_graph, tree_to_dot), (out_text, tree_to_text)):
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(render(tree))
    if out_report:
        def report():
            """The report's fields in key order; the timings are taken once the rows are written."""
            import hashlib  # imported here: only the report uses it, and it costs 4 ms to import
            yield "config", cfg.normalized_dict()
            yield "format", REPORT_FORMAT
            with open(map_path, "rb") as fh:   # named by content, not by where it lies
                digest = hashlib.sha256(fh.read()).hexdigest()
            yield "map", {"sha256": digest, "sources": tmap.n_cells, "edges": tmap.n_edges,
                          "exterior_mass": tmap.total_exterior_mass(),
                          "simulator": tmap.simulator, "seed": tmap.seed}
            yield "ranked_paths", json_array(bpa_mod.encode_ranked_paths(ranking))
            # export_seconds covers the tree, graph and text writes and the
            # report's rows, not the report's other fields
            yield "timings", {"search_seconds": t1 - t0, "rank_seconds": t2 - t1,
                              "export_seconds": time.perf_counter() - t2}
            yield "tree", {"nodes": tree.n_nodes, "paths": len(ranking),
                           "max_depth_reached": tree.max_depth_reached,
                           "event_cells": len(tree.event_cell_ids)}
            yield "version", REPORT_FORMAT_VERSION

        write_json(out_report, report())

    click.echo(f"tree: {tree.n_nodes} nodes, {len(ranking)} ranked paths")
    for p in ranking.paths(10):
        click.echo(f"  P={p.cumulative:.6g}  {p.render()}")
    if not tree.n_nodes:
        click.echo("no risk-significant paths lead to the Top Event")
        sys.exit(EXIT_NO_PATHS)
    sys.exit(EXIT_OK)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--oracle-trials", type=int, default=2000, show_default=True)
def validate_cmd(config_path, map_path, oracle_trials) -> None:
    """Run invariant suites and oracle cross-checks; nonzero exit on failure."""
    if problem := _range_problem(oracle_trials, _Field("an integer", low=1), "--oracle-trials"):
        _fail("option", [problem])
    cfg = load_config(config_path)
    if oracle_trials > cfg.sample_budget:  # before any trial is drawn
        raise BudgetError(f"--oracle-trials {oracle_trials} exceeds sample_budget "
                          f"{cfg.sample_budget}")
    try:
        tmap = load_map(map_path)
    except MapFormatError as exc:
        _fail("map", [str(exc)], EXIT_VALIDATION_FAILURE)
    failures = [f"spec-echo: {m}" for m in _map_mismatches(cfg, tmap)]
    if not failures:
        # Imported here: only validate uses the oracle, and it slows every command's start-up.
        from . import oracle as oracle_mod

        model = _make_simulator(cfg)
        cell = id_to_coord(0, cfg.spec)
        row = mapper_mod.estimate_g(cell, model, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 1)
        emp = oracle_mod.empirical_transition(
            model, cell, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 2
        )
        row_d, emp_d = dict(row), dict(emp)
        tv = 0.5 * sum(abs(row_d.get(k, 0) - emp_d.get(k, 0)) for k in row_d | emp_d)
        # 0.05 is calibrated for the default 2000 trials; scale with the
        # sampling standard error for other counts.
        tol = 0.05 * math.sqrt(2000.0 / oracle_trials)
        if tv > tol:
            failures.append(
                f"oracle-row: total-variation {tv:.4f} > {tol:.4f} "
                f"at {oracle_trials} trials"
            )

    if failures:
        for f in failures:
            click.echo(f"FAIL {f}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
    click.echo("all checks passed")
    sys.exit(EXIT_OK)


@main.command("forward-check")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--cell", "cell_id", required=True, type=int,
              help="Flat cell id carrying the initial point mass.")
@click.option("--steps", type=int, default=None, help="Horizon; defaults to search_depth.")
def forward_check_cmd(config_path, map_path, cell_id, steps) -> None:
    """Push a point mass forward and report the event-set probability."""
    if problem := _range_problem(steps, _Field("an integer", low=0), "--steps"):  # None: no --steps
        _fail("option", [problem])
    cfg, tmap = _load_inputs(config_path, map_path)
    if not 0 <= cell_id < tmap.n_cells:
        _fail("option", [f"--cell must be in [0, {tmap.n_cells}), got {cell_id}"])
    k = steps if steps is not None else cfg.search_depth
    if k * (tmap.n_edges + 1) > cfg.sample_budget:  # before the first push
        raise BudgetError(f"{k} steps x {tmap.n_edges + 1} map entries = "
                          f"{k * (tmap.n_edges + 1)} exceeds sample_budget {cfg.sample_budget}")
    dist = np.zeros(tmap.n_cells + 1)
    dist[cell_id] = 1.0
    prob = bpa_mod.event_probability(tmap, dist, event_cells(cfg.event, cfg.spec), k)
    click.echo(f"P(event after {k} steps | start cell {cell_id}) = {prob:.12g}")


if __name__ == "__main__":
    main()
