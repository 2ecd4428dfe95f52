from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import cellrisk
from _synthetic import tree_to_dict
from conftest import CONFIGS
from cellrisk.bpa import RankedPath, backtrack, event_cells, rank_paths, tree_to_dot
from cellrisk.cellspace import EXTERIOR_ID
from cellrisk.cli import (
    EXIT_BUDGET_ERROR,
    EXIT_CONFIG_ERROR,
    EXIT_NO_PATHS,
    EXIT_OK,
    EXIT_VALIDATION_FAILURE,
    main,
)
from cellrisk.mapper import build_map, load_map, save_map
from cellrisk.run import SIMULATORS, ConfigError, load_config

DRIFT_CONFIG = {
    "numProcessVariables": 1,
    "processVariablesNames": ["x"],
    "numSystemComponents": 1,
    "systemComponentNames": ["component"],
    "systemComponentStates": [2],
    "systemComponentStateNames": [["ok", "failed"]],
    "variableUpperBounds": [10.0],
    "variableLowerBounds": [0.0],
    "numberOfCells": [10],
    "sysConfTransProb": [[["~1", 1.0e-4], [0, 1]]],
    "eventUpperBounds": [10.0, 2],
    "eventLowerBounds": [8.0, 1],
    "simulator": "linear-drift",
    "simulator_params": {"velocity": [1.0]},
    "dt": 1.0,
    "samples_per_cell": 64,
    "search_depth": 2,
    "truncation": 1.0e-6,
    "seed": 99,
}


def _baseline_copy(tmp_path, name="agv.yaml", **edits):
    """configs/agv_baseline.yaml with edits, written to tmp_path."""
    doc = yaml.safe_load((CONFIGS / "agv_baseline.yaml").read_text())
    path = tmp_path / name
    path.write_text(yaml.safe_dump(dict(doc, **edits)))
    return path


def write_config(tmp_path, overrides=None, name="config.yaml"):
    doc = dict(DRIFT_CONFIG)
    if overrides:
        doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_load_config_normalizes(tmp_path):
    cfg = load_config(str(write_config(tmp_path)))
    assert cfg.spec.partitions == (10,)
    assert cfg.spec.states == (2,)
    assert cfg.event.configs == frozenset({(1,), (2,)})
    assert cfg.config_model.matrices[0].entries[0, 0] == 1.0 - 1.0e-4
    assert cfg.dt == 1.0 and cfg.search_depth == 2


def test_load_config_round_trip(tmp_path):
    cfg = load_config(str(write_config(tmp_path)))
    echoed = cfg.normalized_dict()
    path = tmp_path / "echo.yaml"
    path.write_text(yaml.safe_dump(echoed))
    again = load_config(str(path))
    assert again.normalized_dict() == echoed


def test_load_config_parses_pi_and_fraction_strings(tmp_path):
    path = write_config(
        tmp_path,
        {
            "variableUpperBounds": ["pi/3"],
            "variableLowerBounds": ["-pi/3"],
            "eventUpperBounds": ["pi/3", 2],
            "eventLowerBounds": [0.0, 1],
            "dt": "2/3",
        },
    )
    cfg = load_config(str(path))
    assert cfg.spec.upper == (math.pi / 3,)
    assert cfg.spec.lower == (-math.pi / 3,)
    assert cfg.dt == pytest.approx(2.0 / 3.0)


def test_load_config_reports_all_problems(tmp_path):
    path = write_config(
        tmp_path,
        {
            "simulator": "not-a-simulator",
            "search_depth": 0,
            "truncation": 1.5,
        },
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    text = " ".join(err.value.problems)
    assert "simulator" in text and "search_depth" in text and "truncation" in text
    assert len(err.value.problems) == 3


def test_load_config_rejects_malformed_matrix_row(tmp_path):
    path = write_config(tmp_path, {"sysConfTransProb": [[[0.5, 0.6], [0.0, 1.0]]]})
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert any("row 1" in p for p in err.value.problems)


# Inputs whose every problem must end the run, named: none may pass with a
# warning, a repaired entry or an ignored field, and both problems of
# matrix-and-event must be named in one pass.
ONE_VERDICT_PER_PROBLEM = {
    "trailing-cell-count": ({"numberOfCells": [10, 7]},
                            ["numberOfCells trailing entry 7 does not match the configuration "
                             "count 2 implied by systemComponentStates"]),
    "rounded-diagonal": ({"sysConfTransProb": [[[0.999, 0.0005], [0, 1]]]},
                         ["sysConfTransProb: component 0 row 1: sums to 0.9994"]),
    "event-configs-and-range": ({"eventConfigs": [[2]], "eventUpperBounds": [10.0, 1],
                                 "eventLowerBounds": [8.0, 1]},
                                ["eventConfigs and the eventLowerBounds/eventUpperBounds trailing "
                                 "configuration range 1..1 both given"]),
    "matrix-and-event": ({"sysConfTransProb": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                          "eventUpperBounds": [12.0, 2]},
                         ["sysConfTransProb component 0 is 3x3, expected 2x2",
                          "event definition: "]),
    # The range is neither named nor built when the state count is a problem.
    "bad-state-count-and-huge-range": ({"systemComponentStates": [0],
                                        "eventUpperBounds": [10.0, 1.0e12]},
                                       ["space specification: component 0: state count must "
                                        "be >= 1"]),
}


@pytest.mark.parametrize("case", sorted(ONE_VERDICT_PER_PROBLEM))
def test_load_config_names_every_problem_once(tmp_path, case):
    override, words = ONE_VERDICT_PER_PROBLEM[case]
    with pytest.raises(ConfigError) as err:
        load_config(str(write_config(tmp_path, override)))
    assert len(err.value.problems) == len(words)
    for problem, word in zip(err.value.problems, words):
        assert problem.startswith(word), err.value.problems


@pytest.mark.parametrize("command", ["build-map", "run-bpa", "validate", "forward-check"])
@pytest.mark.parametrize("case", sorted(ONE_VERDICT_PER_PROBLEM))
def test_config_readers_reject_every_problem(tmp_path, case, command):
    override, words = ONE_VERDICT_PER_PROBLEM[case]
    cfg_path = write_config(tmp_path, override)
    map_path = tmp_path / "map.json"  # never read: the config fails first
    map_path.write_text("{}")
    args = {
        "build-map": ["--out", str(tmp_path / "out.json")],
        "run-bpa": ["--map", str(map_path)],
        "validate": ["--map", str(map_path)],
        "forward-check": ["--map", str(map_path), "--cell", "0"],
    }[command]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + args)
    _assert_named_exit_3(res, *(f"config error: {word}" for word in words))
    assert "warning" not in res.output and not (tmp_path / "out.json").exists()


def test_build_and_run_pipeline(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    res = runner.invoke(
        main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)]
    )
    assert res.exit_code == EXIT_OK, res.output
    assert map_path.exists()
    assert "sources" in res.output

    tree_path = tmp_path / "tree.json"
    dot_path = tmp_path / "tree.gv"
    report_path = tmp_path / "report.json"
    res = runner.invoke(
        main,
        [
            "run-bpa", "--config", str(cfg_path), "--map", str(map_path),
            "--out-tree", str(tree_path), "--out-graph", str(dot_path),
            "--out-report", str(report_path),
        ],
    )
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads(tree_path.read_text())
    assert doc["format"] == "cellrisk-scenario-tree"
    assert doc["n_nodes"] > 0
    assert dot_path.read_text().startswith("digraph scenario_tree {")
    text = report_path.read_text()
    report = json.loads(text)
    assert report["tree"]["paths"] > 0
    assert report["config"]["simulator"] == "linear-drift"
    assert report["ranked_paths"][0]["cumulative"] <= 1.0
    # Compact sorted-key JSON, the layout of the map and tree files.
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert set(report["timings"]) == {"search_seconds", "rank_seconds", "export_seconds"}
    cfg = load_config(str(cfg_path))
    paths = rank_paths(backtrack(load_map(str(map_path)), cfg.event, depth=cfg.search_depth,
                                 truncation=cfg.truncation))
    assert [(r["cells"], r["steps"], r["cumulative"], r["rendered"])
            for r in report["ranked_paths"]] == [
        ([list(c.as_vector()) for c in p.cells], list(p.steps), p.cumulative, p.render())
        for p in paths
    ]


def test_pipeline_byte_identical_across_runs(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    outputs = []
    for tag in ("a", "b"):
        map_path = tmp_path / f"map_{tag}.json"
        tree_path = tmp_path / f"tree_{tag}.json"
        dot_path = tmp_path / f"tree_{tag}.gv"
        assert runner.invoke(
            main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)]
        ).exit_code == EXIT_OK
        assert runner.invoke(
            main,
            [
                "run-bpa", "--config", str(cfg_path), "--map", str(map_path),
                "--out-tree", str(tree_path), "--out-graph", str(dot_path),
            ],
        ).exit_code == EXIT_OK
        outputs.append(
            (map_path.read_bytes(), tree_path.read_bytes(), dot_path.read_bytes())
        )
    assert outputs[0] == outputs[1]


TREE_OF_NO_PATHS = (
    b'{"event":{"configs":[[1],[2]],"lower":[9.0],"upper":[10.0]},'
    b'"format":"cellrisk-scenario-tree","map_seed":99,"map_simulator":"linear-drift",'
    b'"n_nodes":0,"root":{"cell_id":null,"children":[],"coord":null,"cumulative":1.0,'
    b'"depth":0,"event_cell":false,"q":1.0},"search_depth":2,"truncation":1e-06,"version":1}\n'
)
GRAPH_OF_NO_PATHS = (
    b'digraph scenario_tree {\n\trankdir=RL;\n\tnode [shape=box, fontname="Helvetica"];\n'
    b'\t"root" [label="TopEvent", shape=doubleoctagon];\n}\n'
)


def test_run_bpa_no_paths_exit_code(tmp_path):
    # Downward drift with the event confined to the top cell: no cell in
    # the space carries any flow into it, so the tree is empty.
    runner = CliRunner()
    cfg_path = write_config(
        tmp_path,
        {
            "simulator_params": {"velocity": [-1.0]},
            "eventUpperBounds": [10.0, 2],
            "eventLowerBounds": [9.0, 1],
        },
        name="away.yaml",
    )
    map_path = tmp_path / "map.json"
    assert runner.invoke(
        main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)]
    ).exit_code == EXIT_OK
    out = {name: tmp_path / name for name in ("tree.json", "tree.gv", "report.json", "tree.txt")}
    res = runner.invoke(main, [
        "run-bpa", "--config", str(cfg_path), "--map", str(map_path),
        "--out-tree", str(out["tree.json"]), "--out-graph", str(out["tree.gv"]),
        "--out-report", str(out["report.json"]), "--out-text", str(out["tree.txt"])])
    assert res.exit_code == EXIT_NO_PATHS
    assert "no risk-significant paths" in res.output
    assert out["tree.json"].read_bytes() == TREE_OF_NO_PATHS
    assert out["tree.gv"].read_bytes() == GRAPH_OF_NO_PATHS
    assert out["tree.txt"].read_bytes() == b"\n"
    assert json.loads(out["report.json"].read_text())["ranked_paths"] == []


def test_build_map_leaves_the_oracle_and_fractions_unimported(tmp_path):
    # Only validate uses them; importing them costs every cold command about 12 ms.
    config, out = write_config(tmp_path), tmp_path / "map.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    args = ["build-map", "--config", str(config), "--out", str(out)]
    code = ("import sys, cellrisk.cli\n"
            "try:\n"
            f"    cellrisk.cli.main({args!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print([m for m in ('cellrisk.oracle', 'fractions') if m in sys.modules])")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]" and out.exists()


def test_build_map_config_error_exit_code(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path, {"sysConfTransProb": [[[0.5, 0.6], [0.0, 1.0]]]})
    res = runner.invoke(
        main, ["build-map", "--config", str(cfg_path), "--out", str(tmp_path / "m.json")]
    )
    assert res.exit_code == EXIT_CONFIG_ERROR
    assert "row 1" in res.output


def test_spec_mismatch_between_config_and_map(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    runner.invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)])
    other_cfg = write_config(tmp_path, {"numberOfCells": [5]}, name="other.yaml")
    res = runner.invoke(
        main, ["run-bpa", "--config", str(other_cfg), "--map", str(map_path)]
    )
    assert res.exit_code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("command", ["run-bpa", "forward-check", "validate"])
@pytest.mark.parametrize(
    "override, field",
    [({"dt": "1/2"}, "dt"), ({"simulator": "agv-baseline", "simulator_params": {}}, "simulator"),
     ({"simulator_params": {"velocity": [2.0]}}, "simulator_params"),
     ({"seed": 5}, "seed"), ({"samples_per_cell": 32}, "samples_per_cell")],
)
def test_dt_or_simulator_mismatch_between_config_and_map(tmp_path, command, override, field):
    # The map was built for another step, by another simulator, with other params,
    # from another seed or with another sample count.
    _, map_path = _built(tmp_path)
    other_cfg = write_config(tmp_path, override, name="other.yaml")
    extra = ["--cell", "0"] if command == "forward-check" else []
    res = CliRunner().invoke(
        main, [command, "--config", str(other_cfg), "--map", str(map_path)] + extra
    )
    if command == "validate":
        assert res.exit_code == EXIT_VALIDATION_FAILURE, res.output
        assert f"FAIL spec-echo: map {field} " in res.output
    else:
        _assert_named_exit_3(res, "config error", f"map {field} ")


# The vehicle case leaves validate out: its fresh-vs-fresh cell-0 check false-alarms
# on about 1% of seeds, whatever the map.
@pytest.mark.parametrize("simulator, command", [
    *(pytest.param("linear-drift", c, id=c) for c in ("run-bpa", "validate", "forward-check")),
    *(pytest.param("agv-baseline", c, id=f"agv-baseline-{c}")
      for c in ("run-bpa", "forward-check")),
])
def test_a_map_built_through_the_api_is_accepted_with_its_config(tmp_path, simulator, command):
    # The Python quickstart's way: the map records its simulator and params itself.
    if simulator == "linear-drift":
        cfg_path = write_config(tmp_path)
    else:  # a coarse copy of the shipped baseline
        cfg_path = _baseline_copy(tmp_path, numberOfCells=[2, 1, 1, 12, 1, 1, 3],
                                  samples_per_cell=8)
    cfg = load_config(str(cfg_path))
    model = SIMULATORS[simulator](cfg.simulator_params)
    map_path = tmp_path / "map.json"
    save_map(build_map(model, cfg.spec, cfg.config_model, dt=cfg.dt,
                       samples=cfg.samples_per_cell, seed=cfg.seed), str(map_path))
    extra = ["--cell", "0"] if command == "forward-check" else []
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(map_path)] + extra
    )
    assert res.exit_code == EXIT_OK, res.output
    # It is the build-map command's map, byte for byte.
    built = tmp_path / "built.json"
    CliRunner().invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(built)])
    assert map_path.read_bytes() == built.read_bytes()


@pytest.mark.parametrize("key", sorted(SIMULATORS))
def test_every_simulator_is_named_by_its_key_and_records_its_params(key):
    params = {"velocity": [0.5, -1.0]} if key == "linear-drift" else {}
    model = SIMULATORS[key](params)
    assert (model.name, model.simulator_params) == (key, params)


def test_validate_healthy_and_corrupted(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    runner.invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)])

    res = runner.invoke(main, ["validate", "--config", str(cfg_path), "--map", str(map_path)])
    assert res.exit_code == EXIT_OK, res.output
    assert "all checks passed" in res.output

    doc = json.loads(map_path.read_text())
    # Break one row: scale a stored probability down.
    doc["edges"][0][2] *= 0.9
    bad_path = tmp_path / "bad_map.json"
    bad_path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["validate", "--config", str(cfg_path), "--map", str(bad_path)])
    assert res.exit_code == EXIT_VALIDATION_FAILURE
    assert "row sums to" in res.output


def test_validate_oracle_row_disagreement_exit_code(tmp_path, monkeypatch):
    # An engine row that sends everything to the exterior disagrees with the oracle.
    cfg_path, map_path = _built(tmp_path)
    monkeypatch.setattr("cellrisk.mapper.estimate_g",
                        lambda *args: [(EXTERIOR_ID, Fraction(1))])
    res = CliRunner().invoke(main, ["validate", "--config", str(cfg_path), "--map", str(map_path)])
    assert res.exit_code == EXIT_VALIDATION_FAILURE, res.output
    assert "FAIL oracle-row: total-variation" in res.output


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: validate never reads the map's rows")
def test_validate_rejects_a_map_of_self_loops(tmp_path, baseline_map):
    # The baseline map's header over edges that keep every cell where it is.
    map_path = tmp_path / "map.json"
    save_map(baseline_map, str(map_path))
    doc = json.loads(map_path.read_text())
    doc["edges"] = [[s, s, 1.0] for s in range(baseline_map.n_cells)]
    map_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(
        main, ["validate", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path)]
    )
    assert res.exit_code == EXIT_VALIDATION_FAILURE, res.output
    assert "FAIL" in res.output


def test_validate_handles_exterior_rows(tmp_path):
    # The vehicle scenario's first cell leaks a little lateral mass to the
    # exterior, exercising the oracle spot check's exterior branch.
    runner = CliRunner()
    cfg_path, map_path = _baseline_copy(tmp_path, samples_per_cell=16), tmp_path / "agv_map.json"
    res = runner.invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)])
    assert res.exit_code == EXIT_OK, res.output
    res = runner.invoke(
        main, ["validate", "--config", str(cfg_path), "--map", str(map_path),
               "--oracle-trials", "400"],
    )
    assert res.exit_code == EXIT_OK, res.output


def test_forward_check_command(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    runner.invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)])
    res = runner.invoke(
        main,
        ["forward-check", "--config", str(cfg_path), "--map", str(map_path),
         "--cell", "7", "--steps", "1"],
    )
    assert res.exit_code == EXIT_OK
    assert "P(event after 1 steps | start cell 7)" in res.output


def test_run_bpa_graph_and_text_outputs(tmp_path):
    cfg_path, map_path = _built(tmp_path)
    gv, txt = tmp_path / "tree.gv", tmp_path / "tree.txt"
    res = CliRunner().invoke(
        main,
        ["run-bpa", "--config", str(cfg_path), "--map", str(map_path),
         "--out-graph", str(gv), "--out-text", str(txt)],
    )
    assert res.exit_code == EXIT_OK, res.output
    assert "cumulative=" in txt.read_text()
    # One renderer: the graph is tree_to_dot of the same search, event cells dashed.
    cfg = load_config(str(cfg_path))
    tree = backtrack(load_map(str(map_path)), cfg.event, depth=cfg.search_depth,
                     truncation=cfg.truncation)
    assert "style=dashed" in gv.read_text()
    assert gv.read_bytes() == "".join(tree_to_dot(tree)).encode()


def test_export_text_is_a_preorder_walk_of_the_tree(tmp_path, baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=4, truncation=1e-8)
    map_path, txt = _baseline_map_file(tmp_path, baseline_map), tmp_path / "tree.txt"
    res = CliRunner().invoke(
        main, ["run-bpa", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path),
               "--depth", "4", "--out-text", str(txt)])
    assert res.exit_code == EXIT_OK, res.output
    # One line per node of the reference document, children in order, indented by depth.
    lines, stack = [], list(reversed(tree_to_dict(tree)["root"]["children"]))
    while stack:
        node = stack.pop()
        label = " ".join(map(str, node["coord"]))
        lines.append(f"{'  ' * (node['depth'] - 1)}[{label}] q={node['q']:g} "
                     f"cumulative={node['cumulative']:g} depth={node['depth']}")
        stack += reversed(node["children"])
    assert len(lines) == tree.n_nodes
    assert txt.read_text() == "\n".join(lines) + "\n"


def test_cli_import_pulls_in_neither_scipy_nor_multiprocessing():
    # Every command is a fresh process; these two imports would dominate its start-up.
    src = str(Path(cellrisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import cellrisk.cli, sys; "
            "print('scipy' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]


def test_shipped_case_study_configs_load():
    baseline = load_config(str(CONFIGS / "agv_baseline.yaml"))
    assert baseline.spec.total_cells == 2250
    assert baseline.simulator == "agv-baseline"
    assert baseline.dt == pytest.approx(2.0 / 3.0)
    assert baseline.event.configs == frozenset({(1,), (2,), (3,)})
    modified = load_config(str(CONFIGS / "agv_modified.yaml"))
    assert modified.search_depth == 3
    assert modified.simulator == "agv-modified"


def _built(tmp_path):
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    res = CliRunner().invoke(
        main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)]
    )
    assert res.exit_code == EXIT_OK, res.output
    return cfg_path, map_path


def _assert_named_exit_3(res, *words):
    assert res.exit_code == EXIT_CONFIG_ERROR, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    for word in words:
        assert word in res.output


@pytest.mark.parametrize(
    "args, words",
    [
        (["run-bpa", "CONFIG", "MAP", "--depth", "abc"], ["Invalid value for '--depth'"]),
        (["run-bpa", "--config", "nope.yaml", "MAP"], ["Invalid value for '--config'"]),
        (["run-bpa", "CONFIG"], ["Missing option '--map'"]),
        (["export", "--tree", "t.json"], ["No such command 'export'"]),
    ],
    ids=["depth-not-an-integer", "config-missing", "map-not-given", "unknown-command"],
)
def test_usage_error_exit_code(tmp_path, args, words):
    # Click's own exit code for these, 2, is EXIT_NO_PATHS.
    cfg_path, map_path = _built(tmp_path)
    given = {"CONFIG": ["--config", str(cfg_path)], "MAP": ["--map", str(map_path)]}
    res = CliRunner().invoke(main, [a for arg in args for a in given.get(arg, [arg])])
    _assert_named_exit_3(res, *words)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("build-map", "--config"),
        ("run-bpa", "--config"),
        ("run-bpa", "--map"),
        ("validate", "--config"),
        ("validate", "--map"),
        ("forward-check", "--config"),
        ("forward-check", "--map"),
    ],
)
def test_input_path_that_is_a_directory_exit_code(tmp_path, command, flag):
    cfg_path, map_path = _built(tmp_path)
    inputs = {"--config": str(cfg_path), "--map": str(map_path), flag: str(tmp_path)}
    args = {
        "build-map": ["--config", inputs["--config"], "--out", str(tmp_path / "out.json")],
        "run-bpa": ["--config", inputs["--config"], "--map", inputs["--map"]],
        "validate": ["--config", inputs["--config"], "--map", inputs["--map"]],
        "forward-check": ["--config", inputs["--config"], "--map", inputs["--map"],
                          "--cell", "0"],
    }[command]
    res = CliRunner().invoke(main, [command] + args)
    _assert_named_exit_3(res, f"Invalid value for '{flag}'", "is a directory")


@pytest.mark.parametrize("command", ["run-bpa", "forward-check"])
def test_malformed_map_exit_code(tmp_path, command):
    cfg_path, map_path = _built(tmp_path)
    tree_path = tmp_path / "tree.json"
    assert CliRunner().invoke(
        main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path),
               "--out-tree", str(tree_path)],
    ).exit_code == EXIT_OK
    extra = ["--cell", "0"] if command == "forward-check" else []
    # A tree file handed over as a map.
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(tree_path)] + extra
    )
    _assert_named_exit_3(res, "map error", "not a transition map file")
    # An out-of-range source id.
    doc = json.loads(map_path.read_text())
    doc["edges"].append([99999, 0, 0.5])
    map_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(map_path)] + extra
    )
    _assert_named_exit_3(res, "map error", "source id outside")


# Spec fields that SpaceSpec would coerce into the config's spec: the float
# 0.0, the name tuple ("x",), and 1.0 (which differs from the config's 10.0).
SPEC_DEFECTS = {
    "lower-strings": (lambda doc: doc["spec"].update(lower=["0"]),
                      ["spec.lower entry 1 must be a number, got '0'"]),
    "upper-boolean": (lambda doc: doc["spec"].update(upper=[True]),
                      ["spec.upper entry 1 must be a number, got True"]),
    "names-x-string": (lambda doc: doc["spec"].update(names_x="x"),
                       ["spec.names_x must be a list, got 'x'"]),
}


@pytest.mark.parametrize(
    "defect, words",
    [
        (lambda doc: doc.update(seed=1.5), ["seed must be an integer, got 1.5"]),
        (lambda doc: doc.update(seed=True), ["seed must be an integer, got True"]),
        (lambda doc: doc.update(samples_per_cell=-5), ["samples_per_cell must be >= 1, got -5"]),
        # int() would read 10.7 as the config's 10 and the map would match.
        (lambda doc: doc["spec"].update(partitions=[10.7]), ["spec.partitions entry 1 must be"]),
        (lambda doc: doc.pop("edges"), ["missing field 'edges'"]),
        (lambda doc: doc.update(version=2), ["unsupported version 2"]),
        *SPEC_DEFECTS.values(),
    ],
    ids=["seed-float", "seed-boolean", "samples-negative", "partitions-float",
         "edges-missing", "version-2", *SPEC_DEFECTS],
)
def test_run_bpa_malformed_map_header_exit_code(tmp_path, defect, words):
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    defect(doc)
    map_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)])
    _assert_named_exit_3(res, "map error", *words)


@pytest.mark.parametrize("case", sorted(SPEC_DEFECTS))
@pytest.mark.parametrize("command", ["forward-check", "validate"])
def test_malformed_map_spec_exit_code(tmp_path, command, case):
    defect, words = SPEC_DEFECTS[case]
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    defect(doc)
    map_path.write_text(json.dumps(doc))
    extra = ["--cell", "0"] if command == "forward-check" else []
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(map_path)] + extra
    )
    code = EXIT_VALIDATION_FAILURE if command == "validate" else EXIT_CONFIG_ERROR
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    assert "map error" in res.output and words[0] in res.output


@pytest.mark.parametrize("command", ["run-bpa", "forward-check", "validate"])
def test_every_bad_map_header_field_is_named(tmp_path, command):
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    doc.update(seed=-1, dt="x")
    doc["spec"]["names_x"] = "abc"
    map_path.write_text(json.dumps(doc))
    extra = ["--cell", "0"] if command == "forward-check" else []
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(map_path)] + extra
    )
    code = EXIT_VALIDATION_FAILURE if command == "validate" else EXIT_CONFIG_ERROR
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    assert (f"map error: {map_path}: spec.names_x must be a list, got 'abc'; "
            "dt must be a number, got 'x'; seed must be >= 0, got -1\n") in res.output


@pytest.mark.parametrize(
    "args, flag",
    [
        # --epsilon is gone (truncation is read from the config): any value of it is refused.
        (["--epsilon", "1.5"], "--epsilon"),
        (["--epsilon", "-0.1"], "--epsilon"),
        (["--depth", "0"], "--depth"),
        (["--depth", "-1"], "--depth must be >= 1, got -1"),
        (["--depth", str(2**63)], "--depth must fit in 64 bits"),
    ],
)
def test_run_bpa_out_of_range_flag_exit_code(tmp_path, args, flag):
    cfg_path, map_path = _built(tmp_path)
    res = CliRunner().invoke(
        main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)] + args
    )
    _assert_named_exit_3(res, flag)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--cell", "-1"], "--cell"),
        (["--cell", "99999"], "--cell"),
        (["--cell", "3", "--steps", "-1"], "--steps"),
    ],
)
def test_forward_check_out_of_range_flag_exit_code(tmp_path, args, flag):
    cfg_path, map_path = _built(tmp_path)
    res = CliRunner().invoke(
        main, ["forward-check", "--config", str(cfg_path), "--map", str(map_path)] + args
    )
    _assert_named_exit_3(res, flag)
    assert "P(event" not in res.output


@pytest.mark.parametrize(
    "command, args, flag",
    [
        ("validate", ["--oracle-trials", str(2**63)], "--oracle-trials must fit in 64 bits"),
        ("validate", ["--oracle-trials", str(-2**63 - 1)], "--oracle-trials must fit in 64 bits"),
        ("validate", ["--oracle-trials", "0"], "--oracle-trials"),
        ("validate", ["--oracle-trials", "-5"], "--oracle-trials"),
        # build-map has no numeric flag (its settings come from the config only), so a value
        # of the removed --workers is refused and nothing is written.
        ("build-map", ["--workers", "0"], "--workers"),
        ("build-map", ["--workers", "-2"], "--workers"),
    ],
)
def test_build_and_validate_out_of_range_flag_exit_code(tmp_path, command, args, flag):
    cfg_path, map_path = _built(tmp_path)
    out = tmp_path / "other.json"
    where = ["--out", str(out)] if command == "build-map" else ["--map", str(map_path)]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + where + args)
    _assert_named_exit_3(res, flag)
    assert "all checks passed" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("build-map", "--seed"), ("build-map", "--samples"), ("build-map", "--workers"),
    ("run-bpa", "--epsilon"), ("run-bpa", "--budget"),
])
def test_settings_have_no_override_flag(tmp_path, command, flag):
    # seed, samples_per_cell, workers, truncation and node_budget are read from the config only.
    cfg_path, map_path = _built(tmp_path)
    out = tmp_path / "other.json"
    where = ["--out", str(out)] if command == "build-map" else ["--map", str(map_path)]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + where + [flag, "1"])
    _assert_named_exit_3(res, "No such option", flag)
    assert not out.exists()


class _YamlInt(str):
    """Text that yaml.safe_dump writes as a plain YAML integer, however many digits it has."""


yaml.SafeDumper.add_representer(
    _YamlInt, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:int", text))

# Two components where DRIFT_CONFIG has one.
TWO_COMPONENTS = {
    "numSystemComponents": 2,
    "systemComponentNames": ["a", "b"],
    "systemComponentStates": [2, 2],
    "sysConfTransProb": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
}


@pytest.mark.parametrize(
    "override, field",
    [
        ({"samples_per_cell": "lots"}, "samples_per_cell"),
        ({"processVariablesNames": 7}, "processVariablesNames"),
        ({"sysConfTransProb": [1, 2]}, "sysConfTransProb"),
        ({"seed": -3}, "seed"),
        ({"eventLowerBounds": [8.0, "x"]}, "eventLowerBounds"),
        ({"simulator": "agv-baseline", "simulator_params": {"bogus": 1}}, "bogus"),
        ({"simulator": "agv-baseline", "simulator_params": {"substeps": 0}}, "substeps"),
        ({"simulator_params": {}}, "velocity"),
        ({"simulator_params": {"velocity": [1.0, 2.0]}}, "velocity"),
        ({"simulator_params": {"velocity": [math.nan]}}, "velocity"),
        ({"simulator": "agv-baseline", "simulator_params": {"gravity": math.inf}}, "gravity"),
        ({"dt": True}, "dt"),
        ({"truncation": False}, "truncation"),
        ({"variableUpperBounds": [True]}, "variableUpperBounds"),
        ({"eventLowerBounds": [False, 1]}, "eventLowerBounds"),
        ({"node_budget": 0}, "node_budget"),
        ({"sample_budget": 0}, "sample_budget"),
        ({"workers": 0}, "workers"),
        ({"workers": -2}, "workers"),
        ({"samples_per_cel": 5}, "samples_per_cel"),
        ({"dt": math.inf}, "dt"),
        ({"search_depth": True}, "search_depth"),
        ({"truncation": math.nan}, "truncation"),
        ({"eventConfigs": [[[1]]]}, "eventConfigs"),
        ({"simulator": "agv-baseline", "simulator_params": {"fixed_strong_clearance": 10.0}},
         "fixed_strong_clearance"),
        ({"sysConfTransProb": [[[True, False], [0, 1]]]}, "component 0: row 1 entry 1 is not"),
        ({"sysConfTransProb": [[[1, 0], [0, False]]]}, "component 0: row 2 entry 2 is not"),
        ({"sysConfTransProb": [5]}, "component 0: matrix must be a list"),
        ({"sysConfTransProb": [[[1, 0], 5]]}, "component 0: row 2 must be a list"),
        ({"sysConfTransProb": [[[None, 1.0e-4], [0, 1]]]}, "component 0: row 1 entry 1 is not"),
        ({"eventLowerBounds": [8.0, 1.5]},
         "eventLowerBounds configuration entry must be an integer, got 1.5"),
        (TWO_COMPONENTS, "trailing event-bound configuration shorthand needs M == 1"),
        ({"eventLowerBounds": [8.0, 1, 1], "eventUpperBounds": [10.0, 2, 2]},
         "event bounds must have 1 or 2 entries, got 3/3"),
        ({"numberOfCells": [10, 2, 2]}, "numberOfCells has 3 entries, expected 1 or 2"),
        ({"variableLowerBounds": [10.0]}, "lower bound 10.0 must be < upper 10.0"),
        ({"sysConfTransProb": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
         "sysConfTransProb component 0 is 3x3, expected 2x2"),
        ({"eventUpperBounds": [12.0, 2]}, "event definition: "),
        ({"dt": "0-1/2"}, "dt"),
        ({"sysConfTransProb": [[["≈1", 1.0e-4], [0, 1]]]}, "component 0: row 1 entry 1 is not"),
        ({"sysConfTransProb": [["~1", 1.0e-4], [0, 1]]},
         "sysConfTransProb has 2 matrices, expected 1"),
        ({"processVariablesNames": ["x", "y"]}, "processVariablesNames has 2 entries, expected 1"),
        ({"systemComponentNames": []}, "systemComponentNames has 0 entries, expected 1"),
        ({"systemComponentStates": [2, 2]}, "systemComponentStates has 2 entries, expected 1"),
        ({"variableUpperBounds": [10.0, 11.0]}, "variableUpperBounds has 2 entries, expected 1"),
        ({"variableLowerBounds": []}, "variableLowerBounds has 0 entries, expected 1"),
        ({"sysConfTransProb": [[[0.25, "~1"], ["~1", 1.5]]]},
         "component 0 row 2 col 1: entry -0.5"),
        ({"simulator": "agv-baseline", "simulator_params": {"t_gap_des": 2.0}},
         "unknown field 'simulator_params.t_gap_des'"),
        # Refused before the range's set is built, which would not fit in memory.
        ({"eventUpperBounds": [10.0, 1.0e12]},
         "trailing event configuration range 1..1e+12 is outside the component's states 1..2"),
        ({"eventLowerBounds": [8.0, 0]},
         "trailing event configuration range 0..2 is outside the component's states 1..2"),
        ({"variableUpperBounds": [1.0e308], "variableLowerBounds": [-1.0e308]},
         "space specification: dimension 0: cell width inf is not positive and finite"),
        ({"variableUpperBounds": [5.0e-324]},
         "space specification: dimension 0: cell width 0.0 is not positive and finite"),
        # Integers of 4,299 digits: past 64 bits, or past every float, each named.
        ({"samples_per_cell": 10**4298}, "samples_per_cell must fit in 64 bits"),
        ({"search_depth": 10**4298}, "search_depth must fit in 64 bits"),
        ({"variableUpperBounds": [10**4298]}, "variableUpperBounds entry 1 must be finite"),
        ({"sysConfTransProb": [[[10**4298, 0], [0, 1]]]},
         "component 0: row 1 entry 1 must be finite"),
        # Past 4,300 digits Python reads no integer, so the YAML is not read.
        ({"seed": _YamlInt("1" * 4301)}, "not valid YAML"),
        ({"samples_per_cell": 0}, "samples_per_cell must be >= 1, got 0"),
        ({"truncation": -0.1}, "truncation must be in [0.0, 1.0), got -0.1"),
    ],
)
def test_config_field_types_are_problems(tmp_path, override, field):
    path = write_config(tmp_path, override)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert any(field in p for p in err.value.problems)
    res = CliRunner().invoke(
        main, ["build-map", "--config", str(path), "--out", str(tmp_path / "m.json")]
    )
    _assert_named_exit_3(res, "config error", field)


@pytest.mark.parametrize("value, number", [
    ("pi", math.pi), ("-pi", -math.pi), ("pi/3", math.pi / 3), ("-pi/3", -math.pi / 3),
    ("2/3", 2 / 3), ("-2/3", -2 / 3), (" 2 / 3 ", 2 / 3), ("1e-3", 1e-3),
    ("pi/-3", math.pi / -3), (3, 3.0), (2.5, 2.5),
])
def test_parse_number_reads_the_documented_grammar(value, number):
    problems = []
    assert cellrisk.configuration._parse_number(value, "x", problems) == number
    assert problems == []


@pytest.mark.parametrize("value", ["0-pi/3", "pi/", "2/", "/3", "pi/0", "+pi", "2*pi", True,
                                   "--3", "-+3", "+3", "pi/+3", "2/+3"])
def test_parse_number_rejects_other_spellings(value):
    problems = []
    assert cellrisk.configuration._parse_number(value, "x", problems) is None
    assert problems == [f"x: cannot interpret {value!r} as a number"]


def test_config_problems_past_the_cap_are_counted(tmp_path):
    path = write_config(tmp_path, {f"unknown_{k:02}": k for k in range(30)})
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.problems == [f"unknown field 'unknown_{k:02}'" for k in range(20)] + [
        "and 10 more problems"]


@pytest.mark.parametrize("where, field, value", [
    ("config", "dt", "x" * 200_000),
    ("map", "dt", "x" * 200_000),
    ("map", "seed", "1" * 100_000),
], ids=["config-dt", "map-dt", "map-seed"])
def test_a_huge_value_is_echoed_bounded(tmp_path, where, field, value):
    cfg_path, map_path = _built(tmp_path)
    if where == "config":
        cfg_path = write_config(tmp_path, {field: value}, name="huge.yaml")
    else:
        doc = json.loads(map_path.read_text())
        doc[field] = value
        map_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)])
    _assert_named_exit_3(res, f"{where} error", field)
    assert len(res.output) < 500


@pytest.mark.parametrize("dt", [-1, 0, math.inf])
@pytest.mark.parametrize("command", ["run-bpa", "forward-check", "validate"])
def test_map_dt_out_of_range_exit_code(tmp_path, command, dt):
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["dt"] = dt
    map_path.write_text(json.dumps(doc))
    extra = ["--cell", "0"] if command == "forward-check" else []
    res = CliRunner().invoke(
        main, [command, "--config", str(cfg_path), "--map", str(map_path)] + extra
    )
    assert res.exit_code == (EXIT_VALIDATION_FAILURE if command == "validate"
                             else EXIT_CONFIG_ERROR), res.output
    assert f"map error: {map_path}: dt must be " in res.output


def test_oracle_trials_above_the_sample_budget_exit_code(tmp_path):
    _, map_path = _built(tmp_path)
    cfg_path = write_config(tmp_path, {"sample_budget": 100}, name="budget.yaml")
    validate = ["validate", "--config", str(cfg_path), "--map", str(map_path), "--oracle-trials"]
    res = CliRunner().invoke(main, validate + ["101"])
    assert res.exit_code == EXIT_BUDGET_ERROR, res.output
    assert "budget error: --oracle-trials 101 exceeds sample_budget 100" in res.output
    assert CliRunner().invoke(main, validate + ["100"]).exit_code != EXIT_BUDGET_ERROR


def test_forward_check_horizon_above_the_sample_budget_exit_code(tmp_path):
    # A push costs one term per map entry, so steps x entries is held to the budget.
    _, map_path = _built(tmp_path)
    entries = load_map(str(map_path)).n_edges + 1
    cfg_path = write_config(tmp_path, {"sample_budget": 10 * entries}, name="budget.yaml")
    check = ["forward-check", "--config", str(cfg_path), "--map", str(map_path),
             "--cell", "0", "--steps"]
    res = CliRunner().invoke(main, check + ["11"])
    assert res.exit_code == EXIT_BUDGET_ERROR, res.output
    assert (f"budget error: 11 steps x {entries} map entries = {11 * entries} "
            f"exceeds sample_budget {10 * entries}") in res.output
    assert CliRunner().invoke(main, check + ["10"]).exit_code == EXIT_OK


def test_forward_check_on_rows_just_off_one(tmp_path, baseline_map, baseline_config):
    # Every row sums to 1 - 9e-10, within ROW_SUM_TOL, so the map loads; six
    # pushes of such rows drift further than that from one.
    m = baseline_map.matrix
    data = m.data * (1 - 9e-10)
    data[-1] = 1.0  # the exterior's self-loop, which the map file leaves implicit
    tmap = dataclasses.replace(baseline_map, matrix=m._replace(data=data))
    map_path = _baseline_map_file(tmp_path, tmap)
    res = CliRunner().invoke(main, [
        "forward-check", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path),
        "--cell", "700", "--steps", "6"])
    assert res.exit_code == EXIT_OK, res.output
    dense = np.zeros((tmap.n_cells + 1,) * 2)
    dense[m.row_ids(), m.indices] = data
    dist = np.zeros(tmap.n_cells + 1)
    dist[700] = 1.0
    for _ in range(6):
        dist = dist @ dense
    expected = dist[sorted(event_cells(baseline_config.event, tmap.spec))].sum()
    assert expected > 0.0
    assert abs(float(res.output.rsplit("=", 1)[1]) - expected) <= 1e-12


def test_event_bounds_without_configs_admit_every_configuration(tmp_path):
    bounds = {"eventLowerBounds": [8.0], "eventUpperBounds": [10.0]}
    cfg = load_config(str(write_config(tmp_path, {**TWO_COMPONENTS, **bounds})))
    assert cfg.event.configs == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_matrix_row_problem_names_its_component_once(tmp_path):
    # One component given as a one-row matrix whose row has two entries.
    path = write_config(tmp_path, {"sysConfTransProb": [[[None, [0, 1]]]]})
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.problems == [
        "sysConfTransProb: component 0: row 1 has 2 entries, expected 1"
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("command", ["build-map", "validate"])
def test_drift_blow_up_is_a_build_error(tmp_path, command):
    # dt is finite, but a step of 2 x 1e308 overflows to inf. The map is
    # given the config's dt and velocity, so validate reaches its oracle row.
    _, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    map_path.write_text(json.dumps(dict(doc, dt=1e308, simulator_params={"velocity": [2.0]})))
    path = write_config(
        tmp_path, {"dt": "1e308", "simulator_params": {"velocity": [2.0]}}, name="blow.yaml"
    )
    out = tmp_path / "other.json"
    where = ["--out", str(out)] if command == "build-map" else ["--map", str(map_path)]
    res = CliRunner().invoke(main, [command, "--config", str(path)] + where)
    _assert_named_exit_3(res, "build error", "non-finite")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_vehicle_blow_up_is_a_build_error(tmp_path):
    path = _baseline_copy(tmp_path, dt="1e308", numberOfCells=[5, 1, 1, 30, 1, 1, 3],
                          samples_per_cell=4)
    res = CliRunner().invoke(
        main, ["build-map", "--config", str(path), "--out", str(tmp_path / "m.json")]
    )
    _assert_named_exit_3(res, "build error", "non-finite")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("build-map", "--out"),
        ("run-bpa", "--out-tree"),
        ("run-bpa", "--out-graph"),
        ("run-bpa", "--out-report"),
        ("run-bpa", "--out-text"),
    ],
)
def test_unwritable_output_path_exit_code(tmp_path, command, flag, where):
    cfg_path, map_path = _built(tmp_path)
    target = tmp_path / "absent" / "out" if where == "missing-dir" else tmp_path
    inputs = {
        "build-map": ["--config", str(cfg_path)],
        "run-bpa": ["--config", str(cfg_path), "--map", str(map_path)],
    }[command]
    res = CliRunner().invoke(main, [command] + inputs + [flag, str(target)])
    _assert_named_exit_3(res, "option error", flag)
    # Checked before the map is built or the tree searched.
    assert "built map" not in res.output and "tree:" not in res.output
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize(
    "command, flag, other",
    [
        ("build-map", "--out", "--config"),
        ("run-bpa", "--out-report", "--map"),
        ("run-bpa", "--out-text", "--out-tree"),
    ],
)
def test_colliding_output_path_exit_code(tmp_path, command, flag, other):
    cfg_path, map_path = _built(tmp_path)
    inputs = {"--config": cfg_path, "--map": map_path}
    before = {path: path.read_bytes() for path in inputs.values()}
    target = inputs.get(other, tmp_path / "same.out")
    args = [command, "--config", str(cfg_path)]
    args += ["--map", str(map_path)] if command == "run-bpa" else []
    if other not in inputs:
        args += [other, str(target)]
    # Another spelling of the same path still collides.
    res = CliRunner().invoke(main, args + [flag, os.path.relpath(target)])
    _assert_named_exit_3(res, "option error", flag, f"is the same file as {other}")
    assert "built map" not in res.output and "tree:" not in res.output
    assert {path: path.read_bytes() for path in inputs.values()} == before
    assert not (tmp_path / "same.out").exists()


def test_bare_command_is_a_usage_error():
    res = CliRunner().invoke(main, [])
    assert res.exit_code == EXIT_CONFIG_ERROR, res.output
    assert "Usage:" in res.output
    assert CliRunner().invoke(main, ["--help"]).exit_code == EXIT_OK


def test_every_off_map_row_is_named(tmp_path):
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    sources = sorted({doc["edges"][0][0], doc["edges"][-1][0]})
    for edge in (doc["edges"][0], doc["edges"][-1]):
        edge[2] *= 0.5
    map_path.write_text(json.dumps(doc))
    named = [f"source {s}: row sums to" for s in sources]
    res = CliRunner().invoke(main, ["validate", "--config", str(cfg_path), "--map", str(map_path)])
    assert res.exit_code == EXIT_VALIDATION_FAILURE, res.output
    assert all(word in res.output for word in named)
    res = CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)])
    _assert_named_exit_3(res, "map error", *named)


@pytest.mark.parametrize(
    "content, words",
    [
        (b"a: [1, 2\nb: 3\n", ["not valid YAML", "line 2, column 2"]),
        (b"\xff\xfeabc: 1\n", ["not valid YAML", "not UTF-8"]),
        (b"- 1\n- 2\n", ["top level must be a mapping"]),
        # A second dt would otherwise replace the first without a word.
        (b"dt: 1\nseed: 2\ndt: 5\n", ["not valid YAML: line 3, column 1: repeated key 'dt'"]),
        # A repeat after 20,000 distinct keys is named with its line; a list key is refused.
        ("".join(f"k{i}: {i}\n" for i in range(20000)).encode() + b"k0: 1\n",
         ["not valid YAML: line 20001, column 1: repeated key 'k0'"]),
        (b"? [1, 2]: 3\n", ["not valid YAML: line 1, column 3: found unhashable key"]),
    ],
    ids=["unclosed-list", "not-utf-8", "top-level-list", "repeated-key",
         "repeated-key-after-20000", "unhashable-key"],
)
@pytest.mark.parametrize("command", ["build-map", "run-bpa", "validate", "forward-check"])
def test_config_that_is_not_yaml_exit_code(tmp_path, command, content, words):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_bytes(content)
    map_path = tmp_path / "map.json"  # never read: the config fails first
    map_path.write_text("{}")
    args = {
        "build-map": ["--out", str(tmp_path / "out.json")],
        "run-bpa": ["--map", str(map_path)],
        "validate": ["--map", str(map_path)],
        "forward-check": ["--map", str(map_path), "--cell", "0"],
    }[command]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + args)
    _assert_named_exit_3(res, "config error", str(cfg_path), *words)


@pytest.mark.parametrize(
    "old, new, key",
    [('{"dt"', '{"seed":3,"dt"', "seed"), ('"names_x"', '"names_x":["y"],"names_x"', "names_x")],
    ids=["header", "spec"],
)
def test_repeated_map_key_exit_code(tmp_path, old, new, key):
    cfg_path, map_path = _built(tmp_path)
    map_path.write_text(map_path.read_text().replace(old, new, 1))
    res = CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)])
    _assert_named_exit_3(res, f"map error: {map_path}: repeated key {key!r}\n")


@pytest.mark.parametrize(
    "command, deep",
    [("build-map", "config"), ("run-bpa", "config"), ("validate", "config"),
     ("forward-check", "config"), ("run-bpa", "map"), ("validate", "map"),
     ("forward-check", "map")],
)
def test_deeply_nested_input_exit_code(tmp_path, command, deep):
    cfg_path, map_path = write_config(tmp_path), tmp_path / "map.json"
    nested = "[" * 100_000 + "]" * 100_000
    if deep == "config":
        cfg_path.write_text(cfg_path.read_text().replace("dt: 1.0", f"dt: {nested}"))
    map_path.write_text(nested)
    args = {
        "build-map": ["--out", str(tmp_path / "out.json")],
        "run-bpa": ["--map", str(map_path)],
        "validate": ["--map", str(map_path)],
        "forward-check": ["--map", str(map_path), "--cell", "0"],
    }[command]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + args)
    path = cfg_path if deep == "config" else map_path
    message = f"{deep} error: {path}: nested too deeply to read"
    if command == "validate" and deep == "map":
        assert res.exit_code == EXIT_VALIDATION_FAILURE, res.output
        assert message in res.output and "Traceback" not in res.output
    else:
        _assert_named_exit_3(res, message)


@pytest.mark.parametrize("bounds, width", [((-1.0e308, 1.0e308), "inf"), ((0.0, 5.0e-324), "0.0")])
def test_map_cell_width_must_be_positive_and_finite(tmp_path, bounds, width):
    cfg_path, map_path = _built(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["spec"]["lower"], doc["spec"]["upper"] = [bounds[0]], [bounds[1]]
    map_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)])
    _assert_named_exit_3(
        res, f"map error: {map_path}: dimension 0: cell width {width} is not positive and finite")


def _baseline_map_file(tmp_path, baseline_map):
    """The suite's baseline map, which configs/agv_baseline.yaml builds, as a file."""
    map_path = tmp_path / "map.json"
    save_map(baseline_map, str(map_path))
    return map_path


def test_run_bpa_budget_boundary_exit_code(tmp_path, baseline_map, baseline_config):
    n = backtrack(baseline_map, baseline_config.event, depth=4, truncation=1e-8).n_nodes
    map_path = _baseline_map_file(tmp_path, baseline_map)

    def run(budget):
        cfg_path = _baseline_copy(tmp_path, f"budget{budget}.yaml", node_budget=budget)
        return CliRunner().invoke(main, ["run-bpa", "--config", str(cfg_path),
                                         "--map", str(map_path), "--depth", "4"])

    res = run(n)
    assert res.exit_code == EXIT_OK, res.output
    assert f"tree: {n} nodes" in res.output
    res = run(n - 1)
    assert res.exit_code == EXIT_BUDGET_ERROR, res.output
    assert f"budget error: scenario tree exceeded node budget {n - 1}" in res.output


def test_run_bpa_report_echoes_the_overridden_settings(tmp_path, baseline_map, baseline_config):
    map_path = _baseline_map_file(tmp_path, baseline_map)
    report_path = tmp_path / "report.json"
    res = CliRunner().invoke(main, [
        "run-bpa", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path),
        "--depth", "3", "--out-report", str(report_path)])
    assert res.exit_code == EXIT_OK, res.output
    config = json.loads(report_path.read_text())["config"]
    assert config == dict(baseline_config.normalized_dict(), search_depth=3)


def test_run_bpa_report_names_its_map_by_content(tmp_path, baseline_map):
    # Two copies of one map, at paths of different length, give one report
    # but for its timings.
    short = _baseline_map_file(tmp_path, baseline_map)
    long = tmp_path / ("long" * 10) / "map.json"
    long.parent.mkdir()
    long.write_bytes(short.read_bytes())
    reports = []
    for map_path in (short, long):
        report_path = tmp_path / "report.json"
        res = CliRunner().invoke(main, [
            "run-bpa", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path),
            "--depth", "3", "--out-report", str(report_path)])
        assert res.exit_code == EXIT_OK, res.output
        report = json.loads(report_path.read_text())
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["map"]["sha256"] == hashlib.sha256(short.read_bytes()).hexdigest()


def test_run_bpa_builds_no_object_per_node_or_path(tmp_path, monkeypatch, baseline_map):
    # run-bpa searches, ranks and exports from the tree's level arrays; only
    # the paths it prints become RankedPath objects.
    made = {RankedPath: 0}
    for cls in made:
        def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    map_path = _baseline_map_file(tmp_path, baseline_map)
    res = CliRunner().invoke(
        main, ["run-bpa", "--config", str(CONFIGS / "agv_baseline.yaml"), "--map", str(map_path),
               "--depth", "4", "--out-tree", str(tmp_path / "tree.json"),
               "--out-graph", str(tmp_path / "tree.gv"),
               "--out-report", str(tmp_path / "report.json")])
    assert res.exit_code == EXIT_OK, res.output
    assert 0 < made[RankedPath] <= 10
