from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import cellrisk
from cellrisk.bpa import rank_paths, tree_from_dict
from cellrisk.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NO_PATHS,
    EXIT_OK,
    EXIT_VALIDATION_FAILURE,
    ConfigError,
    load_config,
    main,
)

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


def test_load_config_warns_on_trailing_cell_count_mismatch(tmp_path):
    path = write_config(tmp_path, {"numberOfCells": [10, 7]})
    cfg = load_config(str(path))
    assert cfg.spec.partitions == (10,)
    assert any("trailing entry 7" in w for w in cfg.warnings)


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
    paths = rank_paths(tree_from_dict(doc))
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
    res = runner.invoke(
        main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path)]
    )
    assert res.exit_code == EXIT_NO_PATHS
    assert "no risk-significant paths" in res.output


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
    assert "stochasticity" in res.output


def test_validate_handles_exterior_rows(tmp_path):
    # The vehicle scenario's first cell leaks a little lateral mass to the
    # exterior, exercising the oracle spot check's exterior branch.
    runner = CliRunner()
    map_path = tmp_path / "agv_map.json"
    res = runner.invoke(
        main,
        ["build-map", "--config", "configs/agv_baseline.yaml",
         "--out", str(map_path), "--samples", "16"],
    )
    assert res.exit_code == EXIT_OK, res.output
    res = runner.invoke(
        main,
        ["validate", "--config", "configs/agv_baseline.yaml",
         "--map", str(map_path), "--oracle-trials", "400"],
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


def test_export_command(tmp_path):
    runner = CliRunner()
    cfg_path = write_config(tmp_path)
    map_path = tmp_path / "map.json"
    tree_path = tmp_path / "tree.json"
    runner.invoke(main, ["build-map", "--config", str(cfg_path), "--out", str(map_path)])
    run_bpa_gv = tmp_path / "run_bpa.gv"
    runner.invoke(
        main,
        ["run-bpa", "--config", str(cfg_path), "--map", str(map_path),
         "--out-tree", str(tree_path), "--out-graph", str(run_bpa_gv)],
    )
    gv = tmp_path / "exported.gv"
    txt = tmp_path / "exported.txt"
    res = runner.invoke(
        main,
        ["export", "--tree", str(tree_path), "--out-graph", str(gv), "--out-text", str(txt)],
    )
    assert res.exit_code == EXIT_OK
    assert gv.read_text().startswith("digraph")
    assert "cumulative=" in txt.read_text()
    # One renderer: the re-export is the graph run-bpa wrote, event cells dashed.
    assert "style=dashed" in gv.read_text()
    assert gv.read_bytes() == run_bpa_gv.read_bytes()


@pytest.mark.parametrize(
    "defect, words",
    [
        (lambda node: node.update(depth=None), ["depth"]),
        (lambda node: node.update(q=7.5, cumulative=-1), ["q 7.5"]),
        (lambda node: node.update(coord=node["coord"][:-1]), ["coord"]),
        (lambda node: node.update(cumulative=2.0 * node["cumulative"]), ["cumulative"]),
    ],
    ids=["depth-null", "q-out-of-range", "short-coord", "cumulative-not-product"],
)
def test_export_malformed_tree_exit_code(tmp_path, defect, words):
    cfg_path, map_path = _built(tmp_path)
    tree_path = tmp_path / "tree.json"
    res = CliRunner().invoke(
        main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path),
               "--depth", "2", "--out-tree", str(tree_path)],
    )
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads(tree_path.read_text())
    # The defect sits on a depth-2 node, so its parent is a real node.
    i = next(i for i, n in enumerate(doc["root"]["children"]) if n["children"])
    defect(doc["root"]["children"][i]["children"][0])
    tree_path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["export", "--tree", str(tree_path)])
    _assert_named_exit_3(res, f"node {i}/0", *words)


def test_export_deeply_nested_tree_exit_code(tmp_path):
    # Each node one level deeper than its parent, nested past Python's recursion limit.
    node = ('{"cell_id":0,"children":[%s],"coord":[1,1],"cumulative":1.0,'
            '"depth":%d,"event_cell":false,"q":1.0}')
    chain = "%s"
    for depth in range(sys.getrecursionlimit() + 100, 0, -1):
        chain = chain % (node % ("%s", depth))
    doc = {"format": "cellrisk-scenario-tree", "version": 1, "search_depth": 2,
           "truncation": 0.0, "map_simulator": "linear-drift", "map_seed": 0, "n_nodes": 0,
           "event": {"lower": [8.0], "upper": [10.0], "configs": [[1]]},
           "root": {"children": ["CHAIN"]}}
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(doc).replace('"CHAIN"', chain % ""))
    res = CliRunner().invoke(main, ["export", "--tree", str(tree_path)])
    _assert_named_exit_3(res, "nested too deeply")


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
    baseline = load_config("configs/agv_baseline.yaml")
    assert baseline.spec.total_cells == 2250
    assert baseline.simulator == "agv-baseline"
    assert baseline.dt == pytest.approx(2.0 / 3.0)
    assert baseline.event.configs == frozenset({(1,), (2,), (3,)})
    modified = load_config("configs/agv_modified.yaml")
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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--epsilon", "1.5"], "--epsilon"),
        (["--epsilon", "-0.1"], "--epsilon"),
        (["--depth", "0"], "--depth"),
        (["--budget", "0"], "--budget"),
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
        ("build-map", ["--samples", "0"], "--samples"),
        ("build-map", ["--seed", "-1"], "--seed"),
        ("validate", ["--oracle-trials", "0"], "--oracle-trials"),
        ("validate", ["--oracle-trials", "-5"], "--oracle-trials"),
    ],
)
def test_build_and_validate_out_of_range_flag_exit_code(tmp_path, command, args, flag):
    cfg_path, map_path = _built(tmp_path)
    out = tmp_path / "other.json"
    where = ["--out", str(out)] if command == "build-map" else ["--map", str(map_path)]
    res = CliRunner().invoke(main, [command, "--config", str(cfg_path)] + where + args)
    _assert_named_exit_3(res, flag)
    assert not out.exists()


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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("build-map", "--out"),
        ("run-bpa", "--out-tree"),
        ("run-bpa", "--out-graph"),
        ("run-bpa", "--out-report"),
        ("export", "--out-graph"),
        ("export", "--out-text"),
    ],
)
def test_unwritable_output_path_exit_code(tmp_path, command, flag, where):
    cfg_path, map_path = _built(tmp_path)
    tree_path = tmp_path / "tree.json"
    assert CliRunner().invoke(
        main, ["run-bpa", "--config", str(cfg_path), "--map", str(map_path),
               "--out-tree", str(tree_path)],
    ).exit_code == EXIT_OK
    target = tmp_path / "absent" / "out" if where == "missing-dir" else tmp_path
    inputs = {
        "build-map": ["--config", str(cfg_path)],
        "run-bpa": ["--config", str(cfg_path), "--map", str(map_path)],
        "export": ["--tree", str(tree_path)],
    }[command]
    res = CliRunner().invoke(main, [command] + inputs + [flag, str(target)])
    _assert_named_exit_3(res, "option error", flag)
    # Checked before the map is built or the tree searched.
    assert "built map" not in res.output and "tree:" not in res.output
    assert not (tmp_path / "absent").exists()
