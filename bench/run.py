"""cellrisk benchmark: the CLI pipeline on baseline, fine-grid and deep-search.

    python3 bench/run.py --workload baseline --seed 20240811 --seconds 35 --trace 0

Untraced (--trace 0): every command of a pass is a fresh
`python -m cellrisk.cli` process, run in a closed loop with one client, one
pass after another, until --seconds have passed (at least one pass). Prints
the end-to-end metrics, then one JSON line. pipeline_s is the summed wall
time of a pass's commands (the benchmark's own checks excluded), setup_s the
median of three set-ups, peak_rss_mb the largest child peak RSS in a pass and
artifact_mb the bytes a pass writes (map, tree, graph, report).

Traced (--trace 1): the same passes run in-process through cellrisk.cli.main,
alternating a pass with spans around the layer entry points and a pass
without, and the JSON line carries the per-layer metrics.

Every command is checked: exit code, the saved map against an independent
reader, tree/report consistency, byte-identical map and tree and identical
ranked paths across passes, and the forward-check probability against an
independent numpy push. `--workload all` runs the three workloads in turn;
`--smoke` shrinks each to a coarse grid for the benchmark's own tests;
`--record FILE` merges samples, counts and digests into a trajectory file.
Working files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import mapcheck
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# name -> unit, reported by every workload (the JSON line of --trace 0)
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}
# printed only: deep-search runs neither build-map nor validate, run-bpa on
# baseline is mostly interpreter start-up and spreads over 20% between runs,
# and a failure rate is 0 on a correct program
PRINTED_ONLY = {"build_map_s": "s", "run_bpa_s": "s", "validate_s": "s",
                "op_failure_rate": "ratio"}
# counts that differ between passes by design, with the reason
VOLATILE_COUNTS = {"report_bytes": "the report embeds timings.search_seconds"}
SETUP_REPS = 3
RUN_LIMIT_S = 170.0          # every run ends well inside 180 s
SMOKE_ORACLE_TRIALS = 400


class SetupError(RuntimeError):
    """The workload could not be prepared; the run prints no result."""


class Run:
    """One workload run: its directory, config, passes and check results."""

    def __init__(self, workload: str, seed: int, smoke: bool, deadline: float):
        self.workload = workload
        self.seed = seed
        self.spec = workloads.WORKLOADS[workload]
        self.smoke = smoke
        self.deadline = deadline
        self.dir = WORK / f"{workload}-{seed}{'-smoke' if smoke else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = workloads.make_config(ROOT, workload, seed, smoke)
        self.depth = workloads.search_depth(workload, self.cfg, smoke)
        self.config_path = self.dir / "config.yaml"
        self.map_path = self.dir / "map.json"
        self.events = mapcheck.event_cell_ids(self.cfg)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, str] = {}   # artifact -> digest of the first pass
        self.setup_counts: dict = {}      # map counts of deep-search's set-up build
        self.start_cell = None            # set from each checked map
        self.map_arrays = None

    # -- operations ----------------------------------------------------------
    def cli_args(self, command: str) -> list[str]:
        c, m = str(self.config_path), str(self.map_path)
        d = self.dir
        if command == "build-map":
            return ["build-map", "--config", c, "--out", m]
        if command == "run-bpa":
            args = ["run-bpa", "--config", c, "--map", m, "--out-tree", str(d / "tree.json"),
                    "--out-graph", str(d / "tree.gv"), "--out-report", str(d / "report.json")]
            return args + (["--depth", str(self.depth)] if "depth" in self.spec else [])
        if command == "validate":
            trials = ["--oracle-trials", str(SMOKE_ORACLE_TRIALS)] if self.smoke else []
            return ["validate", "--config", c, "--map", m] + trials
        if command == "forward-check":
            return ["forward-check", "--config", c, "--map", m, "--cell",
                    str(self.start_cell), "--steps", str(self.depth)]
        raise ValueError(command)

    def subprocess_op(self, args: list[str]) -> tuple[int, float, float, str, str]:
        """(exit code, wall s, peak RSS MB, stdout, stderr) of one CLI process."""
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        timeout = max(1.0, self.deadline - perf_counter())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "cellrisk.cli"] + args,
                                    stdout=out, stderr=err, cwd=self.dir, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_text(), err_path.read_text())

    def inprocess_op(self, args: list[str]) -> tuple[int, float, float, str, str]:
        from cellrisk import cli

        out, err = io.StringIO(), io.StringIO()
        code = 0
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                cli.main.main(args=args, prog_name="cellrisk", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
        return code, perf_counter() - t0, math.nan, out.getvalue(), err.getvalue()

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def same_as_first(self, key: str, digest: str) -> bool:
        return self.first.setdefault(key, digest) == digest

    def check(self, command: str, code: int, stdout: str, stderr: str, counts: dict) -> None:
        """One output check; any problem counts the operation as failed."""
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return self.fail(f"{command} exited {code}: {tail[0]}")
        try:
            if command == "build-map":
                self.check_map(counts)
            elif command == "run-bpa":
                self.check_search(counts)
            elif command == "forward-check":
                self.check_forward(stdout)
        except (mapcheck.MapCheckError, ValueError, KeyError, OSError) as exc:
            self.fail(f"{command}: {exc}")

    def check_map(self, counts: dict) -> None:
        m = mapcheck.read_map(self.map_path)
        total, worst = m.exterior_mass()
        counts.update(edges=m.n_edges, exterior_mass=total, exterior_mass_max=worst,
                      map_bytes=self.map_path.stat().st_size)
        if not self.same_as_first("map", mapcheck.sha256_file(self.map_path)):
            raise ValueError("map bytes differ from the first pass")
        self.start_cell = mapcheck.pick_start_cell(m, self.events, self.depth, self.seed)
        self.map_arrays = m

    def check_search(self, counts: dict) -> None:
        tree_path, report_path = self.dir / "tree.json", self.dir / "report.json"
        with open(tree_path, encoding="utf-8") as fh:
            levels = mapcheck.nodes_per_level(json.load(fh))
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        paths = report["ranked_paths"]
        counts.update(nodes_per_level=[levels.get(d, 0) for d in range(1, self.depth + 1)],
                      paths=len(paths), tree_bytes=tree_path.stat().st_size,
                      graph_bytes=(self.dir / "tree.gv").stat().st_size,
                      report_bytes=report_path.stat().st_size)
        if sum(levels.values()) != report["tree"]["nodes"]:
            raise ValueError(f"tree file has {sum(levels.values())} nodes, report says "
                             f"{report['tree']['nodes']}")
        if len(paths) != report["tree"]["paths"] or not paths:
            raise ValueError(f"report lists {len(paths)} ranked paths, "
                             f"tree says {report['tree']['paths']}")
        if not self.same_as_first("tree", mapcheck.sha256_file(tree_path)):
            raise ValueError("tree bytes differ from the first pass")
        if not self.same_as_first("ranked_paths", mapcheck.sha256_json(paths)):
            raise ValueError("ranked paths differ from the first pass")

    def check_forward(self, stdout: str) -> None:
        line = next((l for l in stdout.splitlines() if l.startswith("P(event")), None)
        if line is None:
            raise ValueError(f"no probability line in {stdout!r}")
        got = float(line.rsplit("=", 1)[1])
        dist = mapcheck.forward_push(self.map_arrays, self.start_cell, self.depth)
        want = float(dist[self.events].sum())
        if not 0.0 < want or abs(got - want) > 1e-12:
            raise ValueError(f"cell {self.start_cell}: printed {got!r}, numpy push {want!r}")

    # -- passes --------------------------------------------------------------
    def setup(self, op) -> float:
        """Write the config; deep-search also builds and checks its map.

        Out of process, a cold `cellrisk --help` also compiles the bytecode.
        """
        t0 = perf_counter()
        workloads.write_config(self.cfg, self.config_path)
        if "build-map" not in self.spec["commands"]:
            code, _, _, _, err = op(self.cli_args("build-map"))
            if code != 0:
                raise SetupError(f"set-up build-map exited {code}: {err.strip()}")
            try:
                self.check_map(self.setup_counts)
            except (mapcheck.MapCheckError, ValueError) as exc:
                raise SetupError(f"set-up map: {exc}") from exc
        elif op == self.subprocess_op:
            code, _, _, _, err = op(["--help"])   # cold import, compiles bytecode
            if code != 0:
                raise SetupError(f"cellrisk --help exited {code}: {err.strip()}")
        return perf_counter() - t0

    def run_pass(self, op) -> dict:
        """One pass of the workload's commands; returns per-command measures."""
        record = {"wall": {}, "rss_mb": 0.0, "counts": {}}
        for command in self.spec["commands"]:
            self.attempted += 1
            code, wall, rss, out, err = op(self.cli_args(command))
            record["wall"][command] = wall
            record["rss_mb"] = max(record["rss_mb"], rss)
            self.check(command, code, out, err, record["counts"])
        record["artifact_bytes"] = sum(v for k, v in record["counts"].items()
                                       if k.endswith("_bytes"))
        for k, v in self.setup_counts.items():
            record["counts"].setdefault(k, v)
        return record


# -- statistics and reporting -------------------------------------------------
def summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in (99.9, 99, 95, 90, 75, 50):
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - k >= 10:
            out[f"p{p:g}"] = xs[k]
            break
    return out


def describe(name: str, unit: str, s: dict) -> str:
    pct = [f"{k}={v:.6g} {unit}" for k, v in s.items() if k.startswith("p")]
    tail = pct[0] if pct else "no percentile has >=10 samples beyond it"
    return f"  {name:<16} median={s['median']:<10.6g} {unit:<5} n={s['n']:<3} {tail}"


def count_block(passes: list[dict]) -> dict:
    """Exact counts of the first pass, with every count that did not repeat flagged."""
    block = dict(passes[0]["counts"])
    unstable = sorted(k for k in block if any(p["counts"].get(k) != block[k] for p in passes)
                      and k not in VOLATILE_COUNTS)
    return {"values": block, "not_repeated": unstable, "volatile": VOLATILE_COUNTS,
            "passes": len(passes)}


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_times = [run.setup(run.subprocess_op) for _ in range(SETUP_REPS)]
    passes = []
    t_end = perf_counter() + seconds
    while not passes or perf_counter() < t_end:
        passes.append(run.run_pass(run.subprocess_op))
    samples = {
        "pipeline_s": [sum(p["wall"].values()) for p in passes],
        "build_map_s": [p["wall"]["build-map"] for p in passes if "build-map" in p["wall"]],
        "run_bpa_s": [p["wall"]["run-bpa"] for p in passes],
        "validate_s": [p["wall"]["validate"] for p in passes if "validate" in p["wall"]],
        "setup_s": setup_times,
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "artifact_mb": [p["artifact_bytes"] / 1e6 for p in passes],
    }
    summaries = {k: summary(v) for k, v in samples.items() if v}
    summaries["op_failure_rate"] = {"median": len(run.failures) / run.attempted,
                                    "n": run.attempted}
    print(f"{run.workload}: {len(passes)} passes, closed loop, 1 client, workers 1")
    for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        if name in summaries:
            print(describe(name, unit, summaries[name]))
        else:
            print(f"  {name:<16} absent (this workload does not run it)")
    metrics = {k: {"value": summaries[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    detail = {"summaries": summaries, "samples": samples, "counts": count_block(passes)}
    return metrics, detail


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    run.setup(run.inprocess_op)
    per_pass, traced_s, plain_s, passes = [], [], [], []
    t_end = perf_counter() + seconds
    while not per_pass or perf_counter() < t_end:
        tracer.pass_id = f"pass-{len(per_pass)}"
        with tracer.installed():
            rec = run.run_pass(run.inprocess_op)
        traced_s.append(sum(rec["wall"].values()))
        layer = tracer.pass_metrics(tracer.pass_id)
        rec["counts"].update({k: v for k, v in layer.items() if layer_unit(k) != "s"})
        per_pass.append(layer)
        passes.append(rec)
        plain_s.append(sum(run.run_pass(run.inprocess_op)["wall"].values()))
    spans_path = WORK / f"spans-{run.workload}.json"
    tracer.write(spans_path)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["mapper.edges"] = passes[0]["counts"]["edges"]
    metrics["mapper.exterior_mass"] = passes[0]["counts"]["exterior_mass"]
    metrics["mapper.exterior_mass_max"] = passes[0]["counts"]["exterior_mass_max"]
    metrics["cli.report_bytes"] = passes[0]["counts"]["report_bytes"]
    metrics["cli.import_s"] = statistics.median(cold_import_seconds(run.env)
                                                for _ in range(SETUP_REPS))
    metrics["trace.traced_pass_s"] = statistics.median(traced_s)
    metrics["trace.untraced_pass_s"] = statistics.median(plain_s)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]

    print(f"{run.workload} (traced, in-process): {len(per_pass)} traced + "
          f"{len(plain_s)} untraced passes; spans in {spans_path.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:.6g} {layer_unit(name)}")
    for text, ok in sizing_checks(run.workload, metrics):
        print(f"  share {'ok ' if ok else 'OFF'} {text}")
    out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    return out, {"per_layer": metrics, "counts": count_block(passes),
                 "spans": str(spans_path.relative_to(ROOT))}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.startswith("mapper.exterior_mass"):
        return "probability"
    return "ratio" if name.endswith("ratio") else "count"


def sizing_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    checks = []
    if workload != "deep-search":
        share = m["vehicle.step_many.s"] / m["mapper.build_map.s"]
        checks.append((f"vehicle.step_many.s / mapper.build_map.s = {share:.2f} (>= 0.60)",
                       share >= 0.6))
    if workload == "deep-search":
        lhs = m["bpa.write_tree.s"] + m["cli.run_bpa.self_s"]
        checks.append((f"bpa.write_tree.s + cli.run_bpa.self_s = {lhs:.3g} s > "
                       f"bpa.backtrack.s = {m['bpa.backtrack.s']:.3g} s",
                       lhs > m["bpa.backtrack.s"]))
    if workload == "baseline":
        share = m["oracle.empirical_transition.s"] / m["cli.validate.s"]
        checks.append((f"oracle.empirical_transition.s / cli.validate.s = {share:.2f} "
                       "(>= 0.60)", share >= 0.6))
    return checks


def cold_import_seconds(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import cellrisk.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=WORK,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, Run, dict]:
    run = Run(workload, seed, smoke, deadline=perf_counter() + RUN_LIMIT_S)
    metrics, detail = (traced if trace else untraced)(run, seconds)
    if not run.failures:
        shutil.rmtree(run.dir, ignore_errors=True)
    detail.update(digests=run.first, failures=run.failures, attempted=run.attempted,
                  config=run.cfg, start_cell=run.start_cell)
    print(f"  checks: {run.attempted - len(run.failures)}/{run.attempted} operations passed; "
          + ", ".join(f"{k} sha256 {v[:16]}" for k, v in run.first.items()))
    if detail["counts"]["not_repeated"]:
        print(f"  counts NOT repeated across passes: {detail['counts']['not_repeated']}")
    return metrics, run, detail


def record(path: Path, seed: int, seconds: float, trace: bool, results: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["machine"] = {"python": platform.python_version(), "cpus": os.cpu_count(),
                      "platform": platform.platform()}
    mode = "traced" if trace else "untraced"
    for workload, detail in results.items():
        entry = doc.setdefault("workloads", {}).setdefault(workload, {})
        prev = entry.get(mode)
        if prev and prev["seed"] == seed:
            old, new = prev["counts"]["values"], detail["counts"]["values"]
            drift = sorted(k for k in new if k in old and old[k] != new[k]
                           and k not in VOLATILE_COUNTS)
            detail["counts"]["not_repeated_vs_record"] = drift
            print(f"{workload}: counts that differ from the recorded run: {drift or 'none'}")
        entry[mode] = {"seed": seed, "seconds": seconds, **detail}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="coarse grid, few samples")
    ap.add_argument("--record", type=Path, help="merge full results into this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "cellrisk" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no cellrisk sources under {SRC} or configs under {ROOT}; run "
              "from a cellrisk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, results, attempted, failed = {}, {}, 0, 0
    for name in names:
        try:
            m, run, detail = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.smoke)
        except SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += len(run.failures)
        results[name] = detail
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    if args.record:
        record(args.record, args.seed, args.seconds, bool(args.trace), results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
