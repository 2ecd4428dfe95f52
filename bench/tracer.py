"""In-process spans around the program's layer entry points.

Each entry point is wrapped under the name its caller uses, from outside the
program: cellrisk.cli.* for what the commands call, cellrisk.mapper.* for
what build_map calls, cellrisk.bpa.* for what backtrack calls. The simulator
is wrapped by a delegating DynamicsModel that keeps the inner name, so map
bytes do not change. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from cellrisk import bpa, cli, configuration, mapper, oracle
from cellrisk.mapper import DynamicsModel

LAYER_TIMES = (
    "vehicle.step_many", "vehicle.step", "cellspace.sample_cell_array",
    "mapper.estimate_g", "mapper.build_map", "mapper.save_map", "mapper.load_map",
    "mapper.forward_step", "bpa.backtrack", "bpa.rank_paths", "bpa.write_tree",
    "bpa.tree_to_dot", "oracle.empirical_transition",
    "cli.build_map", "cli.run_bpa", "cli.validate", "cli.forward_check",
)
# layers whose call count an optimisation is expected to move
CALL_COUNTS = (
    "vehicle.step_many", "vehicle.step", "cellspace.sample_cell_array", "mapper.estimate_g",
    "mapper.load_map", "mapper.forward_step",
)
# self_s metric -> the span whose named children are subtracted
SELF_TIMES = {
    "mapper.bin.self_s": "mapper.estimate_g",
    "mapper.assemble.self_s": "mapper.build_map",
    "cli.run_bpa.self_s": "cli.run_bpa",
    "cli.validate.self_s": "cli.validate",
}
MAX_LEVEL = 6


class Tracer:
    """Span recorder; `with tracer.installed():` patches, exit restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, pass id, extra dict]
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def span(self, name, fn, after=None, only_under=None):
        """Wrap fn in a span; with only_under, only calls made inside that span."""
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if only_under and (parent < 0 or self.spans[parent][0] != only_under):
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [name, perf_counter(), None, parent, self.pass_id, {}]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                rec[5].update(after(args, kwargs, result))
            return result

        return wrapped

    def count(self, name, fn, amount=lambda result: 1):
        """Wrap fn to add to a counter on the innermost open span."""
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack:
                extra = self.spans[self._stack[-1]][5]
                extra[name] = extra.get(name, 0) + amount(result)
            return result

        return wrapped

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            while self._saved:
                owner, attr, value = self._saved.pop()
                setattr(owner, attr, value)

    def _install(self):
        tracer = self

        class TracedModel(DynamicsModel):
            def __init__(self, inner):
                self.name = inner.name
                self.step = tracer.span("vehicle.step", inner.step)
                self.step_many = tracer.span(
                    "vehicle.step_many", inner.step_many,
                    after=lambda a, k, r: {"rows": len(a[0])})

        size_of = lambda a, k, r: {"bytes": os.path.getsize(a[1])}
        make_sim = cli._make_simulator
        self._patch(cli, "_make_simulator", lambda cfg: TracedModel(make_sim(cfg)))
        self._patch(cli, "build_map", self.span("mapper.build_map", cli.build_map))
        self._patch(cli, "save_map", self.span("mapper.save_map", cli.save_map, after=size_of))
        self._patch(cli, "load_map", self.span("mapper.load_map", cli.load_map))
        # validate's duality self-check also calls backtrack, on a 10-cell
        # synthetic map; that stays in cli.validate.self_s
        self._patch(cli, "backtrack", self.span("bpa.backtrack", cli.backtrack,
                                                after=lambda a, k, r: _levels(r),
                                                only_under="cli.run_bpa"))
        self._patch(cli, "rank_paths", self.span("bpa.rank_paths", cli.rank_paths,
                                                 after=lambda a, k, r: {"paths": len(r)}))
        self._patch(cli, "write_tree", self.span("bpa.write_tree", cli.write_tree,
                                                 after=size_of))
        self._patch(cli, "tree_to_dot", self.span("bpa.tree_to_dot", cli.tree_to_dot))
        self._patch(mapper, "estimate_g", self.span("mapper.estimate_g", mapper.estimate_g))
        self._patch(mapper, "sample_cell_array",
                    self.span("cellspace.sample_cell_array", mapper.sample_cell_array))
        self._patch(mapper, "forward_step", self.span("mapper.forward_step", mapper.forward_step))
        self._patch(oracle, "empirical_transition",
                    self.span("oracle.empirical_transition", oracle.empirical_transition,
                              after=lambda a, k, r: {"trials": a[4]}))
        self._patch(bpa, "predecessors",
                    self.count("predecessor_edges", bpa.predecessors, amount=len))
        self._patch(configuration.ConfigTransitionModel, "matrix_for",
                    self.count("matrix_for_calls",
                               configuration.ConfigTransitionModel.matrix_for))
        for attr, name in (("build_map_cmd", "cli.build_map"), ("run_bpa_cmd", "cli.run_bpa"),
                           ("validate_cmd", "cli.validate"),
                           ("forward_check_cmd", "cli.forward_check")):
            command = getattr(cli, attr)
            self._patch(command, "callback", self.span(name, command.callback))

    # -- derived metrics ---------------------------------------------------
    def pass_metrics(self, pass_id) -> dict[str, float]:
        """Per-layer metrics of one pass, from its spans and counters."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        dur = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)   # span index -> time covered by its children
        extra = defaultdict(lambda: defaultdict(float))
        for _, s in spans:
            d = s[2] - s[1]
            dur[s[0]] += d
            calls[s[0]] += 1
            if s[3] >= 0:
                child_time[s[3]] += d
            for k, v in s[5].items():
                extra[s[0]][k] += v
        self_time = defaultdict(float)
        for i, s in spans:
            self_time[s[0]] += (s[2] - s[1]) - child_time[i]

        out: dict[str, float] = {}
        for name in LAYER_TIMES:
            out[f"{name}.s"] = dur[name]
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls[name]
        for metric, name in SELF_TIMES.items():
            out[metric] = self_time[name]
        out["vehicle.step_many.rows"] = int(extra["vehicle.step_many"]["rows"])
        out["mapper.save_map.bytes"] = int(extra["mapper.save_map"]["bytes"])
        out["bpa.write_tree.bytes"] = int(extra["bpa.write_tree"]["bytes"])
        out["oracle.empirical_transition.trials"] = int(extra["oracle.empirical_transition"]["trials"])
        out["bpa.paths"] = int(extra["bpa.rank_paths"]["paths"])
        levels = {k: v for k, v in extra["bpa.backtrack"].items() if k.startswith("level_")}
        out["bpa.nodes"] = int(sum(levels.values()))
        for d in range(1, MAX_LEVEL + 1):
            out[f"bpa.nodes.level_{d}"] = int(levels.get(f"level_{d}", 0))
        out["bpa.predecessor_edges"] = int(extra["bpa.backtrack"]["predecessor_edges"])
        out["configuration.matrix_for.calls"] = int(extra["mapper.build_map"]["matrix_for_calls"])
        out["bpa.kept_ratio"] = (out["bpa.nodes"] / out["bpa.predecessor_edges"]
                                 if out["bpa.predecessor_edges"] else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "extra"],
                       "spans": self.spans}, fh)


def _levels(tree) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for node in tree.nodes():
        counts[f"level_{node.depth}"] += 1
    return counts
