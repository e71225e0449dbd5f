"""In-memory spans and counts around the calls into each layer of `intension`.

A `Tracer` replaces a function by a recording wrapper at the place its
caller looks it up: the caller's module namespace for a function imported
by name (`cli` and `shannon` import that way), the class for a method.
Each call leaves one span [id, parent id, op index, name, start ns,
end ns]; counts are taken at the same boundary. `remove` puts every
original back. Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

MIB = 1 << 20
BYTES_PER_CELL = 12  # one float64 probability and one uint32 mask per cell

# per-op layer times: metric -> span-name prefix
PER_OP_TIMES = {
    "model.scan_s": "model.scan",
    "model.degree_check_s": "model.degree_check",
    "shannon.score_s": "shannon.score",
    "shannon.pair_entropy_s": "shannon.pair_entropy",
    "shannon.lattice_s": "shannon.lattice",
    "algorithmic.serialize_s": "algorithmic.serialize",
    "algorithmic.compress_s": "algorithmic.compress",
    "closed_forms.call_s": "closed_forms",
    "cli.build_parser_s": "cli.build_parser",
    "cli.render_s": "cli.render",
}
# layers that mostly run during set-up: median seconds of one call
PER_CALL_TIMES = {
    "files.load_world_s": "files.load_world",
    "files.load_concepts_s": "files.load_concepts",
    "model.world_build_s": "model.world_build",
}
PER_OP_COUNTS = {
    "model.scan_calls": "scan_calls",
    "model.cells_scanned": "cells",
    "shannon.lattice_subsets": "lattice_subsets",
    "shannon.lattice_cells_computed": "lattice_cells",
    "algorithmic.serialized_bytes": "serialized_bytes",
    "algorithmic.compress_calls": "compress_calls",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # index of the op in flight; -1 during set-up
        self.counts: Counter = Counter()
        self.table_bytes = 0
        self.first_op_span = 0
        self._originals: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None):
        fn = vars(owner)[attr]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, 0, 0]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, fn))

    def remove(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def install(self, intension):
        """Wrap every layer boundary the benchmark reports on."""
        cli, files, model = intension.cli, intension.files, intension.model
        shannon, algorithmic, closed_forms = intension.shannon, intension.algorithmic, intension.closed_forms
        for owner in (files, cli):
            self.wrap(owner, "load_world", "files.load_world")
            self.wrap(owner, "load_concepts", "files.load_concepts")
        for fn in ("build_independent_world", "build_exclusive_world", "world_from_instances"):
            self.wrap(files, fn, "model.world_build")
        self.wrap(closed_forms, "world_from_instances", "model.world_build")
        for method in ("marginal", "union_probability", "marginal_table"):
            self.wrap(model.WorldModel, method, f"model.scan.{method}", _scan(0))
        self.wrap(shannon, "joint_event_probability", "model.scan.joint_event_probability", _scan(2))
        self.wrap(shannon, "degree_mismatches", "model.degree_check")
        for owner in (cli, closed_forms):
            self.wrap(owner, "shannon_inheritance", "shannon.score")
        self.wrap(shannon, "concept_pair_entropies", "shannon.pair_entropy")
        for owner in (cli, shannon):
            self.wrap(owner, "interaction_information", "shannon.lattice", _lattice)
        for owner in (cli, algorithmic):
            self.wrap(owner, "algorithmic_inheritance", "algorithmic.inheritance")
        self.wrap(algorithmic, "canonical_serialize", "algorithmic.serialize", _serialized)
        self.wrap(algorithmic.Compressor, "length_bytes", "algorithmic.compress", _compressed)
        for fn in ("exclusive_shannon", "exclusive_algorithmic", "framework_discrepancy", "singleton_reduction_check"):
            self.wrap(cli, fn, f"closed_forms.{fn}")
        self.wrap(cli, "build_parser", "cli.build_parser")
        self.wrap(cli, "render_flat_json", "cli.render")
        self.wrap(cli, "render_text", "cli.render")
        self.wrap(cli, "build_score_report", "cli.build_score_report")
        self.wrap(cli, "run", "cli.run")

    def start_ops(self):
        """Forget counts taken so far; spans of later calls carry an op index."""
        self.counts.clear()
        self.table_bytes = 0
        self.first_op_span = len(self.spans)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, over the op phase."""
        ops = self.spans[self.first_op_span :]
        child = defaultdict(int)
        for span in ops:
            if span[1] >= self.first_op_span:
                child[span[1]] += span[5] - span[4]
        table: dict = {}
        for span in ops:
            row = table.setdefault(span[3], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (span[5] - span[4]) / 1e9
            row["self_s"] += (span[5] - span[4] - child[span[0]]) / 1e9
        return table

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics of the op phase, and per-call set-up layer times."""
        table = self.summary()

        def seconds(prefix, field="total_s"):
            return sum(row[field] for name, row in table.items() if name == prefix or name.startswith(prefix + "."))

        out = {metric: seconds(prefix) / n_ops for metric, prefix in PER_OP_TIMES.items()}
        for metric, name in PER_CALL_TIMES.items():
            calls = [(s[5] - s[4]) / 1e9 for s in self.spans if s[3] == name]
            out[metric] = statistics.median(calls) if calls else 0.0
        out |= {metric: self.counts[key] / n_ops for metric, key in PER_OP_COUNTS.items()}
        out["model.bytes_moved_computed_mb"] = self.counts["cells"] * BYTES_PER_CELL / MIB / n_ops
        out["model.table_mb"] = self.table_bytes / MIB
        calls = self.counts["compress_calls"]
        out["algorithmic.useful_compress_ratio"] = self.counts["useful_compress"] / calls if calls else 0.0
        out["cli.run_self_s"] = seconds("cli.run", "self_s") / n_ops
        return out

    def write(self, path, **header):
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns"]
        with open(path, "w") as fh:
            json.dump({**header, "self_time": self.summary(), "fields": fields, "spans": self.spans}, fh)


def _scan(world_arg: int):
    def count(tracer, args, result):
        world = args[world_arg]
        tracer.counts["scan_calls"] += 1
        tracer.counts["cells"] += len(world.probs)
        masks = vars(world).get("_masks")
        table = world.probs.nbytes + (masks.nbytes if masks is not None else 0)
        tracer.table_bytes = max(tracer.table_bytes, table)

    return count


def _lattice(tracer, args, report):
    t = len(report.subset)
    tracer.counts["lattice_subsets"] += (1 << t) - 1
    tracer.counts["lattice_cells"] += ((1 << t) - 1) << t


def _serialized(tracer, args, data):
    tracer.counts["serialized_bytes"] += len(data)


def _compressed(tracer, args, length):
    tracer.counts["compress_calls"] += 1
    tracer.counts["useful_compress"] += len(args[1]) > 0
