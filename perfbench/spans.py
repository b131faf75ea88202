"""Spans around molgat's public functions, recorded from outside the package.

Nothing under ``src/`` knows about tracing: ``instrument`` replaces each
public function with a wrapper at every place it is looked up (the defining
module, and every module that imported it by name, such as
``molgat.training.predict``, ``molgat.cli.score`` or ``molgat.graphs.featurize``),
and ``Patches.undo`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, run_id, error]``: ``parent`` is
the index of the enclosing span (-1 at the root), ``run_id`` numbers the
top-level commands of one measured phase, and ``error`` is the exception type
that left the call, if any. Spans stay in memory and are written out once, at
the end of the run. A span's self time is its duration minus the time its
direct children cover; since every span nests inside a ``cli.main`` span, the
self times of one command add up to that command's wall time.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

LAYERS = ("autodiff", "gat", "model", "training", "graphs", "chem", "metrics", "cli")

# Every public operation method of molgat.autodiff.Tape.
TAPE_OPS = (
    "matmul", "add", "sub", "mul", "scale", "exp", "log", "sigmoid", "relu", "softplus",
    "reciprocal", "transpose", "concat_cols", "rowscale", "broadcast", "sum_all", "sum_rows",
    "masked_softmax", "dropout",
)


class StopRun(Exception):
    """Ends a measured phase at an operation boundary; never counted as an error."""


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except StopRun:
                raise
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, args, out)
            return out

        return traced

    def wrap_generator(self, name, fn):
        """Span every ``next`` on the generators ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                yield step()

        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        arr = np.array(
            [(index[s[0]], s[1], s[2], s[3], s[4], s[5] is not None) for s in self.spans], dtype=np.int64
        ).reshape(-1, 6)
        np.savez_compressed(
            path, names=np.array(names), name=arr[:, 0], start_ns=arr[:, 1], end_ns=arr[:, 2],
            parent=arr[:, 3], run_id=arr[:, 4], error=arr[:, 5],
        )


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _count_pdb(counters, args, out):
    atoms, bonds = out
    _add(counters, "chem.pdb_atoms", len(atoms))
    _add(counters, "chem.bonds_inferred", len(bonds))


def _count_read(counters, args, out):
    _add(counters, "graphs.cache_bytes_read", os.path.getsize(args[0]))


def _count_written(counters, args, out):
    _add(counters, "graphs.cache_bytes_written", os.path.getsize(args[1]))


def instrument(tracer: Tracer) -> Patches:
    """Wrap every traced molgat function in a span; returns the undo handle."""
    from molgat import autodiff, chem, cli, gat, graphs, metrics, model, training

    plan = [(autodiff.Tape, op, f"autodiff.op.{op}", None) for op in TAPE_OPS]
    plan += [
        (autodiff.Tape, "backward", "autodiff.backward", None),
        (gat, "gat_forward", "gat.forward", None),
        (model, "gat_forward", "gat.forward", None),
        (model, "predict", "model.predict", None),
        (training, "predict", "model.predict", None),
        (model, "score", "model.score", None),
        (training, "score", "model.score", None),
        (cli, "score", "model.score", None),
        (model, "materialize_a2", "model.materialize_a2", None),
        (model, "load_params", "model.load_params", None),
        (cli, "load_params", "model.load_params", None),
        (model, "save_params", "model.save_params", None),
        (training, "save_params", "model.save_params", None),
        (training, "train", "training.train", None),
        (cli, "train", "training.train", None),
        (training, "mean_bce", "training.mean_bce", None),
        (training.Adam, "step", "training.adam", None),
        (training, "_validation_auroc", "training.validate", None),
        (training, "split_by_protein", "training.split_by_protein", None),
        (cli, "split_by_protein", "training.split_by_protein", None),
        (graphs, "read_cache", "graphs.read_cache", _count_read),
        (graphs, "write_cache", "graphs.write_cache", _count_written),
        (graphs, "prune_protein", "graphs.prune_protein", None),
        (graphs, "build_sample", "graphs.build_sample", None),
        (chem, "parse_complex", "chem.parse_complex", None),
        (chem, "parse_pdb_protein", "chem.parse_pdb", _count_pdb),
        (chem, "parse_sdf_ligand", "chem.parse_sdf", None),
        (chem, "featurize", "chem.featurize", None),
        (graphs, "featurize", "chem.featurize", None),
        (chem, "ligand_first", "chem.ligand_first", None),
        (graphs, "ligand_first", "chem.ligand_first", None),
        (chem, "record_from_json_line", "chem.record_from_json_line", None),
        (metrics, "evaluate_scored", "metrics.evaluate_scored", None),
        (metrics, "write_curve_csv", "metrics.write_curve_csv", None),
        (metrics, "auroc", "metrics.auroc", None),
        (training, "auroc", "metrics.auroc", None),
        (metrics.EvalReport, "to_json", "metrics.report_json", None),
        (metrics.EvalReport, "write_csv", "metrics.report_csv", None),
        (cli, "main", "cli.main", None),
    ]
    patches = Patches()
    for owner, attr, name, after in plan:
        patches.replace(owner, attr, lambda fn, name=name, after=after: tracer.wrap(name, fn, after))
    patches.replace(
        training, "balanced_batches", lambda fn: tracer.wrap_generator("training.batch_draw", fn)
    )
    return patches


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def span_tables(spans):
    """Per span name: call count, total (inclusive) seconds, self seconds,
    inclusive durations in ms, and error count."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    table: dict[str, dict] = {}
    for k, s in enumerate(spans):
        row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ms": [], "errors": 0})
        dur = s[2] - s[1]
        row["calls"] += 1
        row["total_s"] += dur / 1e9
        row["self_s"] += (dur - child_ns[k]) / 1e9
        row["ms"].append(dur / 1e6)
        row["errors"] += s[5] is not None
    return table


def per_layer_metrics(spans, counters, ops: int, wall_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced phase of
    ``ops`` operations and ``wall_s`` seconds.

    A traced phase lasts a fixed time, so a faster program completes more
    operations in it and its totals grow. Every total is therefore divided by
    ``ops``: times are seconds per operation, counts are calls (or bytes,
    atoms, bonds, errors) per operation, and lower is better for all of them.
    The exceptions are ``model.score_ms_p50`` (per score call),
    ``autodiff.tape_nodes_per_sample``, ``training.steps`` (traced steps per
    second) and the ``trace.*`` percentages."""
    t = span_tables(spans)
    per_op = 1.0 / max(1, ops)

    def get(name, key):
        return t[name][key] if name in t else 0

    m: dict[str, float] = {}
    op_calls = 0
    for op in TAPE_OPS:
        name = f"autodiff.op.{op}"
        m[f"{name}.calls"] = get(name, "calls") * per_op
        m[f"{name}.self_s"] = get(name, "self_s") * per_op
        op_calls += get(name, "calls")
    predicts = get("model.predict", "calls")
    m["autodiff.tape_nodes_per_sample"] = op_calls / predicts if predicts else 0.0
    m["autodiff.backward_s"] = get("autodiff.backward", "total_s") * per_op
    m["gat.forward_calls"] = get("gat.forward", "calls") * per_op
    m["gat.forward_self_s"] = get("gat.forward", "self_s") * per_op
    m["model.predict_calls"] = predicts * per_op
    m["model.predict_self_s"] = get("model.predict", "self_s") * per_op
    m["model.materialize_a2_s"] = get("model.materialize_a2", "total_s") * per_op
    m["model.score_calls"] = get("model.score", "calls") * per_op
    m["model.score_ms_p50"] = float(np.median(t["model.score"]["ms"])) if "model.score" in t else 0.0
    m["model.load_params_s"] = get("model.load_params", "total_s") * per_op
    m["model.save_params_s"] = get("model.save_params", "total_s") * per_op
    m["training.steps"] = get("training.adam", "calls") / wall_s
    m["training.batch_draw_s"] = get("training.batch_draw", "total_s") * per_op
    m["training.mean_bce_s"] = get("training.mean_bce", "total_s") * per_op
    m["training.adam_s"] = get("training.adam", "total_s") * per_op
    # Checkpoint stalls: save_params called by the training loop, plus validation.
    saves_in_train = sum(
        s[2] - s[1] for s in spans
        if s[0] == "model.save_params" and s[3] >= 0 and spans[s[3]][0] == "training.train"
    )
    m["training.checkpoint_s"] = (saves_in_train / 1e9 + get("training.validate", "total_s")) * per_op
    m["graphs.read_cache_s"] = get("graphs.read_cache", "total_s") * per_op
    m["graphs.cache_bytes_read"] = counters.get("graphs.cache_bytes_read", 0) * per_op
    m["graphs.prune_s"] = get("graphs.prune_protein", "total_s") * per_op
    m["graphs.build_sample_s"] = get("graphs.build_sample", "total_s") * per_op
    m["graphs.write_cache_s"] = get("graphs.write_cache", "total_s") * per_op
    m["graphs.cache_bytes_written"] = counters.get("graphs.cache_bytes_written", 0) * per_op
    m["chem.parse_pdb_s"] = get("chem.parse_pdb", "total_s") * per_op
    m["chem.parse_sdf_s"] = get("chem.parse_sdf", "total_s") * per_op
    m["chem.featurize_s"] = get("chem.featurize", "total_s") * per_op
    m["chem.pdb_atoms"] = counters.get("chem.pdb_atoms", 0) * per_op
    m["chem.bonds_inferred"] = counters.get("chem.bonds_inferred", 0) * per_op
    m["metrics.evaluate_scored_s"] = get("metrics.evaluate_scored", "total_s") * per_op
    m["metrics.write_curve_csv_s"] = get("metrics.write_curve_csv", "total_s") * per_op
    m["cli.command_s"] = get("cli.main", "total_s") * per_op
    layer_self_s = {}
    for layer in LAYERS:
        rows = [row for name, row in t.items() if name.split(".", 1)[0] == layer]
        layer_self_s[layer] = sum(row["self_s"] for row in rows)
        m[f"{layer}.self_s"] = layer_self_s[layer] * per_op
        m[f"{layer}.errors"] = sum(row["errors"] for row in rows) * per_op
    # Every span nests in cli.main, so time no wrapped function claims lands in
    # cli.self_s and coverage is ~100% by construction; attributed_pct leaves
    # cli.self_s out, so unattributed time shows there.
    m["trace.coverage_pct"] = 100.0 * sum(layer_self_s.values()) / wall_s
    m["trace.attributed_pct"] = 100.0 * (sum(layer_self_s.values()) - layer_self_s["cli"]) / wall_s
    return m
