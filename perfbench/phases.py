"""Measured phases and output checks.

Each workload drives ``molgat.cli.main`` the way a user would: ``train`` at
the paper defaults, ``evaluate`` against a checkpoint, ``featurize --format
sdf+pdb``. A phase runs commands until its time is up; the command running
at the deadline finishes (training stops at the next ``Adam.step``). An
operation is a training step, a scored sample or a featurized complex.

``Hooks`` is the light instrumentation present in every run, traced or not:
timestamps at operation boundaries (``Adam.step`` for training steps) and
references to the values the output checks compare, a few clock reads per
operation. In untraced runs it also runs the calibration units
(calibrate.py) at operation boundaries, outside the operations' own times.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import time

import numpy as np

from molgat import chem, cli, graphs, metrics, training
from molgat.model import load_params, score

from calibrate import Calibrator
from spans import Patches, StopRun

PAPER_FLAGS = ["--num-gat-layers", "4", "--gat-dim", "140", "--fc-dims", "128,128,1", "--dropout-rate", "0.3"]
TRAIN_FLAGS = {
    # batch 32 at ratio 1:1:1:1, validation split and periodic checkpoints
    "full": ["--batch-size", "32", "--val-fraction", "0.1", "--checkpoint-every", "3"],
    "tiny": ["--batch-size", "4", "--val-fraction", "0.1", "--checkpoint-every", "1"],
}
SCORE_TOLERANCE = 1e-10  # ROADMAP parity bound for scores
LOSS_RTOL = 1e-9  # reference loss trajectory: same arithmetic, allows BLAS summation-order drift


class Hooks:
    def __init__(self, deadline_ns=None, oracle_pdb=None, calibrator: Calibrator | None = None):
        self.deadline_ns = deadline_ns
        self.oracle_pdb = oracle_pdb
        self.cal = calibrator
        self.start_ns = time.perf_counter_ns()
        self.op_ns: list[int] = []  # per-operation durations
        self.op_end_ns: list[int] = []
        self.losses: list[float] = []
        self.saved: dict | None = None  # parameters as last written to latest.ckpt
        self.scored: list[list] = []  # items per evaluate call
        self.first_sample = None
        self.oracle_result = None
        self._mark = None
        self._last_loss = None

    def spent(self, count: int) -> bool:
        """True once ``count`` operations or commands ran and the deadline has passed."""
        return self.deadline_ns is not None and count > 0 and time.perf_counter_ns() >= self.deadline_ns

    def calibrate(self) -> None:
        """Keep calibration at its share of the time spent so far (untraced runs only)."""
        if self.cal is not None:
            self.cal.keep_share(time.perf_counter_ns() - self.start_ns - self.cal.spent_ns)

    def calibration_s(self) -> float:
        return 0.0 if self.cal is None else self.cal.spent_ns / 1e9

    def slowness(self) -> float:
        return 1.0 if self.cal is None else self.cal.slowness()

    def op_ms_normalized(self):
        """Operation durations in ms at reference speed, each scaled by its local slowness."""
        raw = np.array(self.op_ns, dtype=float) / 1e6
        if self.cal is None:
            return raw
        return raw / self.cal.local_slowness(self.op_end_ns)

    def install(self) -> Patches:
        p = Patches()
        clock = time.perf_counter_ns

        def wrap_train(fn):
            def train(*args, **kwargs):
                self._mark = clock()
                return fn(*args, **kwargs)
            return train

        def wrap_step(fn):
            def step(adam, values):
                fn(adam, values)
                now = clock()
                self.op_ns.append(now - self._mark)
                self.op_end_ns.append(now)
                self.losses.append(self._last_loss.item())
                if self.spent(len(self.op_ns)):
                    raise StopRun()
                self.calibrate()
                self._mark = clock()
            return step

        def wrap_mean_bce(fn):
            def mean_bce(*args):
                self._last_loss = fn(*args)
                return self._last_loss
            return mean_bce

        def wrap_save(fn):
            def save_params(path, params, config, iteration=0):
                fn(path, params, config, iteration)
                if os.path.basename(path) == "latest.ckpt":
                    self.saved = {
                        "path": path, "iteration": iteration, "config": config, "params": params,
                        "arrays": [v.data.copy() for v in params.values()],
                    }
            return save_params

        def wrap_score(fn):
            def timed_score(*args):
                start = clock()
                out = fn(*args)
                end = clock()
                self.op_ns.append(end - start)
                self.op_end_ns.append(end)
                self.calibrate()
                return out
            return timed_score

        def wrap_evaluate(fn):
            def evaluate_scored(items, *args):
                self.scored.append(items)
                return fn(items, *args)
            return evaluate_scored

        def wrap_parse_complex(fn):
            def parse_complex(*args, **kwargs):
                self._mark = clock()
                return fn(*args, **kwargs)
            return parse_complex

        def wrap_build(fn):
            def build_sample(*args):
                out = fn(*args)
                end = clock()
                self.op_ns.append(end - self._mark)
                self.op_end_ns.append(end)
                if self.first_sample is None:
                    self.first_sample = out
                self.calibrate()
                return out
            return build_sample

        def wrap_parse_pdb(fn):
            def parse_pdb_protein(path, *args, **kwargs):
                out = fn(path, *args, **kwargs)
                if self.oracle_result is None and path == self.oracle_pdb:
                    self.oracle_result = out
                return out
            return parse_pdb_protein

        p.replace(cli, "train", wrap_train)
        p.replace(training.Adam, "step", wrap_step)
        p.replace(training, "mean_bce", wrap_mean_bce)
        p.replace(training, "save_params", wrap_save)
        p.replace(cli, "score", wrap_score)
        p.replace(metrics, "evaluate_scored", wrap_evaluate)
        p.replace(chem, "parse_complex", wrap_parse_complex)
        p.replace(graphs, "build_sample", wrap_build)
        p.replace(chem, "parse_pdb_protein", wrap_parse_pdb)
        return p


def _main(argv, tracer=None):
    """Run one command; an exception escaping the CLI counts as a failed command."""
    if tracer is not None:
        tracer.run_id += 1
    try:
        return cli.main(argv)
    except StopRun:
        raise
    except Exception as exc:  # noqa: BLE001 - the benchmark must finish and report it
        print(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        return f"exception {type(exc).__name__}"


# ---------------------------------------------------------------------------
# Phases. Each returns {"ops", "failed_ops", "samples", "wall_s", "commands"};
# wall_s includes calibration units, which run_phase subtracts.
# ---------------------------------------------------------------------------

def phase_train(ctx, hooks, out, tracer=None):
    argv = ["train", "--cache", ctx["manifest"]["cache"], "--out", out, "--iterations", "150000",
            "--learning-rate", "1e-4", "--seed", str(ctx["seed"])] + PAPER_FLAGS + TRAIN_FLAGS[ctx["size"]]
    start = time.perf_counter()
    failed = 0
    try:
        rc = _main(argv, tracer)
        failed = 1  # the run ended without being stopped: a failure or an early exit
        print(f"train returned {rc} before the phase ended")
    except StopRun:
        pass
    wall = time.perf_counter() - start
    batch = int(TRAIN_FLAGS[ctx["size"]][1])
    steps = len(hooks.op_ns)
    return {"ops": steps + failed, "failed_ops": failed, "samples": steps * batch, "wall_s": wall, "commands": 1}


def phase_screen(ctx, hooks, out, tracer=None):
    m = ctx["manifest"]
    n_samples = ctx["checks"]["shape"]["samples"]
    ops = failed = calls = 0
    start = time.perf_counter()
    while not hooks.spent(calls):
        before = len(hooks.op_ns)
        rc = _main(["evaluate", "--cache", m["cache"], "--checkpoint", m["checkpoint"],
                    "--out", os.path.join(out, f"eval{calls}")], tracer)
        calls += 1
        ops += n_samples
        scored = len(hooks.op_ns) - before
        failed += n_samples - scored if rc == 0 else n_samples
    wall = time.perf_counter() - start
    return {"ops": ops, "failed_ops": failed, "samples": ops - failed, "wall_s": wall, "commands": calls}


def phase_ingest(ctx, hooks, out, tracer=None):
    pairs = ctx["manifest"]["pairs"]
    ops = failed = calls = 0
    start = time.perf_counter()
    while not hooks.spent(calls):
        path = os.path.join(out, f"ingest{calls}.cache")
        before = len(hooks.op_ns)
        rc = _main(["featurize", "--format", "sdf+pdb", "--category", "dude_active", "--out", path, *pairs], tracer)
        calls += 1
        ops += len(pairs)
        built = len(hooks.op_ns) - before
        failed += len(pairs) - built if rc == 0 else len(pairs)
    wall = time.perf_counter() - start
    return {"ops": ops, "failed_ops": failed, "samples": ops - failed, "wall_s": wall, "commands": calls}


PHASES = {"train_small": phase_train, "screen_pocket": phase_screen, "ingest_pdb": phase_ingest}


def run_phase(workload, ctx, out, seconds, tracer=None, calibrate=False):
    """One measured phase of ``seconds``.

    Returns the phase summary, with ``work_s`` = wall time minus calibration,
    and the hooks."""
    os.makedirs(out, exist_ok=True)
    hooks = Hooks(time.perf_counter_ns() + int(seconds * 1e9), oracle_pdb=ctx["checks"].get("oracle", {}).get("pdb"),
                  calibrator=Calibrator() if calibrate else None)
    patches = hooks.install()
    try:
        result = PHASES[workload](ctx, hooks, out, tracer)
    finally:
        patches.undo()
    result["calibration_s"] = hooks.calibration_s()
    result["work_s"] = result["wall_s"] - result["calibration_s"]
    result["slowness"] = hooks.slowness()
    return result, hooks


# ---------------------------------------------------------------------------
# Output checks. Each returns (name, ok, detail).
# ---------------------------------------------------------------------------

def _reference():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _probe_train(ctx, out):
    """Three paper-default steps on the fixed probe corpus; returns their losses."""
    hooks = Hooks()
    patches = hooks.install()
    try:
        rc = cli.main(["train", "--cache", ctx["checks"]["probe_cache"], "--out", out, "--iterations", "3",
                       "--batch-size", "8", "--val-fraction", "0", "--checkpoint-every", "3",
                       "--learning-rate", "1e-4", "--seed", "0"] + PAPER_FLAGS)
    finally:
        patches.undo()
    return rc, hooks.losses


def checks_train(ctx, hooks, out):
    results = []
    finite = bool(hooks.losses) and all(math.isfinite(x) for x in hooks.losses)
    results.append(("loss_finite_every_step", finite, f"{len(hooks.losses)} steps"))

    rc, losses = _probe_train(ctx, os.path.join(out, "probe_train"))
    ref = _reference()["train_losses"]
    ok = rc == 0 and len(losses) == len(ref) and all(
        abs(a - b) <= LOSS_RTOL * abs(b) for a, b in zip(losses, ref)
    )
    results.append(("loss_matches_reference", ok, {"losses": losses, "reference": ref, "rtol": LOSS_RTOL}))

    saved = hooks.saved
    if saved is None:
        results.append(("checkpoint_reload_scores_identically", False, "no latest.ckpt was written"))
    else:
        probe = graphs.read_cache(ctx["checks"]["probe_cache"])[0]
        loaded, cfg, iteration = load_params(saved["path"])
        in_memory = copy.deepcopy(saved["params"])
        for value, data in zip(in_memory.values(), saved["arrays"]):
            value.data = data
        a = score(probe, loaded, cfg)
        b = score(probe, in_memory, saved["config"])
        results.append(("checkpoint_reload_scores_identically", a == b and iteration == saved["iteration"],
                        {"reloaded": a, "in_memory": b, "iteration": iteration}))
    return results


def _read_scores(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["complex_id"]: float(row["probability"]) for row in csv.DictReader(fh)}


def _sigmoid(x):
    # Same branch formula as molgat.autodiff.Tape.sigmoid, so the comparison can be exact.
    return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))


def checks_screen(ctx, hooks, out):
    results = []
    probe = ctx["checks"]["probe"]
    pred_dir = os.path.join(out, "probe_predict")
    rc = cli.main(["predict", "--input", probe["cache"], "--checkpoint", probe["checkpoint"], "--out", pred_dir])
    scores = _read_scores(os.path.join(pred_dir, "scores.csv")) if rc == 0 else {}
    ref = _reference()["probe_scores"]
    diffs = {cid: abs(scores[cid] - v) if cid in scores else math.inf for cid, v in ref.items()}
    results.append(("probe_scores_match_reference", max(diffs.values()) <= SCORE_TOLERANCE,
                    {"max_abs_diff": max(diffs.values()), "tolerance": SCORE_TOLERANCE}))

    perm = abs(scores.get("probe0-perm", math.inf) - scores.get("probe0", -math.inf))
    results.append(("permuted_probe_scores_same", perm <= SCORE_TOLERANCE, {"abs_diff": perm}))

    params, _, _ = load_params(probe["checkpoint"])
    y = np.zeros((1, params.embed.cols))
    for k, (w, b) in enumerate(params.fc):
        y = y @ w.data + b.data
        if k < len(params.fc) - 1:
            y = np.maximum(y, 0.0)
    expected = float(_sigmoid(y[0, 0]))
    got = scores.get("probe-nocontact")
    results.append(("no_contact_scores_sigmoid_mlp_zero", got == expected, {"score": got, "expected": expected}))

    reports = []
    for k, items in enumerate(hooks.scored):
        with open(os.path.join(out, f"eval{k}", "report.json"), encoding="utf-8") as fh:
            reports.append(fh.read())
    auroc_ok = bool(reports)
    for items, text in zip(hooks.scored, reports):
        report = json.loads(text)
        by_protein = {}
        for item in items:
            by_protein.setdefault(item.protein_id, ([], []))
            by_protein[item.protein_id][0].append(item.score)
            by_protein[item.protein_id][1].append(item.label)
        rows = {r["protein_id"]: r["auroc"] for r in report["per_protein"]}
        recomputed = {pid: metrics.auroc(s, l) for pid, (s, l) in by_protein.items() if len(set(l)) == 2}
        auroc_ok &= rows == recomputed
        auroc_ok &= abs(report["aggregate"]["auroc"] - float(np.mean(list(recomputed.values())))) <= 1e-12
    results.append(("report_auroc_matches_recomputed", auroc_ok, {"reports": len(reports)}))
    results.append(("reports_identical_across_calls", len(set(reports)) == 1, {"reports": len(reports)}))
    return results


def checks_ingest(ctx, hooks, out):
    results = []
    oracle = ctx["checks"]["oracle"]
    expected = {tuple(p) for p in np.load(oracle["bonds"]).tolist()}
    got = None
    if hooks.oracle_result is not None:
        got = {(min(b.i, b.j), max(b.i, b.j)) for b in hooks.oracle_result[1]}
    results.append(("bonds_match_bruteforce_oracle", got == expected,
                    {"oracle_bonds": len(expected), "inferred": None if got is None else len(got)}))

    sample = hooks.first_sample
    ok = False
    if sample is not None:
        back = graphs.read_cache(os.path.join(out, "ingest0.cache"))[0]
        ok = all(np.array_equal(getattr(sample, f), getattr(back, f)) for f in ("features", "a1", "inter_mask", "dist"))
        ok &= all(getattr(sample, f) == getattr(back, f) for f in ("complex_id", "protein_id", "category", "label", "rmsd"))
    results.append(("cache_round_trip_equals_build_sample", ok, {"complex_id": getattr(sample, "complex_id", None)}))
    return results


CHECKS = {"train_small": checks_train, "screen_pocket": checks_screen, "ingest_pdb": checks_ingest}

