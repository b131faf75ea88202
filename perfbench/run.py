"""molgat benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Workloads (see workloads.json for why each exists and which layers it loads):
``train_small``, ``screen_pocket`` and ``ingest_pdb``. With ``--trace 0`` the
last stdout line is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics, taken from
spans recorded around molgat's public functions (see spans.py).

The run is split over child processes so that each number covers what it
names: a set-up child generates the inputs from the seed (timed, several
times: ``setup_s`` is the median), and a measure child runs the measured phase
and the output checks, so ``peak_rss_mb`` is the peak of that process alone.
Timing metrics are reported at reference machine speed, using calibration
units interleaved with the work (calibrate.py); raw values are recorded too.
An untraced run then repeats set-up and a shorter measured phase on a second
seed, which is recorded with the rest in ``.perfbench/<run>/record.json``.

BLAS and OpenMP threads are pinned to 1 (at most ``nproc``) and recorded.
``--size tiny`` shrinks every input for the self-check (selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_small", "screen_pocket", "ingest_pdb")
SETUP_REPS = 7
SECOND_SEED_OFFSET = 1_000_003
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def metric_names(workload: str) -> dict[str, str]:
    """The workload-specific names of its end-to-end numbers (workloads.json)."""
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["metric_names"][workload]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 operations beyond it (never below the median)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_setup(args) -> None:
    import inputs

    inputs.run_setup(args.workload, args.seed, args.size, args.dir, args.reps)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        sum(1 for _ in open(p, encoding="utf-8")) for p in sorted((SRC / "molgat").glob("*.py"))
    )
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (never a parent directory's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_measure(args) -> None:
    import resource

    import numpy as np

    import phases
    from spans import Tracer, instrument, per_layer_metrics

    with open(Path(args.dir) / "setup.json", encoding="utf-8") as fh:
        setup = json.load(fh)
    ctx = {"seed": args.seed, "size": args.size, "manifest": setup["manifest"], "checks": setup["checks"]}
    out = Path(args.dir) / "measure"
    result = {"environment": _environment()}
    if args.trace:
        # Untraced half-length phases before and after the traced one: the
        # overhead compares time per operation, and a linear drift in machine
        # speed cancels between the two halves.
        before, before_hooks = phases.run_phase(args.workload, ctx, str(out / "untraced0"), seconds=args.seconds / 2)
        tracer = Tracer()
        patches = instrument(tracer)
        try:
            phase, hooks = phases.run_phase(args.workload, ctx, str(out / "traced"), seconds=args.seconds, tracer=tracer)
        finally:
            patches.undo()
        tracer.write(Path(args.dir) / "spans.npz")
        layer = per_layer_metrics(tracer.spans, tracer.counters, len(hooks.op_ns), phase["wall_s"])
        tracer.spans.clear()
        after, after_hooks = phases.run_phase(args.workload, ctx, str(out / "untraced1"), seconds=args.seconds / 2)

        def count(p, h):  # steps for training, commands otherwise
            return len(h.op_ns) if args.workload == "train_small" else p["commands"]

        traced_per_op = phase["wall_s"] / count(phase, hooks)
        untraced_per_op = (before["wall_s"] + after["wall_s"]) / (count(before, before_hooks) + count(after, after_hooks))
        layer["trace.overhead_pct"] = 100.0 * (traced_per_op / untraced_per_op - 1.0)
        result["trace"] = {"traced_s_per_op": traced_per_op, "untraced_s_per_op": untraced_per_op,
                           "traced_wall_s": phase["wall_s"], "untraced_wall_s": before["wall_s"] + after["wall_s"]}
        result["per_layer"] = layer
    else:
        phase, hooks = phases.run_phase(args.workload, ctx, str(out), seconds=args.seconds, calibrate=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase_dir = out / "traced" if args.trace else out
    if args.workload == "ingest_pdb":
        cache_bytes = sum(p.stat().st_size for p in phase_dir.glob("ingest*.cache"))
        per_sample = cache_bytes / max(1, phase["samples"])
    else:
        per_sample = os.path.getsize(ctx["manifest"]["cache"]) / ctx["checks"]["shape"]["samples"]
    n_ops = len(hooks.op_ns)
    tail_pct = tail_percentile(n_ops)

    def p50_and_tail(ms):
        return (float(np.median(ms)), float(np.percentile(ms, tail_pct))) if n_ops else (0.0, 0.0)

    raw_p50, raw_tail = p50_and_tail(np.array(hooks.op_ns, dtype=float) / 1e6)
    p50, tail = p50_and_tail(hooks.op_ms_normalized())
    raw = {"samples_per_s": phase["samples"] / phase["work_s"], "op_ms_p50": raw_p50, "op_ms_tail": raw_tail}
    # Timing metrics at reference machine speed (calibrate.py); raw values are kept.
    result.update(
        phase=phase, raw=raw, samples_per_s=raw["samples_per_s"] * phase["slowness"],
        op_ms_p50=p50, op_ms_tail=tail, tail_percentile=tail_pct, op_count=n_ops,
        cache_bytes_per_sample=per_sample,
    )
    result["checks"] = [
        {"name": name, "ok": bool(ok), "detail": detail}
        for name, ok, detail in phases.CHECKS[args.workload](ctx, hooks, str(phase_dir))
    ]
    with open(Path(args.dir) / "measure.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

class RunFailed(Exception):
    pass


def spawn(deadline, log, *argv) -> None:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    with open(log, "a", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *argv],
                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{argv[1]} child timed out; see {log}") from exc
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            tail = fh.read()[-3000:]
        raise RunFailed(f"{argv[1]} child exited {proc.returncode}; log tail:\n{tail}")


def one_seed(workload, seed, seconds, trace, size, run_dir, reps, deadline) -> dict:
    run_dir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--dir", str(run_dir / "inputs")]
    (run_dir / "inputs").mkdir()
    spawn(deadline, run_dir / "setup.log", "--phase", "setup", *common, "--reps", str(reps))
    spawn(deadline, run_dir / "measure.log", "--phase", "measure", *common,
          "--seconds", str(seconds), "--trace", str(trace))
    with open(run_dir / "inputs" / "setup.json", encoding="utf-8") as fh:
        setup = json.load(fh)
    with open(run_dir / "inputs" / "measure.json", encoding="utf-8") as fh:
        measured = json.load(fh)
    measured["setup_s"] = statistics.median(setup["setup_normalized_s"])
    measured["raw"]["setup_s"] = statistics.median(setup["setup_times_s"])
    measured["setup_times_s"] = setup["setup_times_s"]
    measured["shape"] = setup["checks"]["shape"]
    return measured


def summarize(m: dict) -> tuple[int, int]:
    attempted = m["phase"]["ops"] + len(m["checks"])
    failed = m["phase"]["failed_ops"] + sum(1 for c in m["checks"] if not c["ok"])
    return attempted, failed


def _terminate(signum, frame):
    # subprocess.run kills and reaps its child when an exception interrupts it.
    raise SystemExit(128 + signum)


def orchestrate(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    if not (SRC / "molgat" / "__init__.py").is_file():
        print(f"error: molgat sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("" if args.size == "full" else f"-{args.size}")
    run_dir = ROOT / ".perfbench" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        main_run = one_seed(args.workload, args.seed, args.seconds, args.trace, args.size, run_dir,
                            1 if args.trace else SETUP_REPS, deadline)
        second = None
        if not args.trace:
            second = one_seed(args.workload, args.seed + SECOND_SEED_OFFSET, max(1, args.seconds // 4), 0,
                              args.size, run_dir / "second_seed", 1, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = summarize(main_run)
    if second is not None:
        a2, f2 = summarize(second)
        attempted += a2
        failed += f2
    if args.trace:
        metrics = {m["name"]: {"value": main_run["per_layer"][m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": main_run[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "metrics": metrics,
        "named_metrics": {name: main_run[k] for k, name in metric_names(args.workload).items()},
        "main": main_run,
        "second_seed": None if second is None else {
            "seed": args.seed + SECOND_SEED_OFFSET,
            **{k: second[k] for k in ("setup_s", "peak_rss_mb", "samples_per_s", "op_ms_p50", "op_ms_tail",
                                      "tail_percentile", "op_count", "cache_bytes_per_sample", "shape", "checks")},
        },
    }
    with open(run_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    # Keep the records, logs and spans; drop the generated inputs and outputs.
    for sub in (run_dir / "inputs", run_dir / "second_seed" / "inputs"):
        shutil.rmtree(sub / "measure", ignore_errors=True)
        for p in sub.glob("*"):
            if p.suffix in (".cache", ".ckpt", ".pdb", ".sdf", ".npy"):
                p.unlink()

    print_report(record, run_dir)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_report(record, run_dir) -> None:
    m = record["main"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}  size {record['size']}")
    env = m["environment"]
    print(f"  commit {env['git_commit']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas']['name']} {env['blas']['version']}  threads {env['thread_env']}  "
          f"nproc {env['nproc']}  src_lines {env['src_lines']}")
    print(f"  inputs {json.dumps(m['shape'])}")
    if record["trace"]:
        t = m["trace"]
        print(f"  traced {1e3 * t['traced_s_per_op']:.2f} ms vs untraced {1e3 * t['untraced_s_per_op']:.2f} ms per "
              f"operation (overhead {m['per_layer']['trace.overhead_pct']:+.1f}%), self-time coverage "
              f"{m['per_layer']['trace.coverage_pct']:.1f}%, outside cli.self_s "
              f"{m['per_layer']['trace.attributed_pct']:.1f}%")
    else:
        for name, value in record["named_metrics"].items():
            print(f"  {name} = {value:.6g}")
        print(f"  machine slowness {m['phase']['slowness']:.4f} (calibration {m['phase']['calibration_s']:.3f} s); "
              f"raw: {json.dumps({k: round(v, 6) for k, v in m['raw'].items()})}")
        print(f"  (tail = p{m['tail_percentile']:.1f} over {m['op_count']} operations)")
        s = record["second_seed"]
        print(f"  second seed {s['seed']}: samples_per_s {s['samples_per_s']:.6g}  op_ms_p50 {s['op_ms_p50']:.6g}  "
              f"setup_s {s['setup_s']:.4g}  peak_rss_mb {s['peak_rss_mb']:.5g}")
    print(f"  error_rate = {record['error_rate']:.6g} ({record['failed']} of {record['attempted']})")
    for check in m["checks"] + (record["second_seed"] or {}).get("checks", []):
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED ' + json.dumps(check['detail'], default=str)}")
    for name, v in record["metrics"].items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(f"  record: {run_dir / 'record.json'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    p.add_argument("--reps", type=int, default=1, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.phase is None and args.workload is None:
        p.error("--workload is required")
    if args.phase:
        sys.path.insert(0, str(SRC))
        {"setup": child_setup, "measure": child_measure}[args.phase](args)
        return 0
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    args.seconds = max(1, int(args.seconds))
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
