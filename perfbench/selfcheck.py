"""Self-check of the benchmark at minimal size (no timing bounds).

    python3 perfbench/selfcheck.py

Runs every workload with ``--size tiny --seconds 1``, traced and untraced,
and asserts that the result line has the contract's keys, that every metric
of BENCHMARK.json is emitted with its unit, that the output checks ran and
passed, and that the reproducibility record is complete. Finally it copies
only BENCHMARK.json and perfbench/ into an empty directory and asserts that
the benchmark fails there without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["metric_names"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload, trace) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)

    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed3-trace{trace}-tiny" / "record.json").read_text())
    main = record["main"]
    assert main["checks"] and all(c["ok"] for c in main["checks"]), main["checks"]
    env = main["environment"]
    for key in ("git_commit", "python", "numpy", "blas", "thread_env", "nproc", "src_lines"):
        assert key in env, key
    assert {"n_median", "contacts_per_ligand_atom_mean"} <= set(main["shape"])
    if trace:
        assert {"traced_wall_s", "untraced_wall_s"} <= set(main["trace"])
    else:
        names = NAMES[workload]
        assert set(names) <= {m["name"] for m in BENCH["end_to_end"]}, names
        assert record["named_metrics"] == {names[k]: record["main"][k] for k in names}, record["named_metrics"]
        assert record["second_seed"]["checks"] and all(c["ok"] for c in record["second_seed"]["checks"])
        assert "error_rate" in record and "error_rate" in proc.stdout
    print(f"ok  {workload} trace {trace}: {len(result['metrics'])} metrics, {len(main['checks'])} checks")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "train_small", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program's sources"
    print("ok  bare directory: exits", proc.returncode, "without a result")


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
