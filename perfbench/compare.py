"""Compare two sets of untraced runs, raw against reference speed.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds run directories as run.py leaves them under
``.perfbench/`` (``<workload>-seed<n>-trace0/record.json``). For every
workload and timing metric it prints the change of the median between the two
sets, at reference speed (the bounded value) and raw, each next to its spread
within the sets (the larger of the two IQR/median), and flags a metric whose
two changes point in opposite directions, each by more than its spread: there
the calibration unit moved against the program, so the reference-speed change
may hide or invent part of the program's own change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

TIMED = ("samples_per_s", "op_ms_p50", "op_ms_tail", "setup_s")


def spread(values) -> float:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (q[2] - q[0]) / statistics.median(values)


def collect(directory: Path) -> dict:
    """{workload: {metric: (reference-speed values, raw values)}} over the untraced runs."""
    values: dict = {}
    for path in sorted(directory.glob("*/record.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["trace"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name in TIMED:
            pair = per_metric.setdefault(name, ([], []))
            pair[0].append(record["metrics"][name]["value"])
            pair[1].append(record["main"]["raw"][name])
    return values


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (collect(Path(d)) for d in argv)
    disagreements = 0
    for workload in sorted(set(old) & set(new)):
        for name in TIMED:
            changes, spreads = [], []
            for a, b in zip(old[workload][name], new[workload][name]):  # reference speed, then raw
                changes.append(statistics.median(b) / statistics.median(a) - 1.0)
                spreads.append(max(spread(a), spread(b)))
            flag = changes[0] * changes[1] < 0 and all(abs(c) > s for c, s in zip(changes, spreads))
            disagreements += flag
            print(f"{workload:14s} {name:14s} reference {changes[0]:+8.2%} (spread {spreads[0]:.1%})  "
                  f"raw {changes[1]:+8.2%} (spread {spreads[1]:.1%})" + ("  SIGNS DISAGREE" if flag else ""))
    print(f"{disagreements} metric(s) whose raw and reference-speed changes disagree in sign beyond their spread")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
