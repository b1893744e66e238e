"""Compare two checkouts on perfbench: alternating pairs of end-to-end runs,
and the CPU time of paper-suite summed over its processes.

    python3 tools/bench_pairs.py pairs <parent-dir> <change-dir> <workload> <seed> <pairs> \\
        [--seconds S]
    python3 tools/bench_pairs.py cpu <parent-dir> <change-dir> <runs>

``pairs`` runs ``perfbench/run.py --workload W --seed N --trace 0`` in each
checkout, the parent first in odd pairs and the change first in even ones,
and prints one JSON object: each end-to-end metric's runs, median and
quartiles per side, its change in percent, and the number of pairs in which
the change was better.  Quartiles need two runs a side, so ``<pairs>`` and
``<runs>`` below 2 print this text and run nothing.

``cpu`` runs ``paper-suite -N 300 --scan-n 1000`` in a fresh interpreter of
each checkout, alternating, and prints the wall time and the CPU time
(user + system, from ``os.times``) of the process itself and of the
children it reaped, so a gain from running items side by side can be told
from one that does less work.  Stdlib only.
"""

import json
import os
import statistics
import subprocess
import sys

LOWER_IS_BETTER = {"setup_s", "wall_s", "op_ms.p50", "op_ms.p99", "peak_rss_mb"}

CPU_CODE = """
import io, os, sys, time
sys.path.insert(0, "src")
from rrseries import cli
before, start = os.times(), time.perf_counter()
code = cli.main(["paper-suite", "-N", "300", "--scan-n", "1000"], out=io.StringIO())
wall, after = time.perf_counter() - start, os.times()
print(code, wall, after.user - before.user + after.system - before.system,
      after.children_user - before.children_user
      + after.children_system - before.children_system)
"""


def run_perfbench(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def pairs(parent, change, workload, seed, count, seconds):
    runs = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_perfbench(checkout, workload, seed, seconds))
    result = {"workload": workload, "seed": seed, "pairs": count, "seconds": seconds,
              "correct_all": all(r["correct"] for side in runs.values() for r in side),
              "failed": sum(r["failed"] for side in runs.values() for r in side),
              "metrics": {}}
    for name in runs["parent"][0]["metrics"]:
        before = [r["metrics"][name]["value"] for r in runs["parent"]]
        after = [r["metrics"][name]["value"] for r in runs["change"]]
        lower = name in LOWER_IS_BETTER
        better = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        parent_summary, change_summary = summary(before), summary(after)
        base = parent_summary["median"]
        result["metrics"][name] = {
            "parent": parent_summary, "change": change_summary,
            "change_pct": round(100.0 * (change_summary["median"] - base) / base, 2)
            if base else None,
            "change_better_pairs": f"{better}/{count}",
        }
    return result


def cpu(parent, change, count):
    rows = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            proc = subprocess.run([sys.executable, "-c", CPU_CODE], cwd=checkout,
                                  capture_output=True, text=True, check=True,
                                  env=dict(os.environ, PYTHONHASHSEED="0"))
            code, wall, own, children = proc.stdout.split()
            rows[side].append({"exit": int(code), "wall_s": float(wall), "cpu_self_s": float(own),
                               "cpu_children_s": float(children)})
    result = {}
    for side, side_rows in rows.items():
        result[side] = {key: summary([row[key] for row in side_rows])
                        for key in ("wall_s", "cpu_self_s", "cpu_children_s")}
        result[side]["cpu_total_s"] = summary(
            [row["cpu_self_s"] + row["cpu_children_s"] for row in side_rows])
        result[side]["exit_codes"] = sorted({row["exit"] for row in side_rows})
    return result


def main(argv):
    if argv[:1] == ["pairs"] and int(argv[5]) >= 2:
        seconds = float(argv[argv.index("--seconds") + 1]) if "--seconds" in argv else 40
        result = pairs(argv[1], argv[2], argv[3], int(argv[4]), int(argv[5]), seconds)
    elif argv[:1] == ["cpu"] and int(argv[3]) >= 2:
        result = cpu(argv[1], argv[2], int(argv[3]))
    else:
        sys.exit(__doc__)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
