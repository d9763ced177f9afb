#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a tiny scale (about 2 minutes).

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks:
  - an untraced smoke run is correct, fails no statement, and prints every
    end-to-end metric with its declared unit;
  - a traced run prints every per-layer metric with its declared unit;
  - two traced runs with one seed give identical single-session counts
    (tuples, buckets and heap pushes per query, pins per statement, rows
    examined per row, WAL bytes per inserted byte).
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

SCALE = "0.005"
DETERMINISTIC = ("index.tuples_per_query.", "index.buckets_per_query.",
                 "topk.heap_pushes_per_query.", "bufmgr.pins_per_stmt.",
                 "sql.rows_examined_per_row.", "wal.bytes_per_inserted_byte.")


def run(workload, trace, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
           "--scale", SCALE]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, declared):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload}: correct={result['correct']} "
                 f"failed={result['failed']}")
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            sys.exit(f"FAIL {workload}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"FAIL {workload}: {m['name']} unit "
                     f"{got[m['name']]['unit']} != {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        sys.exit(f"FAIL {workload}: undeclared metrics {sorted(extra)}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    # hnsw_wire stays runnable but is not gated (see README.md).
    for name in [w["name"] for w in bench["workloads"]] + ["hnsw_wire"]:
        check_metrics(name, run(name, 0), bench["end_to_end"])
        first, second = run(name, 1), run(name, 1)
        check_metrics(name, first, bench["per_layer"])
        for key, m in first["metrics"].items():
            if key.startswith(DETERMINISTIC):
                other = second["metrics"][key]["value"]
                if m["value"] != other:
                    sys.exit(f"FAIL {name}: {key} not repeatable: "
                             f"{m['value']} vs {other}")
        print(f"ok {name}")
    print("selftest passed")


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
