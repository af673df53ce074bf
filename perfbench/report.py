"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a knotcert checkout.  For each workload it makes one
untraced and one traced run of ``run.py`` (about 4 x 2 x (S + 5) seconds)
and prints each metric by name with its unit, then per workload whether
every result was checked correct and how the traced wall splits into layer
self times.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[tuple[str, int], dict] = {}
    notes: list[str] = []
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            results[workload, trace] = json.loads(lines[-1])
            notes += [f"{workload}: {l.strip()}" for l in lines
                      if "accounting:" in l or "FAILED" in l]

    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    header = f"{'metric':<{width}} {'unit':<6}" + "".join(f"{w:>16}" for w in workloads)
    for title, trace in (("end_to_end", 0), ("per_layer", 1)):
        print(f"\n{title}\n{header}")
        for m in spec[title]:
            row = "".join(f"{results[w, trace]['metrics'][m['name']]['value']:>16.6g}"
                          for w in workloads)
            print(f"{m['name']:<{width}} {m['unit']:<6}{row}")
    print()
    for workload in workloads:
        for trace in (0, 1):
            r = results[workload, trace]
            print(f"{workload} trace={trace}: correct={r['correct']} failed_ratio "
                  f"{r['failed'] / r['attempted']:.6f} ({r['failed']} of {r['attempted']} items)")
    print("\n".join(notes))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
