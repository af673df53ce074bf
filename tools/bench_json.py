"""Summarise saved ``perfbench/run.py`` outputs of two commits as one BENCH file.

    python3 tools/bench_json.py --out BENCH_8.json \
        --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Each file holds the printed output of one ``perfbench/run.py`` run. The
header line gives its workload and seed, the ``perfbench-info`` line its
exact counts, and the last line its JSON result. The k-th parent run of a
workload is paired with the k-th change run of that workload, so give the
files in the order they ran; the two runs of a pair must share a seed and a
trace setting.

For each workload and metric the output holds each side's median, quartiles
and values, the per-pair values and the number of pairs the change won (ties
count for neither side). The exit status is 1 when a run is not correct or
when the exact counts differ between the two sides at one seed, 2 when the
inputs cannot be read or paired. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"perfbench workload=(\S+) seed=(-?\d+) \S+ trace=(\d)")


class InputError(ValueError):
    pass


def read_run(path: Path) -> dict:
    """Workload, seed, trace flag, result line and exact counts of one run."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    header = next((m for m in map(HEADER.match, lines) if m), None)
    info = next((line for line in lines if line.startswith("perfbench-info ")), None)
    if header is None or info is None or not lines[-1].startswith("{"):
        raise InputError(f"{path}: not the output of one perfbench/run.py run")
    result = json.loads(lines[-1])
    info = json.loads(info[len("perfbench-info "):])
    return {
        "path": str(path),
        "workload": header.group(1),
        "seed": int(header.group(2)),
        "trace": int(header.group(3)),
        "correct": bool(result["correct"]),
        "metrics": result["metrics"],
        "counts": info["counts"],
        "src_lines": info.get("src_lines"),
    }


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def directions() -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json when it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> tuple[dict, list[str]]:
    """BENCH entries per workload, and the reasons the comparison fails."""
    problems = [f"{run['path']}: run not correct" for run in parent + change if not run["correct"]]
    workloads: dict[str, dict] = {}
    for name in dict.fromkeys(run["workload"] for run in parent + change):
        p_runs = [run for run in parent if run["workload"] == name]
        c_runs = [run for run in change if run["workload"] == name]
        if len(p_runs) != len(c_runs):
            raise InputError(f"{name}: {len(p_runs)} parent runs but {len(c_runs)} change runs")
        for p, c in zip(p_runs, c_runs):
            if (p["seed"], p["trace"]) != (c["seed"], c["trace"]):
                raise InputError(f"{p['path']} and {c['path']} differ in seed or trace")

        metrics = {}
        for metric in dict.fromkeys(m for run in p_runs for m in run["metrics"]):
            pairs = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                     for p, c in zip(p_runs, c_runs) if metric in p["metrics"]]
            lower = better.get(metric, "lower") == "lower"
            p_side = summary([p for p, _ in pairs])
            c_side = summary([c for _, c in pairs])
            metrics[metric] = {
                "unit": next(r["metrics"][metric]["unit"] for r in p_runs if metric in r["metrics"]),
                "better": "lower" if lower else "higher",
                "parent": p_side,
                "change": c_side,
                "pairs": [list(pair) for pair in pairs],
                "wins": sum((c < p) if lower else (c > p) for p, c in pairs),
                "median_gap": c_side["median"] - p_side["median"],
                "parent_iqr": p_side["q3"] - p_side["q1"],
            }

        counts = {}
        for seed in dict.fromkeys(run["seed"] for run in p_runs):
            seen = {json.dumps(run["counts"], sort_keys=True)
                    for run in p_runs + c_runs if run["seed"] == seed}
            counts[str(seed)] = next(r["counts"] for r in p_runs if r["seed"] == seed)
            if len(seen) != 1:
                problems.append(f"{name} seed {seed}: exact counts differ between runs")
                counts[str(seed)] = {"differ": [json.loads(s) for s in sorted(seen)]}

        workloads[name] = {
            "runs": len(p_runs),
            "seeds": [run["seed"] for run in p_runs],
            "src_lines": {"parent": p_runs[0]["src_lines"], "change": c_runs[0]["src_lines"]},
            "exact_counts": counts,
            "metrics": metrics,
        }
    return workloads, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent", type=Path, nargs="+", required=True)
    ap.add_argument("--change", type=Path, nargs="+", required=True)
    args = ap.parse_args()
    try:
        parent = [read_run(path) for path in args.parent]
        change = [read_run(path) for path in args.change]
        workloads, problems = compare(parent, change, directions())
    except (InputError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench_json: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps({"workloads": workloads, "problems": problems},
                                   indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"bench_json: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
