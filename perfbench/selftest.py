"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a knotcert checkout.  It checks that

* every workload emits exactly the metrics BENCHMARK.json names, with their
  units, in both the untraced and the traced run, and passes its checks;
* a planted wrong expectation makes every workload report failed items;
* changing the seed changes the random-links words and leaves the fixed
  workloads' inputs unchanged;
* the exact work counts repeat between two runs at one seed;
* without the knotcert sources the benchmark exits non-zero and prints no
  result.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("perfbench-info ")),
                None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, info, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            problems.append(message)

    infos = {}
    for workload in workloads:
        for trace in (0, 1):
            rc, info, result = run(workload, 1, trace)
            units = {k: v["unit"] for k, v in (result or {"metrics": {}})["metrics"].items()}
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: exit 0, correct, no failed items")
            expect(units == wanted[trace],
                   f"{workload} trace={trace}: emits every {'per-layer' if trace else 'end-to-end'}"
                   " metric with its unit and nothing else")
            infos[workload, trace] = info

        rc, _, result = run(workload, 1, 0, "--plant-wrong")
        expect(result is not None and result["failed"] > 0 and not result["correct"],
               f"{workload}: a planted wrong expectation is reported as failed")

        _, info2, _ = run(workload, 2, 0)
        changed = info2["inputs_sha256"] != infos[workload, 0]["inputs_sha256"]
        expect(changed == (workload == "random-links"),
               f"{workload}: another seed {'changes' if changed else 'keeps'} the inputs")
        expect(infos[workload, 0]["counts"] == infos[workload, 1]["counts"],
               f"{workload}: exact counts repeat at one seed")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, _, result = run("certificates", 1, 0, cwd=bare)
        expect(rc != 0 and result is None,
               "without the knotcert sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a run is still using it

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
