"""knotcert benchmark: one closed-loop workload, one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a knotcert checkout; it imports knotcert from
``./src`` and exits non-zero, printing no result, when that is missing.

A run first compiles the sources (the "build"), then starts fresh
interpreters that only ``import knotcert.cli`` to time set-up, then runs
samples back to back, each in a fresh interpreter (``worker.py``), until the
next one would end after ``--seconds``.  Every sample checks every result.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` samples alternate untraced and traced and the line carries the
per-layer metrics: self time per layer from the traced samples' spans, exact
work counts, and ``trace.overhead_s``.  The lines before it show every metric
with its unit and sample count, the exact counts, the src line count and the
failed items, and a ``perfbench-info`` JSON line for the self-test.

Workloads, metrics and the prediction table are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import SIZES, SUITES, expected_items

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES_FIRST = 6
SETUP_PROBES_PER_SAMPLE = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
}

# span name -> per-layer metric holding that span's self time
LAYER_SPANS = {
    "homfly.p0": "homfly.p0.s",
    "homfly.hecke": "homfly.hecke.s",
    "homfly.skein": "homfly.skein.s",
    "homfly.coeff": "homfly.coeff.s",
    "homfly.cache.load": "homfly.cache.load_s",
    "dehornoy": "dehornoy.s",
    "traintrack.validate": "traintrack.validate.s",
    "traintrack.transition": "traintrack.transition.s",
    "traintrack.pf": "traintrack.pf.s",
    "traintrack.efficiency": "traintrack.efficiency.s",
    "montesinos.lspace": "montesinos.lspace.s",
    "montesinos.slopes": "montesinos.slopes.s",
    **{f"cli.suite.{name}": f"cli.suite.{name}.s" for name in SUITES},
    "cli.main": "cli.self.s",
    "sample": "bench.self.s",
    "item": "bench.self.s",
}

# exact work counts, reported as per-layer metrics
COUNTS = {
    "homfly.p0.calls": "count",
    "homfly.p0.terms": "count",
    "homfly.hecke.calls": "count",
    "homfly.hecke.terms": "count",
    "homfly.skein.calls": "count",
    "homfly.cache.records": "count",
    "homfly.cache.bytes": "bytes",
    "homfly.cache.readback_mismatches": "count",
    "homfly.distinct_keys": "count",
    "dehornoy.handle_steps": "count",
}

PER_LAYER = {
    **{metric: "s" for metric in dict.fromkeys(LAYER_SPANS.values())},
    **COUNTS,
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(run_dir / "xdg")  # never the user's cache
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env: dict) -> str | None:
    """Compile the sources once and confirm knotcert resolves to ./src."""
    probe = "import knotcert.cli, knotcert; print(knotcert.__file__)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return f"cannot import knotcert.cli from {SRC}: {proc.stderr.strip()[-500:]}"
    origin = Path(proc.stdout.strip()).resolve()
    if SRC.resolve() not in origin.parents:
        return f"knotcert resolves to {origin}, not to {SRC}"
    return None


def setup_seconds(env: dict) -> float:
    """Time for a fresh interpreter to finish ``import knotcert.cli``.

    The child prints CLOCK_MONOTONIC (system-wide) once the import is done,
    so interpreter start counts and interpreter exit does not."""
    code = "import knotcert.cli\nimport time\nprint(time.monotonic())"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - start


def run_sample(args, env: dict, run_dir: Path, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--tmp", str(run_dir),
           "--sample", str(index)]
    if traced:
        cmd.append("--trace")
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    items = expected_items(args.workload, args.size)

    def crashed(reason: str) -> dict:
        return {"crashed": True, "traced": traced, "attempted": items, "failed": items,
                "failures": {f"sample{index}": f"sample crashed: {reason}"}}

    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return crashed(f"no verdict within {timeout:.0f} s")
    if proc.returncode != 0:
        return crashed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["failed"] = min(len(result["failures"]), result["attempted"])
    if traced:
        result["layers"] = self_times(Path(result["spans"]), run_dir)
    return result


def self_times(spans_path: Path, run_dir: Path) -> dict[str, float]:
    """Self time per layer: a span's duration minus what its children cover.

    Children of one span run one after another, so their durations add."""
    text = spans_path.read_text()
    spans_path.unlink()
    with open(run_dir / "trace.jsonl", "a") as fh:
        fh.write(text)
    spans = [json.loads(line) for line in text.splitlines()]
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    layers = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    for sp, inner in zip(spans, child_time):
        layers[LAYER_SPANS[sp["name"]]] += (sp["end"] - sp["start"]) - inner
    return layers


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "knotcert").glob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description="knotcert benchmark (see README.md)")
    ap.add_argument("--workload", choices=SIZES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="plant one wrong expectation, for the self-test")
    args = ap.parse_args()
    run_start = time.monotonic()

    if not (SRC / "knotcert" / "cli.py").is_file():
        return fail_setup(f"no knotcert sources under {SRC}; run from a checkout root")
    run_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        env = worker_env(run_dir)
        problem = build(env)
        if problem:
            return fail_setup(problem)
        # set-up probes are spread over the run, so they see the same machine
        setups = [setup_seconds(env) for _ in range(SETUP_PROBES_FIRST)]
        samples: list[dict] = []
        busy = 0.0  # seconds spent in samples; --seconds bounds this
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            timeout = RUN_DEADLINE_S - (time.monotonic() - run_start)
            start = time.monotonic()
            samples.append(run_sample(args, env, run_dir, len(samples), traced, timeout))
            busy += time.monotonic() - start
            if samples[-1].get("crashed"):
                break
            setups += [setup_seconds(env) for _ in range(SETUP_PROBES_PER_SAMPLE)]
            done = len(samples)
            if done >= 1 + args.trace and busy * (done + 1) / done > args.seconds:
                break
            if time.monotonic() - run_start > RUN_DEADLINE_S - 20:
                break
        report(args, setups, samples)
        return 0
    finally:
        trace_file = run_dir / "trace.jsonl"
        if trace_file.exists():
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            shutil.copyfile(trace_file, out / f"trace-{args.workload}.jsonl")
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def report(args, setups: list[float], samples: list[dict]) -> None:
    good = [s for s in samples if not s.get("crashed")]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = {}
    for s in samples:
        failures.update(s["failures"])

    # exact counts must repeat in every sample of the run
    counts = good[0]["counts"] if good else {}
    if any(s["counts"] != counts for s in good):
        failures["exact-counts"] = "work counts differ between samples of one run"
        failed += 1
    digests = {s["inputs_sha256"] for s in good}

    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    lines = [f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
             f"trace={args.trace} samples={len(samples)} (traced {len(traced)}) "
             f"setup probes={len(setups)}",
             f"src_lines={src_lines()} (informational)"]
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, note: str) -> None:
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<36} {value:>14.6f} {unit:<6} {note}")

    if not args.trace and untraced:
        walls = [s["wall_s"] for s in untraced]
        items = [x for s in untraced for x in s["latencies_s"]]
        beyond = len(items) - int(-(-len(items) * 99 // 100))
        put("wall_s", statistics.median(walls), "s", f"median of {len(walls)} samples: "
            + " ".join(f"{w:.3f}" for w in walls))
        put("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh imports")
        put("peak_rss_mb", statistics.median(s["peak_rss_mb"] for s in untraced), "MB",
            f"median of {len(untraced)} samples")
        put("item_p50_ms", percentile(items, 50) * 1e3, "ms", f"{len(items)} items")
        if beyond >= 10:
            put("item_p99_ms", percentile(items, 99) * 1e3, "ms",
                f"{len(items)} items, {beyond} beyond p99")
        else:  # no tail percentile has 10 items beyond it
            put("item_p99_ms", percentile(items, 50) * 1e3, "ms",
                f"{len(items)} items: too few for a tail, reports the median")
    if args.trace and traced and untraced:
        for name in dict.fromkeys(LAYER_SPANS.values()):
            put(name, statistics.fmean(s["layers"][name] for s in traced), "s",
                f"self time, mean of {len(traced)} traced samples")
        for name, unit in COUNTS.items():
            put(name, counts.get(name, 0), unit, "exact count per sample")
        traced_wall = statistics.fmean(s["wall_s"] for s in traced)
        plain_wall = statistics.fmean(s["wall_s"] for s in untraced)
        put("trace.wall_s", traced_wall, "s", f"mean wall of {len(traced)} traced samples")
        put("trace.overhead_s", traced_wall - plain_wall, "s",
            f"minus mean wall of {len(untraced)} untraced samples")
        layer_sum = sum(metrics[name]["value"] for name in dict.fromkeys(LAYER_SPANS.values()))
        lines.append(f"  accounting: layer self times sum to {layer_sum:.6f} s of trace.wall_s "
                     f"{traced_wall:.6f} s; untraced wall {plain_wall:.6f} s")
    lines.append("  exact counts: " + json.dumps(counts, sort_keys=True))
    lines.append(f"  failed_ratio {failed / max(attempted, 1):.6f}: failed {failed} of {attempted} items")
    for name, reason in list(failures.items())[:20]:
        lines.append(f"    FAILED {name}: {reason}")

    expected_names = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and bool(good) and set(metrics) == set(expected_names) and len(digests) == 1
    info = {"inputs_sha256": sorted(digests), "counts": counts, "src_lines": src_lines(),
            "samples": len(samples), "failures": dict(list(failures.items())[:20])}
    print("\n".join(lines))
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
