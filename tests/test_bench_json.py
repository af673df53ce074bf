"""tools/bench_json.py on small synthetic ``perfbench/run.py`` outputs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def run_output(workload, seed, wall, *, correct=True, counts=None, trace=0):
    """The printed output of one run, reduced to what the script reads."""
    counts = {"cli.claims": 1} if counts is None else counts
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": 20.0, "unit": "MB"}}
    info = {"counts": counts, "failures": {}, "inputs_sha256": ["00"], "samples": 3,
            "src_lines": 100}
    return "\n".join([
        f"perfbench workload={workload} seed={seed} size=1 trace={trace} samples=3 "
        f"(traced 0) setup probes=8",
        "src_lines=100 (informational)",
        f"  wall_s {wall:.6f} s median of 3 samples",
        "perfbench-info " + json.dumps(info, sort_keys=True),
        json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ]) + "\n"


def write_runs(tmp_path, side, runs):
    paths = []
    for k, (workload, seed, wall, kw) in enumerate(runs):
        path = tmp_path / f"{side}_{k}.txt"
        path.write_text(run_output(workload, seed, wall, **kw))
        paths.append(str(path))
    return paths


def summarise(tmp_path, monkeypatch, parent, change):
    out = tmp_path / "BENCH.json"
    argv = ["bench_json.py", "--out", str(out),
            "--parent", *write_runs(tmp_path, "parent", parent),
            "--change", *write_runs(tmp_path, "change", change)]
    monkeypatch.setattr(sys, "argv", argv)
    status = bench_json.main()
    return status, json.loads(out.read_text()) if out.exists() else None


class TestBenchJson:
    def test_pairs_runs_in_the_order_given(self, tmp_path, monkeypatch):
        parent = [("w", 2, 3.0, {}), ("w", 1, 2.0, {}), ("v", 1, 9.0, {})]
        change = [("v", 1, 8.0, {}), ("w", 2, 3.5, {}), ("w", 1, 1.5, {})]
        status, bench = summarise(tmp_path, monkeypatch, parent, change)
        assert status == 0
        wall = bench["workloads"]["w"]["metrics"]["wall_s"]
        assert wall["pairs"] == [[3.0, 3.5], [2.0, 1.5]]
        assert bench["workloads"]["w"]["seeds"] == [2, 1]
        assert bench["workloads"]["v"]["metrics"]["wall_s"]["pairs"] == [[9.0, 8.0]]
        assert bench["problems"] == []

    def test_wins_and_ties(self, tmp_path, monkeypatch):
        parent = [("w", s, wall, {}) for s, wall in ((1, 2.0), (2, 2.0), (3, 2.0))]
        change = [("w", s, wall, {}) for s, wall in ((1, 1.0), (2, 2.0), (3, 3.0))]
        status, bench = summarise(tmp_path, monkeypatch, parent, change)
        assert status == 0
        wall = bench["workloads"]["w"]["metrics"]["wall_s"]
        assert wall["wins"] == 1  # the tie at seed 2 is no win
        assert wall["parent"]["median"] == 2.0 and wall["change"]["median"] == 2.0
        rss = bench["workloads"]["w"]["metrics"]["peak_rss_mb"]
        assert rss["wins"] == 0  # every pair ties

    def test_run_not_correct_exits_1(self, tmp_path, monkeypatch):
        parent = [("w", 1, 2.0, {})]
        change = [("w", 1, 1.0, {"correct": False})]
        status, bench = summarise(tmp_path, monkeypatch, parent, change)
        assert status == 1
        assert any("not correct" in problem for problem in bench["problems"])

    def test_exact_counts_differ_exits_1(self, tmp_path, monkeypatch):
        parent = [("w", 1, 2.0, {}), ("w", 2, 2.0, {"counts": {"n": 1}})]
        change = [("w", 1, 1.0, {}), ("w", 2, 1.0, {"counts": {"n": 2}})]
        status, bench = summarise(tmp_path, monkeypatch, parent, change)
        assert status == 1
        assert bench["problems"] == ["w seed 2: exact counts differ between runs"]
        assert bench["workloads"]["w"]["exact_counts"]["1"] == {"cli.claims": 1}
        assert bench["workloads"]["w"]["exact_counts"]["2"] == {"differ": [{"n": 1}, {"n": 2}]}

    def test_counts_may_differ_between_seeds(self, tmp_path, monkeypatch):
        parent = [("w", 1, 2.0, {"counts": {"n": 1}}), ("w", 2, 2.0, {"counts": {"n": 2}})]
        change = [("w", 1, 1.0, {"counts": {"n": 1}}), ("w", 2, 1.0, {"counts": {"n": 2}})]
        assert summarise(tmp_path, monkeypatch, parent, change)[0] == 0

    def test_run_counts_differ_exits_2(self, tmp_path, monkeypatch, capsys):
        parent = [("w", 1, 2.0, {}), ("w", 2, 2.0, {})]
        change = [("w", 1, 1.0, {})]
        status, bench = summarise(tmp_path, monkeypatch, parent, change)
        assert status == 2
        assert bench is None
        assert "2 parent runs but 1 change runs" in capsys.readouterr().err

    @pytest.mark.parametrize("change_kw", [{"trace": 1}, {}])
    def test_unpaired_seed_or_trace_exits_2(self, tmp_path, monkeypatch, change_kw):
        parent = [("w", 1, 2.0, {})]
        change = [("w", 1 if change_kw else 2, 1.0, change_kw)]
        assert summarise(tmp_path, monkeypatch, parent, change)[0] == 2

    def test_not_a_run_output_exits_2(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.txt"
        bad.write_text("no result here\n")
        good = write_runs(tmp_path, "change", [("w", 1, 1.0, {})])
        monkeypatch.setattr(sys, "argv", ["bench_json.py", "--out", str(tmp_path / "o.json"),
                                          "--parent", str(bad), "--change", *good])
        assert bench_json.main() == 2
