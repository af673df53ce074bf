import argparse
import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from knotcert.cli import (
    HANDLE_BUDGET,
    MAX_STRANDS,
    SUITES,
    Suite,
    _add_flags,
    _build_parser,
    _execute,
    _positive_int,
    default_cache_path,
    main,
)

# sha256 of the `verify all --level desk|full --json` entries without `seconds`
DESK_DIGEST = "6a4b3350c9df4cc9836f3e0a2e8b91bd24d48f4874260d0699df0447c061817e"
FULL_DIGEST = "e81699f2e701b8c6fd3cb697b160696efe4f945acaabd0a0adb678c17ff17ea9"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def hecke_sizes(monkeypatch) -> list:
    """The strand counts of the Hecke runs from here on; a run on more than
    2 strands raises, which fails the claim that made it."""
    import importlib

    engine = importlib.import_module("knotcert.homfly")
    hecke, sizes = engine.hecke_homfly, []

    def guarded(b, **kw):
        sizes.append(b.strands)
        if b.strands > 2:
            raise AssertionError(f"Hecke run on {b.strands} strands")
        return hecke(b, **kw)

    monkeypatch.setattr(engine, "hecke_homfly", guarded)
    return sizes


class TestVerify:
    def test_topterm_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "topterm", "--n", "2")
        assert code == 0
        assert "[   pass] topterm-n2" in out
        assert "1 pass, 0 fail" in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "genus", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["fail"] == 0
        entry = doc["entries"][0]
        assert entry["claim"] == "genus-n2"
        assert entry["status"] == "pass"
        assert set(entry) == {"claim", "statement", "status", "computed", "seconds"}

    def test_lspace_includes_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "lspace", "--k-max", "3")
        assert code == 0
        assert "negative-control" in out

    def test_dehornoy_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "dehornoy", "--n-max", "3")
        assert code == 0
        assert "dehornoy-n2" in out and "dehornoy-n3" in out

    def test_verify_all_desk(self, capsys):
        from collections import Counter

        from knotcert.cli import SUITES

        code, out, _ = run(capsys, "verify", "all", "--level", "desk", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"pass": 174, "fail": 0, "skipped": 0, "unknown": 0}
        claims = [e["claim"] for e in doc["entries"]]
        assert claims == sorted(claims)
        assert len(set(claims)) == 174
        # per-suite attribution splits a claim id at its first "-"
        per_suite = Counter(c.split("-")[0] for c in claims)
        assert set(per_suite) <= set(SUITES)
        assert per_suite == {
            "lspace": 101, "slopes": 51, "traintrack": 6, "dehornoy": 4, "sharpness": 4,
            "ito": 3, "decomposition": 2, "topterm": 2, "genus": 1,
        }

    @staticmethod
    def _all_digest(capsys, level):
        code, out, _ = run(capsys, "verify", "all", "--level", level, "--json")
        assert code == 0
        entries = [
            {k: v for k, v in e.items() if k != "seconds"} for e in json.loads(out)["entries"]
        ]
        return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()

    def test_verify_all_desk_digest(self, capsys):
        # pins every desk claim's status, statement and computed value
        assert self._all_digest(capsys, "desk") == DESK_DIGEST

    def test_verify_all_full_digest(self, capsys):
        # pins every full claim's status, statement and computed value
        assert self._all_digest(capsys, "full") == FULL_DIGEST

    def test_full_suite_runs_no_hecke_over_two_strands(self, capsys, monkeypatch):
        sizes = hecke_sizes(monkeypatch)
        code, out, _ = run(capsys, "verify", "all", "--level", "full", "--json")
        assert code == 0
        assert json.loads(out)["summary"] == {"pass": 1530, "fail": 0, "skipped": 0, "unknown": 0}
        assert sizes == [2, 2]  # the two torus-knot controls

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "slopes", "--threads", "2"],
            ["invariants", "--braid", "1 1 1", "--pf-tolerance", "1e-6"],
            ["invariants", "--braid", "1 1 1", "--backtrack-bound", "3"],
            ["family", "kn", "--n", "2", "--handle-budget", "5"],
            ["verify", "topterm", "--max-letters", "10"],
            ["verify", "all", "--max-letters", "10"],
            # --pf-tolerance must parse as a positive rational
            ["verify", "traintrack", "--pf-tolerance", "0"],
            ["verify", "traintrack", "--pf-tolerance=-1e-9"],
            ["verify", "all", "--pf-tolerance", "abc"],
            ["verify", "all", "--pf-tolerance", "1/0"],
            ["verify", "all", "--pf-tolerance", "nan"],
            ["verify", "all", "--pf-tolerance", "inf"],
            # the integer budgets must parse as positive integers
            ["verify", "dehornoy", "--handle-budget", "0"],
            ["verify", "dehornoy", "--handle-budget=-5"],
            ["verify", "all", "--handle-budget", "1.5"],
            ["verify", "traintrack", "--backtrack-bound=-1"],
            ["verify", "traintrack", "--backtrack-bound", "0"],
            ["verify", "all", "--backtrack-bound", "abc"],
            ["verify", "topterm", "--node-budget", "0"],
            ["verify", "all", "--node-budget=-5"],
            ["invariants", "--braid", "1 1 1", "--node-budget", "0"],
            ["verify", "genus", "--max-strands", "0"],
            ["verify", "ito", "--max-strands=-1"],
            # the suites' --n must parse as a positive integer
            ["verify", "genus", "--n", "0"],
            ["verify", "ito", "--n", "0"],
            ["verify", "ito", "--n=-2"],
            # sweep bounds must be positive and leave a sweep to run
            ["verify", "decomposition", "--n-max", "0"],
            ["verify", "decomposition", "--n-max", "1"],
            ["verify", "sharpness", "--n-max", "1"],
            ["verify", "dehornoy", "--n-max", "1"],
            ["verify", "traintrack", "--n-max", "2"],
            ["verify", "lspace", "--k-max", "-3"],
            ["verify", "lspace", "--k-max", "0"],
            ["verify", "slopes", "--k-max", "0"],
            ["verify", "ito", "--n", "3", "--genus", "-1"],
            ["verify", "ito", "--n", "3", "--genus", "0"],
            # at even --n a supplied genus must be the formula's
            ["verify", "ito", "--n", "2", "--genus", "5"],
            ["verify", "ito", "--n", "4", "--genus", "6"],
            # --n-max sweeps the family maps only
            ["verify", "traintrack", "--map", "map.json", "--n-max", "4"],
            # the word and family options must parse as positive integers
            ["invariants", "--braid", "1 1 1", "--max-letters=-4"],
            ["invariants", "--braid", "1 1 1", "--strands", "0"],
            ["family", "beta", "--n=-2"],
            # a target takes only the budget flags its claims read (the Burau
            # engine behind `verify genus` has no strand cap to take)
            pytest.param(["verify", "genus", "--max-strands", "2"], id="genus-max-strands"),
            pytest.param(["verify", "genus", "--node-budget", "5"], id="genus-node-budget"),
            pytest.param(["verify", "slopes", "--pf-tolerance", "1/100"],
                         id="slopes-pf-tolerance"),
            pytest.param(["verify", "lspace", "--node-budget", "5"], id="lspace-node-budget"),
            pytest.param(["verify", "dehornoy", "--max-strands", "2"], id="dehornoy-max-strands"),
            pytest.param(["verify", "traintrack", "--handle-budget", "5"],
                         id="traintrack-handle-budget"),
            pytest.param(["verify", "topterm", "--backtrack-bound", "4"],
                         id="topterm-backtrack-bound"),
            # the p0 claims run the walk alone, so no strand cap steers them
            *(pytest.param(["verify", target, "--max-strands", "2"], id=f"{target}-max-strands")
              for target in ("topterm", "decomposition", "sharpness", "ito", "all")),
            pytest.param(["invariants", "--braid", "1 1 1", "--max-strands=-1"],
                         id="invariants-max-strands-negative"),
        ],
    )
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_ito_even_n(self, capsys):
        code, out, _ = run(capsys, "verify", "ito", "--n", "2")
        assert code == 0
        assert "ito-control-t23" in out and "ito-kn-n2" in out
        code, out, _ = run(capsys, "verify", "ito", "--n", "2", "--genus", "6")
        assert code == 0 and "3 pass" in out

    def test_ito_n6(self, capsys):
        # p0 of beta_6 (12 strands), about 0.7 s: past the Hecke cap of 8
        code, out, _ = run(capsys, "verify", "ito", "--n", "6", "--json")
        assert code == 0
        entry = {e["claim"]: e for e in json.loads(out)["entries"]}["ito-kn-n6"]
        assert entry["status"] == "pass"
        assert entry["computed"]["witness"] == [11, 0, -1]
        assert entry["computed"]["z0_top"] == [11, -1]

    def test_ito_odd_n_needs_genus(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "ito", "--n", "3"])
        assert err.value.code == 2

    def test_ito_odd_n_with_genus_is_unknown(self, capsys):
        code, out, _ = run(capsys, "verify", "ito", "--n", "3", "--genus", "7")
        assert code == 0
        assert "[unknown] ito-kn-n3" in out

    def test_verify_all_takes_every_budget_flag(self):
        args = _build_parser().parse_args([
            "verify", "all", "--node-budget", "5", "--pf-tolerance", "1/100",
            "--backtrack-bound", "4", "--handle-budget", "100000"])
        assert (args.node_budget, args.pf_tolerance, args.backtrack_bound,
                args.handle_budget) == (5, Fraction(1, 100), 4, 100_000)

    def test_config_echoes_the_bounds_that_applied(self, capsys):
        code, out, _ = run(capsys, "verify", "topterm", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["config"] == {"n": 2, "node_budget": 5_000_000}
        code, out, _ = run(capsys, "verify", "slopes", "--k-max", "1", "--json")
        assert code == 0
        assert json.loads(out)["config"] == {"k_max": 1}

    @pytest.mark.parametrize("n, genus", [(6, 52), pytest.param(8, 93, marks=pytest.mark.stretch)])
    def test_genus_past_the_hecke_cap(self, capsys, n, genus):
        # 2n strands: 0.1 s at n = 6, about 1 s at n = 8 (stretch)
        code, out, _ = run(capsys, "verify", "genus", "--n", str(n), "--json")
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert entry["status"] == "pass"
        assert entry["computed"] == {"alexander_span": 2 * genus, "genus": genus}

    def test_runs_do_not_share_results(self, capsys):
        argv = ("verify", "topterm", "--n", "2", "--node-budget", "5", "--json")
        _, alone, _ = run(capsys, *argv)
        run(capsys, "verify", "topterm", "--n", "2")
        _, after, _ = run(capsys, *argv)
        entry = json.loads(after)["entries"][0]
        assert entry["status"] == "skipped"
        entry.pop("seconds")
        expected = json.loads(alone)["entries"][0]
        expected.pop("seconds")
        assert entry == expected

    def test_genus_odd_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "genus", "--n", "3"])
        assert err.value.code == 2

    def test_status_mapping(self):
        from knotcert.cli import Claim, _execute
        from knotcert.errors import BudgetExceededError

        def budget():
            raise BudgetExceededError("too big", spent=10)

        def crash():
            raise KeyError("boom")

        assert _execute(Claim("a", "s", lambda: (True, "x"))).status == "pass"
        assert _execute(Claim("b", "s", lambda: (False, "x"))).status == "fail"
        assert _execute(Claim("c", "s", lambda: (None, "x"))).status == "unknown"
        skipped = _execute(Claim("d", "s", budget))
        assert skipped.status == "skipped"
        assert "budget exceeded" in skipped.computed
        assert "(spent 10)" in skipped.computed
        crashed = _execute(Claim("e", "s", crash))
        assert crashed.status == "fail"
        assert "KeyError" in crashed.computed

    def test_budget_yields_skip_in_fresh_process(self):
        import subprocess
        import sys

        # 10 strands exceed the Hecke cap and the walk budget is tiny, so
        # the claim must be skipped rather than failed
        proc = subprocess.run(
            [
                sys.executable, "-m", "knotcert.cli",
                "verify", "topterm", "--n", "5", "--node-budget", "10",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "[skipped] topterm-n5" in proc.stdout
        assert "0 fail" in proc.stdout

    def test_skip_over_the_strand_cap_reports_the_walk_spend(self, capsys):
        # beta_5 has 10 strands, over the Hecke cap of 8: p0 must not fall
        # back, and the skip must say how far the walk got
        code, out, _ = run(capsys, "verify", "topterm", "--n", "5", "--node-budget", "900",
                           "--json")
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert entry["status"] == "skipped"
        assert entry["computed"] == "budget exceeded: p0 node budget exhausted (spent 900)"

    @pytest.mark.parametrize("argv, skipped", [
        (["topterm", "--n", "4", "--node-budget", "10"], {"topterm-n4"}),
        (["decomposition", "--n-max", "4", "--node-budget", "20"],
         {"decomposition-n3", "decomposition-n4"}),
        (["sharpness", "--n-max", "4", "--node-budget", "20"],
         {"sharpness-cable-k3", "sharpness-cable-k4", "sharpness-knplus-n3",
          "sharpness-knplus-n4"}),
        (["ito", "--n", "4", "--node-budget", "100"], {"ito-kn-n4"}),
    ], ids=["topterm", "decomposition", "sharpness", "ito"])
    def test_walk_exhaustion_is_a_skip_not_a_hecke_run(self, capsys, monkeypatch, argv,
                                                       skipped):
        # under the Hecke cap too: a p0 claim has the walk and its budget only
        sizes = hecke_sizes(monkeypatch)
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0
        entries = {e["claim"]: e for e in json.loads(out)["entries"]}
        assert {c for c, e in entries.items() if e["status"] == "skipped"} == skipped
        spend = f"budget exceeded: p0 node budget exhausted (spent {argv[-1]})"
        assert all(entries[c]["computed"] == spend for c in skipped)
        assert all(e["status"] == "pass" for c, e in entries.items() if c not in skipped)
        assert all(s <= 2 for s in sizes)

    def test_desk_suite_survives_optimize_flag(self):
        import subprocess
        import sys

        # python -O strips assert statements; every check must still run
        proc = subprocess.run(
            [
                sys.executable, "-O", "-m", "knotcert.cli",
                "verify", "all", "--level", "desk", "--json",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"] == {
            "pass": 174, "fail": 0, "skipped": 0, "unknown": 0,
        }


class TestTraintrackMaps:
    def test_user_map_passes(self, tmp_path, capsys):
        from knotcert.traintrack import kn_map, map_to_json

        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(kn_map(3))))
        code, out, _ = run(capsys, "verify", "traintrack", "--map", str(path))
        assert code == 0
        assert "usermap" in out

    def test_bad_map_fails(self, tmp_path, capsys):
        from knotcert.traintrack import kn_map, map_to_json

        data = map_to_json(kn_map(3))
        data["edge_image"]["e1"] = ["e5", "-e5", "e5"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "traintrack", "--map", str(path))
        assert code == 1
        assert "[   fail]" in out

    def test_reducible_map_fails_with_its_verdict(self, tmp_path, capsys):
        # a -> a, b -> b, f -> a -a b -b: nothing maps over f
        data = {"vertices": ["v"], "edges": {e: ["v", "v"] for e in "abf"},
                "edge_image": {"a": ["a"], "b": ["b"], "f": ["a", "-a", "b", "-b"]}}
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "traintrack", "--map", str(path), "--json")
        assert code == 1
        entries = {e["claim"]: e for e in json.loads(out)["entries"]}
        entry = entries["usermap-transition-reducible.json"]
        assert entry["status"] == "fail"
        assert entry["computed"] == {"labels": ["a", "b", "f"], "irreducible": False,
                                     "lambda": None}

    def test_periodic_map_fails(self, tmp_path, capsys):
        # a -> b -> c -> a permutes the edges: irreducible, but dilatation 1
        data = {"vertices": ["v"], "edges": {e: ["v", "v"] for e in "abc"},
                "edge_image": {"a": ["b"], "b": ["c"], "c": ["a"]}}
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "traintrack", "--map", str(path), "--json")
        assert code == 1
        entries = {e["claim"]: e for e in json.loads(out)["entries"]}
        entry = entries["usermap-transition-periodic.json"]
        assert entry["status"] == "fail"
        assert entry["computed"]["irreducible"] is True and entry["computed"]["lambda"] == 1.0

    def test_exact_tolerance_flag(self, tmp_path, capsys):
        from knotcert.traintrack import kn_map, map_to_json

        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(kn_map(3))))
        argv = ("verify", "traintrack", "--map", str(path), "--json", "--pf-tolerance")
        code, out, _ = run(capsys, *argv, "1/1000000000000")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["pf_tolerance"] == "1/1000000000000"
        entries = {e["claim"]: e for e in doc["entries"]}
        assert entries["usermap-transition-map.json"]["computed"]["lambda"] == 5.445978883

    def test_family_scan_short_of_a_fixed_point_is_skipped(self, capsys):
        # no back track within one step is not efficiency at every order
        code, out, _ = run(capsys, "verify", "traintrack", "--n-max", "3",
                           "--backtrack-bound", "1", "--json")
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert entry["status"] == "skipped"
        assert entry["computed"] == ("budget exceeded: no back track within bound 1, but the"
                                     " scan did not stabilize (spent 1)")

    def test_failed_check_on_a_short_scan_still_fails(self, capsys, monkeypatch):
        # a smaller bound must not turn a failed check into a skip
        import knotcert.cli as cli

        monkeypatch.setattr(cli, "expands", lambda M: False)
        code, out, _ = run(capsys, "verify", "traintrack", "--n-max", "3",
                           "--backtrack-bound", "1", "--json")
        assert code == 1
        entry = json.loads(out)["entries"][0]
        assert (entry["status"], entry["computed"]["stabilized"]) == ("fail", False)

    def test_missing_file_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "traintrack", "--map", "/nonexistent.json",
                           "--json")
        assert code == 1
        entries = json.loads(out)["entries"]
        assert len(entries) == 3
        assert all(e["status"] == "fail" and "FileNotFoundError" in e["computed"]
                   for e in entries)

    def test_map_parsed_once_per_run(self, tmp_path, capsys, monkeypatch):
        import knotcert.cli as cli
        from knotcert.traintrack import kn_map, map_to_json

        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(kn_map(3))))
        calls = []
        real = cli.map_from_json
        monkeypatch.setattr(cli, "map_from_json", lambda data: calls.append(1) or real(data))
        code, _, _ = run(capsys, "verify", "traintrack", "--map", str(path))
        assert code == 0
        assert len(calls) == 1


class TestInvariants:
    def test_trefoil_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--braid", "1 1 1", "--no-cache")
        assert code == 0
        assert "2*v^2 + v^2*z^2 - v^4" in out
        assert "alexander" in out
        assert "determinant: 3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--braid", "strands=3 1 -2", "--json", "--no-cache"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["homfly"] == "1"
        assert doc["components"] == 1

    def test_skein_engine_agrees(self, capsys):
        _, out_h, _ = run(capsys, "invariants", "--braid", "1 1 1 1 1", "--json", "--no-cache")
        _, out_s, _ = run(
            capsys,
            "invariants", "--braid", "1 1 1 1 1", "--engine", "skein", "--json", "--no-cache",
        )
        assert json.loads(out_h)["homfly"] == json.loads(out_s)["homfly"]

    def test_skein_engine_runs_no_hecke(self, capsys, monkeypatch):
        import importlib

        engine = importlib.import_module("knotcert.homfly")
        calls = []

        def counting(b, **kw):
            calls.append(b)
            return hecke(b, **kw)

        hecke = engine.hecke_homfly
        monkeypatch.setattr(engine, "hecke_homfly", counting)
        argv = ("invariants", "--braid", "1 1 1", "--json", "--no-cache")
        _, out_s, _ = run(capsys, *argv, "--engine", "skein")
        assert calls == []
        _, out_h, _ = run(capsys, *argv, "--engine", "hecke")
        assert len(calls) == 1
        assert json.loads(out_s) == json.loads(out_h)
        assert json.loads(out_s)["determinant"] == 3

    @pytest.mark.parametrize("argv", [["invariants", "--braid", "1 1 1"],
                                      ["family", "cable", "--n", "1", "--emit", "invariants"]])
    def test_budget_message_carries_the_spend(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--engine", "skein", "--node-budget", "1",
                             "--no-cache")
        assert (code, out) == (1, "")
        assert err == "budget exceeded: skein node budget exhausted (spent 1)\n"

    def test_strand_cap_binds_the_hecke_engine_only(self, capsys):
        # the skein walk has no strand cap; --node-budget bounds it
        argv = ("invariants", "--braid", "strands=9 1 2", "--no-cache")
        code, out, _ = run(capsys, *argv, "--engine", "skein")
        assert code == 0
        assert "components: 7" in out
        with pytest.raises(SystemExit) as err:
            main([*argv, "--engine", "hecke"])
        assert err.value.code == 2
        assert "over the --max-strands budget 8" in capsys.readouterr().err

    def test_word_length_cap(self):
        with pytest.raises(SystemExit) as err:
            main(["invariants", "--braid", " ".join(["1"] * 99), "--max-letters", "10"])
        assert err.value.code == 2

    def test_garbage_braid_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["invariants", "--braid", "1 x 2"])
        assert err.value.code == 2


class TestFamily:
    def test_word_emission(self, capsys):
        code, out, _ = run(capsys, "family", "cable", "--n", "1")
        assert code == 0
        assert out.strip() == "strands=2 1 1 1"

    def test_kn_letter_count(self, capsys):
        code, out, _ = run(capsys, "family", "kn", "--n", "3")
        assert code == 0
        word = out.strip()
        assert word.startswith("strands=6 ")
        assert len(word.split()) == 1 + 3 * 9 + 3 * 3 - 1

    def test_hyphenated_name(self, capsys):
        code, out, _ = run(capsys, "family", "beta-conjugated", "--n", "2")
        assert code == 0

    def test_bad_parameter_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["family", "kn", "--n", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("cap", [["--max-letters", "1"], ["--max-strands", "2"]])
    def test_invariants_respect_word_caps(self, cap):
        with pytest.raises(SystemExit) as err:
            main(["family", "beta", "--n", "2", "--emit", "invariants", "--no-cache", *cap])
        assert err.value.code == 2

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_invariants_print_as_the_invariants_command(self, capsys, fmt):
        fam = run(capsys, "family", "kn", "--n", "1", "--emit", "invariants", "--no-cache", *fmt)
        inv = run(capsys, "invariants", "--braid", "1 1 1 1 1", "--no-cache", *fmt)
        assert fam[0] == 0
        assert fam == inv


class TestCache:
    def test_path_respects_xdg(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert str(default_cache_path()).startswith(str(tmp_path))
        code, out, _ = run(capsys, "cache", "path")
        assert code == 0
        assert out.strip() == str(default_cache_path())

    def test_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        code, _, _ = run(capsys, "invariants", "--braid", "strands=5 1 -2 3 -4 4 2")
        assert code == 0
        code, out, _ = run(capsys, "cache", "stats")
        assert code == 0
        assert json.loads(out)["records"] >= 1
        code, out, _ = run(capsys, "cache", "clear")
        assert code == 0
        code, out, _ = run(capsys, "cache", "stats")
        assert json.loads(out)["records"] == 0


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["verify", "topterm", "--n", "1"],
                                      ["verify", "dehornoy", "--n-max", "1"],
                                      ["invariants", "--braid", "1 x 2"]])
    def test_usage_error_names_the_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        usage = capsys.readouterr().err.splitlines()[0]
        assert usage.startswith(f"usage: knotcert {' '.join(argv[:-2])} [-h]")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def bare_int_options(parser: argparse.ArgumentParser, path: tuple = ()) -> list[str]:
    """Every option of every subcommand that is parsed by bare int, so that
    zero or a negative number would pass as a bound or a size."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += bare_int_options(sub, (*path, name))
        elif action.type is int:
            found += [" ".join((*path, flag)) for flag in action.option_strings or [action.dest]]
    return sorted(found)


class TestIntegerOptions:
    def test_guard_sees_a_bare_int(self):
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        sub.add_parser("invariants").add_argument("--strands", type=int)
        target = sub.add_parser("verify").add_subparsers().add_parser("x")
        target.add_argument("--n-max", type=int)
        target.add_argument("--k-max", type=_positive_int)
        target.add_argument("n", type=int)
        assert bare_int_options(parser) == ["invariants --strands", "verify x --n-max",
                                            "verify x n"]

    def test_node_budget_defaults(self):
        parser = _build_parser()
        for argv, budget in ((["invariants", "--braid", "1"], 200_000),
                             (["family", "kn", "--n", "1"], 200_000),
                             (["verify", "ito"], 5_000_000), (["verify", "all"], 5_000_000)):
            assert parser.parse_args(argv).node_budget == budget

    def test_no_verify_option_is_a_bare_int(self):
        # every subcommand, not only `verify`
        assert bare_int_options(_build_parser()) == []


class RecordingNamespace(argparse.Namespace):
    """A namespace that records each attribute read while `reads` is a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


# a small run of each `verify` target
SMALL_ARGV = {
    "topterm": [], "decomposition": ["--n-max", "2"], "sharpness": ["--n-max", "2"],
    "ito": [], "genus": [], "lspace": ["--k-max", "1"], "slopes": ["--k-max", "1"],
    "traintrack": ["--n-max", "3"], "dehornoy": ["--n-max", "2"],
}


def unread_options(target: argparse.ArgumentParser, argv: list[str], claims) -> set:
    """The options of one target that neither claims(args), which builds its
    claims, nor any of those claims read.  The run goes around _cmd_verify,
    whose config echo reads every option."""
    args = target.parse_args(argv, namespace=RecordingNamespace())
    args.memo = {}
    args.reads = set()
    results = [_execute(c) for c in claims(args)]
    reads, args.reads = args.reads, None
    assert results and all(r.status == "pass" for r in results)
    options = {a.dest for a in target._actions if a.option_strings}
    return options - {"help", "json"} - reads


def suite_claims(suite: Suite):
    """A target's claims, from its inputs and its builder."""
    return lambda args: suite.build(args, **suite.inputs(args))


def desk_claims(args) -> list:
    """The claims of `verify all --level desk`."""
    return [c for s in SUITES.values() for c in s.build(args, **s.desk)]


def verify_targets() -> dict:
    return _subcommands(_subcommands(_build_parser())["verify"])


class TestFlagsAreRead:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_declared_flag_is_read(self, name):
        target = verify_targets()[name]
        assert unread_options(target, SMALL_ARGV[name], suite_claims(SUITES[name])) == set()

    def test_every_flag_of_all_is_read(self):
        # --level picks the inputs in _cmd_verify; each budget flag must reach a suite
        assert unread_options(verify_targets()["all"], [], desk_claims) == {"level"}

    def test_planted_unread_flag_is_seen(self):
        genus = SUITES["genus"]
        planted = dataclasses.replace(genus, args=genus.args + (HANDLE_BUDGET,))
        target = argparse.ArgumentParser()
        _add_flags(target, planted.args)
        assert unread_options(target, [], suite_claims(planted)) == {"handle_budget"}

    def test_planted_unread_flag_on_all_is_seen(self):
        target = verify_targets()["all"]
        flag, kw = MAX_STRANDS
        target.add_argument(flag, **kw)
        assert unread_options(target, [], desk_claims) == {"level", "max_strands"}
