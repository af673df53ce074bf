"""One benchmark sample: a fresh interpreter runs one workload once, checks
every result, and prints a JSON summary as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny \
        --tmp DIR --sample I [--trace] [--plant-wrong]

``run.py`` starts one of these per sample with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``XDG_CACHE_HOME`` inside the run's temporary
directory, so the module-level memos of knotcert start empty in every sample
and the user's persistent cache is never touched.

Importing ``knotcert.cli`` is set-up and is not timed.  ``wall_s`` runs from
the first library or CLI call to the checked verdict.  With ``--trace`` the
sample records spans around the benchmark's own calls into knotcert's public
functions (nothing inside the library is wrapped) and writes them as JSON
lines to ``DIR/spans-I.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

from knotcert import cli  # set-up: the import every command pays
from knotcert.braid import BraidWord, braid_text, closure_stats, permutation
from knotcert.dehornoy import floor_exceeds_one, sigma_classify
from knotcert.homfly import (
    PolynomialCache,
    alexander,
    canonical_key,
    coefficient_polys,
    homfly,
    p0,
    skein_homfly,
)
from knotcert.montesinos import (
    ell0_triple,
    ell_family,
    ellinf_triple,
    is_lspace_m1,
    surgery_slopes,
)
from spec import KNOWN_HANDLE_STEPS, SIZES, SUITES
from knotcert.traintrack import (
    is_efficient_up_to,
    is_irreducible,
    kn_map,
    pf_eigenvalue,
    steps_to_reach,
    transition,
    validate,
)

# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def add(self, name: str, start: float, end: float, parent: int, **extra) -> None:
        """Record a span whose times come from the program's own report."""
        self.spans.append(
            {"id": len(self.spans), "parent": parent, "name": name,
             "start": start, "end": end, "run": self.run_id, **extra}
        )


_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.id = len(tr.spans)
        tr.spans.append({})  # slot filled on exit, so ids follow start order
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.id)
        self.start = time.perf_counter() - tr.t0
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        end = time.perf_counter() - tr.t0
        tr._stack.pop()
        tr.spans[self.id] = {"id": self.id, "parent": self.parent, "name": self.name,
                             "start": self.start, "end": end, "run": tr.run_id}
        return False


# ---------------------------------------------------------------------------
# sample bookkeeping


class Sample:
    """Items attempted and failed, per-item latencies and exact counts."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.span = tracer.span
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.latencies: list[float] = []
        self.counts: dict[str, int] = {}
        self.inputs: object = None

    def fail(self, name: str, reason: str) -> None:
        self.failures.setdefault(name, reason)

    def check(self, name: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(name, reason)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def item(self, name: str):
        """One checked item; a crash or a budget skip fails the item only."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.span("item"):
                yield
        except Exception as exc:  # a crashed or skipped item is a failed item
            self.fail(name, f"error: {exc!r}")
        self.latencies.append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# workloads


def _run_cli(s: Sample, argv: list[str], expected_claims: int, check_entry) -> None:
    """One CLI command in this process; every claim must pass its check."""
    s.inputs = argv
    out = io.StringIO()
    with s.span("cli.main") as main_span:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        report = json.loads(out.getvalue())
    entries = report["entries"]
    s.attempted += expected_claims
    for entry in entries:
        reason = check_entry(entry)
        if reason:
            s.fail(entry["claim"], reason)
    missing = expected_claims - len(entries)
    for i in range(missing):
        s.fail(f"missing-claim-{i}", f"report has {len(entries)} claims, expected {expected_claims}")
    if rc != 0 and not s.failures:
        s.fail("exit-code", f"exit code {rc} with every claim passing")
    s.count("cli.claims", len(entries))
    if s.tracer.enabled:
        # Per-suite time comes from the report's per-claim seconds; the
        # claims run one after another inside cli.main.
        per_suite = dict.fromkeys(SUITES, 0.0)
        for entry in entries:
            per_suite[entry["claim"].split("-")[0]] += entry["seconds"]
        t = main_span.start
        for suite, seconds in per_suite.items():
            s.tracer.add(f"cli.suite.{suite}", t, t + seconds, main_span.id,
                         derived="claim seconds from --json")
            t += seconds


def full_suite(s: Sample, size: str, seed: int, plant: bool, tmp: Path) -> None:
    level, claims = SIZES["full-suite"][size]
    if plant:
        claims += 1  # expect a claim the suite does not have

    def check(entry):
        return None if entry["status"] == "pass" else f"{entry['status']}: {entry['computed']}"

    _run_cli(s, ["verify", "all", "--level", level, "--json"], claims, check)


def beta5_p0(s: Sample, size: str, seed: int, plant: bool, tmp: Path) -> None:
    n = SIZES["beta5-p0"][size]
    want = {"exponent": 3 * n * n + 3 * n, "coefficient": (-1) ** n}
    if plant:
        want["coefficient"] = -want["coefficient"]

    def check(entry):
        if entry["status"] != "pass" or entry["computed"] != want:
            return f"{entry['status']}: top term {entry['computed']}, expected {want}"
        return None

    _run_cli(s, ["verify", "topterm", "--n", str(n), "--json"], 1, check)


def random_words(seed: int, count: int) -> list[BraidWord]:
    """Freely reduced words with mixed signs on 3..6 strands, 2s..3s letters."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        strands = rng.randint(3, 6)
        length = rng.randint(2 * strands, 3 * strands)
        letters: list[int] = []
        while len(letters) < length:
            x = rng.choice((-1, 1)) * rng.randint(1, strands - 1)
            if not letters or letters[-1] != -x:
                letters.append(x)
        words.append(BraidWord(strands, tuple(letters)))
    return words


def _handle_free(letters: tuple[int, ...]) -> bool:
    """No subword s_i^e w s_i^-e whose interior indices all exceed i."""
    for q, x in enumerate(letters):
        p = q - 1
        while p >= 0 and abs(letters[p]) > abs(x):
            p -= 1
        if p >= 0 and letters[p] == -x:
            return False
    return True


def _sigma_reason(b: BraidWord, cls) -> str | None:
    """Check a sigma classification against its handle-free witness."""
    w = cls.reduced_word
    if w.strands != b.strands or w.exponent_sum != b.exponent_sum:
        return "witness changes strands or exponent sum"
    if permutation(w) != permutation(b):
        return "witness changes the permutation"
    if not _handle_free(w.letters):
        return "witness still has a handle"
    if not w.letters:
        return None if cls.verdict == "trivial" else "empty witness not trivial"
    main = min(abs(x) for x in w.letters)
    signs = {x > 0 for x in w.letters if abs(x) == main}
    verdict = "sigma_positive" if signs == {True} else "sigma_negative" if signs == {False} else None
    if cls.main_index != main or cls.verdict != verdict:
        return f"verdict {cls.verdict} at {cls.main_index} does not match witness"
    return None


def random_links(s: Sample, size: str, seed: int, plant: bool, tmp: Path) -> None:
    words = random_words(seed, SIZES["random-links"][size])
    s.inputs = [braid_text(b) for b in words]
    path = tmp / "homfly.jsonl"
    path.unlink(missing_ok=True)
    with s.span("homfly.cache.load"):
        cache = PolynomialCache(path)
    computed: dict[str, tuple[object, str]] = {}
    for i, b in enumerate(words):
        name = f"word{i}[{braid_text(b)}]"
        with s.item(name):
            with s.span("homfly.hecke"):
                P = homfly(b, cache=cache)
            with s.span("homfly.p0"):
                q = p0(b, fallback=False)
            components = closure_stats(b).components
            with s.span("homfly.coeff"):
                hecke_p0 = coefficient_polys(P, components).coeffs[0]
                alex = alexander(b) if components == 1 else None
            if plant and i == 0:
                hecke_p0 = hecke_p0.shift(2)
            s.check(name, q == hecke_p0, "p0 resolver disagrees with p^0 of the Hecke HOMFLY")
            if alex is not None:
                s.check(name, alex.evaluate(1) == 1 and
                        all(alex.coeff(-e) == c for e, c in alex.terms.items()),
                        "Alexander polynomial not symmetric with value 1 at 1")
            if b.strands <= 4:
                with s.span("homfly.skein"):
                    S = skein_homfly(b)
                s.count("homfly.skein.calls")
                s.check(name, S == P, "skein oracle disagrees with the Hecke engine")
            with s.span("dehornoy"):
                cls = sigma_classify(b)
            reason = _sigma_reason(b, cls)
            s.check(name, reason is None, f"sigma classification: {reason}")
            s.count("homfly.hecke.calls")
            s.count("homfly.hecke.terms", len(P.terms))
            s.count("homfly.p0.calls")
            s.count("homfly.p0.terms", len(q.terms))
            computed.setdefault(canonical_key(b), (P, name))
    with s.span("homfly.cache.load"):
        reread = PolynomialCache(path)
    mismatches = 0
    for key, (P, name) in computed.items():
        if reread.get(key) != P:
            mismatches += 1
            s.fail(name, "cache read-back differs from the computed polynomial")
    stats = reread.stats()
    s.check("cache-records", stats["records"] == len(computed),
            f"cache holds {stats['records']} records for {len(computed)} distinct keys")
    s.count("homfly.distinct_keys", len(computed))
    s.count("homfly.cache.records", stats["records"])
    s.count("homfly.cache.bytes", stats["bytes"])
    s.count("homfly.cache.readback_mismatches", mismatches)
    path.unlink()


def _pf_reason(M, lam: float) -> str | None:
    """The PF eigenvalue lies between the least and greatest row sums, and
    between the least and greatest column sums."""
    rows = [sum(r) for r in M.rows]
    cols = [sum(c) for c in zip(*M.rows)]
    lo, hi = max(min(rows), min(cols)), min(max(rows), max(cols))
    if not lo - 1e-9 <= lam <= hi + 1e-9:
        return f"dilatation {lam} outside the row/column-sum enclosure [{lo}, {hi}]"
    return None


def certificates(s: Sample, size: str, seed: int, plant: bool, tmp: Path) -> None:
    tt_ns, floor_ns, k_max = SIZES["certificates"][size]
    s.inputs = [list(tt_ns), list(floor_ns), k_max]
    known = dict(KNOWN_HANDLE_STEPS)
    if plant:
        known[2] += 1
    for n in tt_ns:
        name = f"traintrack-n{n}"
        with s.item(name):
            with s.span("traintrack.validate"):
                gm = kn_map(n)
                diag = validate(gm)
            with s.span("traintrack.transition"):
                M = transition(gm)
                irreducible = is_irreducible(M)
            with s.span("traintrack.pf"):
                lam = pf_eigenvalue(M, 1e-9)
            en = f"e{n}"
            with s.span("traintrack.efficiency"):
                eff = is_efficient_up_to(gm, 2 * (2 * n + 2))
                reach = [steps_to_reach(gm, e, en, 2 * n + 2) for e in diag.real]
            covers = {t.lstrip("-") for t in gm.edge_image[en]} >= set(diag.real)
            s.check(name, diag.ok and irreducible and lam > 1 + 1e-6 and eff.efficient
                    and covers and None not in reach, "train-track certificate fails")
            reason = _pf_reason(M, lam)
            s.check(name, reason is None, str(reason))
    for n in floor_ns:
        name = f"dehornoy-n{n}"
        with s.item(name):
            with s.span("dehornoy"):
                cert = floor_exceeds_one(n)
            s.count("dehornoy.handle_steps", cert.steps)
            w = cert.witness.letters
            positive_at_1 = bool(w) and min(abs(x) for x in w) == 1 and all(
                x > 0 for x in w if abs(x) == 1)
            s.check(name, cert.holds and cert.main_index == 1 and positive_at_1
                    and _handle_free(w), "floor certificate fails")
            s.check(name, known.get(n, cert.steps) == cert.steps,
                    f"{cert.steps} handle steps, expected {known.get(n)}")
    for k in range(1, k_max + 1):
        for tag, triple in (("ell0", ell0_triple(k)), ("ellinf", ellinf_triple(k))):
            name = f"lspace-{tag}-k{k}"
            with s.item(name):
                with s.span("montesinos.lspace"):
                    v = is_lspace_m1(*triple)
                s.check(name, v.is_lspace and v.witness is None, f"not an L-space: {v.witness}")
    with s.item("lspace-negative-control"):
        with s.span("montesinos.lspace"):
            v = is_lspace_m1("1/2", "1/3", "1/7")
        s.check("lspace-negative-control", not v.is_lspace and v.witness == (5, 3),
                f"control verdict {v}")
    for k in range(1, k_max + 1):
        name = f"slopes-k{k}"
        with s.item(name):
            with s.span("montesinos.slopes"):
                fam = ell_family(k)
                sl = surgery_slopes(k)
            s.check(name, fam.det_ell == 12 * k * k + 2 * k and fam.det_ell0 == 6 * k + 1
                    and fam.recursion_holds and fam.endpoints_match and sl.consistent
                    and sl.lspace_slope == fam.det_ell, "determinant or slope ledger fails")
    with s.item("slopes-anchor-k1"):
        with s.span("montesinos.slopes"):
            sl = surgery_slopes(1)
        s.check("slopes-anchor-k1", sl.lspace_slope == 14, f"slope {sl.lspace_slope}")


WORKLOADS = {
    "full-suite": full_suite,
    "beta5-p0": beta5_p0,
    "random-links": random_links,
    "certificates": certificates,
}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--sample", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args()

    tracer = Tracer(args.trace, f"{args.workload}-seed{args.seed}-sample{args.sample}")
    s = Sample(tracer)
    run = WORKLOADS[args.workload]
    start = time.perf_counter()
    with tracer.span("sample"):
        run(s, args.size, args.seed, args.plant_wrong, args.tmp)
    wall = time.perf_counter() - start
    if args.workload in ("full-suite", "beta5-p0"):
        s.latencies = [wall]  # the item is the whole command
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans_path = None
    if args.trace:
        spans_path = args.tmp / f"spans-{args.sample}.jsonl"
        spans_path.write_text("".join(json.dumps(sp) + "\n" for sp in tracer.spans))
    digest = hashlib.sha256(json.dumps(s.inputs).encode()).hexdigest()
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024,
        "attempted": s.attempted,
        "failures": s.failures,
        "latencies_s": s.latencies,
        "counts": s.counts,
        "inputs_sha256": digest,
        "spans": str(spans_path) if spans_path else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
