"""Command line front end: invariant queries, braid family emission, the
verification suites, and the persistent polynomial cache.

Every verification claim is executed under explicit budgets and reported as
one entry {claim, statement, status, computed, seconds} with status pass,
fail, skipped (budget ran out), or unknown (computed but no expected value).
Exit code 0 means no entry failed, 1 means at least one failed, 2 means the
invocation itself was unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .braid import (
    BraidWord,
    braid_text,
    cable_braid,
    closure_stats,
    family,
    FAMILY_NAMES,
    kn_braid,
    kn_plus_braid,
    parse_braid,
)
from .dehornoy import DEFAULT_STEP_BUDGET, floor_exceeds_one
from .errors import BraidError, BudgetExceededError
from .homfly import (
    HECKE_MAX_STRANDS,
    PolynomialCache,
    _alexander_of,
    _determinant_of,
    alexander,
    coefficient_polys,
    homfly,
)
from .montesinos import (
    ell0_triple,
    ell_family,
    ellinf_triple,
    is_lspace_m1,
    surgery_slopes,
)
from .positivity import (
    genus_kn,
    ito_obstruction,
    sharpness,
    skein_decomposition_check,
    verify_topterm,
)
from .traintrack import (
    expands,
    is_efficient_up_to,
    is_irreducible,
    kn_map,
    map_from_json,
    pf_eigenvalue,
    steps_to_reach,
    transition,
    validate,
)

Thunk = Callable[[], tuple[bool | None, object]]


@dataclass(frozen=True)
class Claim:
    claim: str
    statement: str
    thunk: Thunk


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    statement: str
    status: str
    computed: object
    seconds: float


def default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "knotcert" / "homfly.jsonl"


# ---------------------------------------------------------------------------
# claim execution


def _execute(claim: Claim) -> ClaimResult:
    start = time.perf_counter()
    try:
        ok, computed = claim.thunk()
        status = "unknown" if ok is None else "pass" if ok else "fail"
    except BudgetExceededError as exc:
        status, computed = "skipped", f"budget exceeded: {exc}"
    except Exception as exc:  # a crashed claim is a failed claim
        status, computed = "fail", f"error: {exc!r}"
    return ClaimResult(
        claim=claim.claim,
        statement=claim.statement,
        status=status,
        computed=computed,
        seconds=round(time.perf_counter() - start, 3),
    )


def _emit_report(results: list[ClaimResult], as_json: bool, config: dict) -> int:
    counts = {"pass": 0, "fail": 0, "skipped": 0, "unknown": 0}
    for r in results:
        counts[r.status] += 1
    if as_json:
        payload = {
            "version": __version__,
            "config": config,
            "entries": [r.__dict__ for r in results],
            "summary": counts,
        }
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for r in results:
            print(f"[{r.status:>7}] {r.claim}: {r.statement} -> {r.computed} ({r.seconds}s)")
        print(
            f"{len(results)} claims: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['skipped']} skipped, {counts['unknown']} unknown"
        )
    return 1 if counts["fail"] else 0


def _config_echo(args) -> dict:
    """Every option the target was parsed with, so exactly the bounds that applied."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "target", "handler", "json") and v is not None}


# ---------------------------------------------------------------------------
# suite builders: each takes the parsed budget flags and its suite inputs


def _sweep(values, text: Callable[..., tuple[str, str]], check: Callable) -> list[Claim]:
    """One claim per value: text(value) gives (claim id, statement) and
    check(value) runs it."""
    return [Claim(*text(v), partial(check, v)) for v in values]


def _topterm(o, ns) -> list[Claim]:
    def check(n):
        r = verify_topterm(n, node_budget=o.node_budget, memo=o.memo)
        return r.ok, {"exponent": r.exponent, "coefficient": r.coefficient}

    def text(n):
        top = f"{'+' if n % 2 == 0 else '-'}v^{3 * n * n + 3 * n}"
        return f"topterm-n{n}", f"p0 of the beta_{n} closure has top term {top}"

    return _sweep(ns, text, check)


def _decomposition(o, ns) -> list[Claim]:
    def check(n):
        r = skein_decomposition_check(n, node_budget=o.node_budget, memo=o.memo)
        return r.holds, {"degree": r.lhs.degree, "terms": len(r.lhs.terms)}

    return _sweep(ns, lambda n: (f"decomposition-n{n}", (
        f"p0 recursion over cable and kn_plus pieces holds exactly at n={n}")), check)


def _sharpness(o, n_max) -> list[Claim]:
    """The trefoil control must be sharp; every cable braid X_k^3.[1..k-1] for
    k = 2..n_max and every kn_plus braid for n = 3..n_max must not be."""
    if n_max < 2:  # an empty sweep builds no claims, control included
        return []
    rows = (  # (claim id suffix, statement, braid, expected sharp)
        [("trefoil", "trefoil braid is sharp", BraidWord(2, (1, 1, 1)), True)]
        + [(f"cable-k{k}", f"cable braid X_{k}^3.[1..{k - 1}] is not sharp", cable_braid(k),
            False) for k in range(2, n_max + 1)]
        + [(f"knplus-n{n}", f"kn_plus braid at n={n} is not sharp", kn_plus_braid(n), False)
           for n in range(3, n_max + 1)]
    )

    def check(row):
        rep = sharpness(row[2], node_budget=o.node_budget, memo=o.memo)
        computed = {"p0_degree": rep.p0_degree, "bound": rep.bound, "sharp": rep.sharp}
        return rep.sharp == row[3], computed

    return _sweep(rows, lambda row: (f"sharpness-{row[0]}", row[1]), check)


def _ito_computed(verdict) -> dict:
    z0 = {e1: c for (e1, e2), c in verdict.tilde_poly.terms.items() if e2 == 0}
    top = max(z0) if z0 else None
    return {
        "positive": verdict.positive,
        "witness": verdict.witness,
        "z0_top": None if top is None else [top, z0[top]],
        "genus_alexander_mismatch": verdict.genus_alexander_mismatch,
    }


_TORUS_KNOTS = {1: "the trefoil", 2: "the (2,5) torus knot"}  # genus -> name


def _ito(o, ns, genus) -> list[Claim]:
    def verdict(braid, g, engine):
        return ito_obstruction(braid, g, engine=engine, node_budget=o.node_budget, memo=o.memo)

    def control(g):  # positivity needs every coefficient: the full Hecke P, on 2 strands
        v = verdict(BraidWord(2, (1,) * (2 * g + 1)), g, "hecke")
        return v.positive, _ito_computed(v)

    def kn(n):  # the obstruction fires in z^0, so p0 certifies it
        if n % 2 == 1:  # no genus formula, so no proven expectation
            return None, _ito_computed(verdict(kn_braid(n), genus, "p0"))
        v = verdict(kn_braid(n), genus_kn(n), "p0")
        computed = _ito_computed(v)
        return v.positive is False and computed["z0_top"] == [2 * n - 1, -1], computed

    def kn_text(n):
        if n % 2 == 1:
            return f"ito-kn-n{n}", (f"obstruction value for the beta_{n} closure at supplied"
                                    f" genus {genus} (no asserted outcome)")
        return f"ito-kn-n{n}", (f"obstruction fires on the beta_{n} closure with z^0 top term"
                                f" -alpha^{2 * n - 1}")

    return _sweep(_TORUS_KNOTS, lambda g: (f"ito-control-t2{2 * g + 1}", (
        f"obstruction stays positive on {_TORUS_KNOTS[g]} (genus {g})")), control
    ) + _sweep(ns, kn_text, kn)


def _genus(o, ns) -> list[Claim]:
    def check(n):
        d = alexander(kn_braid(n), memo=o.memo).degree
        g = genus_kn(n)
        return 2 * d == 2 * g, {"alexander_span": 2 * d, "genus": g}

    return _sweep(ns, lambda n: (f"genus-n{n}", (
        f"Alexander degree span of the beta_{n} closure equals twice the genus formula")), check)


def _lspace(o, k_max) -> list[Claim]:
    width = max(4, len(str(k_max)))

    def check(job):
        v = is_lspace_m1(*job[2])
        return v.is_lspace, {"triple": [str(r) for r in job[2]], "witness": v.witness}

    def control():
        v = is_lspace_m1(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        return (not v.is_lspace) and v.witness == (5, 3), {"witness": v.witness}

    jobs = [(k, tag, triple(k)) for k in range(1, k_max + 1)
            for tag, triple in (("ell0", ell0_triple), ("ellinf", ellinf_triple))]
    return _sweep(jobs, lambda job: (f"lspace-{job[1]}-k{job[0]:0{width}d}", (
        f"Seifert triple for {job[1]} at k={job[0]} passes the L-space criterion")), check
    ) + [Claim("lspace-negative-control",
               "triple (1/2, 1/3, 1/7) fails the criterion with witness (5, 3)", control)]


def _slopes(o, k_max) -> list[Claim]:
    width = max(4, len(str(k_max)))

    def check(k):
        fam = ell_family(k)
        sl = surgery_slopes(k)
        return fam.recursion_holds and fam.endpoints_match and sl.consistent, {
            "det_ell": fam.det_ell,
            "det_ell0": fam.det_ell0,
            "lspace_slope": sl.lspace_slope,
            "quotient_coeff": sl.quotient_coeff,
        }

    def anchor():
        sl = surgery_slopes(1)
        return sl.lspace_slope == 14, {"lspace_slope": sl.lspace_slope}

    return _sweep(range(1, k_max + 1), lambda k: (f"slopes-k{k:0{width}d}", (
        f"determinant recursion, endpoints, and surgery consistency hold at k={k}")), check
    ) + [Claim("slopes-anchor-k1", "the L-space surgery slope at k=1 is 14", anchor)]


def _certify_family_map(o, n):
    gm = kn_map(n)
    diag = validate(gm)
    M = transition(gm)
    if not is_irreducible(M):
        return False, {"irreducible": False, "lambda": None}
    bound = o.backtrack_bound if o.backtrack_bound else 2 * (2 * n + 2)
    eff = is_efficient_up_to(gm, bound)
    en = f"e{n}"
    covers = {t.lstrip("-") for t in gm.edge_image[en]} >= set(diag.real)
    reach = [steps_to_reach(gm, e, en, 2 * n + 2) for e in diag.real]
    reach_ok = all(r is not None for r in reach)
    ok = diag.ok and expands(M) and eff.efficient and covers and reach_ok
    if ok and not eff.stabilized:  # every check holds, but efficient up to the bound only
        raise BudgetExceededError(
            f"no back track within bound {bound}, but the scan did not stabilize", spent=bound)
    return ok, {
        "real_edges": len(diag.real),
        "irreducible": True,
        "lambda": float(round(pf_eigenvalue(M, o.pf_tolerance), 9)),
        "efficient": eff.efficient,
        "efficiency_bound": bound,
        "stabilized": eff.stabilized,
        "witness": eff.witness,
        "en_covers_all_real": covers,
        "max_steps_to_en": max((r for r in reach if r is not None), default=None),
    }


def _traintrack(o, ns, path=None) -> list[Claim]:
    if not path:
        return _sweep(ns, lambda n: (f"traintrack-n{n}", (
            f"graph map at n={n} is efficient with irreducible real block and dilatation > 1")),
            partial(_certify_family_map, o))

    @lru_cache(maxsize=None)  # one parse serves all three claims; a failed read fails each
    def load():
        with open(path) as fh:
            return map_from_json(json.load(fh))

    def v_thunk():
        diag = validate(load())
        return diag.ok, {
            "issues": list(diag.issues),
            "real": list(diag.real),
            "pre_peripheral": sorted(diag.pre_peripheral),
        }

    def m_thunk():
        M = transition(load())
        irr = is_irreducible(M)
        lam = float(round(pf_eigenvalue(M, o.pf_tolerance), 9)) if irr else None
        return irr and expands(M), {"labels": list(M.labels), "irreducible": irr, "lambda": lam}

    def e_thunk():
        gm = load()
        bound = o.backtrack_bound if o.backtrack_bound else 2 * len(gm.graph.edges)
        rep = is_efficient_up_to(gm, bound)
        computed = {"bound": rep.bound, "stabilized": rep.stabilized, "witness": rep.witness}
        return rep.efficient, computed

    name = Path(path).name
    return [
        Claim(f"usermap-validate-{name}", f"{name}: structural validation", v_thunk),
        Claim(f"usermap-transition-{name}", f"{name}: irreducible with dilatation > 1", m_thunk),
        Claim(f"usermap-efficiency-{name}", f"{name}: no back track within bound", e_thunk),
    ]


def _dehornoy(o, ns) -> list[Claim]:
    def check(n):
        cert = floor_exceeds_one(n, o.handle_budget)
        return cert.holds and cert.main_index == 1, {
            "steps": cert.steps,
            "witness_letters": len(cert.witness.letters),
            "main_index": cert.main_index,
        }

    return _sweep(ns, lambda n: (f"dehornoy-n{n}", (
        f"full twist to the fourth precedes the conjugated braid at n={n}"
        " (sigma_1-positive quotient)")), check)


# ---------------------------------------------------------------------------
# the claims table


@dataclass(frozen=True)
class Suite:
    """One `verify` target.  args are its (flag, argparse keywords) pairs,
    budget flags included; inputs maps the parsed arguments to build's keyword
    inputs and raises ValueError on a broken argument rule; desk and full are
    those inputs for `verify all` at each level."""

    help: str
    args: tuple[tuple[str, dict], ...]
    inputs: Callable[[argparse.Namespace], dict]
    build: Callable[..., list[Claim]]
    desk: dict
    full: dict


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _int_arg(flag: str, default: int | None, **kw) -> tuple[str, dict]:
    return flag, {"type": _positive_int, "default": default, **kw}


def _positive_fraction(text: str) -> Fraction:
    try:
        if (value := Fraction(text)) > 0:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")


# The budget flags.  A suite row lists the ones its claims read.
MAX_STRANDS = _int_arg("--max-strands", HECKE_MAX_STRANDS, help="Hecke engine strand cap")
NODE_BUDGET = _int_arg("--node-budget", 5_000_000, help="p0 and skein walked-node cap")
PF_TOLERANCE = ("--pf-tolerance", {"type": _positive_fraction, "default": Fraction(1, 10**9),
                                   "help": "eigenvalue enclosure width, e.g. 1e-9 or 1/10000"})
BACKTRACK_BOUND = _int_arg("--backtrack-bound", None, help=(
    "efficiency iteration bound (default 2 * real edges; all edges for --map)"))
HANDLE_BUDGET = _int_arg("--handle-budget", DEFAULT_STEP_BUDGET, help="handle reduction cap")


def _checked(inputs: dict, holds: bool, message: str) -> dict:
    """inputs, or ValueError(message), a usage error in _cmd_verify, unless holds."""
    if not holds:
        raise ValueError(message)
    return inputs


def _ito_inputs(a) -> dict:
    inputs = {"ns": [a.n], "genus": a.genus}
    if a.n % 2 == 1:
        return _checked(inputs, a.genus is not None,
                        "odd --n has no genus formula; supply --genus explicitly")
    g = genus_kn(a.n)
    return _checked(inputs, a.genus in (None, g),
                    f"--genus {a.genus} differs from the formula's genus {g} at even --n")


# Table order is build order.  One `verify` run shares results through one run
# memo, so the order decides which claim pays for a result it shares with a
# later one (ito-kn-n4 reuses the p0 of beta_4 that topterm-n4 computes, and
# genus-n4 the Burau Alexander polynomial that ito-kn-n4 computes).
SUITES: dict[str, Suite] = {
    "topterm": Suite(
        "top term of p0 for one beta braid", (_int_arg("--n", 2), NODE_BUDGET),
        lambda a: _checked({"ns": [a.n]}, a.n >= 2, "--n must be at least 2"), _topterm,
        desk={"ns": [2, 3]}, full={"ns": [2, 3, 4]},
    ),
    "decomposition": Suite(
        "p0 recursion for n = 2..n-max", (_int_arg("--n-max", 3), NODE_BUDGET),
        lambda a: {"ns": range(2, a.n_max + 1)}, _decomposition,
        desk={"ns": [2, 3]}, full={"ns": [2, 3, 4]},
    ),
    "sharpness": Suite(
        "sharpness suite up to n-max", (_int_arg("--n-max", 3), NODE_BUDGET),
        lambda a: {"n_max": a.n_max}, _sharpness,
        desk={"n_max": 3}, full={"n_max": 4},
    ),
    "ito": Suite(
        "braid-positivity obstruction controls and one beta braid",
        (_int_arg("--n", 2),
         _int_arg("--genus", None,
                  help="required for odd --n; at even --n it must equal the formula's"),
         NODE_BUDGET),
        _ito_inputs, _ito,
        desk={"ns": [2], "genus": None}, full={"ns": [2, 4], "genus": None},
    ),
    "genus": Suite(
        "Alexander span against the genus formula", (_int_arg("--n", 2),),
        lambda a: _checked({"ns": [a.n]}, a.n % 2 == 0,
                           "the genus formula is available for even --n only"), _genus,
        desk={"ns": [2]}, full={"ns": [2, 4]},
    ),
    "lspace": Suite(
        "L-space criterion sweep over k", (_int_arg("--k-max", 50),),
        lambda a: {"k_max": a.k_max}, _lspace,
        desk={"k_max": 50}, full={"k_max": 500},
    ),
    "slopes": Suite(
        "determinant and surgery arithmetic sweep over k", (_int_arg("--k-max", 50),),
        lambda a: {"k_max": a.k_max}, _slopes,
        desk={"k_max": 50}, full={"k_max": 500},
    ),
    "traintrack": Suite(
        "graph-map certificates for n = 3..n-max or a JSON map",
        (_int_arg("--n-max", None, help="last family map (default 8)"),
         ("--map", {"help": "certify a JSON graph map instead"}), PF_TOLERANCE, BACKTRACK_BOUND),
        lambda a: _checked({"ns": range(3, (a.n_max or 8) + 1), "path": a.map},
                           not (a.map and a.n_max), "--n-max does not apply to --map"),
        _traintrack,
        desk={"ns": range(3, 9)}, full={"ns": range(3, 9)},
    ),
    "dehornoy": Suite(
        "Dehornoy floor certificates for n = 2..n-max", (_int_arg("--n-max", 5), HANDLE_BUDGET),
        lambda a: {"ns": range(2, a.n_max + 1)}, _dehornoy,
        desk={"ns": range(2, 6)}, full={"ns": range(2, 6)},
    ),
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args, parser) -> int:
    config = _config_echo(args)
    args.memo = {}  # the run memo: lives for this run only, so runs do not see each other
    if args.target == "all":
        claims = [c for s in SUITES.values() for c in s.build(args, **getattr(s, args.level))]
    else:
        suite = SUITES[args.target]
        try:
            inputs = suite.inputs(args)
        except ValueError as exc:
            parser.error(str(exc))
        claims = suite.build(args, **inputs)
        if not claims:
            parser.error("the bounds given leave its sweep empty")
    results = sorted((_execute(c) for c in claims), key=lambda r: r.claim)
    return _emit_report(results, args.json, config)


def _check_word_caps(b: BraidWord, args, parser) -> BraidWord:
    """Reject a word over the --max-letters cap, or under the Hecke engine
    over the --max-strands cap (exit 2); the skein walk has --node-budget."""
    if b.crossings > args.max_letters:
        parser.error(
            f"braid has {b.crossings} letters, over the --max-letters budget {args.max_letters}"
        )
    if args.engine == "hecke" and b.strands > args.max_strands:
        parser.error(
            f"braid has {b.strands} strands, over the --max-strands budget {args.max_strands}"
        )
    return b


def _invariants_payload(b: BraidWord, args) -> dict:
    stats = closure_stats(b)
    cache = None if args.no_cache else PolynomialCache(default_cache_path())
    P = homfly(b, engine=args.engine, max_strands=args.max_strands,
               node_budget=args.node_budget, cache=cache)
    dec = coefficient_polys(P, stats.components)
    payload = {
        "braid": braid_text(b),
        "strands": b.strands,
        "letters": b.crossings,
        "writhe": stats.writhe,
        "components": stats.components,
        "homfly": str(P),
        "coefficients": {f"p{i}": str(q) for i, q in enumerate(dec.coeffs)},
    }
    if stats.components == 1:
        a = _alexander_of(P)  # a substitution into the P above, not a Burau run
        payload["alexander"] = str(a)
        payload["determinant"] = _determinant_of(a)
    return payload


def _print_invariants(b: BraidWord, args) -> int:
    try:
        payload = _invariants_payload(b, args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2}: {v2}")
            else:
                print(f"{key}: {value}")
    return 0


def _cmd_invariants(args, parser) -> int:
    try:
        b = parse_braid(args.braid, strands=args.strands)
    except BraidError as exc:
        parser.error(str(exc))
    return _print_invariants(_check_word_caps(b, args, parser), args)


def _cmd_family(args, parser) -> int:
    try:
        b = family(args.name, args.n)
    except (BraidError, ValueError) as exc:
        parser.error(str(exc))
    if args.emit == "word":
        print(braid_text(b))
        return 0
    return _print_invariants(_check_word_caps(b, args, parser), args)


def _cmd_cache(args, parser) -> int:
    cache_path = default_cache_path()
    if args.action == "path":
        print(cache_path)
    elif args.action == "stats":
        print(json.dumps(PolynomialCache(cache_path).stats(), sort_keys=True))
    else:
        PolynomialCache(cache_path).clear()
        print(f"cleared {cache_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_flags(p: argparse.ArgumentParser, specs) -> None:
    """Each (flag, argparse keywords) spec, then --json."""
    for flag, kw in specs:
        p.add_argument(flag, **kw)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcert",
        description="Braid, polynomial, and graph-map certificates for a family of knots.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, **kw):  # usage errors name this parser
        p = subparsers.add_parser(name, **kw)
        p.set_defaults(handler=partial(handler, parser=p))
        return p

    p_inv = command(sub, "invariants", _cmd_invariants, help="invariants of one braid closure")
    p_inv.add_argument("--braid", required=True, help='letters, e.g. "1 1 1" or "strands=3 1 -2"')
    p_inv.add_argument("--strands", type=_positive_int, default=None)
    p_inv.add_argument("--engine", choices=("hecke", "skein"), default="hecke")
    p_inv.add_argument("--no-cache", action="store_true", help="skip the persistent cache")

    p_fam = command(sub, "family", _cmd_family, help="emit a built-in braid word or its invariants")
    p_fam.add_argument("name", choices=tuple(n.replace("_", "-") for n in FAMILY_NAMES))
    p_fam.add_argument("--n", type=_positive_int, required=True)
    p_fam.add_argument("--emit", choices=("word", "invariants"), default="word")
    p_fam.add_argument("--engine", choices=("hecke", "skein"), default="hecke")
    p_fam.add_argument("--no-cache", action="store_true")
    for q in (p_inv, p_fam):
        _add_flags(q, (_int_arg("--max-letters", 80, help="input word length cap"), MAX_STRANDS,
                       NODE_BUDGET))
        q.set_defaults(node_budget=200_000)  # one braid, not a suite: a smaller walk budget

    p_ver = sub.add_parser("verify", help="run a verification suite")
    ver_sub = p_ver.add_subparsers(dest="target", required=True)
    for name, suite in SUITES.items():
        _add_flags(command(ver_sub, name, _cmd_verify, help=suite.help), suite.args)
    q = command(ver_sub, "all", _cmd_verify, help="every suite at the chosen level")
    q.add_argument("--level", choices=("desk", "full"), default="desk")
    _add_flags(q, (NODE_BUDGET, PF_TOLERANCE, BACKTRACK_BOUND, HANDLE_BUDGET))

    p_cache = command(sub, "cache", _cmd_cache, help="persistent polynomial cache utilities")
    p_cache.add_argument("action", choices=("path", "stats", "clear"))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
