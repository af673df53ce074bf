import hashlib
import importlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from knotcert import dehornoy, montesinos, traintrack
from knotcert.braid import (
    BraidWord,
    braid_text,
    closure_stats,
    component_table,
    compose,
    conjugate,
    inverse,
    kn_braid,
    parse_braid,
)
from knotcert.errors import BudgetExceededError
from knotcert.homfly import (
    CoefficientDecomposition,
    PolynomialCache,
    _alexander_of,
    _canonical_rotation,
    _check_p0_identity,
    _check_unit_identity,
    _find_split,
    _simplify,
    _walk_passes,
    alexander,
    canonical_key,
    coefficient_polys,
    determinant,
    hecke_homfly,
    homfly,
    p0,
    skein_homfly,
)
from knotcert.poly import LaurentPoly1, LaurentPoly2

engine = importlib.import_module("knotcert.homfly")  # the package's `homfly` is the function


def P(triples):
    return LaurentPoly2.from_triples(("v", "z"), triples)


UNKNOT = BraidWord(2, (1,))
TREFOIL = BraidWord(2, (1, 1, 1))
HOPF = BraidWord(2, (1, 1))
FIGURE8 = BraidWord(3, (1, -2, 1, -2))
T25 = BraidWord(2, (1, 1, 1, 1, 1))
# a 2-component link on 7 strands whose knots take 4 walked p0 nodes
LINK7 = BraidWord(7, (-4, -3, -2, -1, -5, -2, -1, 4, -5))
# three trefoils in a chain, linking numbers 1 and -1
TREFOIL_CHAIN = BraidWord(6, (1, 1, 1, 2, 2, 3, 3, 3, -4, -4, 5, 5, 5))


def words(max_strands=4, max_len=9):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.sampled_from([i for i in range(-(n - 1), n) if i != 0]),
            max_size=max_len,
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    )


def knot_words(max_strands=5, max_len=10):
    return words(max_strands, max_len).filter(lambda b: closure_stats(b).components == 1)


class TestAnchors:
    def test_unknot(self):
        assert homfly(UNKNOT) == P([[0, 0, 1]])
        assert homfly(BraidWord(3, (1, 2))) == P([[0, 0, 1]])

    def test_two_component_unlink_is_delta(self):
        assert homfly(BraidWord(2, ())) == P([[-1, -1, 1], [1, -1, -1]])

    def test_trefoil(self):
        assert homfly(TREFOIL) == P([[2, 0, 2], [4, 0, -1], [2, 2, 1]])

    def test_mirror_trefoil(self):
        assert homfly(inverse(TREFOIL)) == P([[-2, 0, 2], [-4, 0, -1], [-2, 2, 1]])

    def test_hopf(self):
        assert homfly(HOPF) == P([[1, -1, 1], [3, -1, -1], [1, 1, 1]])

    def test_figure_eight(self):
        assert homfly(FIGURE8) == P([[-2, 0, 1], [0, 0, -1], [2, 0, 1], [0, 2, -1]])

    def test_t25_p0_degree(self):
        q = p0(T25)
        assert q.degree == 6
        assert homfly(T25, engine="skein") == homfly(T25, engine="hecke")

    def test_unlink_p0(self):
        assert p0(BraidWord(2, ())) == LaurentPoly1.from_pairs("v", [(-2, 1), (0, -1)])


class TestEngineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(words())
    @example(BraidWord(2, (1,) * 40))
    @example(BraidWord(2, (-1,) * 40))
    @example(BraidWord(2, ()))
    @example(BraidWord(3, ()))
    @example(BraidWord(4, ()))
    @example(BraidWord(5, ()))  # unlinks: negative z-exponents
    @example(BraidWord(3, (-1, -2, -1, -2, -2)))
    @example(BraidWord(5, (-4, -3, -2, -1, -4, -2)))
    @example(BraidWord(4, (-1, -2, -3) * 4))
    def test_hecke_equals_skein(self, b):
        assert hecke_homfly(b) == skein_homfly(b)

    @settings(max_examples=150, deadline=None)
    @given(words(max_strands=7, max_len=14))
    @example(TREFOIL_CHAIN)
    # four components, three of them trefoils, linking numbers 1, 1 and 2
    @example(BraidWord(7, (1, 1, 1, 2, 2, 3, 3, 3, 4, 4, -5, -5, -5, 6, 6, 6, 6)))
    @example(BraidWord(3, (1, 1, -2, -2, -2, -2)))  # linking numbers 1 and -2
    @example(BraidWord(5, (1, -2, 1, -2, 4, 4, 4)))  # split: figure-eight and trefoil
    @example(BraidWord(6, (1, 1, 1, 2, 2, 4, 4, 5, 5, 5)))  # split: two linked pairs
    @example(LINK7)
    def test_p0_dual_path(self, b):
        """The p0 walk factors links into their knots; it must still give
        p^0 of the Hecke HOMFLY polynomial."""
        direct = p0(b, fallback=False)
        comps = closure_stats(b).components
        via_full = coefficient_polys(hecke_homfly(b), comps).coeffs[0]
        assert direct == via_full

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=4, max_len=8))
    def test_markov_conjugation(self, b):
        rng = random.Random(repr(b.letters))
        g = BraidWord(
            b.strands,
            tuple(
                rng.choice([i for i in range(-(b.strands - 1), b.strands) if i])
                for _ in range(3)
            ),
        )
        assert homfly(conjugate(b, g)) == homfly(b)

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=4, max_len=8), st.sampled_from((1, -1)))
    def test_markov_stabilization(self, b, sign):
        wider = BraidWord(b.strands + 1, b.letters + (sign * b.strands,))
        assert homfly(wider) == homfly(b)

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=4, max_len=7), st.integers(0, 6))
    def test_skein_relation(self, b, pos):
        """v^-1 P(L+) - v P(L-) = z P(L0) at an inserted crossing."""
        idx = random.Random(repr((b.letters, pos))).randint(1, b.strands - 1)
        cut = pos % (len(b.letters) + 1)
        head, tail = b.letters[:cut], b.letters[cut:]
        plus = BraidWord(b.strands, head + (idx,) + tail)
        minus = BraidWord(b.strands, head + (-idx,) + tail)
        zero = BraidWord(b.strands, head + tail)
        lhs = homfly(plus).shift(-1, 0) - homfly(minus).shift(1, 0)
        assert lhs == homfly(zero).shift(0, 1)


class TestSymmetries:
    """Closure symmetries that every engine result must respect."""

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=5, max_len=10))
    def test_reversed_word(self, b):
        # the closure of the reversed word is the reversed link
        assert hecke_homfly(BraidWord(b.strands, b.letters[::-1])) == hecke_homfly(b)

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=5, max_len=10))
    def test_flipped_indices(self, b):
        # sigma_i -> sigma_{s-i} turns the closure over
        flipped = tuple((b.strands - abs(i)) * (1 if i > 0 else -1) for i in b.letters)
        assert hecke_homfly(BraidWord(b.strands, flipped)) == hecke_homfly(b)

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=5, max_len=10))
    def test_mirror_word(self, b):
        # negating every letter gives the mirror image: P(v, z) -> P(-v^-1, z)
        P_b = hecke_homfly(b)
        mirrored = {(-a, c): (-1) ** (a % 2) * k for (a, c), k in P_b.terms.items()}
        assert hecke_homfly(BraidWord(b.strands, tuple(-i for i in b.letters))) == (
            LaurentPoly2(P_b.vars, mirrored))


class TestCoefficients:
    @settings(max_examples=50, deadline=None)
    @given(words())
    def test_reassemble_round_trip(self, b):
        comps = closure_stats(b).components
        dec = coefficient_polys(homfly(b), comps)
        assert dec.reassemble() == homfly(b)

    def test_wrong_component_count_rejected(self):
        with pytest.raises(ValueError):
            coefficient_polys(homfly(TREFOIL), 2)

    def test_trefoil_coefficients(self):
        dec = coefficient_polys(homfly(TREFOIL), 1)
        assert dec.coeffs[0] == LaurentPoly1.from_pairs("v", [(2, 2), (4, -1)])
        assert dec.coeffs[1] == LaurentPoly1.from_pairs("v", [(2, 1)])


# The v -> 1 and z^2 -> t - 2 + 1/t substitutions as the former
# `poly.specialize` rules computed them: a test oracle for `_alexander_of`.
def _v_to_1(p: LaurentPoly2) -> LaurentPoly1:
    if not isinstance(p, LaurentPoly2):
        raise ValueError("v -> 1 substitution applies to two-variable input")
    out: dict[int, int] = {}
    for (_, ze), c in p.terms.items():
        out[ze] = out.get(ze, 0) + c
    return LaurentPoly1("z", out)


def _z2_to_t(p: LaurentPoly1) -> LaurentPoly1:
    if not isinstance(p, LaurentPoly1):
        raise ValueError("z^2 -> t substitution applies to one-variable input")
    kernel = LaurentPoly1("t", {1: 1, 0: -2, -1: 1})
    total = LaurentPoly1.zero("t")
    for e, c in p.terms.items():
        if e < 0 or e % 2:
            raise ValueError(f"z-exponent {e} is not even and nonnegative")
        total = total + (kernel ** (e // 2)) * c
    return total


class TestAlexander:
    @settings(max_examples=150, deadline=None)
    @given(knot_words())
    @example(kn_braid(2))
    def test_matches_reference_substitution(self, b):
        P_ = homfly(b)
        assert _alexander_of(P_) == _z2_to_t(_v_to_1(P_))

    @pytest.mark.parametrize("triples", [[[0, 0, 1], [2, 1, 1]], [[0, 0, 1], [0, -2, 1]]],
                             ids=["odd", "negative"])
    def test_planted_z_exponent_raises(self, triples):
        with pytest.raises(ValueError, match="z-exponent"):
            _alexander_of(P(triples))

    def test_values(self):
        assert alexander(TREFOIL) == LaurentPoly1.from_pairs("t", [(-1, 1), (0, -1), (1, 1)])
        assert alexander(FIGURE8) == LaurentPoly1.from_pairs("t", [(-1, -1), (0, 3), (1, -1)])
        assert alexander(UNKNOT) == LaurentPoly1.one("t")

    def test_determinants(self):
        assert determinant(UNKNOT) == 1
        assert determinant(TREFOIL) == 3
        assert determinant(FIGURE8) == 5
        assert determinant(T25) == 5

    def test_link_rejected(self):
        with pytest.raises(ValueError):
            alexander(HOPF)

    def test_k2_span(self):
        assert alexander(kn_braid(2)).degree == 6

    @settings(max_examples=150, deadline=None)
    @given(knot_words())
    @example(BraidWord(1, ()))
    @example(FIGURE8)
    @example(kn_braid(2))
    def test_burau_matches_hecke(self, b):
        assert alexander(b) == _alexander_of(hecke_homfly(b))

    def test_width_one_bit_short(self, monkeypatch):
        """The proven width is attained on sigma_1^-1, whose Burau minor is t
        with row norm 1: 2 bits, and one bit less cannot write the 1.  On the
        figure-eight knot, 2 bits cannot write its coefficient 3."""
        unknot = BraidWord(2, (-1,))
        assert engine._burau_width(unknot) == 2
        assert alexander(unknot) == LaurentPoly1.one("t")
        assert engine._burau_width(FIGURE8) >= 3
        monkeypatch.setattr(engine, "_burau_width", lambda b: 1)
        with pytest.raises(ValueError, match="at least 2 bits"):
            alexander(unknot)
        monkeypatch.setattr(engine, "_burau_width", lambda b: 2)
        with pytest.raises(ArithmeticError, match="value -2 at t = 1"):
            alexander(FIGURE8)

    def test_beta_widths(self):
        # the width is the Burau engine's cost lever: pinned, like node counts
        assert [engine._burau_width(kn_braid(n)) for n in (2, 4, 6, 8)] == [31, 95, 170, 253]


class TestBudgets:
    def test_hecke_strand_guard(self):
        wide = BraidWord(9, (1,))
        with pytest.raises(BudgetExceededError):
            hecke_homfly(wide)

    def test_skein_node_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            skein_homfly(kn_braid(2), node_budget=5)
        assert err.value.spent == 5

    def test_p0_fallback_disabled(self):
        with pytest.raises(BudgetExceededError) as err:
            p0(LINK7, node_budget=2, fallback=False)
        assert err.value.spent == 2
        assert str(err.value) == "p0 node budget exhausted (spent 2)"

    def test_p0_fallback_recovers(self):
        b = BraidWord(7, (-3, -4, -5, -6, -2, -5, -6, 3, -2))  # LINK7 turned over: 3 nodes
        with pytest.raises(BudgetExceededError):
            p0(b, node_budget=2, fallback=False)
        comps = closure_stats(b).components
        want = coefficient_polys(hecke_homfly(b), comps).coeffs[0]
        assert p0(b, node_budget=2, fallback=True) == want


def _planted_top(poly: LaurentPoly1) -> LaurentPoly1:
    """``poly`` with its top coefficient off by one."""
    top, coeff = poly.top_term()
    return poly + LaurentPoly1.monomial("v", top, 1 if coeff > 0 else -1)


class TestP0Identity:
    """p0(v) v^(c-1) - (v^-1 - v)^(c-1) vanishes to second order at v = +-1,
    and p0() raises on a result that breaks it, by either path."""

    @settings(max_examples=100, deadline=None)
    @given(words(max_strands=7, max_len=12))
    @example(BraidWord(1, ()))
    @example(BraidWord(7, ()))  # the 7-component unlink
    def test_holds_on_random_words(self, b):
        _check_p0_identity(p0(b, fallback=False), closure_stats(b).components)

    @pytest.mark.parametrize("change", [
        [(3, 1), (1, -3), (0, -2)],  # (v + 1)^2 (v - 2): breaks only f(1)
        [(3, 1), (2, 1), (1, -1), (0, -1)],  # (v - 1)(v + 1)^2: only f'(1)
        [(3, 1), (1, -3), (0, 2)],  # (v - 1)^2 (v + 2): only f(-1)
        [(3, 1), (2, -1), (1, -1), (0, 1)],  # (v - 1)^2 (v + 1): only f'(-1)
    ])
    def test_each_sum_is_needed(self, change):
        good = p0(kn_braid(3))
        with pytest.raises(ArithmeticError):
            _check_p0_identity(good + LaurentPoly1.from_pairs("v", change), 1)

    def test_second_order_is_all_it_sees(self):
        # adding (v^2 - 1)^2 keeps double roots at +-1, so the check passes
        changed = p0(kn_braid(3)) + LaurentPoly1.from_pairs("v", [(4, 1), (2, -2), (0, 1)])
        _check_p0_identity(changed, 1)

    def test_planted_top_on_resolver_path(self, monkeypatch):
        planted = _planted_top(p0(kn_braid(3)))
        assert planted.top_term() != (36, -1)
        monkeypatch.setattr(engine, "_resolve", lambda *args: dict(planted.terms))
        with pytest.raises(ArithmeticError):
            p0(kn_braid(3), fallback=False)

    def test_planted_top_on_hecke_fallback(self, monkeypatch):
        planted = CoefficientDecomposition(1, (_planted_top(p0(kn_braid(3))),)).reassemble()
        monkeypatch.setattr(engine, "homfly", lambda b, **kw: planted)
        with pytest.raises(ArithmeticError):
            p0(kn_braid(3), node_budget=1, fallback=True)


class TestHistoryIndependence:
    """Budgets and results do not depend on earlier calls in the process;
    only a run memo that the caller passes shares results between calls."""

    def test_p0_budget_after_earlier_p0(self):
        # the knot memo of the first call does not serve the second
        p0(LINK7, fallback=False)
        with pytest.raises(BudgetExceededError) as err:
            p0(LINK7, node_budget=2, fallback=False)
        assert err.value.spent == 2

    def test_skein_budget_after_full_skein(self):
        skein_homfly(kn_braid(2))
        with pytest.raises(BudgetExceededError):
            skein_homfly(kn_braid(2), node_budget=202)

    def test_run_memo_shares_results(self, monkeypatch):
        hecke, calls = engine.hecke_homfly, []

        def counting(word, **kw):
            calls.append(word)
            return hecke(word, **kw)

        monkeypatch.setattr(engine, "hecke_homfly", counting)
        memo = {}
        P_ = homfly(kn_braid(2), memo=memo)
        # p0's Hecke fallback reads the HOMFLY polynomial from the run memo
        assert p0(kn_braid(2), node_budget=1, memo=memo) == coefficient_polys(P_, 1).coeffs[0]
        assert len(calls) == 1
        alex = alexander(kn_braid(2), memo=memo)  # the Burau engine runs no Hecke
        assert alex == _alexander_of(P_) and alexander(kn_braid(2), memo=memo) is alex
        assert len(calls) == 1
        with pytest.raises(BudgetExceededError):  # the strand cap comes before the memo
            homfly(kn_braid(2), max_strands=2, memo=memo)
        homfly(kn_braid(2))  # without a memo a call starts fresh
        assert len(calls) == 2

    def test_no_module_level_containers(self):
        # a module-level dict, list or set is where a global memo would hide
        found = [f"{module.__name__}.{name}"
                 for module in (engine, dehornoy, traintrack, montesinos)
                 for name, value in vars(module).items()
                 if isinstance(value, (dict, list, set))
                 and name not in ("__all__", "__builtins__")]
        assert found == []


BETA_P0_NODES = [(2, 6), (3, 36), (4, 192)]


def _p0_walk(b: BraidWord) -> tuple[int, LaurentPoly1]:
    """Walked nodes and value of one p0 resolver call, with the knot memo
    that :func:`p0` passes."""
    budget = engine._Budget(10**8, "p0")
    rules = engine._with_powers(engine._P0_RULES, b.strands)
    value = engine._resolve(b.letters, b.strands, budget, rules, {})
    return budget.spent, LaurentPoly1("v", value)


class TestWorkCounts:
    """Resolver node counts: exact work, the regression signal for resolver
    speed-ups, which must not change the work done."""

    @pytest.mark.parametrize("n, nodes", BETA_P0_NODES)
    def test_p0_beta_nodes_suffice(self, n, nodes):
        top = p0(kn_braid(n), node_budget=nodes, fallback=False).top_term()
        assert top == (3 * n * n + 3 * n, (-1) ** n)

    @pytest.mark.parametrize("n, nodes", BETA_P0_NODES)
    def test_p0_beta_one_node_short(self, n, nodes):
        with pytest.raises(BudgetExceededError) as err:
            p0(kn_braid(n), node_budget=nodes - 1, fallback=False)
        assert err.value.spent == nodes - 1

    def test_factor_and_memo_hits_spend_nothing(self):
        # the chain factors into three copies of one trefoil: one walk, two hits
        assert _p0_walk(TREFOIL_CHAIN)[0] == 1

    def test_p0_beta5_nodes(self):
        # one resolver call, about 0.15 s: the work behind `topterm --n 5`
        spent, value = _p0_walk(kn_braid(5))
        assert spent == 956
        assert value.top_term() == (90, -1)

    @pytest.mark.stretch
    def test_p0_beta7_nodes(self):
        # 14 strands, 167 letters: about 3 s
        spent, value = _p0_walk(kn_braid(7))
        assert spent == 21_004
        assert value.top_term() == (168, -1)

    def test_skein_beta2_nodes(self):
        assert skein_homfly(kn_braid(2), node_budget=203) == hecke_homfly(kn_braid(2))

    def test_skein_beta2_one_node_short(self):
        with pytest.raises(BudgetExceededError) as err:
            skein_homfly(kn_braid(2), node_budget=202)
        assert err.value.spent == 202


def _reference_walk(word, strands):
    """The walk as first written, kept as the reference: closure permutation
    and component table from braid.py, then one pass over the word per
    strand of each component."""
    b = BraidWord(strands, word)
    stats = closure_stats(b)
    table = component_table(b)
    passes = []
    for comp in range(1, stats.components + 1):
        start = stats.component_map.index(comp) + 1
        p = start
        while True:
            for t, letter in enumerate(word):
                k = abs(letter)
                if p == k:
                    passes.append((t, True))
                    p = k + 1
                elif p == k + 1:
                    passes.append((t, False))
                    p = k
            if p == start:
                break
    labels = [(table[t][abs(x) - 1], table[t][abs(x)]) for t, x in enumerate(word)]
    return passes, labels, stats.components


def _reference_simplify(word, strands):
    """The reductions as first written, kept as the reference: a stack pass
    and cyclic stripping on every round, then a list of positions for the
    generator at each end of the strand range."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        out = []
        for x in w:
            if out and out[-1] == -x:
                out.pop()
                changed = True
            else:
                out.append(x)
        while len(out) >= 2 and out[0] == -out[-1]:
            out = out[1:-1]
            changed = True
        w = out
        if strands >= 2:
            top = [i for i, x in enumerate(w) if abs(x) == strands - 1]
            if len(top) == 1:
                del w[top[0]]
                strands -= 1
                changed = True
                continue
            low = [i for i, x in enumerate(w) if abs(x) == 1]
            if len(low) == 1:
                del w[low[0]]
                w = [x - 1 if x > 0 else x + 1 for x in w]
                strands -= 1
                changed = True
    return tuple(w), strands


def _reference_find_split(word, strands):
    used = {abs(x) for x in word}
    return next((k for k in range(1, strands) if k not in used), None)


def _spliced(b, g, u, cut):
    """g b[:cut] u u^-1 b[cut:] g^-1 as a braid word."""
    inverse_u = tuple(-x for x in reversed(u))
    return BraidWord(b.strands, (g,) + b.letters[:cut] + tuple(u) + inverse_u
                     + b.letters[cut:] + (-g,))


def reducible_words(max_strands=7, max_len=10):
    """Mixed-sign words with an inverse pair spliced in and a conjugating
    letter around them, so free and cyclic cancellation both occur often."""
    def on(b):
        letter = st.sampled_from([i for i in range(-(b.strands - 1), b.strands) if i])
        return st.tuples(letter, st.lists(letter, max_size=4), st.integers(0, len(b.letters))
                         ).map(lambda t: _spliced(b, *t))
    return words(max_strands, max_len).flatmap(on)


class TestSimplify:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(words(max_strands=7, max_len=20), reducible_words()))
    @example(BraidWord(4, (1, 2, 2, -1)))  # cyclic cancellation only
    @example(BraidWord(4, (2, 1, -1, 3, 3, -2)))  # free, then cyclic
    @example(BraidWord(3, (1, 1, 2)))  # destabilizes the top
    @example(BraidWord(3, (-1, 2, 2)))  # destabilizes the bottom
    @example(BraidWord(4, (1, -2, 3)))  # collapses to the empty word
    @example(BraidWord(3, (1, 2, -2, -1)))  # cancels to the empty word
    @example(BraidWord(2, (1, -1, 1)))
    @example(BraidWord(7, ()))
    def test_matches_reference(self, b):
        got = _simplify(b.letters, b.strands)
        assert got == _reference_simplify(b.letters, b.strands)
        assert _find_split(b.letters, b.strands) == _reference_find_split(b.letters, b.strands)
        assert _find_split(*got) == _reference_find_split(*got)

    def test_examples_reduce_as_stated(self):
        assert _simplify((1, 2, 2, -1), 4) == ((2, 2), 4)
        assert _simplify((2, 1, -1, 3, 3, -2), 4) == ((3, 3), 4)
        assert _simplify((1, 1, 2), 3) == ((1, 1), 2)
        assert _simplify((-1, 2, 2), 3) == ((1, 1), 2)
        assert _simplify((1, -2, 3), 4) == ((), 1)
        assert _simplify((1, 2, -2, -1), 3) == ((), 3)


def _assert_least_rotation(letters, rotated):
    """Property check, written apart from the code under test: ``rotated`` is
    a rotation of ``letters`` and no rotation of ``letters`` is smaller."""
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))] or [letters]
    assert rotated in rotations
    assert not any(r < rotated for r in rotations)


def periodic_words(max_strands=6, max_len=16):
    """Words and repeated words: repeats give periodic rotations and
    multi-component closures."""
    return st.tuples(words(max_strands, max_len), st.integers(1, 3)).map(
        lambda bt: BraidWord(bt[0].strands, bt[0].letters * bt[1])
    )


def _walk_labels(word, strands):
    """:func:`_walk_passes` with each letter's strands read as their
    component labels, the form the reference walk gives."""
    passes, pairs, comp, ncomps = _walk_passes(word, strands)
    return passes, [(comp[left], comp[right]) for left, right in pairs], ncomps


class TestWalkAndRotation:
    @settings(max_examples=300, deadline=None)
    @given(periodic_words())
    def test_walk_matches_reference(self, b):
        assert _walk_labels(b.letters, b.strands) == _reference_walk(b.letters, b.strands)

    def test_walk_reference_cases(self):
        for b in (BraidWord(2, ()), BraidWord(4, ()), HOPF, BraidWord(4, (1, 3, 1, 3))):
            assert _walk_labels(b.letters, b.strands) == _reference_walk(b.letters, b.strands)
        assert _walk_passes((), 3) == ([], [], [1, 2, 3], 3)

    @settings(max_examples=300, deadline=None)
    @given(periodic_words())
    def test_rotation_is_least(self, b):
        rotated = _canonical_rotation(b.letters)
        _assert_least_rotation(b.letters, rotated)
        assert canonical_key(b) == braid_text(BraidWord(b.strands, rotated))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from((1, 2, -1)), max_size=14).map(tuple))
    def test_rotation_small_alphabet(self, letters):
        # few distinct letters give many ties between rotations
        _assert_least_rotation(letters, _canonical_rotation(letters))

    def test_canonical_key_text(self):
        assert canonical_key(BraidWord(3, (2, -1, 1, 2))) == "strands=3 -1 1 2 2"
        assert canonical_key(BraidWord(3, ())) == "strands=3"


# The 2-D {(v, z): c} dict helpers, as the dict reference engine below used them.
_DELTA = {(-1, -1): 1, (1, -1): -1}


def _add_into(dst: dict, src: dict, de1: int, de2: int, scale: int = 1) -> None:
    for (a, b), c in src.items():
        k = (a + de1, b + de2)
        dst[k] = dst.get(k, 0) + c * scale
        if not dst[k]:
            del dst[k]


def _mul2(a: dict, b: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _reference_mul_sigma(state, k, positive):
    """The dict Hecke engine as first written, kept as the reference: every
    basis word carries a {(v, z): c} coefficient dict."""
    i = k - 1
    nxt = {}
    for w, poly in state.items():
        ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        if positive:
            _add_into(nxt.setdefault(ws, {}), poly, 1, 0)
            if w[i] > w[i + 1]:
                _add_into(nxt.setdefault(w, {}), poly, 1, 1)
        else:
            _add_into(nxt.setdefault(ws, {}), poly, -1, 0)
            if w[i] < w[i + 1]:
                _add_into(nxt.setdefault(w, {}), poly, -1, 1, -1)
    return {w: p for w, p in nxt.items() if p}


def _reference_mul_T(state, k):
    i = k - 1
    nxt = {}
    for w, poly in state.items():
        ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        _add_into(nxt.setdefault(ws, {}), poly, 0, 0)
        if w[i] > w[i + 1]:
            _add_into(nxt.setdefault(w, {}), poly, 0, 1)
    return {w: p for w, p in nxt.items() if p}


def _reference_close(state, strands):
    for m in range(strands, 1, -1):
        nxt = {}
        for w, poly in state.items():
            if w[m - 1] == m:
                _add_into(nxt.setdefault(w[:m - 1], {}), _mul2(poly, _DELTA), 0, 0)
            else:
                p = w.index(m) + 1
                u = tuple(x for x in w if x != m)
                tmp = {u: {(a - 1, b): c for (a, b), c in poly.items()}}
                for k in range(m - 2, p - 1, -1):
                    tmp = _reference_mul_T(tmp, k)
                for wu, pu in tmp.items():
                    _add_into(nxt.setdefault(wu, {}), pu, 0, 0)
        state = {w: p for w, p in nxt.items() if p}
    return state.get((1,), {})


def _reference_hecke(b):
    state = {tuple(range(1, b.strands + 1)): {(0, 0): 1}}
    for letter in b.letters:
        state = _reference_mul_sigma(state, abs(letter), letter > 0)
    return LaurentPoly2(("v", "z"), _reference_close(state, b.strands))


def hecke_words(max_strands=6, max_len=12):
    """Words on 1-6 strands: mixed-sign, all-negative and empty ones."""
    def on(n):
        if n == 1:
            return st.just(BraidWord(1, ()))
        mixed = [i for i in range(-(n - 1), n) if i]
        negative = list(range(-(n - 1), 0))
        return st.one_of(st.lists(st.sampled_from(mixed), max_size=max_len),
                         st.lists(st.sampled_from(negative), max_size=max_len)
                         ).map(lambda ls: BraidWord(n, tuple(ls)))
    return st.integers(1, max_strands).flatmap(on)


# sha256 of json.dumps(P.to_triples()) for beta_n, with its term count
BETA_HOMFLY_PINS = [
    (2, 19, "6c802a7a740ff2cedd7c57a903ced8d2c7c783f7af893cfe6fb51ea75a948c87"),
    (3, 51, "6733477ba3b9f956a018c720ff34fb8517d8a51d8bef3780d488ca2c0ad3b58c"),
    (4, 112, "6b2f55b5001160ef48f6c050ed86895a10e22e160c3e241c6d6f8df012a75778"),
]


class TestPackedHecke:
    """The packed-integer Hecke engine against the dict engine it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(hecke_words())
    def test_matches_dict_engine(self, b):
        assert hecke_homfly(b) == _reference_hecke(b)

    @pytest.mark.parametrize("b", [
        BraidWord(1, ()), BraidWord(2, ()), BraidWord(6, ()),
        BraidWord(2, (1,) * 40), BraidWord(2, (-1,) * 40),
        BraidWord(6, (-5, -4, -3, -2, -1) * 3), BraidWord(3, (1, -2) * 20),
    ])
    def test_matches_dict_engine_edges(self, b):
        assert hecke_homfly(b) == _reference_hecke(b)

    @pytest.mark.parametrize("n, terms, digest", BETA_HOMFLY_PINS)
    def test_beta_pins(self, n, terms, digest):
        P = hecke_homfly(kn_braid(n))
        assert len(P.terms) == terms
        assert hashlib.sha256(json.dumps(P.to_triples()).encode()).hexdigest() == digest

    def test_unit_identity_rejects_planted_value(self):
        with pytest.raises(ArithmeticError):
            _check_unit_identity(P([[7, 7, 7]]), 1)
        with pytest.raises(ArithmeticError):
            _check_unit_identity(P([[2, 0, 2], [4, 0, -1], [2, 2, 2]]), 1)
        with pytest.raises(ArithmeticError):
            _check_unit_identity(homfly(HOPF), 1)  # z^-1 term on a "knot"
        _check_unit_identity(homfly(TREFOIL), 1)
        _check_unit_identity(homfly(HOPF), 2)
        _check_unit_identity(homfly(BraidWord(3, ())), 3)

    def test_skein_result_checked(self, monkeypatch):
        assert skein_homfly(TREFOIL) == homfly(TREFOIL)
        monkeypatch.setattr(engine, "_resolve", lambda *a: {7 + 7 * engine._ZKEY: 7})  # 7 v^7 z^7
        with pytest.raises(ArithmeticError):
            skein_homfly(TREFOIL)


class TestCanonicalKeyAndCache:
    def test_rotation_invariance(self):
        b = parse_braid("strands=3 1 2 -1 2")
        rotated = BraidWord(3, b.letters[1:] + b.letters[:1])
        assert canonical_key(b) == canonical_key(rotated)

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "polys.jsonl"
        cache = PolynomialCache(path)
        value = homfly(TREFOIL)
        cache.put(canonical_key(TREFOIL), 2, value, algorithm="hecke")
        again = PolynomialCache(path)
        assert again.get(canonical_key(TREFOIL)) == value
        assert again.stats()["records"] == 1

    def test_record_is_one_append(self, tmp_path, monkeypatch):
        path = tmp_path / "polys.jsonl"
        cache = PolynomialCache(path)
        cache.put("old", 2, homfly(UNKNOT), algorithm="hecke")
        writes = []
        real = engine.os.write
        monkeypatch.setattr(engine.os, "write",
                            lambda fd, data: writes.append(data) or real(fd, data))
        cache.put("k", 2, homfly(TREFOIL), algorithm="hecke")
        monkeypatch.undo()
        assert len(writes) == 1 and writes[0].endswith(b"\n")
        again = PolynomialCache(path)
        assert again.get("k") == homfly(TREFOIL) and again.get("old") == homfly(UNKNOT)
        assert path.read_bytes().endswith(writes[0])

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "polys.jsonl"
        cache = PolynomialCache(path)
        cache.put("k", 2, homfly(TREFOIL), algorithm="hecke")
        with path.open("a") as fh:
            fh.write("not json\n")
            fh.write('{"word": "half"\n')
        again = PolynomialCache(path)
        assert again.stats()["records"] == 1
        assert again.get("k") == homfly(TREFOIL)

    def test_other_version_skipped(self, tmp_path):
        path = tmp_path / "polys.jsonl"
        PolynomialCache(path).put("k", 2, homfly(TREFOIL), algorithm="hecke")
        record = json.loads(path.read_text())
        record["version"] = 2
        path.write_text(json.dumps(record) + "\n")
        again = PolynomialCache(path)
        assert again.get("k") is None
        assert again.stats()["records"] == 0

    def test_foreign_tags_skipped(self, tmp_path):
        # the unit identity reads no tags, so only the load can refuse them
        path = tmp_path / "polys.jsonl"
        key = canonical_key(TREFOIL)
        PolynomialCache(path).put(key, 2, homfly(TREFOIL), algorithm="hecke")
        record = json.loads(path.read_text())
        record["tags"] = ["alpha", "z"]
        path.write_text(json.dumps(record) + "\n")
        again = PolynomialCache(path)
        assert again.get(key) is None
        assert again.stats()["records"] == 0
        served = homfly(TREFOIL, cache=again)
        assert served.vars == ("v", "z") and served == hecke_homfly(TREFOIL)

    def test_clear(self, tmp_path):
        path = tmp_path / "polys.jsonl"
        cache = PolynomialCache(path)
        cache.put("k", 2, homfly(TREFOIL), algorithm="hecke")
        cache.clear()
        assert not path.exists()
        assert cache.get("k") is None

    def test_homfly_writes_through(self, tmp_path):
        b = BraidWord(6, (1, -2, 3, -4, 5, 5, 3))
        cache = PolynomialCache(tmp_path / "polys.jsonl")
        first = homfly(b, cache=cache)
        assert cache.get(canonical_key(b)) == first

    def test_homfly_reads_cache(self, tmp_path):
        # a record failing the unit identity is a miss: recomputed, replaced
        b = BraidWord(6, (5, -4, 3, -2, 1, 1, 4))
        sentinel = P([[7, 7, 7]])
        path = tmp_path / "polys.jsonl"
        cache = PolynomialCache(path)
        cache.put(canonical_key(b), b.strands, sentinel, algorithm="hecke")
        truth = hecke_homfly(b)
        assert homfly(b, cache=cache) == truth
        assert PolynomialCache(path).get(canonical_key(b)) == truth

    def test_homfly_serves_genuine_record(self, tmp_path, monkeypatch):
        b = BraidWord(6, (5, -4, 3, -2, 1, 1, 4))
        truth = hecke_homfly(b)
        cache = PolynomialCache(tmp_path / "polys.jsonl")
        cache.put(canonical_key(b), b.strands, truth, algorithm="hecke")
        calls = []
        monkeypatch.setattr(engine, "hecke_homfly", lambda b, **kw: calls.append(b))
        assert homfly(b, cache=cache) == truth
        assert calls == []
