import importlib

import pytest
from hypothesis import given, settings, strategies as st

from knotcert import positivity
from knotcert.braid import BraidWord, cable_braid, closure_stats, kn_braid, kn_plus_braid
from knotcert.errors import BraidError, BudgetExceededError
from knotcert.homfly import homfly
from knotcert.poly import LaurentPoly2
from knotcert.positivity import (
    genus_kn,
    ito_obstruction,
    sharpness,
    skein_decomposition_check,
    verify_topterm,
)


def positive_words(max_strands=5, max_len=12):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1), min_size=1, max_size=max_len
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    )


def knot_words(max_strands=5, max_len=10):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.sampled_from([i for i in range(-(n - 1), n) if i != 0]), max_size=max_len
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    ).filter(lambda b: closure_stats(b).components == 1)


# v^2 -> -alpha as the former `poly.specialize` rule computed it: a test
# oracle for the P~ that `ito_obstruction` builds in place.
def _v2_to_neg_alpha(p: LaurentPoly2) -> LaurentPoly2:
    if not isinstance(p, LaurentPoly2):
        raise ValueError("v^2 -> -alpha substitution applies to two-variable input")
    out: dict[tuple[int, int], int] = {}
    for (ve, ze), c in p.terms.items():
        if ve % 2:
            raise ValueError(f"v-exponent {ve} is odd")
        j = ve // 2
        key = (j, ze)
        out[key] = out.get(key, 0) + c * (-1) ** (j % 2)
    return LaurentPoly2(("alpha", "z"), out)


class TestSharpness:
    def test_hopf_is_sharp(self):
        rep = sharpness(BraidWord(2, (1, 1)))
        assert rep.sharp
        assert rep.bound == 2 + 2 - 2
        assert rep.p0_degree == 2

    def test_trefoil_is_sharp(self):
        rep = sharpness(BraidWord(2, (1, 1, 1)))
        assert rep.sharp
        assert rep.bound == 2 + 3 - 1

    def test_cable2_is_not_sharp(self):
        rep = sharpness(cable_braid(2))
        assert not rep.sharp
        assert rep.p0_degree < rep.bound

    def test_knplus3_is_not_sharp(self):
        assert not sharpness(kn_plus_braid(3), node_budget=2_000_000).sharp

    def test_negative_letters_rejected(self):
        with pytest.raises(BraidError):
            sharpness(BraidWord(2, (1, -1)))

    @settings(max_examples=80, deadline=None)
    @given(positive_words())
    def test_degree_never_exceeds_bound(self, b):
        rep = sharpness(b, node_budget=500_000)
        assert rep.p0_degree <= rep.bound

    @settings(max_examples=30, deadline=None)
    @given(positive_words(max_strands=4, max_len=8), st.integers(0, 20))
    def test_doubling_a_letter_keeps_bound_valid(self, b, k):
        """Repeating a crossing raises the bound by at most what it raises
        the degree structure: the inequality survives local stabilization."""
        t = k % len(b.letters)
        doubled = BraidWord(b.strands, b.letters[: t + 1] + b.letters[t:])
        rep = sharpness(doubled, node_budget=500_000)
        assert rep.p0_degree <= rep.bound


class TestIto:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_odd_torus_braids_pass(self, k):
        b = BraidWord(2, (1,) * (2 * k + 1))
        verdict = ito_obstruction(b, genus=k)
        assert verdict.positive
        assert verdict.witness is None
        assert not verdict.genus_alexander_mismatch

    def test_k2_fails_with_witness(self):
        verdict = ito_obstruction(kn_braid(2), genus=6)
        assert not verdict.positive
        assert verdict.witness == (3, 0, -1)
        assert not verdict.genus_alexander_mismatch

    def test_k2_z0_top_term(self):
        verdict = ito_obstruction(kn_braid(2), genus=6)
        z0 = {a: c for a, z, c in verdict.tilde_poly.to_triples() if z == 0}
        assert max(z0) == 3 and z0[3] == -1

    @settings(max_examples=150, deadline=None)
    @given(knot_words(), st.integers(0, 7))
    def test_tilde_matches_reference_substitution(self, b, genus):
        expected = _v2_to_neg_alpha(homfly(b)).shift(-genus, 0, (-1) ** genus)
        assert ito_obstruction(b, genus).tilde_poly == expected

    def test_planted_odd_v_exponent_raises(self, monkeypatch):
        planted = LaurentPoly2.from_triples(("v", "z"), [[0, 0, 1], [1, 2, 1]])
        monkeypatch.setattr(positivity, "homfly", lambda b, **kw: planted)
        with pytest.raises(ValueError, match="v-exponent 1"):
            ito_obstruction(BraidWord(2, (1, 1, 1)), genus=1)

    @settings(max_examples=80, deadline=None)
    @given(knot_words(), st.integers(0, 7))
    def test_p0_engine_is_the_z0_part(self, b, genus):
        full = ito_obstruction(b, genus)
        z0 = ito_obstruction(b, genus, engine="p0")
        assert z0.tilde_poly.terms == {k: c for k, c in full.tilde_poly.terms.items() if k[1] == 0}
        fires = any(c < 0 for c in z0.tilde_poly.terms.values())
        assert z0.positive is (False if fires else None)  # never True: z^0 is not all of P~
        assert z0.witness == (full.witness if fires else None)
        assert z0.genus_alexander_mismatch == full.genus_alexander_mismatch

    def test_p0_engine_on_k2_and_torus_knot(self):
        verdict = ito_obstruction(kn_braid(2), genus=6, engine="p0")
        assert verdict.positive is False and verdict.witness == (3, 0, -1)
        assert not verdict.genus_alexander_mismatch
        assert ito_obstruction(BraidWord(2, (1,) * 5), genus=2, engine="p0").positive is None

    def test_wrong_genus_flags_mismatch(self):
        verdict = ito_obstruction(BraidWord(2, (1, 1, 1)), genus=2)
        assert verdict.genus_alexander_mismatch

    @pytest.mark.parametrize("b, genus", [(BraidWord(2, (1,) * 5), 2), (kn_braid(2), 6)])
    def test_skein_engine_runs_no_hecke(self, b, genus, monkeypatch):
        engine = importlib.import_module("knotcert.homfly")
        hecke, calls = engine.hecke_homfly, []

        def counting(word, **kw):
            calls.append(word)
            return hecke(word, **kw)

        monkeypatch.setattr(engine, "hecke_homfly", counting)
        skein = ito_obstruction(b, genus, engine="skein")
        assert calls == []
        assert skein == ito_obstruction(b, genus, engine="hecke")


class TestGenusFormula:
    def test_values(self):
        assert genus_kn(2) == 6
        assert genus_kn(4) == 23
        assert genus_kn(6) == 52

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_rejected(self, n):
        with pytest.raises(ValueError):
            genus_kn(n)


class TestFamilyClaims:
    def test_topterm_n2(self):
        rep = verify_topterm(2)
        assert rep.ok
        assert (rep.exponent, rep.coefficient) == (18, 1)

    def test_topterm_n3(self):
        rep = verify_topterm(3)
        assert rep.ok
        assert (rep.exponent, rep.coefficient) == (36, -1)

    def test_topterm_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_topterm(1)

    def test_topterm_n5(self):
        rep = verify_topterm(5, node_budget=50_000_000)
        assert rep.ok
        assert (rep.exponent, rep.coefficient) == (90, -1)

    def test_topterm_n6(self):  # 12 strands, about 0.6 s
        rep = verify_topterm(6, node_budget=200_000_000)
        assert rep.ok
        assert (rep.exponent, rep.coefficient) == (126, 1)

    def test_decomposition_n2(self):
        rep = skein_decomposition_check(2)
        assert rep.holds
        assert rep.lhs == rep.rhs

    def test_decomposition_n3(self):
        assert skein_decomposition_check(3).holds

    @pytest.mark.parametrize("call", [
        lambda: verify_topterm(2, node_budget=3),
        lambda: skein_decomposition_check(2, node_budget=3),
        lambda: sharpness(cable_braid(2), node_budget=3),
        lambda: ito_obstruction(kn_braid(2), 6, engine="p0", node_budget=3),
    ], ids=["topterm", "decomposition", "sharpness", "ito-p0"])
    def test_walk_exhaustion_is_raised_inside_the_hecke_cap(self, call, monkeypatch):
        # 4-strand words: a Hecke fallback could have answered, but these
        # claims read p0 from the walk alone and report its spend
        engine = importlib.import_module("knotcert.homfly")
        monkeypatch.setattr(engine, "hecke_homfly", lambda *a, **kw: pytest.fail("Hecke ran"))
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert err.value.spent == 3
