from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotcert.montesinos import (
    SeifertData,
    det_montesinos,
    ell0_montesinos,
    ell0_triple,
    ell_family,
    ellinf_montesinos,
    ellinf_triple,
    is_lspace_m1,
    normalize,
    surgery_slopes,
)


def fractions():
    return st.builds(
        Fraction, st.integers(-12, 12), st.integers(1, 13)
    )


class TestNormalize:
    def test_floors_into_euler(self):
        s = normalize(SeifertData(0, (Fraction(7, 3), Fraction(-1, 2))))
        assert s.euler == 1
        assert s.fibers == (Fraction(1, 2), Fraction(1, 3))

    def test_integer_fibers_dropped(self):
        s = normalize(SeifertData(2, (Fraction(3), Fraction(1, 2))))
        assert s.euler == 5
        assert s.fibers == (Fraction(1, 2),)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-5, 5), st.lists(fractions(), max_size=4))
    def test_idempotent(self, e, rs):
        s = normalize(SeifertData(e, tuple(rs)))
        assert normalize(s) == s
        assert all(0 < r < 1 for r in s.fibers)
        assert list(s.fibers) == sorted(s.fibers, reverse=True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-5, 5), st.lists(fractions().filter(lambda r: r != 0), min_size=1, max_size=4))
    def test_det_invariant_under_normalize(self, e, rs):
        s = SeifertData(e, tuple(rs))
        t = normalize(s)
        if any(r == 0 for r in t.fibers) or not t.fibers:
            return
        assert det_montesinos(s) == det_montesinos(t)

    def test_str(self):
        assert str(SeifertData(-1, (Fraction(1, 2), Fraction(1, 3)))) == "M(-1; 1/2, 1/3)"


    def test_criterion_triples_are_normal_forms(self):
        """The L-space criterion reads the hand-normalized triples; the
        determinant ledger reads the Montesinos data they normalize."""
        for k in range(1, 1001):
            assert normalize(ell0_montesinos(k)) == SeifertData(-1, ell0_triple(k))
            assert normalize(ellinf_montesinos(k)) == SeifertData(-1, ellinf_triple(k))


class TestLspaceCriterion:
    def test_anchor_k1(self):
        v0 = is_lspace_m1(*ell0_triple(1))
        vinf = is_lspace_m1(*ellinf_triple(1))
        assert v0.is_lspace and vinf.is_lspace

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 500])
    def test_family_sweep(self, k):
        assert is_lspace_m1(*ell0_triple(k)).is_lspace
        assert is_lspace_m1(*ellinf_triple(k)).is_lspace

    def test_lspace_verdict_has_no_witness(self):
        assert is_lspace_m1(*ell0_triple(2)).witness is None

    def test_negative_control(self):
        r1, r2, r3 = Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)
        v = is_lspace_m1(r1, r2, r3)
        assert not v.is_lspace
        assert v.witness == (5, 3)
        m, a = v.witness
        assert m * r3 < 1
        assert m * r1 < a < m * (1 - r2)

    def test_r3_zero_rejected(self):
        with pytest.raises(ValueError):
            is_lspace_m1(Fraction(1, 2), Fraction(1, 3), 0)

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            is_lspace_m1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 7))


class TestDeterminant:
    def test_examples(self):
        assert det_montesinos(SeifertData(0, (Fraction(1, 2), Fraction(-1, 2)))) == 0
        assert det_montesinos(SeifertData(0, (Fraction(1, 2), Fraction(1, 2)))) == 4
        assert det_montesinos(SeifertData(-1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))) == 1
        assert det_montesinos(SeifertData(-1, (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)))) == 29

    def test_zero_fiber_rejected(self):
        with pytest.raises(ValueError):
            det_montesinos(SeifertData(0, (Fraction(0), Fraction(1, 2))))


class TestEllFamily:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_k_values(self, k):
        rep = ell_family(k)
        assert rep.det_ell == 12 * k * k + 2 * k
        assert rep.det_ell0 == 6 * k + 1
        assert rep.recursion_holds and rep.endpoints_match

    def test_k1_concrete(self):
        rep = ell_family(1)
        assert rep.det_ell == 14
        assert rep.det_ell0 == 7

    def test_endpoint_montesinos_determinants(self):
        assert det_montesinos(ell0_montesinos(3)) == 19
        assert det_montesinos(ellinf_montesinos(3)) == 19

    @pytest.mark.parametrize("k", [7, 50, 500])
    def test_larger_k(self, k):
        rep = ell_family(k)
        assert rep.recursion_holds and rep.endpoints_match

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            ell_family(0)
        with pytest.raises(ValueError):
            surgery_slopes(0)

    @pytest.fixture
    def off_by_one_det(self, monkeypatch):
        """Plant a fault: every Montesinos determinant reads one too high."""
        import knotcert.montesinos as mod

        real = mod.det_montesinos
        monkeypatch.setattr(mod, "det_montesinos", lambda s: real(s) + 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 500])
    def test_planted_determinant_fault_fails_every_flag(self, k, off_by_one_det):
        rep = ell_family(k)
        assert not rep.recursion_holds
        assert not rep.endpoints_match
        assert not surgery_slopes(k).consistent

    def test_planted_fault_fails_the_slopes_suite(self, off_by_one_det, capsys):
        from knotcert.cli import main

        assert main(["verify", "slopes", "--k-max", "3"]) == 1
        assert "3 fail" in capsys.readouterr().out


class TestSurgerySlopes:
    def test_k1(self):
        s = surgery_slopes(1)
        assert s.quotient_coeff == 6
        assert s.lspace_slope == 14
        assert s.writhe == 7
        assert s.lift(6) == 14
        assert s.consistent

    @pytest.mark.parametrize("k", [2, 5, 50, 500])
    def test_consistency_sweep(self, k):
        s = surgery_slopes(k)
        assert s.consistent
        assert s.lift(s.quotient_coeff) == s.lspace_slope
        assert s.lspace_slope == ell_family(k).det_ell
