from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotcert.poly import LaurentPoly1, LaurentPoly2, _add_into, _horner


def poly1(var="v", max_terms=6):
    return st.dictionaries(
        st.integers(-8, 8), st.integers(-9, 9), max_size=max_terms
    ).map(lambda d: LaurentPoly1.from_pairs(var, d.items()))


def poly2(max_terms=6):
    return st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.integers(-9, 9),
        max_size=max_terms,
    ).map(lambda d: LaurentPoly2.from_triples(("v", "z"), [[a, b, c] for (a, b), c in d.items()]))


class TestConstruction:
    def test_zero_terms_pruned(self):
        p = LaurentPoly1.from_pairs("v", [(2, 0), (1, 3)])
        assert p.to_pairs() == [[1, 3]]
        assert LaurentPoly1.from_pairs("v", [(0, 0)]).is_zero()

    def test_monomial_and_one(self):
        assert LaurentPoly1.monomial("v", 0) == LaurentPoly1.one("v")
        assert LaurentPoly1.monomial("v", -2, 3).to_pairs() == [[-2, 3]]

    def test_terms_immutable(self):
        p = LaurentPoly1.monomial("v", 1)
        with pytest.raises(TypeError):
            p.terms[1] = 5


class TestRingAxioms:
    @given(poly1(), poly1(), poly1())
    def test_add_mul_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly1.zero("v") == a
        assert a * LaurentPoly1.one("v") == a
        assert (a - a).is_zero()

    @given(poly2(), poly2(), poly2())
    def test_two_variable_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()

    @given(poly1())
    def test_int_scaling(self, a):
        assert a * 2 == a + a
        assert a * 0 == LaurentPoly1.zero("v")
        assert a * -1 == -a

    @given(poly1(), st.integers(0, 4))
    def test_pow(self, a, k):
        expected = LaurentPoly1.one("v")
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected

    def test_var_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly1.one("v") + LaurentPoly1.one("t")


class TestQueries:
    def test_degree_order_top(self):
        p = LaurentPoly1.from_pairs("v", [(-2, 5), (3, -1)])
        assert p.degree == 3
        assert p.order == -2
        assert p.top_term() == (3, -1)
        assert p.coeff(-2) == 5 and p.coeff(0) == 0

    def test_degree_of_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly1.zero("v").degree

    def test_is_positive(self):
        assert LaurentPoly1.from_pairs("v", [(1, 2), (0, 1)]).is_positive()
        assert not LaurentPoly1.from_pairs("v", [(1, -2)]).is_positive()
        assert LaurentPoly2.zero().is_positive()

    @given(poly1(), st.fractions(min_value=-3, max_value=3).filter(lambda q: q != 0))
    def test_evaluate_is_ring_hom(self, p, x):
        q = LaurentPoly1.monomial("v", 1, 2) + LaurentPoly1.one("v")
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    def test_shift(self):
        p = LaurentPoly1.from_pairs("v", [(0, 1), (2, 1)])
        assert p.shift(-1, 3).to_pairs() == [[-1, 3], [1, 3]]
        q = LaurentPoly2.monomial(("v", "z"), 1, 1)
        assert q.shift(2, -1, -2).to_triples() == [[3, 0, -2]]


class TestRendering:
    def test_human_strings(self):
        p = LaurentPoly2.from_triples(("v", "z"), [[2, 0, 2], [4, 0, -1], [2, 2, 1]])
        assert str(p) == "2*v^2 + v^2*z^2 - v^4"
        assert str(LaurentPoly1.zero("v")) == "0"
        assert str(LaurentPoly1.from_pairs("v", [(0, -1), (1, 1)])) == "-1 + v"

    def test_serialization_round_trip(self):
        p = LaurentPoly2.from_triples(("v", "z"), [[0, 1, -2], [-3, 2, 7]])
        assert LaurentPoly2.from_triples(("v", "z"), p.to_triples()) == p


class TestKernels:
    @given(
        st.dictionaries(st.integers(0, 4), poly1().map(lambda p: dict(p.terms)), max_size=4),
        poly1(max_terms=3),
    )
    def test_horner_is_the_power_sum(self, rows, s):
        expected = LaurentPoly1.zero("v")
        for j, row in rows.items():
            expected = expected + LaurentPoly1("v", row) * s ** j
        assert LaurentPoly1("v", _horner(rows, dict(s.terms))) == expected

    def test_horner_in_the_alexander_kernel(self):
        # z^4 -> (t - 2 + 1/t)^2
        kernel = {-1: 1, 0: -2, 1: 1}
        assert _horner({2: {0: 1}}, kernel) == {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1}
        assert _horner({}, kernel) == {}

    @given(poly1(), poly1(), st.integers(-3, 3), st.integers(-2, 2))
    def test_add_into(self, a, b, shift, scale):
        dst = dict(a.terms)
        _add_into(dst, b.terms, shift, scale)
        assert dst == dict((a + b.shift(shift, scale)).terms)  # zeros pruned in place
