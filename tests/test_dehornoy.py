import pytest
from hypothesis import example, given, settings, strategies as st

from knotcert.braid import (
    BraidWord,
    beta_braid,
    beta_conjugated_braid,
    compose,
    half_twist,
    inverse,
    power,
    x_braid,
)
from knotcert.dehornoy import (
    _reduce_core,
    dehornoy_less,
    floor_exceeds_one,
    handle_reduce,
    sigma_classify,
)
from knotcert.errors import BraidError, BudgetExceededError


def words(max_strands=4, max_len=10):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.sampled_from([i for i in range(-(n - 1), n) if i != 0]),
            max_size=max_len,
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    )


def _find_closing_handle(w: list[int], start: int) -> tuple[int, int] | None:
    """Leftmost-closing handle at or after closing position ``start``.

    Returns (p, q) with w[p..q] = sigma_i^e ... sigma_i^-e and interior
    indices all exceeding i, scanning closing positions q left to right.
    """
    for q in range(max(start, 1), len(w)):
        idx = abs(w[q])
        p = q - 1
        while p >= 0:
            other = abs(w[p])
            if other > idx:
                p -= 1
                continue
            if other == idx and w[p] == -w[q]:
                return p, q
            break  # same index same sign, or a smaller index: nothing closes here
    return None


def _reference_reduce_once(w, p, q):
    """Handle reduction as first written, kept as the reference: each step
    builds a new word from the prefix, the rewritten interior and the suffix."""
    i = abs(w[q])
    e = 1 if w[p] > 0 else -1
    replacement = []
    for x in w[p + 1:q]:
        if abs(x) == i + 1:
            d = 1 if x > 0 else -1
            replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            replacement.append(x)
    return w[:p] + replacement + w[q + 1:]


def _reference_reduce_core(letters, step_budget):
    """Leftmost-closing handle reduction as first written: each search steps
    back one letter at a time (_find_closing_handle), each step rebuilds."""
    w = list(letters)
    steps = 0
    scan_from = 0
    while True:
        found = _find_closing_handle(w, scan_from)
        if found is None:
            return w, steps
        if steps >= step_budget:
            raise BudgetExceededError("reference budget", spent=steps)
        p, q = found
        w = _reference_reduce_once(w, p, q)
        steps += 1
        scan_from = p


def floor_word(n):
    """The word whose handle reduction certifies floor_exceeds_one(n)."""
    x = x_braid(n)
    conj = compose(compose(x, beta_braid(n)), inverse(x))
    return compose(inverse(power(half_twist(2 * n), 4)), conj)


class TestReduction:
    def test_empty_is_trivial(self):
        cls = sigma_classify(BraidWord(3, ()))
        assert cls.verdict == "trivial"
        assert cls.main_index is None

    def test_free_cancellation(self):
        cls = sigma_classify(BraidWord(3, (1, -1, 2, -2)))
        assert cls.verdict == "trivial"

    def test_positive_word_is_fixed(self):
        b = BraidWord(4, (1, 2, 3, 1))
        assert handle_reduce(b) == b

    def test_main_index_sign(self):
        cls = sigma_classify(BraidWord(3, (-2, 1, 2)))
        assert cls.verdict == "sigma_positive"
        assert cls.main_index == 1

    def test_negative_classification(self):
        cls = sigma_classify(BraidWord(3, (2, -1, -2)))
        assert cls.verdict == "sigma_negative"
        assert cls.main_index == 1

    def test_handle_free_output(self):
        """No handle-free word contains a sigma_i handle at its main index."""
        reduced = handle_reduce(BraidWord(4, (1, 3, -2, -1, 2, -3, 1, -2)))
        w = reduced.letters
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[j] == -w[i]:
                    inner = w[i + 1 : j]
                    assert any(abs(x) <= abs(w[i]) for x in inner)
                    break

    def test_sigma_positive_despite_leading_negative(self):
        # Starts with sigma_1^-1 yet the braid is sigma-positive.
        cls = sigma_classify(BraidWord(3, (-1, 2, 1)))
        assert cls.verdict == "sigma_positive"
        assert cls.main_index == 1
        cls_inv = sigma_classify(BraidWord(3, (-1, -2, 1)))
        assert cls_inv.verdict == "sigma_negative"

    def test_budget_error_carries_spent(self):
        with pytest.raises(BudgetExceededError) as err:
            floor_exceeds_one(2, step_budget=3)
        assert err.value.spent == 3


class TestOrderProperties:
    @settings(max_examples=80, deadline=None)
    @given(words())
    def test_trichotomy(self, b):
        """Exactly one of b trivial, b sigma-positive, b sigma-negative."""
        cls = sigma_classify(b)
        inv = sigma_classify(inverse(b))
        if cls.verdict == "trivial":
            assert inv.verdict == "trivial"
        elif cls.verdict == "sigma_positive":
            assert inv.verdict == "sigma_negative"
        else:
            assert inv.verdict == "sigma_positive"

    @settings(max_examples=50, deadline=None)
    @given(words(max_len=7), words(max_len=7), words(max_len=5))
    def test_left_invariance(self, a, b, c):
        a = BraidWord(4, a.letters)
        b = BraidWord(4, b.letters)
        c = BraidWord(4, c.letters)
        assert dehornoy_less(a, b) == dehornoy_less(compose(c, a), compose(c, b))

    @settings(max_examples=80, deadline=None)
    @given(words())
    def test_irreflexive(self, b):
        assert not dehornoy_less(b, b)

    def test_generator_order(self):
        one = BraidWord(3, (1,))
        two = BraidWord(3, (2,))
        assert dehornoy_less(two, one)
        assert not dehornoy_less(one, two)

    def test_strand_mismatch_rejected(self):
        with pytest.raises(BraidError):
            dehornoy_less(BraidWord(2, (1,)), BraidWord(3, (1,)))


class TestFloorCertificates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_floor_exceeds_one(self, n):
        cert = floor_exceeds_one(n)
        assert cert.holds
        assert cert.witness.letters
        assert all(x > 0 for x in cert.witness.letters if abs(x) == cert.main_index)

    def test_witness_is_handle_free(self):
        cert = floor_exceeds_one(2)
        assert handle_reduce(cert.witness) == cert.witness

    def test_small_n_rejected(self):
        with pytest.raises(BraidError):
            floor_exceeds_one(1)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_conjugated_family_is_the_spelled_out_word(self, n):
        x = x_braid(n)
        assert beta_conjugated_braid(n) == compose(compose(x, beta_braid(n)), inverse(x))

    def test_step_counts_are_stable(self):
        steps = [floor_exceeds_one(n).steps for n in range(2, 13)]
        assert steps == [
            55, 197, 479, 949, 1_655, 2_645, 3_967, 5_669, 7_799, 10_405, 13_535
        ]
        # the benchmark's dehornoy.handle_steps counter sums n = 2..12
        assert sum(steps) == 47_355


class TestInPlaceSplice:
    """The in-place splice and the prev-pointer scan reduce the same handles
    as the rebuilding, step-back reference: same handle-free word, same step
    count, same budget point."""

    @settings(max_examples=300, deadline=None)
    @given(words(max_strands=8, max_len=40))
    @example(floor_word(2))
    @example(floor_word(3))
    @example(floor_word(4))
    @example(floor_word(5))
    def test_matches_rebuilding_reference(self, b):
        want, steps = _reference_reduce_core(b.letters, 10**6)
        assert _reduce_core(list(b.letters), 10**6) == (want, steps)
        if steps >= 2:
            with pytest.raises(BudgetExceededError) as err:
                _reduce_core(list(b.letters), steps - 1)
            assert err.value.spent == steps - 1

    def test_input_list_untouched(self):
        letters = [2, 1, -2, -1, 3, -2]
        _reduce_core(letters, 100)
        assert letters == [2, 1, -2, -1, 3, -2]
