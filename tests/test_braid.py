import pytest
from hypothesis import given, strategies as st

from knotcert.braid import (
    BraidWord,
    FAMILY_NAMES,
    beta_braid,
    braid_text,
    cable_braid,
    closure_stats,
    component_table,
    compose,
    conjugate,
    family,
    free_reduce,
    half_twist,
    inverse,
    kn_braid,
    kn_plus_braid,
    linking_number,
    parse_braid,
    permutation,
    positive_braid_euler,
    power,
    restrict_components,
    x_braid,
    x_braid_antidiagonal,
)
from knotcert.errors import BraidError


def words(max_strands=5, max_len=10):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.sampled_from([i for i in range(-(n - 1), n) if i != 0]),
            max_size=max_len,
        ).map(lambda ls: BraidWord(n, tuple(ls)))
    )


class TestValidation:
    def test_letters_must_be_nonzero_and_in_range(self):
        with pytest.raises(BraidError):
            BraidWord(3, (0,))
        with pytest.raises(BraidError):
            BraidWord(3, (3,))
        with pytest.raises(BraidError):
            BraidWord(3, (-3,))
        with pytest.raises(BraidError):
            BraidWord(1, (1,))

    def test_single_strand_identity_allowed(self):
        assert BraidWord(1, ()).strands == 1

    def test_properties(self):
        b = BraidWord(3, (1, -2, 1))
        assert b.crossings == 3
        assert b.exponent_sum == 1
        assert not b.is_positive
        assert BraidWord(3, (1, 2)).is_positive


class TestParsing:
    def test_plain_letters_with_strands(self):
        b = parse_braid("1 -2 1", strands=3)
        assert b == BraidWord(3, (1, -2, 1))

    def test_strands_token(self):
        assert parse_braid("strands=4 1 3") == BraidWord(4, (1, 3))

    def test_commas(self):
        assert parse_braid("1, 2, 1", strands=3) == BraidWord(3, (1, 2, 1))

    def test_inferred_strands(self):
        assert parse_braid("1 -2 1").strands == 3

    def test_conflicting_strands_rejected(self):
        with pytest.raises(BraidError):
            parse_braid("strands=3 1", strands=4)

    def test_empty_needs_strands(self):
        with pytest.raises(BraidError):
            parse_braid("")
        assert parse_braid("", strands=2) == BraidWord(2, ())

    def test_round_trip(self):
        b = BraidWord(4, (1, -3, 2))
        assert parse_braid(braid_text(b)) == b


class TestGroupOperations:
    @given(words())
    def test_inverse_reduces_to_identity(self, b):
        assert free_reduce(compose(b, inverse(b))).letters == ()

    @given(words(), words())
    def test_compose_strand_mismatch(self, a, b):
        if a.strands == b.strands:
            assert compose(a, b).letters == a.letters + b.letters
        else:
            with pytest.raises(BraidError):
                compose(a, b)

    def test_power(self):
        b = BraidWord(2, (1,))
        assert power(b, 3).letters == (1, 1, 1)
        assert power(b, 0).letters == ()
        assert power(b, -2).letters == (-1, -1)

    def test_conjugate(self):
        a = BraidWord(3, (2,))
        by = BraidWord(3, (1,))
        assert conjugate(a, by).letters == (1, 2, -1)

    @given(words())
    def test_permutation_of_inverse(self, b):
        p = permutation(b)
        q = permutation(inverse(b))
        n = b.strands
        assert sorted(p) == list(range(1, n + 1))
        assert all(q[p[i] - 1] == i + 1 for i in range(n))


class TestClosure:
    def test_unknot_components(self):
        assert closure_stats(BraidWord(2, (1,))).components == 1
        assert closure_stats(BraidWord(2, ())).components == 2

    def test_trefoil(self):
        s = closure_stats(BraidWord(2, (1, 1, 1)))
        assert s.components == 1 and s.writhe == 3 and s.crossings == 3

    def test_hopf_linking(self):
        b = BraidWord(2, (1, 1))
        assert closure_stats(b).components == 2
        assert linking_number(b, 1, 2) == 1
        assert linking_number(inverse(b), 1, 2) == -1

    def test_component_table_lengths(self):
        b = BraidWord(3, (1, 2, 2))
        table = component_table(b)
        assert len(table) == len(b.letters) + 1
        assert all(len(row) == b.strands for row in table)

    def test_restrict_components_sublink(self):
        # Hopf pair on strands 1-2 away from a free third strand
        b = BraidWord(3, (1, 1))
        s = closure_stats(b)
        assert s.components == 3
        free = s.component_map[2]
        kept = restrict_components(b, [c for c in range(1, 4) if c != free])
        assert kept == BraidWord(2, (1, 1))

    def test_positive_braid_euler(self):
        assert positive_braid_euler(BraidWord(2, (1, 1, 1))) == -1
        with pytest.raises(BraidError):
            positive_braid_euler(BraidWord(2, (-1,)))


class TestFamilies:
    def test_half_twist_small(self):
        assert half_twist(2).letters == (1,)
        assert half_twist(3).letters == (1, 2, 1)
        perm = permutation(half_twist(5))
        assert perm == (5, 4, 3, 2, 1)

    def test_x_braid_letter_count(self):
        for n in range(1, 7):
            assert x_braid(n).crossings == n * n
            assert x_braid(n).strands == 2 * n

    def test_x_braid_antidiagonal_same_permutation(self):
        for n in range(1, 7):
            assert permutation(x_braid(n)) == permutation(x_braid_antidiagonal(n))

    def test_beta_braid_counts(self):
        for n in range(2, 7):
            b = beta_braid(n)
            assert b.strands == 2 * n
            assert b.crossings == 3 * n * n + 3 * n - 1
            assert b.exponent_sum == 3 * n * n + n + 1

    def test_beta_closure_is_knot(self):
        for n in range(2, 7):
            assert closure_stats(beta_braid(n)).components == 1

    def test_kn_base_case(self):
        assert kn_braid(1) == BraidWord(2, (1, 1, 1, 1, 1))
        for n in range(2, 5):
            assert kn_braid(n) == beta_braid(n)

    def test_kn_plus_positive_knot(self):
        for n in range(2, 6):
            b = kn_plus_braid(n)
            assert b.is_positive
            assert closure_stats(b).components == 1

    def test_kn_plus_is_beta_made_positive(self):
        for n in range(2, 9):
            tail = list(range(1, n)) + list(range(n, 0, -1)) + list(range(1, n + 1))
            want = BraidWord(2 * n, power(x_braid(n), 3).letters + tuple(tail))
            assert kn_plus_braid(n) == want
        with pytest.raises(BraidError, match="kn_plus"):
            kn_plus_braid(1)

    def test_cable_positive_knot(self):
        for k in range(1, 6):
            b = cable_braid(k)
            assert b.is_positive
            assert closure_stats(b).components == 1
        assert cable_braid(1) == BraidWord(2, (1, 1, 1))

    def test_family_dispatch(self):
        assert family("beta", 2) == beta_braid(2)
        assert family("kn-plus", 3) == kn_plus_braid(3)
        assert family("KN", 2) == kn_braid(2)
        with pytest.raises(BraidError):
            family("nope", 2)
        assert set(FAMILY_NAMES) == {
            "x",
            "beta",
            "beta_conjugated",
            "kn",
            "kn_plus",
            "cable",
        }

    def test_beta_conjugated_closure_matches_beta(self):
        for n in (2, 3):
            assert closure_stats(family("beta_conjugated", n)).components == 1
