import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from knotcert.traintrack import (
    EfficiencyReport,
    EmbeddedGraph,
    _image_of,
    _signed_images,
    _witness_position,
    GraphMap,
    TransitionMatrix,
    expands,
    is_efficient_up_to,
    is_irreducible,
    kn_map,
    map_from_json,
    map_to_json,
    pf_eigenvalue,
    steps_to_reach,
    transition,
    validate,
)


def bouquet(edge_image):
    """Loops a, b, c at a single vertex; handy for small map experiments."""
    graph = EmbeddedGraph(
        vertices=("v",),
        edges={e: ("v", "v") for e in edge_image},
        peripheral=frozenset(),
    )
    return GraphMap(graph=graph, vertex_image={"v": "v"}, edge_image=edge_image)


@st.composite
def square_matrices(draw):
    """Square matrices of size 2-6 with entries 0-3."""
    n = draw(st.integers(2, 6))
    row = st.tuples(*[st.integers(0, 3)] * n)
    return TransitionMatrix(tuple(f"e{i}" for i in range(n)), draw(st.tuples(*[row] * n)))


def expand(gm, word, depth):
    """Brute-force g^depth applied to a token word."""
    for _ in range(depth):
        out = []
        for token in word:
            rev = token.startswith("-")
            image = gm.edge_image[token[1:] if rev else token]
            if rev:
                image = tuple(
                    (t[1:] if t.startswith("-") else "-" + t) for t in reversed(image)
                )
            out.extend(image)
        word = tuple(out)
    return word


def has_backtrack(word):
    for a, b in zip(word, word[1:]):
        if a == "-" + b or b == "-" + a:
            return True
    return False


def reference_efficiency(gm, bound):
    """The efficiency scan as first written, kept as the reference: every
    edge propagates its own letter and pair sets, sharing nothing.  It reports
    the least back-track pair, traced through its own level states."""
    assert validate(gm).ok
    _, order, images = _signed_images(gm)
    letters_of, within_of, first_of, last_of = {}, {}, {}, {}
    for label_id in images:
        for x in (label_id, -label_id):
            w = _image_of(images, x)
            letters_of[x] = frozenset(w)
            within_of[x] = frozenset(zip(w, w[1:]))
            first_of[x], last_of[x] = w[0], w[-1]
    stabilized_all = True
    for e_id in sorted(images):
        L, A = frozenset((e_id,)), frozenset()
        seen = {(L, A): None}
        stabilized = False
        for m in range(1, bound + 1):
            newL = frozenset().union(*(letters_of[x] for x in L))
            junction = {(last_of[x], first_of[y]) for (x, y) in A}
            newA = frozenset().union(*(within_of[x] for x in L), junction)
            bad = min((p for p in newA if p[0] == -p[1]), default=None)
            if bad is not None:
                position = _witness_position(images, e_id, bad, list(seen), first_of, last_of)
                return EfficiencyReport(False, bound, (m, order[e_id - 1], position), False)
            L, A = newL, newA
            if (L, A) in seen:
                stabilized = True
                break
            seen[(L, A)] = None
        stabilized_all = stabilized_all and stabilized
    return EfficiencyReport(True, bound, None, stabilized_all)


def random_bouquet(rng):
    labels = "abcd"[: rng.randint(3, 4)]
    tokens = list(labels) + ["-" + x for x in labels]
    return bouquet({x: tuple(rng.choice(tokens) for _ in range(rng.randint(1, 4)))
                    for x in labels})


class TestValidation:
    def test_low_valence_flagged(self):
        gm = GraphMap(
            graph=EmbeddedGraph(("u", "v"), {"e": ("u", "v")}, frozenset()),
            vertex_image={"u": "u", "v": "v"},
            edge_image={"e": ("e",)},
        )
        diag = validate(gm)
        assert not diag.ok
        assert any("valence" in issue for issue in diag.issues)

    def test_broken_walk_flagged(self):
        gm = bouquet({"a": ("a", "b"), "b": ("b",)})
        ok = validate(gm)
        assert ok.ok
        bad = GraphMap(
            graph=EmbeddedGraph(
                ("u", "v"),
                {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")},
                frozenset(),
            ),
            vertex_image={"u": "u", "v": "v"},
            edge_image={"a": ("a", "b"), "b": ("b",), "c": ("c",)},
        )
        diag = validate(bad)
        assert not diag.ok
        assert any("compose" in issue or "walk" in issue for issue in diag.issues)

    def test_peripheral_must_be_two_regular(self):
        gm = GraphMap(
            graph=EmbeddedGraph(
                ("u", "v"),
                {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v"), "p": ("u", "v")},
                frozenset({"p"}),
            ),
            vertex_image={"u": "u", "v": "v"},
            edge_image={"a": ("a",), "b": ("b",), "c": ("c",), "p": ("p",)},
        )
        diag = validate(gm)
        assert not diag.ok

    def test_peripheral_preserved_setwise(self):
        diag = validate(kn_map(3))
        assert diag.ok
        assert diag.issues == ()
        assert diag.real == tuple(f"e{i}" for i in range(1, 9))
        # the circles map to circles, so nothing is merely pre-peripheral
        assert diag.pre_peripheral == frozenset()


class TestTransition:
    def test_multiplicities(self):
        gm = bouquet({"a": ("a", "b", "-a"), "b": ("a",)})
        M = transition(gm)
        assert M.labels == ("a", "b")
        assert M.rows == ((2, 1), (1, 0))

    def test_invalid_map_rejected(self):
        gm = GraphMap(
            graph=EmbeddedGraph(("u",), {"a": ("u", "u")}, frozenset()),
            vertex_image={"u": "u"},
            edge_image={"a": ("a",)},
        )
        with pytest.raises(ValueError):
            transition(gm)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(labels=("a", "b"), rows=((1, 0),))


class TestSpectral:
    def test_scalar(self):
        M = TransitionMatrix(("a",), ((2,),))
        assert abs(pf_eigenvalue(M) - 2.0) < 1e-9

    def test_permutation_matrix(self):
        M = TransitionMatrix(("a", "b"), ((0, 1), (1, 0)))
        assert abs(pf_eigenvalue(M) - 1.0) < 1e-8
        assert is_irreducible(M)

    def test_fibonacci(self):
        M = TransitionMatrix(("a", "b"), ((1, 1), (1, 0)))
        golden = (1 + 5 ** 0.5) / 2
        assert abs(pf_eigenvalue(M) - golden) < 1e-8

    def test_reducible(self):
        M = TransitionMatrix(("a", "b"), ((1, 1), (0, 1)))
        assert not is_irreducible(M)

    @pytest.mark.parametrize("tolerance", [Fraction(1, 10**9), Fraction(1, 10**40)])
    def test_fibonacci_exact(self, tolerance):
        # the golden ratio is the positive root of p(x) = x^2 - x - 1
        M = TransitionMatrix(("a", "b"), ((1, 1), (1, 0)))
        mid = pf_eigenvalue(M, tolerance)
        t = tolerance / 2
        p = lambda x: x * x - x - 1  # noqa: E731
        assert isinstance(mid, Fraction)
        assert p(mid - t) < 0 < p(mid + t)

    def test_reducible_raises(self):
        # the bouquet a -> a, b -> b, f -> a -a b -b: f feeds a and b, nothing feeds f
        M = TransitionMatrix(("a", "b", "f"), ((1, 0, 2), (0, 1, 2), (0, 0, 0)))
        assert not is_irreducible(M)
        with pytest.raises(ValueError):
            pf_eigenvalue(M)
        with pytest.raises(ValueError):
            expands(M)

    @pytest.mark.parametrize("rows, grows", [
        (((0,),), False), (((1,),), False), (((2,),), True),
        (((0, 1), (1, 0)), False), (((1, 1), (1, 0)), True), (((0, 2), (1, 0)), True),
    ])
    def test_expands(self, rows, grows):
        assert expands(TransitionMatrix(tuple("abcdef"[:len(rows)]), rows)) is grows

    @pytest.mark.parametrize("tolerance", [0, -1, Fraction(-1, 3)])
    def test_tolerance_must_be_positive(self, tolerance):
        with pytest.raises(ValueError):
            pf_eigenvalue(TransitionMatrix(("a",), ((2,),)), tolerance)

    def test_spread_eigenvector_converges(self):
        # a 24-cycle with one self-loop 3: eigenvector entries span a factor
        # of about 3^23, which a cut to the largest entry's 64 bits cannot resolve
        n = 24
        rows = tuple(tuple(int(j == (i + 1) % n) + 3 * (i == j == 0) for j in range(n))
                     for i in range(n))
        M = TransitionMatrix(tuple(f"e{i}" for i in range(n)), rows)
        mid = pf_eigenvalue(M, Fraction(1, 10**12))
        assert expands(M)
        # lambda is the root above 3 of x^24 - 3 x^23 - 1
        t = Fraction(1, 10**12) / 2
        p = lambda x: x**24 - 3 * x**23 - 1  # noqa: E731
        assert p(mid - t) < 0 < p(mid + t)

    @given(square_matrices().filter(is_irreducible))
    @example(TransitionMatrix(("a", "b", "c"), ((0, 1, 0), (0, 0, 1), (1, 0, 0))))
    @example(TransitionMatrix(("a",), ((0,),)))
    @example(TransitionMatrix(("a",), ((1,),)))
    def test_enclosure_properties(self, M):
        tolerance = Fraction(1, 10**9)
        t = tolerance / 2
        mid = pf_eigenvalue(M, tolerance)
        sums = [sum(r) for r in M.rows]
        assert min(sums) <= mid <= max(sums)
        T = TransitionMatrix(M.labels, tuple(zip(*M.rows)))
        assert abs(mid - pf_eigenvalue(T, tolerance)) < tolerance
        if expands(M):
            assert mid - t > 1  # the whole enclosure lies above 1
        else:
            assert abs(mid - 1) < t or M.rows == ((0,),)

    def test_transpose_same_radius(self):
        M = transition(kn_map(4))
        n = len(M.labels)
        T = TransitionMatrix(M.labels, tuple(tuple(M.rows[j][i] for j in range(n)) for i in range(n)))
        assert abs(pf_eigenvalue(M) - pf_eigenvalue(T)) < 1e-6

    def test_irreducible_is_primitive_after_shift(self):
        """Some power of M + I is strictly positive when M is irreducible."""
        M = transition(kn_map(3))
        n = len(M.labels)
        A = [[M.rows[i][j] + (i == j) for j in range(n)] for i in range(n)]
        B = A
        for _ in range(n):
            B = [[sum(B[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert all(B[i][j] > 0 for i in range(n) for j in range(n))


class TestEfficiency:
    def test_constructed_backtrack(self):
        gm = bouquet({"x": ("x",), "f": ("x", "-x"), "g": ("g",)})
        rep = is_efficient_up_to(gm, 6)
        assert not rep.efficient
        assert rep.witness == (1, "f", 0)

    def test_deferred_backtrack(self):
        # g(f) is fine; g^2(f) = (a, x, -x, b) reverses where the images
        # of a and b meet.
        gm = bouquet({"a": ("a", "x"), "b": ("-x", "b"), "x": ("x",), "f": ("a", "b")})
        rep = is_efficient_up_to(gm, 6)
        assert not rep.efficient
        assert rep.witness == (2, "f", 1)
        word = expand(gm, ("f",), 2)
        assert word[1] == "x" and word[2] == "-x"

    def test_two_backtracks_at_one_level_report_the_least(self):
        # g(f) = (a, -a, b, -b) reverses at 0 and at 2; the least pair wins.
        gm = bouquet({"a": ("a",), "b": ("b",), "f": ("a", "-a", "b", "-b")})
        rep = is_efficient_up_to(gm, 6)
        assert not rep.efficient
        assert rep.witness == (1, "f", 0)

    def test_efficient_map_stabilizes(self):
        gm = bouquet({"a": ("a", "b"), "b": ("a",)})
        rep = is_efficient_up_to(gm, 10)
        assert rep.efficient
        assert rep.stabilized

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        labels = ["a", "b", "c"]
        tokens = labels + ["-" + x for x in labels]
        edge_image = {
            x: tuple(rng.choice(tokens) for _ in range(rng.randint(1, 3)))
            for x in labels
        }
        gm = bouquet(edge_image)
        depth = 5
        rep = is_efficient_up_to(gm, depth)
        brute = not any(
            has_backtrack(expand(gm, (x,), m))
            for x in labels
            for m in range(1, depth + 1)
        )
        assert rep.efficient == brute
        if rep.witness is not None:
            m, edge, pos = rep.witness
            word = expand(gm, (edge,), m)
            assert word[pos].lstrip("-") == word[pos + 1].lstrip("-")
            assert word[pos] != word[pos + 1]


class TestSharedStates:
    """The edges of one scan share the states they walk through; the report
    must be the one the unshared reference scan gives."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_bouquets_match_reference(self, seed):
        rng = random.Random(seed)
        backtracks = 0
        for _ in range(40):
            gm = random_bouquet(rng)
            for bound in range(1, 9):
                rep = is_efficient_up_to(gm, bound)
                assert rep == reference_efficiency(gm, bound)
                backtracks += not rep.efficient
        assert backtracks  # the witness path ran, not only the efficient one

    @pytest.mark.parametrize("seed", range(8))
    def test_random_bouquet_witnesses_are_backtracks(self, seed):
        rng = random.Random(seed)
        witnesses = 0
        for _ in range(40):
            gm = random_bouquet(rng)
            for bound in range(1, 7):
                rep = is_efficient_up_to(gm, bound)
                if rep.witness is None:
                    continue
                m, edge, pos = rep.witness
                word = expand(gm, (edge,), m)
                assert word[pos] == "-" + word[pos + 1] or word[pos + 1] == "-" + word[pos]
                witnesses += 1
        assert witnesses

    @pytest.mark.parametrize("n", range(3, 11))
    def test_family_maps_match_reference(self, n):
        gm = kn_map(n)
        bound = 2 * (2 * n + 2)
        assert is_efficient_up_to(gm, bound) == reference_efficiency(gm, bound)


class TestBuiltinFamily:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            kn_map(2)

    def test_n3_short_images(self):
        gm = kn_map(3)
        assert gm.edge_image["e1"] == ("e5",)
        assert gm.edge_image["e2"] == ("e6",)
        assert gm.edge_image["e4"] == ("e1",)
        assert gm.edge_image["e5"] == ("e2",)
        assert gm.edge_image["e6"] == ("e7",)
        assert gm.edge_image["c1"] == ("c5",)
        assert gm.edge_image["c6"] == ("c3",)

    def test_n3_long_image_shape(self):
        gm = kn_map(3)
        g3 = gm.edge_image["e3"]
        assert g3[0] == "-e7" and g3[-1] == "e4"
        M = transition(gm)
        j = M.labels.index("e3")
        assert all(M.rows[i][j] >= 1 for i in range(len(M.labels)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_certificates(self, n):
        gm = kn_map(n)
        diag = validate(gm)
        assert diag.ok
        M = transition(gm)
        assert is_irreducible(M)
        lam = pf_eigenvalue(M)
        assert lam > 1 + 1e-6
        rep = is_efficient_up_to(gm, 2 * (2 * n + 2))
        assert rep.efficient and rep.stabilized

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_growth_rate_stays_in_band(self, n):
        # the dilatations differ slightly with n but stay near 5.446
        lam = pf_eigenvalue(transition(kn_map(n)))
        assert 5.44 < lam < 5.45

    def test_growth_rate_anchor_n3(self):
        lam = pf_eigenvalue(transition(kn_map(3)), tolerance=1e-10)
        assert abs(lam - 5.4459788828) < 1e-8

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_every_edge_feeds_the_spine(self, n):
        gm = kn_map(n)
        for i in range(1, 2 * n + 3):
            k = steps_to_reach(gm, f"e{i}", f"e{n}", 2 * n + 2)
            assert k is not None and k <= 2 * n


class TestInterchange:
    def test_round_trip(self):
        gm = kn_map(3)
        data = json.loads(json.dumps(map_to_json(gm)))
        back = map_from_json(data)
        assert back.edge_image == gm.edge_image
        assert back.graph.edges == gm.graph.edges
        assert back.vertex_image == gm.vertex_image
        assert validate(back).ok

    def test_vertex_image_recovered_from_walks(self):
        data = map_to_json(kn_map(3))
        del data["vertex_image"]
        back = map_from_json(data)
        assert back.vertex_image == kn_map(3).vertex_image

    def test_inconsistent_endpoints_rejected(self):
        data = map_to_json(kn_map(3))
        del data["vertex_image"]
        data["edge_image"]["e1"] = ["e7"]  # starts at u, not at the image of u
        with pytest.raises(ValueError):
            map_from_json(data)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            map_from_json({"vertices": ["v"]})
