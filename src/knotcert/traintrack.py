"""Graph maps in the Bestvina-Handel style and their certificates: walk
validation, transition matrices, irreducibility, Perron-Frobenius eigenvalue,
and bounded efficiency (absence of back tracks in iterated edge images).
All arithmetic is exact: `expands` reads "dilatation > 1" off the row sums,
and `pf_eigenvalue` brackets the dilatation by rationals.

A graph map carries an embedded graph with a distinguished set of peripheral
circles, a vertex image, and for each edge an image walk written as signed
edge tokens ("e3" forward, "-e3" reversed).  The built-in family kn_map(n)
models the pseudo-Anosov monodromy of the beta family on a graph with 2n
peripheral circles and 2n+2 real edges.

Back-track detection never expands image words.  The set of letters and the
set of adjacent letter pairs of g^m(e) satisfy an exact closed recursion, so
both are propagated as sets; a pair (x, x reversed) at level m is a back
track, and its position inside g^m(e) is recovered afterwards by tracing it
through the scan's own level sets to its least parents, plus a length table,
again without expansion.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "EmbeddedGraph",
    "GraphMap",
    "MapDiagnostics",
    "TransitionMatrix",
    "EfficiencyReport",
    "validate",
    "transition",
    "is_irreducible",
    "pf_eigenvalue",
    "expands",
    "is_efficient_up_to",
    "steps_to_reach",
    "kn_map",
    "map_to_json",
    "map_from_json",
]


def _edge_sort_key(label: str) -> tuple[str, int, str]:
    m = re.fullmatch(r"([^\d]*)(\d+)", label)
    if m:
        return (m.group(1), int(m.group(2)), label)
    return (label, -1, label)


def _parse_token(token: str) -> tuple[str, bool]:
    """Split a signed token into (edge id, reversed flag)."""
    if token.startswith("-"):
        return token[1:], True
    return token, False


@dataclass(frozen=True)
class EmbeddedGraph:
    """Finite graph with ordered edges (tail, head) and a peripheral subset."""

    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, str]]
    peripheral: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "peripheral", frozenset(self.peripheral))

    def valence(self, v: str) -> int:
        return sum((tail == v) + (head == v) for tail, head in self.edges.values())


@dataclass(frozen=True)
class GraphMap:
    graph: EmbeddedGraph
    vertex_image: Mapping[str, str]
    edge_image: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_image", MappingProxyType(dict(self.vertex_image)))
        object.__setattr__(
            self,
            "edge_image",
            MappingProxyType({e: tuple(w) for e, w in self.edge_image.items()}),
        )


@dataclass(frozen=True)
class MapDiagnostics:
    ok: bool
    issues: tuple[str, ...]
    pre_peripheral: frozenset[str]
    real: tuple[str, ...]


@dataclass(frozen=True)
class TransitionMatrix:
    """rows[i][j] = multiplicity (orientation-blind) of edge labels[i] in the
    image walk of edge labels[j]."""

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("transition matrix must be square over its labels")


@dataclass(frozen=True)
class EfficiencyReport:
    """witness = (m, edge, position): g^m(edge) reverses at that position.
    stabilized=True means the letter and pair sets reached a fixed point with
    no back track, which certifies efficiency at every order, not only up to
    the requested bound."""

    efficient: bool
    bound: int
    witness: tuple[int, str, int] | None
    stabilized: bool


def _token_endpoints(graph: EmbeddedGraph, token: str) -> tuple[str, str]:
    edge, reverse = _parse_token(token)
    tail, head = graph.edges[edge]
    return (head, tail) if reverse else (tail, head)


def validate(gm: GraphMap) -> MapDiagnostics:
    """Structural diagnostics: graph valences, peripheral circles, walk
    composability and endpoints, set-wise peripheral preservation, and the
    pre-peripheral fixed point yielding the real edge set."""
    g = gm.graph
    issues: list[str] = []

    for tail, head in g.edges.values():
        if tail not in g.vertices or head not in g.vertices:
            issues.append(f"edge endpoints missing from vertex set: ({tail}, {head})")
    for v in g.vertices:
        if g.valence(v) < 3:
            issues.append(f"vertex {v} has valence {g.valence(v)} < 3")
    unknown = g.peripheral - set(g.edges)
    if unknown:
        issues.append(f"peripheral ids missing from edge set: {sorted(unknown)}")

    # peripheral subgraph must be 2-regular, hence a disjoint union of cycles
    peripheral_valence = Counter(v for p in g.peripheral & set(g.edges) for v in g.edges[p])
    for v, k in sorted(peripheral_valence.items()):
        if k != 2:
            issues.append(f"peripheral edges do not form disjoint cycles at {v}")

    for v in g.vertices:
        if gm.vertex_image.get(v) not in g.vertices:
            issues.append(f"vertex {v} has no image in the vertex set")
    for e in g.edges:
        if e not in gm.edge_image:
            issues.append(f"edge {e} has no image walk")

    for e, walk in gm.edge_image.items():
        if e not in g.edges:
            issues.append(f"image given for unknown edge {e}")
            continue
        if not walk:
            issues.append(f"edge {e} has an empty image walk")
            continue
        bad = [t for t in walk if _parse_token(t)[0] not in g.edges]
        if bad:
            issues.append(f"edge {e} image uses unknown tokens {bad}")
            continue
        pos = _token_endpoints(g, walk[0])[0]
        for token in walk:
            start, end = _token_endpoints(g, token)
            if start != pos:
                issues.append(f"edge {e} image walk breaks at token {token}")
                break
            pos = end
        else:
            tail, head = g.edges[e]
            want = (gm.vertex_image.get(tail), gm.vertex_image.get(head))
            got = (_token_endpoints(g, walk[0])[0], pos)
            if want != got:
                issues.append(f"edge {e} image runs {got}, expected {want}")

    # set-wise preservation of the circles, and surjectivity onto them
    hit: set[str] = set()
    for p in g.peripheral:
        walk = gm.edge_image.get(p, ())
        letters = {_parse_token(t)[0] for t in walk}
        if not letters <= g.peripheral:
            issues.append(f"peripheral edge {p} maps across non-peripheral edges")
        hit |= letters & g.peripheral
    if hit != g.peripheral:
        issues.append(f"peripheral set not covered: {sorted(g.peripheral - hit)}")

    # pre-peripheral edges: everything that eventually maps into the circles
    absorbed = set(g.peripheral)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e in absorbed:
                continue
            letters = {_parse_token(t)[0] for t in gm.edge_image.get(e, ())}
            if letters and letters <= absorbed:
                absorbed.add(e)
                changed = True
    pre = frozenset(absorbed - g.peripheral)
    real = tuple(sorted(set(g.edges) - absorbed, key=_edge_sort_key))
    return MapDiagnostics(ok=not issues, issues=tuple(issues), pre_peripheral=pre, real=real)


def transition(gm: GraphMap) -> TransitionMatrix:
    """Multiplicity matrix over the real edges.  The map must pass validation."""
    diag = validate(gm)
    if not diag.ok:
        raise ValueError("map failed validation: " + "; ".join(diag.issues))
    labels = diag.real
    index = {label: i for i, label in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for j, label in enumerate(labels):
        for token in gm.edge_image[label]:
            edge, _ = _parse_token(token)
            i = index.get(edge)
            if i is not None:
                rows[i][j] += 1
    return TransitionMatrix(labels=labels, rows=tuple(tuple(r) for r in rows))


def is_irreducible(M: TransitionMatrix) -> bool:
    """True iff the digraph of nonzero entries is strongly connected."""
    n = len(M.labels)
    if n == 0:
        raise ValueError("empty matrix")

    def reaches_all(adjacency) -> bool:
        seen, stack = {0}, [0]
        while stack:
            row = adjacency[stack.pop()]
            new = [j for j in range(n) if row[j] and j not in seen]
            seen.update(new)
            stack += new
        return len(seen) == n

    return reaches_all(M.rows) and reaches_all(tuple(zip(*M.rows)))


_PF_MAX_ITERATIONS = 500_000


def pf_eigenvalue(M: TransitionMatrix, tolerance: Real = Fraction(1, 10**9)) -> Fraction:
    """Perron-Frobenius eigenvalue of an irreducible M, within tolerance/2:
    the midpoint of the exact Collatz-Wielandt enclosure
    min_i (Mx)_i / x_i <= lambda(M) <= max_i (Mx)_i / x_i, true for every
    positive x, once it is narrower than tolerance (read exactly).

    x runs through the power iterates of M + I on ints (the shift makes M
    primitive, so the enclosure narrows), cut until the least entry has 64
    bits, or 32 more than tolerance needs, however spread the eigenvector
    is.  A reducible M raises ValueError."""
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not is_irreducible(M):
        raise ValueError("matrix is reducible")
    bits = max(64, tolerance.denominator.bit_length() - tolerance.numerator.bit_length() + 32)
    x = [1] * len(M.rows)
    for _ in range(_PF_MAX_ITERATIONS):
        y = [sum(a * b for a, b in zip(row, x)) for row in M.rows]
        lo = hi = 0
        for i in range(1, len(x)):
            if y[i] * x[lo] < y[lo] * x[i]:
                lo = i
            elif y[i] * x[hi] > y[hi] * x[i]:
                hi = i
        low, high = Fraction(y[lo], x[lo]), Fraction(y[hi], x[hi])
        if high - low < tolerance:
            return (low + high) / 2
        y = [a + b for a, b in zip(x, y)]
        shift = max(0, min(y).bit_length() - bits)
        x = [v >> shift for v in y]
    raise RuntimeError(f"power iteration did not converge in {_PF_MAX_ITERATIONS} steps")


def expands(M: TransitionMatrix) -> bool:
    """Whether the irreducible M has Perron-Frobenius eigenvalue above 1: it
    lies between the least and greatest row sums, and it is 1 exactly when M
    is a permutation matrix (Lind-Marcus, 1995), so exactly when no row sum
    exceeds 1.  A reducible M raises ValueError."""
    if not is_irreducible(M):
        raise ValueError("matrix is reducible")
    return any(sum(row) > 1 for row in M.rows)


def _signed_images(gm: GraphMap) -> tuple[dict[str, int], list[str], dict[int, tuple[int, ...]]]:
    """Integer encoding: edge label -> positive id, plus signed image words."""
    order = sorted(gm.graph.edges, key=_edge_sort_key)
    code = {label: k + 1 for k, label in enumerate(order)}
    images: dict[int, tuple[int, ...]] = {}
    for label, walk in gm.edge_image.items():
        word = []
        for token in walk:
            edge, reverse = _parse_token(token)
            word.append(-code[edge] if reverse else code[edge])
        images[code[label]] = tuple(word)
    return code, order, images


def _image_of(images: dict[int, tuple[int, ...]], x: int) -> tuple[int, ...]:
    if x > 0:
        return images[x]
    return tuple(-t for t in reversed(images[-x]))


def is_efficient_up_to(gm: GraphMap, bound: int) -> EfficiencyReport:
    """Scan g^m(e) for every edge e and every m = 1..bound for a back track,
    an adjacent pair (x, x reversed).

    Letter sets and adjacent-pair sets of the iterated images obey

        L_{m+1}(e) = union of letters(g(x)) for x in L_m(e)
        A_{m+1}(e) = union of within-pairs(g(x)) for x in L_m(e)
                     plus {(last(g(x)), first(g(y))) : (x, y) in A_m(e)}

    so the search runs over sets of bounded size.  The pair (L_m, A_m)
    evolves deterministically, so revisiting an earlier state without having
    met a back track proves the map never develops one at any order; the
    report flags that as stabilized.

    The edges of one call walk into the same few states, so the call keeps
    one successor table that all its edges share; each edge still keeps its
    own states in level order.  The table lives only as long as the call.
    A step reports the least back-track pair, so its result depends only on
    the state and the shared table is exact for witnesses too.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    diag = validate(gm)
    if not diag.ok:
        raise ValueError("map failed validation: " + "; ".join(diag.issues))
    _, order, images = _signed_images(gm)

    letters_of, within_of, first_of, last_of = {}, {}, {}, {}
    for label_id in images:
        for x in (label_id, -label_id):
            w = _image_of(images, x)
            letters_of[x] = frozenset(w)
            within_of[x] = frozenset(zip(w, w[1:]))
            first_of[x], last_of[x] = w[0], w[-1]

    def advance(state):
        """(L_{m+1}, A_{m+1}) and the least back track in A_{m+1}."""
        L, A = state
        newL = frozenset().union(*(letters_of[x] for x in L))
        junction = {(last_of[x], first_of[y]) for (x, y) in A}
        newA = frozenset().union(*(within_of[x] for x in L), junction)
        return (newL, newA), min((p for p in newA if p[0] == -p[1]), default=None)

    successor: dict[tuple, tuple] = {}
    stabilized_all = True
    for e_id in sorted(images):
        state = (frozenset((e_id,)), frozenset())
        seen = {state: None}  # insertion-ordered: the states of levels 0..m-1
        for m in range(1, bound + 1):
            step = successor.get(state)
            if step is None:
                step = successor[state] = advance(state)
            state, bad = step
            if bad is not None:
                position = _witness_position(images, e_id, bad, list(seen), first_of, last_of)
                return EfficiencyReport(False, bound, (m, order[e_id - 1], position), False)
            if state in seen:
                break
            seen[state] = None
        else:
            stabilized_all = False
    return EfficiencyReport(True, bound, None, stabilized_all)


def _witness_position(images: dict[int, tuple[int, ...]], e_id: int, bad: tuple[int, int],
                      states: list[tuple[frozenset, frozenset]], first_of: dict[int, int],
                      last_of: dict[int, int]) -> int:
    """Exact offset of the back track ``bad`` inside g^m(e), m = len(states),
    without expanding it.

    ``states`` are the scan's (L_k, A_k) for k = 0..m-1.  Walking down from
    level m, the traced run (the back-track pair, later one letter) goes to
    its least parent one level below: the least letter whose image holds the
    run, otherwise the least junction pair that makes it.  Each step adds
    |g^r(t)| for the letters t before the run in that image, r being the
    levels walked so far.
    """
    position = 0
    length = dict.fromkeys(images, 1)  # |g^r(x)| for x > 0
    run = bad  # the back track, then the one letter of g^k(e) holding it
    for L, A in reversed(states):
        for x in sorted(L):
            w = _image_of(images, x)
            offset = next((i for i in range(len(w)) if w[i:i + len(run)] == run), None)
            if offset is not None:
                run = (x,)
                break
        else:
            prev = min((q for q in A if (last_of[q[0]], first_of[q[1]]) == run), default=None)
            if prev is None:
                raise AssertionError(f"no parent found for {run} in the states of edge {e_id}")
            run = prev
            w = _image_of(images, run[0])
            offset = len(w) - 1
        position += sum(length[abs(t)] for t in w[:offset])
        length = {y: sum(length[abs(t)] for t in images[y]) for y in images}
    if run != (e_id,):
        raise AssertionError(f"witness path ends at {run}, not at edge {e_id}")
    return position


def steps_to_reach(gm: GraphMap, source: str, target: str, bound: int) -> int | None:
    """Smallest k <= bound with the target edge appearing (either orientation)
    in g^k(source); None if the bound is exhausted first."""
    code, _, images = _signed_images(gm)
    want = code[target]
    current = {code[source]}
    for k in range(1, bound + 1):
        current = {abs(t) for x in current for t in _image_of(images, x)}
        if want in current:
            return k
    return None


# ---------------------------------------------------------------------------
# the built-in family


def kn_map(n: int) -> GraphMap:
    """Graph map carrying the pseudo-Anosov monodromy data for the braid
    beta_n, n >= 3: two hub vertices u, w, boundary vertices b_1..b_2n with
    peripheral circles c_1..c_2n, and real edges e_1..e_{2n+2}.

    Short images: g(e_i) = e_{n+1+i} for i <= n-2, g(e_{n-1}) = e_{2n},
    g(e_{n+i}) = e_i for i <= n-1, g(e_{2n}) = e_{2n+1}, g(c_j) = c_{tau(j)}.
    The three long images (e_n, e_{2n+1}, e_{2n+2}) interleave real edges
    with the peripheral circle at each visited boundary vertex; their letter
    sequences are produced here and nowhere else, so a corrected reading of
    the underlying train-track figure means editing this function only.
    """
    if n < 3:
        raise ValueError("the built-in family needs n >= 3")

    def E(i: int) -> str:
        return f"e{i}"

    def C(j: int) -> str:
        return f"c{j}"

    def rev(t: str) -> str:
        return t[1:] if t.startswith("-") else "-" + t

    vertices = ["u", "w"] + [f"b{j}" for j in range(1, 2 * n + 1)]
    edges: dict[str, tuple[str, str]] = {}
    for i in range(1, n):
        edges[E(i)] = ("u", f"b{i}")
    for i in range(1, n + 1):
        edges[E(n + i)] = ("w", f"b{n + i}")
    edges[E(n)] = (f"b{2 * n}", f"b{n}")
    edges[E(2 * n + 1)] = ("u", f"b{n}")
    edges[E(2 * n + 2)] = (f"b{n - 1}", f"b{n - 1}")
    for j in range(1, 2 * n + 1):
        edges[C(j)] = (f"b{j}", f"b{j}")
    peripheral = frozenset(C(j) for j in range(1, 2 * n + 1))

    def tau(j: int) -> int:
        if j <= n - 2:
            return n + 1 + j
        if j == n - 1:
            return 2 * n
        if j == n:
            return n + 1
        if j < 2 * n:
            return j - n
        return n

    vertex_image = {"u": "w", "w": "u"}
    for j in range(1, 2 * n + 1):
        vertex_image[f"b{j}"] = f"b{tau(j)}"

    edge_image: dict[str, tuple[str, ...]] = {}
    for i in range(1, n - 1):
        edge_image[E(i)] = (E(n + 1 + i),)
    edge_image[E(n - 1)] = (E(2 * n),)
    for i in range(1, n):
        edge_image[E(n + i)] = (E(i),)
    edge_image[E(2 * n)] = (E(2 * n + 1),)
    for j in range(1, 2 * n + 1):
        edge_image[C(j)] = (C(tau(j)),)

    # round trip u -> b_j -> u (resp. w -> b_j -> w) hugging the circle there
    def visit(j: int) -> list[str]:
        return [E(j), C(j), rev(E(j))]

    spiral = [rev(E(2 * n + 1)), E(n - 1), C(n - 1), E(2 * n + 2), C(n - 1), rev(E(n - 1))]
    word = list(spiral)
    for j in range(n - 2, 0, -1):
        word += visit(j)
    word += [E(2 * n + 1), C(n), rev(E(n)), C(2 * n), rev(E(2 * n))]
    for j in range(2 * n - 1, n + 1, -1):
        word += visit(j)
    word += [E(2 * n), C(2 * n), rev(E(2 * n)), E(n + 1)]
    edge_image[E(n)] = tuple(word)

    word = visit(n + 1)
    for j in range(n + 2, 2 * n):
        word += visit(j)
    word += [E(2 * n), C(2 * n), E(n), C(n)]
    word += spiral
    word += [E(2 * n + 1), C(n), rev(E(n)), C(2 * n), rev(E(2 * n)), E(n + 1)]
    edge_image[E(2 * n + 1)] = tuple(word)

    word = [E(n), C(n), rev(E(n)), C(2 * n), E(n), C(n)]
    word += spiral
    word += [E(2 * n + 1), C(n), rev(E(n))]
    edge_image[E(2 * n + 2)] = tuple(word)

    gm = GraphMap(
        graph=EmbeddedGraph(tuple(vertices), edges, peripheral),
        vertex_image=vertex_image,
        edge_image=edge_image,
    )
    diag = validate(gm)
    if not diag.ok:
        raise AssertionError("built-in map failed validation: " + "; ".join(diag.issues))
    return gm


# ---------------------------------------------------------------------------
# interchange format


def map_to_json(gm: GraphMap) -> dict:
    return {
        "vertices": sorted(gm.graph.vertices),
        "edges": {e: list(gm.graph.edges[e]) for e in sorted(gm.graph.edges, key=_edge_sort_key)},
        "peripheral": sorted(gm.graph.peripheral, key=_edge_sort_key),
        "vertex_image": {v: gm.vertex_image[v] for v in sorted(gm.vertex_image)},
        "edge_image": {
            e: list(gm.edge_image[e]) for e in sorted(gm.edge_image, key=_edge_sort_key)
        },
    }


def map_from_json(data: Mapping) -> GraphMap:
    try:
        vertices = tuple(data["vertices"])
        edges = {e: (tail, head) for e, (tail, head) in data["edges"].items()}
        peripheral = frozenset(data.get("peripheral", ()))
        edge_image = {e: tuple(w) for e, w in data["edge_image"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph-map object: {exc}") from exc
    graph = EmbeddedGraph(vertices, edges, peripheral)
    vertex_image = dict(data.get("vertex_image") or {})
    if not vertex_image:
        # recover vertex images from walk endpoints
        for e, (tail, head) in edges.items():
            walk = edge_image.get(e)
            if not walk:
                continue
            start = _token_endpoints(graph, walk[0])[0]
            end = _token_endpoints(graph, walk[-1])[1]
            for v, img in ((tail, start), (head, end)):
                if vertex_image.setdefault(v, img) != img:
                    raise ValueError(f"inconsistent walk endpoints at vertex {v}")
    return GraphMap(graph=graph, vertex_image=vertex_image, edge_image=edge_image)
