"""HOMFLY polynomials of closed braids, by two independent engines.

Conventions.  P(v, z) obeys the skein relation

    v^-1 P(L+) - v P(L-) = z P(L0),    P(unknot) = 1,

so the c-component unlink has P = delta^(c-1) with delta = (v^-1 - v) z^-1.
Every coefficient is an exact integer; polynomials are returned as
:class:`~knotcert.poly.LaurentPoly2` in (v, z).

Engines:

* Hecke trace (Morton-Short style).  The braid group maps into the Hecke
  algebra by sigma_k -> v T_k with T_k^2 = z T_k + 1; the closure value is a
  Markov trace evaluated by strand-by-strand reduction over the permutation
  basis, each coefficient packed into one integer.  Polynomial cost in word
  length at fixed strand count; this is the primary engine.
* Descending-walk skein resolver.  Walks the closure once per component and
  forces every crossing to be crossed over on first visit, branching into a
  smoothed word at each violation; descending diagrams are unlinks.  One
  resolver runs under two rule rows: the HOMFLY row is an independent
  oracle, the p0 row the fast path of :func:`p0`.  Both rows work on Laurent
  dicts with int keys; the HOMFLY row packs v^a z^b into one key.

The Alexander polynomial of a knot comes from a third engine, the unreduced
Burau matrix, at any strand count; :func:`_alexander_of` still reads it from
a HOMFLY polynomial that a caller already holds.

The zeroth coefficient polynomial p^0 is the i = 0 entry of the expansion
P = (v^-1 z)^(1 - c) * sum_i p^i(v) z^(2i).  Its dedicated skein rules need
the crossing type: a self-crossing (both strands on one component) smooths
with a branch, a mixed crossing only rescales:

    self:   p0(L+) = v^2 p0(L-) + v^2 p0(L0),   p0(L-) = v^-2 p0(L+) - p0(L0)
    mixed:  p0(L+) = v^2 p0(L-)

Mixed crossings never branch, so p0 of a c-component link with knots K_i is
v^(sum of the mixed crossings' signs) (v^-2 - 1)^(c-1) prod_i p0(K_i)
(Lickorish-Millett), and the p0 walk runs on knots only.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .braid import BraidWord, braid_text, closure_stats
from .errors import BudgetExceededError
from .poly import LaurentPoly1, LaurentPoly2, _add_into, _horner, _mul1, _pow1

__all__ = [
    "HECKE_MAX_STRANDS",
    "CoefficientDecomposition",
    "homfly",
    "hecke_homfly",
    "skein_homfly",
    "coefficient_polys",
    "p0",
    "alexander",
    "determinant",
    "canonical_key",
    "PolynomialCache",
]

HECKE_MAX_STRANDS = 8  # the Hecke engine's default strand cap


# --------------------------------------------------------------------------
# Hecke trace engine
#
# Coefficients are packed into one Python int each (Kronecker substitution;
# D. Harvey, J. Symbolic Comput. 44, 2009), so sums and monomial shifts run
# as C-level int adds and shifts.  Every letter contributes its v^+-1 to one
# global factor v^writhe, so the multiply phase works in Z[z] with z^j at bit
# B*j.  The close phase factors g = v^-1 z^-1 out of every level and packs
# z^j (v^2)^i at slot j + Z*i, so every shift is nonnegative.
#
# Widths.  Each step maps a term to at most two terms with coefficient +-1,
# so the l1 mass of the whole state at most doubles: once per letter, once
# per level whose top strand is fixed (times 1 - v^2), and once per T
# product, of which level m needs at most m - 2.  Every coefficient of every
# basis word is therefore at most 2^(B - 2) in absolute value, a balanced
# base-2^B digit.  The z-degree grows by at most one per letter and by at
# most m - 1 at level m, so it stays below Z.  Packing is then injective on
# every intermediate value, and a packed zero is a zero polynomial.


def _hecke_mul_T(state: dict, k: int, zshift: int, inverse: bool = False) -> dict:
    """Right-multiply every basis term by T_k, or by T_k^-1 = T_k - z.

    Basis words are one-line permutation tuples; T_w T_k = T_{w s_k} on an
    ascent at k and z T_w + T_{w s_k} on a descent, so T_w T_k^-1 is
    T_{w s_k} - z T_w on an ascent and T_{w s_k} on a descent.  Multiplying
    a packed coefficient by z is a left shift by ``zshift`` bits.
    """
    i = k - 1
    nxt: dict = {}
    get = nxt.get
    for w, p in state.items():
        a, b = w[i], w[i + 1]
        ws = w[:i] + (b, a) + w[i + 2:]
        nxt[ws] = get(ws, 0) + p
        if inverse:
            if a < b:
                nxt[w] = get(w, 0) - (p << zshift)
        elif a > b:
            nxt[w] = get(w, 0) + (p << zshift)
    return {w: p for w, p in nxt.items() if p}


def _markov_close(state: dict, strands: int, bits: int, zslots: int) -> int:
    """Evaluate the Markov trace by closing strands from the top down.

    A basis word fixing the top strand restricts with a free-loop factor
    delta = g (1 - v^2); otherwise deleting the top value costs
    v^-1 = g z and leaves a product T_u T_{m-2} ... T_p to re-expand in the
    basis one strand lower.  Returns the packed value with g^(strands - 1)
    factored out.  Words whose top value sits at position p share the
    product, so they are expanded together.
    """
    vshift = bits * zslots
    for m in range(strands, 1, -1):
        nxt: dict = {}
        by_pos: dict[int, dict] = {}
        for w, p in state.items():
            pos = w.index(m) + 1
            u = w[:pos - 1] + w[pos:]
            if pos == m:
                nxt[u] = nxt.get(u, 0) + p - (p << vshift)
            else:
                by_pos.setdefault(pos, {})[u] = p
        for pos, tmp in by_pos.items():
            for k in range(m - 2, pos - 1, -1):
                tmp = _hecke_mul_T(tmp, k, bits)
            for u, p in tmp.items():
                nxt[u] = nxt.get(u, 0) + (p << bits)  # v^-1 = g z, applied last
        state = {w: p for w, p in nxt.items() if p}
    return state.get((1,), 0)


def _unpack(packed: int, bits: int):
    """Balanced base-2^bits digits of ``packed``: (slot, nonzero digit).
    Needs bits >= 2: the digits {-1, 0} of bits = 1 write no positive value."""
    if bits < 2:
        raise ValueError(f"balanced digits need at least 2 bits, got {bits}")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    slot = 0
    while packed:
        d = packed & mask
        if d >= half:
            d -= 1 << bits
        if d:
            yield slot, d
        packed = (packed - d) >> bits
        slot += 1


# --------------------------------------------------------------------------
# Burau engine for the Alexander polynomial
#
# The unreduced Burau matrix psi sends sigma_i to [[1 - t, t], [1, 0]] on
# rows and columns i, i + 1; t psi(sigma_i^-1) is [[0, t], [1, t - 1]] there
# and t on the rest of the diagonal.  With s negative letters t^s psi(beta)
# is a polynomial matrix, and the minor of t^s I - t^s psi(beta) without its
# last row and column is Delta(t) up to a unit +-t^k (J. Birman, Braids,
# Links, and Mapping Class Groups, 1974, ch. 3; C. Kassel and V. Turaev,
# Braid Groups, 2008, ch. 3).  Right multiplication touches two columns, so
# the matrix is built column by column, each entry packed at t = 2^B as in
# the Hecke engine, and the minor is taken by fraction-free Bareiss
# elimination: every division is exact in Z[t], hence in the packed ints.
#
# Width.  Each coefficient of a minor is at most the product of its rows' l1
# norms.  Replacing t by 1 and taking absolute values gives a majorant of
# every entry's l1 norm: sigma_i maps its columns (a, c) to (2a + c, a) and
# t sigma_i^-1 to (c, a + 2c).  A row of the minor then has norm at most
# 1 (for t^s) plus its majorant sum, and with P the product of those norms
# every coefficient of every minor Bareiss meets has absolute value at most
# P < 2^bit_length(P).  That is a balanced base-2^B digit for
# B = bit_length(P) + 1, so unpacking is exact and a nonzero pivot packs to
# a nonzero int.


def _burau_width(b: BraidWord) -> int:
    """The proven width B for the Burau minor of ``b``, see the note above."""
    n = b.strands
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for x in b.letters:
        i = abs(x) - 1
        a, c = cols[i], cols[i + 1]
        if x > 0:
            cols[i], cols[i + 1] = [2 * p + q for p, q in zip(a, c)], a
        else:
            cols[i], cols[i + 1] = c, [p + 2 * q for p, q in zip(a, c)]
    bound = 1
    for r in range(n - 1):
        bound *= 1 + sum(col[r] for col in cols[:-1])
    return bound.bit_length() + 1


def _burau_alexander(b: BraidWord) -> LaurentPoly1:
    """Alexander polynomial of a knot closure from its Burau minor, shifted to
    be symmetric and signed to have value 1 at 1.  Raises unless the minor
    has value +-1 at t = 1 and is symmetric up to a power of t, as the unit
    identity guards HOMFLY results."""
    bits = _burau_width(b)
    n = b.strands
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for x in b.letters:
        i = abs(x) - 1
        a, c = cols[i], cols[i + 1]
        if x > 0:
            cols[i] = [p - (p << bits) + q for p, q in zip(a, c)]
            cols[i + 1] = [p << bits for p in a]
        else:  # t sigma_i^-1: every other column is multiplied by t too
            cols = [[p << bits for p in col] for col in cols]
            cols[i], cols[i + 1] = c, [((p + q) << bits) - q for p, q in zip(a, c)]
    ts = 1 << (bits * sum(x < 0 for x in b.letters))  # t^s
    rows = [[(ts if r == c else 0) - cols[c][r] for c in range(n - 1)] for r in range(n - 1)]
    prev = 1
    while rows:  # Bareiss: the last pivot is the minor, up to the sign of row moves
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:  # a zero minor, which the value check below rejects
            prev = 0
            break
        top = rows.pop(k)
        rows = [[(x * top[0] - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
                for row in rows]
        prev = top[0]
    digits = dict(_unpack(prev, bits))
    value = sum(digits.values())
    if value not in (1, -1):
        raise ArithmeticError(f"Burau minor has value {value} at t = 1, not +-1; engine fault")
    mid, odd = divmod(min(digits) + max(digits), 2)
    a = LaurentPoly1("t", {e - mid: value * c for e, c in digits.items()})
    if odd or any(a.coeff(-e) != c for e, c in a.terms.items()):
        raise ArithmeticError("Burau minor is not symmetric up to a power of t; engine fault")
    return a


def _check_unit_identity(P: LaurentPoly2, components: int) -> None:
    """Raise unless z^(c-1) P(v, v^-1 - v) = (v^-1 - v)^(c-1).

    For a knot this says P(v, v^-1 - v) = 1; it holds for every link in this
    sign convention.  A cheap exact check on every engine result and cache
    record, so a packing fault that breaks it raises instead of returning a
    value.
    """
    s = {-1: 1, 1: -1}  # v^-1 - v
    rows: dict[int, dict] = {}
    for (a, j), c in P.terms.items():
        if j < 1 - components:
            raise ArithmeticError(f"HOMFLY term z^{j} below z^{1 - components}; engine fault")
        rows.setdefault(j + components - 1, {})[a] = c
    if _horner(rows, s) != _pow1(s, components - 1):
        raise ArithmeticError("HOMFLY polynomial fails P(v, v^-1 - v) = 1; engine fault")


def _check_p0_identity(p: LaurentPoly1, components: int) -> None:
    """Raise unless f = p0(v) v^(c-1) - (v^-1 - v)^(c-1) has double roots at
    v = 1 and v = -1.

    z^(c-1) P(v, v^-1 - v) = (v^-1 - v)^(c-1), and every p^i with i >= 1
    enters it times (v^-1 - v)^(2i), which vanishes to second order at +-1.
    The check is four exact integer sums, f(1), f'(1), f(-1) and f'(-1) up to
    sign, with (-1)^e taken from the parity of e.
    """
    f = {e + components - 1: c for e, c in p.terms.items()}
    _add_into(f, _pow1({-1: 1, 1: -1}, components - 1), scale=-1)
    at_minus = {e: -c if e & 1 else c for e, c in f.items()}
    if (sum(f.values()) or sum(e * c for e, c in f.items())
            or sum(at_minus.values()) or sum(e * c for e, c in at_minus.items())):
        raise ArithmeticError("p0 fails its identity at v = +-1; engine fault")


def _check_hecke_cap(strands: int, max_strands: int) -> None:
    if strands > max_strands:
        raise BudgetExceededError(
            f"{strands} strands exceeds the Hecke budget of {max_strands}"
        )


def hecke_homfly(b: BraidWord, *, max_strands: int = HECKE_MAX_STRANDS) -> LaurentPoly2:
    """HOMFLY polynomial of the closure via the Hecke-algebra Markov trace."""
    _check_hecke_cap(b.strands, max_strands)
    n, letters = b.strands, len(b.letters)
    # proven widths B and Z, see the note above _hecke_mul_T
    bits = letters + sum(max(1, m - 2) for m in range(2, n + 1)) + 2
    zslots = letters + n * (n - 1) // 2 + 1
    state = {tuple(range(1, n + 1)): 1}
    for letter in b.letters:
        state = _hecke_mul_T(state, abs(letter), bits, letter < 0)
    packed = _markov_close(state, n, bits, zslots)
    v0 = b.exponent_sum - (n - 1)
    terms = {
        (v0 + 2 * (slot // zslots), slot % zslots - (n - 1)): c
        for slot, c in _unpack(packed, bits)
    }
    P = LaurentPoly2(("v", "z"), terms)
    _check_unit_identity(P, closure_stats(b).components)
    return P


# --------------------------------------------------------------------------
# descending-walk skein resolver: one walk, one rule row per ring


class _Budget:
    """Walked-node budget of one resolver call; ``walk`` names the rule row
    ("p0" or "skein") in the exhaustion message."""

    __slots__ = ("limit", "spent", "walk")

    def __init__(self, nodes: int, walk: str) -> None:
        self.limit = nodes
        self.spent = 0
        self.walk = walk

    def spend(self) -> None:
        if self.spent >= self.limit:
            raise BudgetExceededError(f"{self.walk} node budget exhausted", spent=self.spent)
        self.spent += 1


def _canonical_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation of a cyclic word."""
    return min((letters[k:] + letters[:k] for k in range(len(letters))), default=letters)


def _simplify(word: tuple[int, ...], strands: int) -> tuple[tuple[int, ...], int]:
    """Closure-preserving reductions: free and cyclic cancellation plus
    destabilization of a generator that occurs exactly once at either end of
    the strand range.  The stack loop runs only when a C-level scan finds an
    adjacent or end-to-end inverse pair."""
    w = list(word)
    while True:
        if w and (w[0] == -w[-1] or any(map(operator.eq, w[1:], map(operator.neg, w)))):
            out: list[int] = []
            for x in w:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
            while len(out) >= 2 and out[0] == -out[-1]:
                out = out[1:-1]
            w = out
        if strands < 2:
            break
        top = strands - 1
        n_top = w.count(top)
        if n_top + w.count(-top) == 1:
            del w[w.index(top if n_top else -top)]
            strands -= 1
            continue
        n_low = w.count(1)
        if n_low + w.count(-1) == 1:
            del w[w.index(1 if n_low else -1)]
            w = [x - 1 if x > 0 else x + 1 for x in w]
            strands -= 1
            continue
        break
    return tuple(w), strands


def _find_split(word: tuple[int, ...], strands: int) -> int | None:
    used = set(map(abs, word))
    for k in range(1, strands):
        if k not in used:
            return k
    return None


def _split_words(word, strands, k):
    left = tuple(x for x in word if abs(x) < k)
    right = tuple((abs(x) - k) * (1 if x > 0 else -1) for x in word if abs(x) > k)
    return (left, k), (right, strands - k)


def _walk_passes(word: tuple[int, ...], strands: int):
    """Traversal of the closure in one left-to-right sweep.

    Strands are named by their start position; ``at`` holds the strand at
    each position.  Returns the crossing passes (letter index, enters-left)
    per component, components ordered by smallest start position; for each
    letter its (left, right) strands; each strand's component label 1..c;
    and the component count c.
    """
    at = list(range(strands))
    runs: list[list[tuple[int, bool]]] = [[] for _ in range(strands)]
    pairs: list[tuple[int, int]] = []
    for t, letter in enumerate(word):
        k = abs(letter)
        left, right = at[k - 1], at[k]
        runs[left].append((t, True))
        runs[right].append((t, False))
        pairs.append((left, right))
        at[k - 1], at[k] = right, left
    exit_of = [0] * strands
    for q, s in enumerate(at):
        exit_of[s] = q
    comp = [0] * strands
    ncomps = 0
    passes: list[tuple[int, bool]] = []
    for start in range(strands):
        if comp[start]:
            continue
        ncomps += 1
        s = start
        while not comp[s]:
            comp[s] = ncomps
            passes += runs[s]
            s = exit_of[s]
    return passes, pairs, comp, ncomps


# The HOMFLY row packs v^a z^b into the int key a + _ZKEY*b, so a monomial
# product is a key sum; injective while |a| < 2^31.  A node value is the
# HOMFLY polynomial of a braid closure with at most L letters on n strands,
# so |a| <= L + n - 1 (Morton-Franks-Williams); the running shift (at most
# 2L) and a smoothing term keep every intermediate value at |a| <= 3L + n - 1.
_ZKEY = 1 << 32

# rule rows: (unlink/split factor, positive smoothing term (shift, sign),
# negative smoothing term (shift, sign), whether a mixed crossing branches);
# p0: v^-2 - 1, v^2, -1, no; HOMFLY: delta = (v^-1 - v) z^-1, v z, -v^-1 z, yes.
# Where mixed crossings do not branch, a link is factored into its knots
# before any walk, so the p0 row walks knots only.
_P0_RULES = ({-2: 1, 0: -1}, (2, 1), (0, -1), False)
_HOMFLY_RULES = ({-1 - _ZKEY: 1, 1 - _ZKEY: -1}, (1 + _ZKEY, 1), (_ZKEY - 1, -1), True)


def _with_powers(rules: tuple, strands: int) -> tuple:
    """The rule row for one call on ``strands`` strands, its split factor
    replaced by the list of the factor's powers 0..strands-1."""
    split, *rest = rules
    powers = [{0: 1}]
    for _ in range(strands - 1):
        powers.append(_mul1(powers[-1], split))
    return (powers, *rest)


def _factor(word, pairs, comp, ncomps, budget, rules, memo) -> dict:
    """p0 of a c-component link from its knots (W. B. R. Lickorish and K. C.
    Millett, Topology 26, 1987): v^(sum of the mixed crossings' signs) times
    (v^-2 - 1)^(c-1) times p0 of each component.  ``pairs`` and ``comp`` are
    the strands of each letter and the component of each strand, from
    :func:`_walk_passes`.  A component's braid keeps its own crossings, each
    renumbered by the rank of its left strand among the component's strands;
    the two strands swap ranks there."""
    size = [0] * (ncomps + 1)
    rank = []
    for c in comp:
        rank.append(size[c])
        size[c] += 1
    words: list[list[int]] = [[] for _ in range(ncomps + 1)]
    shift = 0
    for x, (left, right) in zip(word, pairs):
        c = comp[left]
        if c != comp[right]:
            shift += 1 if x > 0 else -1
            continue
        r = rank[left] + 1
        words[c].append(r if x > 0 else -r)
        rank[left], rank[right] = r, r - 1
    total = {e + shift: a for e, a in rules[0][ncomps - 1].items()}
    for c in range(1, ncomps + 1):
        total = _mul1(total, _resolve(tuple(words[c]), size[c], budget, rules, memo))
    return total


def _resolve(word: tuple, strands: int, budget: _Budget, rules: tuple, memo: dict) -> dict:
    """Descending walk under one rule row: each crossing first met from below
    is switched, adding its smoothing, until the word is an unlink; the
    running factor is the monomial v^shift.  Under the p0 row a link is first
    factored into its knots by :func:`_factor`, so only knots are walked and
    every crossing of the walk is a self-crossing.

    ``rules`` is a row from :func:`_with_powers`: its first entry lists the
    split factor's powers 0..strands-1 for the top-level word, built once per
    call, so the unlink value, the split product, the link factor and the
    closing term index that list.  Strand counts only fall below the top
    level, so every index is in range.  ``memo``, for one call, maps
    (strands, least rotation) to the values of walked nodes: knots under the
    p0 row.  ``budget`` counts walked nodes; unlinks, splits, link factors
    and memo hits spend nothing.  No caller mutates a node value, so the
    power entries and memo values are shared without copies."""
    powers, plus, minus, mixed_branches = rules
    word, strands = _simplify(word, strands)
    if not word:
        return powers[strands - 1]
    k = _find_split(word, strands)
    if k is not None:
        (lw, ls), (rw, rs) = _split_words(word, strands, k)
        prod = _mul1(_resolve(lw, ls, budget, rules, memo), _resolve(rw, rs, budget, rules, memo))
        return _mul1(prod, powers[1])
    walk = None
    if not mixed_branches:
        walk = _walk_passes(word, strands)
        _, pairs, comp, ncomps = walk
        if ncomps > 1:
            return _factor(word, pairs, comp, ncomps, budget, rules, memo)
    key = (strands, _canonical_rotation(word))
    if key in memo:
        return memo[key]
    budget.spend()
    passes, _, _, ncomps = walk or _walk_passes(word, strands)
    cur = list(word)
    seen: set[int] = set()
    shift = 0
    total: dict = {}
    for t, enters_left in passes:
        if t in seen:
            continue
        seen.add(t)
        positive = cur[t] > 0
        if positive == enters_left:
            continue  # already crossed over on first visit
        sub = _resolve(tuple(cur[:t] + cur[t + 1:]), strands, budget, rules, memo)
        de, sign = plus if positive else minus
        _add_into(total, sub, shift + de, sign)
        shift += 2 if positive else -2
        cur[t] = -cur[t]
    _add_into(total, powers[ncomps - 1], shift)
    memo[key] = total
    return total


def skein_homfly(b: BraidWord, *, node_budget: int = 200_000) -> LaurentPoly2:
    """HOMFLY polynomial via the descending-walk skein resolver.

    Independent of the Hecke engine; exponential in the worst case, bounded
    by ``node_budget`` resolver nodes.  Its node memo lives for this call.
    """
    budget = _Budget(node_budget, "skein")
    rules = _with_powers(_HOMFLY_RULES, b.strands)
    packed = _resolve(b.letters, b.strands, budget, rules, {})
    half = _ZKEY >> 1
    terms = {}
    for e, c in packed.items():
        zexp, a = divmod(e + half, _ZKEY)
        terms[(a - half, zexp)] = c
    P = LaurentPoly2(("v", "z"), terms)
    _check_unit_identity(P, closure_stats(b).components)
    return P


# --------------------------------------------------------------------------
# public API


def canonical_key(b: BraidWord) -> str:
    """Canonical cache key: the braid text of the lexicographically least
    cyclic rotation (closures are invariant under rotation)."""
    return braid_text(BraidWord(b.strands, _canonical_rotation(b.letters)))


def _memoized(memo: dict | None, kind: str, b: BraidWord, compute):
    """compute(), shared through the caller's run memo under (kind, canonical
    key) when one is given; without a memo every call starts fresh."""
    if memo is None:
        return compute()
    key = (kind, canonical_key(b))
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _cached_hecke(b: BraidWord, max_strands: int, cache: "PolynomialCache | None") -> LaurentPoly2:
    """Hecke HOMFLY through the persistent cache, when given; a missed
    record is computed and written back."""
    if cache is None:
        return hecke_homfly(b, max_strands=max_strands)
    key = canonical_key(b)
    cached = cache.get(key)
    if cached is not None:
        try:
            _check_unit_identity(cached, closure_stats(b).components)
            return cached
        except ArithmeticError:
            pass  # a record failing the identity is a miss
    result = hecke_homfly(b, max_strands=max_strands)
    cache.put(key, b.strands, result, algorithm="hecke")
    return result


def homfly(
    b: BraidWord,
    *,
    engine: str = "hecke",
    max_strands: int = HECKE_MAX_STRANDS,
    node_budget: int = 200_000,
    cache: "PolynomialCache | None" = None,
    memo: dict | None = None,
) -> LaurentPoly2:
    """HOMFLY polynomial of the closure of ``b``.

    ``engine`` selects "hecke" (primary) or "skein" (oracle).  ``memo`` is a
    run memo the caller owns: a dict that shares results between calls under
    (engine, canonical key), so one run computes each polynomial once;
    without it the call starts fresh.  ``cache``, when given, persists Hecke
    results across processes, and a record read back that fails the unit
    identity is a miss.
    """
    if engine not in ("hecke", "skein"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "skein":
        return _memoized(memo, "skein", b, lambda: skein_homfly(b, node_budget=node_budget))
    _check_hecke_cap(b.strands, max_strands)  # before the memo and cache
    return _memoized(memo, "hecke", b, lambda: _cached_hecke(b, max_strands, cache))


@dataclass(frozen=True)
class CoefficientDecomposition:
    """The coefficient polynomials p^i of P = (v^-1 z)^(1-c) sum p^i z^(2i)."""

    components: int
    coeffs: tuple[LaurentPoly1, ...]

    def reassemble(self) -> LaurentPoly2:
        total = LaurentPoly2.zero(("v", "z"))
        for i, p in enumerate(self.coeffs):
            for e, c in p.terms.items():
                total = total + LaurentPoly2.monomial(("v", "z"), e, 2 * i, c)
        return total.shift(self.components - 1, 1 - self.components)


def coefficient_polys(P: LaurentPoly2, components: int) -> CoefficientDecomposition:
    """Split a HOMFLY polynomial of a ``components``-component closure into
    its coefficient polynomials; raises when the expansion shape fails."""
    if components < 1:
        raise ValueError("component count must be positive")
    shifted = P.shift(-(components - 1), components - 1)
    rows: dict[int, dict[int, int]] = {}
    for (ve, ze), c in shifted.terms.items():
        if ze < 0 or ze % 2:
            raise ValueError(
                f"decomposition shape mismatch at z-exponent {ze}: "
                f"wrong component count or corrupted polynomial"
            )
        rows.setdefault(ze // 2, {})[ve] = c
    top = max(rows) if rows else -1
    coeffs = tuple(LaurentPoly1("v", rows.get(i, {})) for i in range(top + 1))
    return CoefficientDecomposition(components=components, coeffs=coeffs)


def p0(
    b: BraidWord,
    *,
    node_budget: int = 60_000,
    fallback: bool = True,
    memo: dict | None = None,
) -> LaurentPoly1:
    """Zeroth coefficient polynomial of the closure.

    Tries the dedicated skein fast path first: a link is factored into its
    knots by the lowest-coefficient formula of W. B. R. Lickorish and K. C.
    Millett (Topology 26, 1987), and each knot is walked, with a knot memo
    that lives for this call.  ``node_budget`` counts walked knot nodes;
    memo hits and factor steps spend nothing.  On budget exhaustion it falls
    back to extracting p^0 from the full Hecke HOMFLY polynomial, unless
    ``fallback`` is off or the braid is over the Hecke engine's default cap:
    then the walk's exhaustion is raised, with its spend.  The result, by
    either path, must pass :func:`_check_p0_identity` and is shared through
    ``memo`` as in :func:`homfly`.
    """

    def compute() -> LaurentPoly1:
        components = closure_stats(b).components
        try:
            budget = _Budget(node_budget, "p0")
            rules = _with_powers(_P0_RULES, b.strands)
            result = LaurentPoly1("v", _resolve(b.letters, b.strands, budget, rules, {}))
        except BudgetExceededError:
            if not fallback or b.strands > HECKE_MAX_STRANDS:  # Hecke would refuse it
                raise
            result = coefficient_polys(homfly(b, memo=memo), components).coeffs[0]
        _check_p0_identity(result, components)
        return result

    return _memoized(memo, "p0", b, compute)


def _alexander_of(P: LaurentPoly2) -> LaurentPoly1:
    """Alexander polynomial of a knot from its HOMFLY polynomial: v -> 1 leaves
    one integer per z^2 power, then z^2 -> t - 2 + t^-1 is one Horner pass."""
    rows: dict[int, dict] = {}
    for (_, ze), c in P.terms.items():
        if ze < 0 or ze % 2:
            raise ValueError(f"z-exponent {ze} is not even and nonnegative")
        rows.setdefault(ze // 2, {0: 0})[0] += c
    a = LaurentPoly1("t", _horner(rows, {-1: 1, 0: -2, 1: 1}))
    if any(a.coeff(-e) != c for e, c in a.terms.items()) or a.evaluate(1) != 1:
        raise AssertionError("Alexander normalization violated; engine bug")
    return a


def _determinant_of(a: LaurentPoly1) -> int:
    """Knot determinant |Delta(-1)| from the Alexander polynomial."""
    value = a.evaluate(Fraction(-1))
    if value.denominator != 1:
        raise AssertionError(f"Alexander polynomial at -1 is {value}, not an integer")
    return abs(int(value))


def alexander(b: BraidWord, *, memo: dict | None = None) -> LaurentPoly1:
    """Alexander polynomial of a knot closure, symmetric with value 1 at 1,
    from the Burau engine at any strand count; shared through ``memo`` as in
    :func:`homfly`."""
    stats = closure_stats(b)
    if stats.components != 1:
        raise ValueError(f"closure has {stats.components} components, not a knot")
    return _memoized(memo, "alexander", b, lambda: _burau_alexander(b))


def determinant(b: BraidWord) -> int:
    """Knot determinant |Delta(-1)|."""
    return _determinant_of(alexander(b))


# --------------------------------------------------------------------------
# persistent cache


class PolynomialCache:
    """Append-only JSON-lines store of computed HOMFLY polynomials.

    Advisory only: a missing or corrupt record merely forces recomputation.
    Record fields: word (canonical braid text), strands, tags, terms
    (sorted [v_exp, z_exp, coeff] triples), alg, version.
    """

    VERSION = 1

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._memory: dict[str, LaurentPoly2] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec["version"] != self.VERSION or rec["tags"] != ["v", "z"]:
                    continue  # another format version or foreign variables: a miss
                poly = LaurentPoly2.from_triples(("v", "z"), rec["terms"])
                self._memory[rec["word"]] = poly
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue  # advisory cache: skip damage silently

    def get(self, key: str) -> LaurentPoly2 | None:
        return self._memory.get(key)

    def put(self, key: str, strands: int, poly: LaurentPoly2, algorithm: str) -> None:
        if self._memory.get(key) == poly:
            return  # a differing record is replaced; the last line wins on load
        self._memory[key] = poly
        record = {
            "word": key,
            "strands": strands,
            "tags": list(poly.vars),
            "terms": poly.to_triples(),
            "alg": algorithm,
            "version": self.VERSION,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:  # one write per record: appends never interleave inside a line
            os.write(fd, (json.dumps(record, sort_keys=True) + "\n").encode())
        finally:
            os.close(fd)

    def stats(self) -> dict:
        size = self.path.stat().st_size if self.path.exists() else 0
        return {"path": str(self.path), "records": len(self._memory), "bytes": size}

    def clear(self) -> None:
        self._memory.clear()
        if self.path.exists():
            self.path.unlink()
