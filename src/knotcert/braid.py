"""Braid words, group operations, closure statistics, and family constructors.

A braid on ``strands`` strands is a sequence of nonzero integers: letter
``+i`` is the Artin generator sigma_i (a positive crossing of the strands in
positions i and i+1), ``-i`` is its inverse.  The closure of a word is the
oriented link obtained by joining the top of each strand position to the
bottom of the same position.

The family constructors build the braids studied by the rest of the toolkit:

* ``x_braid(n)``: the positive 2n-strand braid X_n, the concatenation of the
  descending runs sigma_{n+i-1} sigma_{n+i-2} ... sigma_i for i = 1..n.
  ``x_braid_antidiagonal(n)`` lists the same crossings along anti-diagonals;
  the two words differ only by far commutation and close to the same link.
* ``beta_braid(n)``: X_n^3 followed by the mixed tail
  [-1, ..., -(n-1), n, ..., 1, 1, ..., n]; its closure K_n is a knot.
* ``kn_plus_braid(n)``: the all-positive variant (tail negatives made
  positive), ``cable_braid(k)``: X_k^3 followed by the run 1..k-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import BraidError

__all__ = [
    "BraidWord",
    "ClosureStats",
    "parse_braid",
    "braid_text",
    "compose",
    "inverse",
    "conjugate",
    "power",
    "free_reduce",
    "permutation",
    "closure_stats",
    "component_table",
    "linking_number",
    "restrict_components",
    "positive_braid_euler",
    "half_twist",
    "family",
    "x_braid",
    "x_braid_antidiagonal",
    "beta_braid",
    "beta_conjugated_braid",
    "kn_braid",
    "kn_plus_braid",
    "cable_braid",
    "FAMILY_NAMES",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for pos, letter in enumerate(letters):
            if letter == 0:
                raise BraidError(f"letter {pos} is zero")
            if abs(letter) >= self.strands:
                raise BraidError(
                    f"letter {pos} has index {abs(letter)}, "
                    f"needs at most {self.strands - 1} on {self.strands} strands"
                )

    @property
    def crossings(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    @property
    def is_positive(self) -> bool:
        return all(x > 0 for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return braid_text(self)


@dataclass(frozen=True)
class ClosureStats:
    """Diagram statistics of a braid closure.

    ``permutation`` maps entry position i (1-based) to the exit position of
    the strand entering there; ``component_map[i-1]`` is the component id of
    that strand.  Components are numbered 1..components by the smallest
    strand position they contain, so ids are stable across runs.
    """

    components: int
    writhe: int
    exponent_sum: int
    crossings: int
    permutation: tuple[int, ...]
    component_map: tuple[int, ...] = field(repr=False)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse the braid text format: signed integers separated by whitespace or
    commas, with an optional leading ``strands=N`` token.

    When no strand count is given anywhere, it defaults to max|letter| + 1.
    """
    tokens = [t for t in text.replace(",", " ").split() if t]
    declared: int | None = None
    if tokens and tokens[0].startswith("strands="):
        try:
            declared = int(tokens[0][len("strands="):])
        except ValueError:
            raise BraidError(f"bad strand prefix {tokens[0]!r}") from None
        tokens = tokens[1:]
    if declared is not None and strands is not None and declared != strands:
        raise BraidError(f"strand prefix {declared} conflicts with strands={strands}")
    if declared is not None:
        strands = declared
    letters = []
    for tok in tokens:
        try:
            letters.append(int(tok))
        except ValueError:
            raise BraidError(f"bad braid letter {tok!r}") from None
    if strands is None:
        if not letters:
            raise BraidError("empty braid text needs an explicit strand count")
        strands = max(abs(x) for x in letters) + 1
    return BraidWord(strands, tuple(letters))


def braid_text(b: BraidWord) -> str:
    """Render a word in the parseable text format, strand count included."""
    body = " ".join(str(x) for x in b.letters)
    return f"strands={b.strands}" + (f" {body}" if body else "")


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise BraidError(f"strand mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple(-x for x in reversed(b.letters)))


def conjugate(a: BraidWord, by: BraidWord) -> BraidWord:
    """The word by * a * by^-1; same closure as ``a`` up to isotopy."""
    return compose(compose(by, a), inverse(by))


def power(b: BraidWord, k: int) -> BraidWord:
    if k < 0:
        return power(inverse(b), -k)
    return BraidWord(b.strands, b.letters * k)


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain.

    Provided as a utility only; no operation applies it implicitly, because
    crossing counts enter the sharpness degree calculus and must not drift.
    """
    out: list[int] = []
    for x in b.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return BraidWord(b.strands, tuple(out))


def permutation(b: BraidWord) -> tuple[int, ...]:
    """One-line permutation: entry i holds the exit position of the strand
    entering at position i (1-based).

    One sweep over the word tracks which strand, named by its entry
    position, sits at each position."""
    at = list(range(1, b.strands + 1))
    for letter in b.letters:
        k = abs(letter)
        at[k - 1], at[k] = at[k], at[k - 1]
    perm = [0] * b.strands
    for pos, start in enumerate(at, 1):
        perm[start - 1] = pos
    return tuple(perm)


def _components(perm: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Cycle count and the component id of each start position (1-based ids,
    numbered by smallest member position)."""
    n = len(perm)
    comp_of = [0] * n
    comp = 0
    for i in range(1, n + 1):
        if comp_of[i - 1]:
            continue
        comp += 1
        j = i
        while not comp_of[j - 1]:
            comp_of[j - 1] = comp
            j = perm[j - 1]
    return comp, tuple(comp_of)


def closure_stats(b: BraidWord) -> ClosureStats:
    perm = permutation(b)
    components, comp_map = _components(perm)
    esum = b.exponent_sum
    return ClosureStats(
        components=components,
        writhe=esum,
        exponent_sum=esum,
        crossings=b.crossings,
        permutation=perm,
        component_map=comp_map,
    )


def component_table(b: BraidWord) -> list[tuple[int, ...]]:
    """Component id at each strand position before each letter.

    Entry t (0 <= t <= len(letters)) gives, per position (0-based index),
    the component of the strand sitting there just before letter t acts.
    """
    stats = closure_stats(b)
    row = list(stats.component_map)
    table = [tuple(row)]
    for letter in b.letters:
        k = abs(letter)
        row[k - 1], row[k] = row[k], row[k - 1]
        table.append(tuple(row))
    return table


def linking_number(b: BraidWord, c1: int, c2: int) -> int:
    """Linking number of two closure components: half the signed count of
    crossings whose strands lie on the two named components."""
    stats = closure_stats(b)
    if stats.components < 2:
        raise BraidError("closure has a single component; linking number needs two")
    for c in (c1, c2):
        if not 1 <= c <= stats.components:
            raise BraidError(f"component id {c} out of range 1..{stats.components}")
    if c1 == c2:
        raise BraidError("component ids must differ")
    table = component_table(b)
    pair = {c1, c2}
    total = 0
    for t, letter in enumerate(b.letters):
        k = abs(letter)
        if {table[t][k - 1], table[t][k]} == pair:
            total += 1 if letter > 0 else -1
    if total % 2:
        raise AssertionError("mixed-crossing sign count must be even")
    return total // 2


def restrict_components(b: BraidWord, keep: Iterable[int]) -> BraidWord:
    """The sub-braid carrying the named closure components.

    Strands on other components are deleted; a crossing survives exactly when
    both of its strands are kept, with its index renumbered to the kept
    strands below it.
    """
    stats = closure_stats(b)
    keep_set = set(keep)
    bad = keep_set - set(range(1, stats.components + 1))
    if bad:
        raise BraidError(f"component ids {sorted(bad)} out of range")
    table = component_table(b)
    new_strands = sum(1 for c in stats.component_map if c in keep_set)
    if new_strands == 0:
        raise BraidError("restriction keeps no strands")
    letters = []
    for t, letter in enumerate(b.letters):
        k = abs(letter)
        left = table[t][k - 1] in keep_set
        right = table[t][k] in keep_set
        if left and right:
            below = sum(1 for q in range(k - 1) if table[t][q] in keep_set)
            letters.append((below + 1) * (1 if letter > 0 else -1))
    return BraidWord(new_strands, tuple(letters))


def positive_braid_euler(b: BraidWord) -> int:
    """Euler characteristic of the Bennequin surface of a positive braid
    closure: strands minus crossings.  For a knot closure the Seifert genus
    is (1 - chi) / 2."""
    if not b.is_positive:
        raise BraidError("Euler characteristic formula needs an all-positive word")
    return b.strands - b.crossings


def half_twist(strands: int) -> BraidWord:
    """The Garside half twist on the given strands: the positive word
    sigma_1 (sigma_2 sigma_1) ... (sigma_{s-1} ... sigma_1), inducing the
    order-reversing permutation."""
    if strands < 1:
        raise BraidError("strand count must be positive")
    letters = [k for r in range(1, strands) for k in range(r, 0, -1)]
    return BraidWord(strands, tuple(letters))


def x_braid(n: int) -> BraidWord:
    """X_n: the positive 2n-strand braid with n^2 letters, read row by row."""
    if n < 1:
        raise BraidError("x family needs n >= 1")
    letters = [k for i in range(1, n + 1) for k in range(n + i - 1, i - 1, -1)]
    return BraidWord(2 * n, tuple(letters))


def x_braid_antidiagonal(n: int) -> BraidWord:
    """The same crossings as ``x_braid(n)`` listed along anti-diagonals.

    The two listings differ only by far commutation, so they represent the
    same braid element; the agreement is exercised by the test suite.
    """
    if n < 1:
        raise BraidError("x family needs n >= 1")
    letters: list[int] = []
    for d in range(1, n + 1):
        letters.extend(n - d + 1 + 2 * t for t in range(d))
    for j in range(1, n):
        letters.extend(2 * n - j - 1 - 2 * t for t in range(n - j))
    return BraidWord(2 * n, tuple(letters))


def beta_braid(n: int) -> BraidWord:
    """beta_n = X_n^3 . [-1, ..., -(n-1), n, ..., 1, 1, ..., n], a 2n-strand
    word with 3n^2 + 3n - 1 letters whose closure K_n is a knot."""
    if n < 2:
        raise BraidError("beta family needs n >= 2")
    tail = [-i for i in range(1, n)]
    tail += list(range(n, 0, -1))
    tail += list(range(1, n + 1))
    return BraidWord(2 * n, power(x_braid(n), 3).letters + tuple(tail))


def kn_braid(n: int) -> BraidWord:
    """The braid closing to the knot K_n; K_1 is the (2,5) torus knot."""
    if n < 1:
        raise BraidError("kn family needs n >= 1")
    if n == 1:
        return BraidWord(2, (1, 1, 1, 1, 1))
    return beta_braid(n)


def kn_plus_braid(n: int) -> BraidWord:
    """The all-positive companion of beta_n: the tail negatives made positive."""
    if n < 2:
        raise BraidError("kn_plus family needs n >= 2")
    return BraidWord(2 * n, tuple(abs(x) for x in beta_braid(n).letters))


def cable_braid(k: int) -> BraidWord:
    """X_k^3 followed by the ascending run 1..k-1; closes to a cable of the
    trefoil pattern."""
    if k < 1:
        raise BraidError("cable family needs k >= 1")
    tail = tuple(range(1, k))
    return BraidWord(2 * k, power(x_braid(k), 3).letters + tail)


def beta_conjugated_braid(n: int) -> BraidWord:
    """X_n beta_n X_n^-1: the conjugated form used by the Dehornoy floor
    certificate; same closure as beta_n."""
    if n < 2:
        raise BraidError("beta_conjugated family needs n >= 2")
    return conjugate(beta_braid(n), x_braid(n))


FAMILY_NAMES = ("x", "beta", "beta_conjugated", "kn", "kn_plus", "cable")

_FAMILY = {
    "x": x_braid,
    "beta": beta_braid,
    "beta_conjugated": beta_conjugated_braid,
    "kn": kn_braid,
    "kn_plus": kn_plus_braid,
    "cable": cable_braid,
}


def family(name: str, n: int) -> BraidWord:
    """Constructor dispatch for the named braid family."""
    key = name.strip().lower().replace("-", "_")
    try:
        builder = _FAMILY[key]
    except KeyError:
        raise BraidError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}") from None
    return builder(n)
