"""Handle reduction, sigma-positivity, Dehornoy-order comparison, and the
Dehornoy-floor certificate.

A sigma_i-handle is a subword sigma_i^e w sigma_i^-e whose interior uses only
generators of index greater than i.  Reducing it deletes the two end letters
and rewrites each interior sigma_{i+1}^d as sigma_{i+1}^-e sigma_i^d
sigma_{i+1}^e; the element of the braid group is unchanged.  Dehornoy's
theorem: reducing permitted handles (interior sigma_{i+1} letters all of one
sign) terminates in a handle-free word, whose lowest-index generator then
occurs with a single sign.  That sign orders the braid group.

Strategy here: always reduce the handle that closes leftmost.  It is
automatically permitted: a mixed-sign sigma_{i+1} pair in its interior would
itself close a handle strictly earlier.  One forward scan keeps prev[j], the
nearest position before j whose generator index is at most |w[j]| (-1 if
none).  A handle closes at q exactly when that nearest position for q, found
by jumping along prev, holds -w[q].  prev[j] depends only on w[:j+1], so after
a handle w[p..q] is reduced in place prev[:p] still holds and the scan resumes
at p.  The reduction count is budgeted only to surface pathological blowup;
termination itself is Dehornoy's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, beta_conjugated_braid, compose, half_twist, inverse, power
from .errors import BraidError, BudgetExceededError

__all__ = [
    "SigmaClass",
    "FloorCertificate",
    "handle_reduce",
    "sigma_classify",
    "dehornoy_less",
    "floor_exceeds_one",
    "DEFAULT_STEP_BUDGET",
]

DEFAULT_STEP_BUDGET = 10_000_000


@dataclass(frozen=True)
class SigmaClass:
    """Outcome of sigma classification: the verdict, the minimal generator
    index that decides it, and the handle-free witness word."""

    verdict: str  # sigma_positive | sigma_negative | trivial
    main_index: int | None
    reduced_word: BraidWord


@dataclass(frozen=True)
class FloorCertificate:
    """Certificate that Delta^4 precedes the conjugated family braid in the
    Dehornoy order, which bounds the Dehornoy floor below by 2."""

    n: int
    holds: bool
    main_index: int | None
    witness: BraidWord
    steps: int


def _reduce_once(w: list[int], p: int, q: int) -> None:
    """Reduce the handle w[p..q] in place: the prefix before p is not copied."""
    i = abs(w[q])
    e = 1 if w[p] > 0 else -1
    replacement: list[int] = []
    for x in w[p + 1:q]:
        if abs(x) == i + 1:
            d = 1 if x > 0 else -1
            replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            replacement.append(x)
    w[p:q + 1] = replacement


def _reduce_core(letters: list[int], step_budget: int) -> tuple[list[int], int]:
    if step_budget <= 0:
        raise ValueError("step budget must be positive")
    w = list(letters)
    steps = 0
    # prev[j] for j < q: nearest position before j with index <= |w[j]|, or -1
    prev: list[int] = []
    q = 0
    while q < len(w):
        x = w[q]
        idx = abs(x)
        p = q - 1
        while p >= 0 and abs(w[p]) > idx:
            p = prev[p]
        if p < 0 or w[p] != -x:
            prev.append(p)
            q += 1
            continue
        if steps >= step_budget:
            raise BudgetExceededError(
                f"handle reduction exceeded {step_budget} steps", spent=steps
            )
        _reduce_once(w, p, q)
        steps += 1
        # the reduction rewrote w[p:] only, so prev[:p] still holds
        del prev[p:]
        q = p
    return w, steps


def handle_reduce(b: BraidWord, step_budget: int = DEFAULT_STEP_BUDGET) -> BraidWord:
    """Reduce handles until none remain, returning an equivalent word.

    Raises :class:`BudgetExceededError` carrying the step count when the
    budget runs out before the word is handle-free.
    """
    w, _ = _reduce_core(list(b.letters), step_budget)
    return BraidWord(b.strands, tuple(w))


def _classify(strands: int, letters: list[int]) -> SigmaClass:
    """Classify a handle-free word by the sign of its minimal-index generator."""
    reduced = BraidWord(strands, tuple(letters))
    if not letters:
        return SigmaClass("trivial", None, reduced)
    main = min(abs(x) for x in letters)
    signs = {x > 0 for x in letters if abs(x) == main}
    if len(signs) != 1:
        raise AssertionError("handle-free word has mixed signs at its main index")
    verdict = "sigma_positive" if signs.pop() else "sigma_negative"
    return SigmaClass(verdict, main, reduced)


def sigma_classify(b: BraidWord, step_budget: int = DEFAULT_STEP_BUDGET) -> SigmaClass:
    """Classify a braid by the sign of the minimal-index generator in its
    handle-free form."""
    letters, _ = _reduce_core(list(b.letters), step_budget)
    return _classify(b.strands, letters)


def dehornoy_less(a: BraidWord, b: BraidWord, step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    """Dehornoy order: a < b iff a^-1 b is sigma-positive."""
    if a.strands != b.strands:
        raise BraidError(f"strand mismatch: {a.strands} vs {b.strands}")
    return sigma_classify(compose(inverse(a), b), step_budget).verdict == "sigma_positive"


def floor_exceeds_one(n: int, step_budget: int = DEFAULT_STEP_BUDGET) -> FloorCertificate:
    """Certify Delta^4 < X_n beta_n X_n^-1 on 2n strands by exhibiting a
    sigma-positive handle-free form of Delta^-4 X_n beta_n X_n^-1."""
    if n < 2:
        raise BraidError("floor certificate needs n >= 2")
    word = compose(inverse(power(half_twist(2 * n), 4)), beta_conjugated_braid(n))
    letters, steps = _reduce_core(list(word.letters), step_budget)
    cls = _classify(word.strands, letters)
    return FloorCertificate(
        n=n,
        holds=cls.verdict == "sigma_positive",
        main_index=cls.main_index,
        witness=cls.reduced_word,
        steps=steps,
    )
