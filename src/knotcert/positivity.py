"""Sharpness degree calculus for positive braid words, Ito's braid-positivity
obstruction, and the verification pipeline for the zeroth-coefficient top term
of the beta family.

For an all-positive word on s strands with e crossings whose closure has
#L components, deg p0 <= s + e - #L always; the word is called sharp when
equality holds.  Ito's criterion: if K is a braid positive knot of genus g,
then P~(alpha, z) = (-alpha)^(-g) * P_K(v, z) under -v^2 = alpha has only
positive coefficients, so any negative coefficient certifies that K is not
braid positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, cable_braid, closure_stats, kn_braid, kn_plus_braid
from .errors import BraidError
from .homfly import _alexander_of, alexander, homfly, p0
from .poly import LaurentPoly1, LaurentPoly2

__all__ = [
    "SharpnessReport",
    "ItoVerdict",
    "TopTermReport",
    "DecompositionReport",
    "sharpness",
    "ito_obstruction",
    "genus_kn",
    "verify_topterm",
    "skein_decomposition_check",
]


@dataclass(frozen=True)
class SharpnessReport:
    strands: int
    crossings: int
    components: int
    p0_degree: int
    bound: int
    sharp: bool


@dataclass(frozen=True)
class ItoVerdict:
    """Obstruction outcome.  positive=False certifies the closure is not
    braid positive; positive=True (every coefficient of P~ is positive) is
    inconclusive, and so is positive=None, which the "p0" engine reports when
    the z^0 part it computes has no negative coefficient: the rest of P~ is
    unknown, so it never reads True.  witness is a negative monomial
    (alpha_exp, z_exp, coeff), present exactly when positive=False.
    genus_alexander_mismatch warns when the supplied genus differs from the
    Alexander top degree; equality is guaranteed only for fibered knots, so
    a mismatch does not invalidate the verdict by itself.
    """

    genus: int
    tilde_poly: LaurentPoly2
    positive: bool | None
    witness: tuple[int, int, int] | None
    genus_alexander_mismatch: bool


@dataclass(frozen=True)
class TopTermReport:
    n: int
    exponent: int
    coefficient: int
    expected_exponent: int
    expected_coefficient: int
    ok: bool


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    holds: bool
    lhs: LaurentPoly1
    rhs: LaurentPoly1


def sharpness(
    b: BraidWord, *, node_budget: int = 200_000, memo: dict | None = None
) -> SharpnessReport:
    """Compare deg p0 of the closure against strands + crossings - components.
    Here and below, p0 comes from the resolver walk alone, whose exhaustion is
    raised, and ``memo`` is a run memo as in :func:`~knotcert.homfly.homfly`."""
    if not b.is_positive:
        raise BraidError("sharpness is defined for all-positive words only")
    stats = closure_stats(b)
    bound = b.strands + b.crossings - stats.components
    degree = p0(b, node_budget=node_budget, fallback=False, memo=memo).degree
    if degree > bound:
        raise AssertionError(f"degree bound violated: {degree} > {bound}")
    return SharpnessReport(
        strands=b.strands,
        crossings=b.crossings,
        components=stats.components,
        p0_degree=degree,
        bound=bound,
        sharp=degree == bound,
    )


def ito_obstruction(
    b: BraidWord,
    genus: int,
    *,
    engine: str = "hecke",
    node_budget: int = 200_000,
    memo: dict | None = None,
) -> ItoVerdict:
    """Evaluate P~ = (-alpha)^(-g) P|_{-v^2=alpha} for the closure of b.

    The closure must be a knot and genus its Seifert genus.  A negative
    coefficient in P~ certifies non-braid-positivity.  ``engine`` is a
    HOMFLY engine of :func:`~knotcert.homfly.homfly`, or "p0": for a knot p0
    is the z^0 part of P, so P~ holds only its z^0 part, read from the
    resolver walk alone as in :func:`sharpness`; no Hecke run happens at any
    strand count, and the genus check reads the Burau Alexander polynomial.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    stats = closure_stats(b)
    if stats.components != 1:
        raise BraidError("the Ito obstruction applies to knots only")
    if engine == "p0":
        z0 = p0(b, node_budget=node_budget, fallback=False, memo=memo)
        P = LaurentPoly2(("v", "z"), {(e, 0): c for e, c in z0.terms.items()})
        alex_degree = alexander(b, memo=memo).degree
    else:
        P = homfly(b, engine=engine, node_budget=node_budget, memo=memo)
        alex_degree = _alexander_of(P).degree  # from this engine's P, not a second run
    terms = {}
    for (ve, ze), c in P.terms.items():
        if ve % 2:
            raise ValueError(f"v-exponent {ve} is odd; engine fault")
        j = ve // 2 - genus  # v^ve -> (-alpha)^(ve/2), times (-alpha)^-g
        terms[(j, ze)] = -c if j % 2 else c
    tilde = LaurentPoly2(("alpha", "z"), terms)
    negatives = [
        (e2, -e1, e1, c) for (e1, e2), c in tilde.terms.items() if c < 0
    ]
    witness = None
    if negatives:
        z_exp, _, a_exp, coeff = min(negatives)
        witness = (a_exp, z_exp, coeff)
    return ItoVerdict(
        genus=genus,
        tilde_poly=tilde,
        positive=False if witness else None if engine == "p0" else True,
        witness=witness,
        genus_alexander_mismatch=alex_degree != genus,
    )


def genus_kn(n: int) -> int:
    """Seifert genus of the closure of beta_n, (3n^2 - n + 2)/2, for even n.

    The closed form is established for even n only; odd n is rejected rather
    than extrapolated.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("the genus formula is available for even n >= 2 only")
    return (3 * n * n - n + 2) // 2


def verify_topterm(
    n: int, *, node_budget: int = 5_000_000, memo: dict | None = None
) -> TopTermReport:
    """Check that p0 of the closure of beta_n has top term (-1)^n v^(3n^2+3n)."""
    if n < 2:
        raise ValueError("top term verification needs n >= 2")
    poly = p0(kn_braid(n), node_budget=node_budget, fallback=False, memo=memo)
    exponent, coefficient = poly.top_term()
    expected_exponent = 3 * n * n + 3 * n
    expected_coefficient = (-1) ** n
    return TopTermReport(
        n=n,
        exponent=exponent,
        coefficient=coefficient,
        expected_exponent=expected_exponent,
        expected_coefficient=expected_coefficient,
        ok=(exponent, coefficient) == (expected_exponent, expected_coefficient),
    )


def skein_decomposition_check(
    n: int, *, node_budget: int = 5_000_000, memo: dict | None = None
) -> DecompositionReport:
    """Verify the zeroth-coefficient recursion

        p0(beta_n) = sum_{k=1}^{n-1} v^(-2(k-1)) (1 - v^-2) v^(2(3(n-k)k+k))
                          * p0(cable_k) * p0(beta_{n-k})
                     + v^(-2(n-1)) * p0(kn_plus_n)

    by computing both sides independently with the p0 engine.
    """
    if n < 2:
        raise ValueError("the decomposition needs n >= 2")

    def q0(b: BraidWord) -> LaurentPoly1:
        return p0(b, node_budget=node_budget, fallback=False, memo=memo)

    lhs = q0(kn_braid(n))
    one_minus = LaurentPoly1.from_pairs("v", [(0, 1), (-2, -1)])
    rhs = LaurentPoly1.zero("v")
    for k in range(1, n):
        factor = one_minus.shift(2 * (3 * (n - k) * k + k) - 2 * (k - 1))
        rhs = rhs + factor * q0(cable_braid(k)) * q0(kn_braid(n - k))
    rhs = rhs + q0(kn_plus_braid(n)).shift(-2 * (n - 1))
    return DecompositionReport(n=n, holds=lhs == rhs, lhs=lhs, rhs=rhs)
