"""Seifert-invariant arithmetic for Montesinos links: normal forms, the
Lisca-Stipsicz L-space criterion for M(-1; r1, r2, r3), exact determinants,
and the determinant and surgery-slope ledger of the quotient links of the
even beta braids, whose every flag can fail: it compares a closed form with
two det_montesinos values, whatever k is.

Everything is exact rational arithmetic; the criterion's strict inequalities
are never evaluated in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SeifertData",
    "LspaceVerdict",
    "EllFamilyReport",
    "SurgerySlopes",
    "normalize",
    "is_lspace_m1",
    "det_montesinos",
    "ell_family",
    "surgery_slopes",
    "ell0_triple",
    "ellinf_triple",
    "ell0_montesinos",
    "ellinf_montesinos",
]

RationalLike = Fraction | int | str


@dataclass(frozen=True)
class SeifertData:
    """Montesinos data M(e; r1,...,rk) with integer Euler term and exact
    rational fibers."""

    euler: int
    fibers: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fibers", tuple(Fraction(r) for r in self.fibers))

    def __str__(self) -> str:
        inside = ", ".join(str(r) for r in self.fibers)
        return f"M({self.euler}; {inside})"


@dataclass(frozen=True)
class LspaceVerdict:
    is_lspace: bool
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class EllFamilyReport:
    k: int
    det_ell: int
    det_ell0: int
    recursion_holds: bool
    endpoints_match: bool


@dataclass(frozen=True)
class SurgerySlopes:
    """Slope bookkeeping for the strongly invertible quotient at parameter k:
    r-surgery on the quotient knot lifts to (8k^2 + r)-surgery on the closure
    of beta_{2k}."""

    k: int
    quotient_coeff: int
    lspace_slope: int
    writhe: int
    consistent: bool

    def lift(self, r: int) -> int:
        return 8 * self.k * self.k + r


def normalize(s: SeifertData) -> SeifertData:
    """Normal form: fiber integer parts absorbed into the Euler term, fibers
    in (0,1) sorted descending, integer fibers dropped."""
    euler = s.euler
    parts = []
    for r in s.fibers:
        f = r - math.floor(r)
        euler += math.floor(r)
        if f != 0:
            parts.append(f)
    parts.sort(reverse=True)
    return SeifertData(euler, tuple(parts))


def is_lspace_m1(
    r1: RationalLike, r2: RationalLike, r3: RationalLike
) -> LspaceVerdict:
    """Lisca-Stipsicz test for M(-1; r1, r2, r3) with 1 >= r1 >= r2 >= r3 > 0.

    The manifold is an L-space iff no coprime pair m > a > 0 satisfies
    m*r1 < a < m*(1 - r2) together with m*r3 < 1.  The last inequality bounds
    the search: m < 1/r3 exactly.  r3 = 0 leaves the search unbounded and is
    rejected as unsupported input.
    """
    r1, r2, r3 = Fraction(r1), Fraction(r2), Fraction(r3)
    if not (1 >= r1 >= r2 >= r3 >= 0):
        raise ValueError("fibers must satisfy 1 >= r1 >= r2 >= r3 >= 0")
    if r3 == 0:
        raise ValueError("r3 = 0 makes the witness search unbounded; unsupported")
    m = 2
    while m * r3 < 1:
        lo = math.floor(m * r1) + 1  # smallest integer strictly above m*r1
        hi = math.ceil(m * (1 - r2)) - 1  # largest integer strictly below
        for a in range(max(lo, 1), min(hi, m - 1) + 1):
            if math.gcd(m, a) == 1:
                return LspaceVerdict(False, (m, a))
        m += 1
    return LspaceVerdict(True, None)


def det_montesinos(s: SeifertData) -> int:
    """|prod(alpha_i) * (e + sum beta_i/alpha_i)| as an exact integer."""
    if any(r == 0 for r in s.fibers):
        raise ValueError("determinant needs all fibers nonzero")
    total = Fraction(s.euler) + sum(s.fibers, Fraction(0))
    for r in s.fibers:
        total *= r.denominator
    if total.denominator != 1:
        raise AssertionError(f"Montesinos determinant {total} is not an integer")
    return abs(int(total))


def ell0_triple(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Normalized criterion input for the quotient link ell_0 at parameter k."""
    return Fraction(1, 2), Fraction(2 * k, 6 * k - 1), Fraction(1, 3)


def ellinf_triple(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Normalized criterion input for the terminal resolvent ell_inf^(2k-1)."""
    return Fraction(1, 2), Fraction(2, 5), Fraction(2 * k, 14 * k - 1)


def ell0_montesinos(k: int) -> SeifertData:
    return SeifertData(0, (Fraction(-2, 3), Fraction(1, 2), Fraction(2 * k, 6 * k - 1)))


def ellinf_montesinos(k: int) -> SeifertData:
    return SeifertData(0, (Fraction(2, 5), Fraction(-1, 2), Fraction(2 * k, 14 * k - 1)))


def _endpoint_dets(k: int) -> tuple[int, int]:
    """det(ell_0) and det(ell_inf^(2k-1)), each read from det_montesinos."""
    if k < 1:
        raise ValueError("family parameter k must be >= 1")
    return det_montesinos(ell0_montesinos(k)), det_montesinos(ellinf_montesinos(k))


def ell_family(k: int) -> EllFamilyReport:
    """Determinant ledger for the resolution chain ell -> ell^1 -> ... ->
    ell^(2k-1) = ell_inf at parameter k, where each of the 2k-1 resolutions
    adds det(ell_0).  The closed forms det(ell) = 12k^2 + 2k and
    det(ell_0) = 6k + 1 are checked against the two Montesinos determinants:
    ``endpoints_match`` compares each endpoint with its closed form, and
    ``recursion_holds`` runs the recursion det(ell) = det(ell_inf) +
    (2k-1) det(ell_0) from those endpoints.  A wrong determinant fails both.
    """
    ell0, ell_inf = _endpoint_dets(k)
    det_ell, det_ell0, steps = 12 * k * k + 2 * k, 6 * k + 1, 2 * k - 1
    return EllFamilyReport(
        k=k,
        det_ell=det_ell,
        det_ell0=det_ell0,
        recursion_holds=det_ell == ell_inf + steps * ell0,
        endpoints_match=ell0 == det_ell0 and ell_inf == det_ell - steps * det_ell0,
    )


def surgery_slopes(k: int) -> SurgerySlopes:
    """Slope arithmetic at parameter k: the quotient coefficient 4k^2 + 2k
    lifts to the slope 8k^2 + 4k^2 + 2k, and ``consistent`` compares that
    lift with det(ell) as the recursion derives it from the two Montesinos
    determinants, det(ell_inf) + (2k-1) det(ell_0)."""
    ell0, ell_inf = _endpoint_dets(k)
    quotient = 4 * k * k + 2 * k
    slope = 8 * k * k + quotient
    return SurgerySlopes(
        k=k,
        quotient_coeff=quotient,
        lspace_slope=slope,
        writhe=quotient + 1,
        consistent=slope == ell_inf + (2 * k - 1) * ell0,
    )
