"""Exact sparse Laurent polynomials in one and two variables.

Coefficients are arbitrary-precision integers; storage is a sparse
exponent-to-coefficient mapping with zero terms pruned on construction.
Two shapes cover every invariant in the toolkit:

* ``LaurentPoly1``: one variable (tag ``v``, ``t``, ``alpha``, or ``z``).
* ``LaurentPoly2``: two variables (tags ``(v, z)`` or ``(alpha, z)``).

The int-keyed dict kernels ``_add_into``, ``_mul1``, ``_pow1`` and
``_horner`` serve the engines' hot paths and ``LaurentPoly1``'s product;
each substitution a verdict needs is written where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = ["LaurentPoly1", "LaurentPoly2"]


def _clean(items: Iterable[tuple] | Mapping) -> dict:
    if isinstance(items, Mapping):
        items = items.items()
    out: dict = {}
    for exp, coeff in items:
        if coeff:
            out[exp] = out.get(exp, 0) + coeff
            if not out[exp]:
                del out[exp]
    return out


# int-keyed Laurent dict arithmetic: the engines' hot paths avoid dataclass churn


def _add_into(dst: dict, src: dict, shift: int = 0, scale: int = 1) -> None:
    for e, c in src.items():
        k = e + shift
        dst[k] = dst.get(k, 0) + c * scale
        if not dst[k]:
            del dst[k]


def _mul1(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _pow1(base: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = _mul1(out, base)
    return out


def _horner(rows: dict[int, dict], s: dict) -> dict:
    """sum_j rows[j] * s^j over rows keyed by j >= 0, by Horner's rule."""
    total: dict = {}
    for j in range(max(rows, default=-1), -1, -1):
        total = _mul1(total, s)
        if j in rows:
            _add_into(total, rows[j])
    return total


class _Laurent:
    """Ring operations that do not depend on the exponent shape.  A shape
    supplies ``_tags`` (its variable names, the first constructor argument),
    ``one`` and ``_times``, the product of two term maps."""

    terms: Mapping

    def _new(self, terms: Mapping):
        return type(self)(self._tags, terms)

    def _check(self, other: "_Laurent") -> None:
        if self._tags != other._tags:
            raise ValueError(f"variable mismatch: {self._tags!r} vs {other._tags!r}")

    def __add__(self, other):
        self._check(other)
        return self._new([*self.terms.items(), *other.terms.items()])  # _clean sums

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({e: c * other for e, c in self.terms.items()})
        self._check(other)
        return self._new(self._times(other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = self.one(self._tags)
        for _ in range(k):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def is_positive(self) -> bool:
        """True when every stored coefficient is positive (vacuously for 0)."""
        return all(c > 0 for c in self.terms.values())


@dataclass(frozen=True)
class LaurentPoly1(_Laurent):
    """Sparse Laurent polynomial in a single variable over the integers."""

    var: str
    terms: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(_clean(self.terms)))

    @property
    def _tags(self) -> str:
        return self.var

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly1":
        return cls(var, {})

    @classmethod
    def one(cls, var: str) -> "LaurentPoly1":
        return cls(var, {0: 1})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: int = 1) -> "LaurentPoly1":
        return cls(var, {exp: coeff})

    # shape-dependent arithmetic ---------------------------------------

    def _times(self, other: Mapping[int, int]) -> dict[int, int]:
        return _mul1(self.terms, other)

    def shift(self, exp: int, coeff: int = 1) -> "LaurentPoly1":
        """Multiply by the monomial coeff * var^exp."""
        return LaurentPoly1(self.var, {e + exp: c * coeff for e, c in self.terms.items()})

    # queries ------------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    @property
    def order(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no order")
        return min(self.terms)

    def top_term(self) -> tuple[int, int]:
        """Highest-exponent monomial as (exponent, coefficient)."""
        e = self.degree
        return e, self.terms[e]

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation; negative exponents need a nonzero argument."""
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * x ** e
        return total

    # serialization -------------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        return [[e, c] for e, c in sorted(self.terms.items())]

    @classmethod
    def from_pairs(cls, var: str, pairs: Iterable[Iterable[int]]) -> "LaurentPoly1":
        return cls(var, {int(e): int(c) for e, c in pairs})

    def __str__(self) -> str:
        return _render(sorted(self.terms.items()), (self.var,), lambda e: (e,))


@dataclass(frozen=True)
class LaurentPoly2(_Laurent):
    """Sparse Laurent polynomial in two variables over the integers."""

    vars: tuple[str, str]
    terms: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "terms", MappingProxyType(_clean(self.terms)))

    @property
    def _tags(self) -> tuple[str, str]:
        return self.vars

    @classmethod
    def zero(cls, vars: tuple[str, str] = ("v", "z")) -> "LaurentPoly2":
        return cls(vars, {})

    @classmethod
    def one(cls, vars: tuple[str, str] = ("v", "z")) -> "LaurentPoly2":
        return cls(vars, {(0, 0): 1})

    @classmethod
    def monomial(
        cls, vars: tuple[str, str], e1: int, e2: int, coeff: int = 1
    ) -> "LaurentPoly2":
        return cls(vars, {(e1, e2): coeff})

    def _times(self, other: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def shift(self, e1: int, e2: int, coeff: int = 1) -> "LaurentPoly2":
        """Multiply by the monomial coeff * var1^e1 * var2^e2."""
        return LaurentPoly2(
            self.vars, {(a + e1, b + e2): c * coeff for (a, b), c in self.terms.items()}
        )

    def coeff(self, e1: int, e2: int) -> int:
        return self.terms.get((e1, e2), 0)

    def to_triples(self) -> list[list[int]]:
        return [[a, b, c] for (a, b), c in sorted(self.terms.items())]

    @classmethod
    def from_triples(
        cls, vars: tuple[str, str], triples: Iterable[Iterable[int]]
    ) -> "LaurentPoly2":
        return cls(vars, {(int(a), int(b)): int(c) for a, b, c in triples})

    def __str__(self) -> str:
        return _render(sorted(self.terms.items()), self.vars, lambda e: e)


def _render(items, names, unpack) -> str:
    if not items:
        return "0"
    parts: list[str] = []
    for key, coeff in items:
        exps = unpack(key)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
