"""Exact Laurent polynomials in one variable q with integer coefficients.

Everything downstream (web evaluations, pairings, transition matrices) is
exact, so this module deliberately avoids floats.  A polynomial is stored as
a dict mapping exponent -> nonzero int coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping


class LaurentPoly:
    """Integer Laurent polynomial in q, e.g. q^2 + 1 + q^-2.

    Instances behave like immutable values: all arithmetic returns new
    objects and the coefficient dict is never mutated after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c}

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """Wrap a built dict with no zero entry, skipping __init__'s pass."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient.  Error on zero."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient.  Error on zero."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def is_monomial_coeff_one(self) -> bool:
        return len(self.coeffs) == 1 and next(iter(self.coeffs.values())) == 1

    def eval_at_one(self) -> int:
        """Specialize q = 1, i.e. the sum of coefficients."""
        return sum(self.coeffs.values())

    def is_nonnegative(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs.values())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.coeffs)
        _add_product(acc, {0: 1}, other.coeffs)
        return LaurentPoly._trusted(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.coeffs)
        _add_product(acc, {0: -1}, other.coeffs)
        return LaurentPoly._trusted(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        _add_product(acc, self.coeffs, other.coeffs)
        return LaurentPoly._trusted(acc)

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by q^d."""
        return LaurentPoly._trusted({e + d: c for e, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1."""
        return LaurentPoly._trusted({-e: c for e, c in self.coeffs.items()})

    def is_bar_invariant(self) -> bool:
        return self.coeffs == self.bar().coeffs

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the remainder is nonzero.

        Division proceeds from the top exponent down, which is well defined
        for Laurent polynomials since units q^d are invertible.
        """
        if other.is_zero():
            raise ValueError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        rem = dict(self.coeffs)
        quot: dict[int, int] = {}
        de = other.degree()
        dc = other.coeffs[de]
        # an exact quotient has valuation exactly val(self) - val(other);
        # stepping below that proves inexactness (and guards termination)
        floor_exp = self.valuation() - other.valuation()
        while rem:
            e = max(rem)
            c = rem[e]
            if c % dc != 0 or e - de < floor_exp:
                raise ValueError(f"inexact division: {self} by {other}")
            qe, qc = e - de, c // dc
            quot[qe] = quot.get(qe, 0) + qc
            for oe, oc in other.coeffs.items():
                ne = oe + qe
                nv = rem.get(ne, 0) - oc * qc
                if nv:
                    rem[ne] = nv
                else:
                    rem.pop(ne, None)
        return LaurentPoly(quot)

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self) -> str:
        """Canonical text form, exponents decreasing: "q^2 + 1 + q^-2"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- serialization --------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of str(): reads the canonical text form back."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        coeffs: dict[int, int] = {}
        # normalize "a - b" to "a + -b" then split on the plus signs
        for term in text.replace("- ", "+ -").split("+"):
            term = term.strip().replace(" ", "")
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            if "q" not in term:
                mag, e = int(term), 0
            else:
                head, _, tail = term.partition("q")
                mag = int(head.rstrip("*")) if head else 1
                e = int(tail[1:]) if tail.startswith("^") else 1
            if e in coeffs:
                raise ValueError(f"repeated exponent in {text!r}")
            coeffs[e] = sign * mag
        return cls(coeffs)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def _add_product(acc: dict, a: Mapping, b: Mapping) -> None:
    """acc += a * b on raw {exponent: coeff} dicts; a cancelled entry is deleted."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]


def qint(a: int) -> LaurentPoly:
    """Balanced quantum integer: q^(a-1) + q^(a-3) + ... + q^-(a-1).

    For negative a this is -qint(-a); qint(0) is 0.
    """
    if a == 0:
        return LaurentPoly.zero()
    if a < 0:
        return -qint(-a)
    return LaurentPoly({a - 1 - 2 * i: 1 for i in range(a)})


def qfact(a: int) -> LaurentPoly:
    """Quantum factorial [a]! = [a][a-1]...[1], for a >= 0."""
    if a < 0:
        raise ValueError("quantum factorial needs a >= 0")
    out = LaurentPoly.one()
    for i in range(1, a + 1):
        out = out * qint(i)
    return out


@lru_cache(maxsize=None)
def qbinom(top: int, bot: int) -> LaurentPoly:
    """Quantum binomial coefficient.

    Defined for any integer top and bot >= 0 through the product
    [top][top-1]...[top-bot+1] / [bot]!, so negative tops are allowed.
    qbinom(t, 0) = 1 and qbinom(t, b) = 0 for 0 <= t < b.
    """
    if bot < 0:
        return LaurentPoly.zero()
    num = LaurentPoly.one()
    for i in range(bot):
        num = num * qint(top - i)
    return num.exact_div(qfact(bot))
