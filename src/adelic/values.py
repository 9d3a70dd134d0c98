"""Exact carriers for positive reals and their logarithms.

Measures, absolute values and discriminants in this package are products of
prime powers with rational exponents, so they are stored symbolically as
``prime -> exponent`` maps (:class:`PosRealExact`).  Logarithms of such
quantities, plus genuinely transcendental contributions (theta sums,
archimedean ``log alpha_v``), live in :class:`LogValue`: an exact formal sum
``sum c_p * log p`` together with a floating remainder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in the library, not bad input."""


def factorize(n: int) -> Dict[int, int]:
    """Trial-division factorization of a positive integer."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


class PosRealExact:
    """A positive real number of the form prod p^{e_p}, e_p rational.

    Immutable.  Multiplication adds exponents; ``log()`` is an exact
    homomorphism onto the symbolic part of :class:`LogValue`.
    """

    __slots__ = ("_e",)

    def __init__(self, exponents: Dict[int, Fraction] | None = None):
        cleaned: Dict[int, Fraction] = {}
        for p, e in (exponents or {}).items():
            e = Fraction(e)
            if e != 0:
                if p < 2:
                    raise ValueError(f"invalid prime base {p}")
                cleaned[int(p)] = e
        self._e = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "PosRealExact":
        return cls({})

    @classmethod
    def prime_power(cls, p: int, e) -> "PosRealExact":
        return cls({p: Fraction(e)})

    @classmethod
    def from_rational(cls, q) -> "PosRealExact":
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"expected a positive rational, got {q}")
        exps: Dict[int, Fraction] = {}
        for p, k in factorize(q.numerator).items():
            exps[p] = exps.get(p, Fraction(0)) + k
        for p, k in factorize(q.denominator).items():
            exps[p] = exps.get(p, Fraction(0)) - k
        return cls(exps)

    # -- views -------------------------------------------------------------

    @property
    def exponents(self) -> Dict[int, Fraction]:
        return dict(self._e)

    def is_one(self) -> bool:
        return not self._e

    def is_rational(self) -> bool:
        return all(e.denominator == 1 for e in self._e.values())

    def as_fraction(self) -> Fraction:
        """The exact rational value; raises if any exponent is fractional."""
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        out = Fraction(1)
        for p, e in self._e.items():
            out *= Fraction(p) ** int(e)
        return out

    def __float__(self) -> float:
        return math.exp(float(self.log()))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "PosRealExact") -> "PosRealExact":
        exps = dict(self._e)
        for p, e in other._e.items():
            exps[p] = exps.get(p, Fraction(0)) + e
        return PosRealExact(exps)

    def __truediv__(self, other: "PosRealExact") -> "PosRealExact":
        exps = dict(self._e)
        for p, e in other._e.items():
            exps[p] = exps.get(p, Fraction(0)) - e
        return PosRealExact(exps)

    def __pow__(self, k) -> "PosRealExact":
        k = Fraction(k)
        return PosRealExact({p: e * k for p, e in self._e.items()})

    def log(self) -> "LogValue":
        return LogValue(dict(self._e))

    def __eq__(self, other) -> bool:
        return isinstance(other, PosRealExact) and self._e == other._e

    def __hash__(self):
        return hash(tuple(sorted(self._e.items())))

    def __repr__(self) -> str:
        if not self._e:
            return "1"
        return " * ".join(f"{p}^{e}" for p, e in sorted(self._e.items()))


class LogValue:
    """Formal sum ``sum_p c_p log p`` (exact) plus a float remainder.

    Equality is exact on the symbolic coefficients and holds the real
    remainder to a tolerance (default 1e-9).  A value is exact unless it was
    given a ``real``, even 0.0 (``of_real`` included), or computed from one.
    """

    __slots__ = ("_c", "real", "_float")

    DEFAULT_TOL = 1e-9

    def __init__(self, coeffs: Dict[int, Fraction] | None = None,
                 real: float | None = None):
        cleaned: Dict[int, Fraction] = {}
        for p, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                cleaned[int(p)] = c
        self._c = cleaned
        self._float = real is not None
        self.real = float(real or 0.0)

    @classmethod
    def zero(cls) -> "LogValue":
        return cls({})

    @classmethod
    def of_real(cls, x: float) -> "LogValue":
        return cls({}, x)

    @classmethod
    def log_of_int(cls, n: int, scale=1) -> "LogValue":
        """Exact ``scale * log n`` for a positive integer n."""
        return cls({p: Fraction(scale) * k for p, k in factorize(n).items()})

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return dict(self._c)

    def __float__(self) -> float:
        return math.fsum(float(c) * math.log(p) for p, c in self._c.items()) + self.real

    def __add__(self, other: "LogValue") -> "LogValue":
        coeffs = dict(self._c)
        for p, c in other._c.items():
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return LogValue(coeffs, self.real + other.real
                        if self._float or other._float else None)

    def __neg__(self) -> "LogValue":
        return LogValue({p: -c for p, c in self._c.items()},
                        -self.real if self._float else None)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def __mul__(self, k) -> "LogValue":
        k = Fraction(k)
        return LogValue({p: c * k for p, c in self._c.items()},
                        float(k) * self.real if self._float else None)

    __rmul__ = __mul__

    def eq(self, other: "LogValue", tol: float | None = None) -> bool:
        """Exact symbolic equality; real remainders within ``tol``."""
        tol = self.DEFAULT_TOL if tol is None else tol
        return self._c == other._c and abs(self.real - other.real) <= tol

    def __eq__(self, other) -> bool:
        return isinstance(other, LogValue) and self.eq(other)

    def __hash__(self):
        raise TypeError("LogValue compares with a tolerance and is unhashable")

    def to_json(self, tolerance: float | None = None) -> dict:
        """Schema: symbolic coefficient list, real remainder, provenance tag."""
        sym = [[p, str(c)] for p, c in sorted(self._c.items())]
        if not self._float:
            prov = "exact-symbolic"
        else:
            prov = f"float({tolerance:g})" if tolerance is not None else "float"
        return {"symbolic": sym, "real": self.real, "provenance": prov}

    def __repr__(self) -> str:
        parts = [f"({c})*log{p}" for p, c in sorted(self._c.items())]
        if self.real != 0.0 or not parts:
            parts.append(f"{self.real!r}")
        return " + ".join(parts)
