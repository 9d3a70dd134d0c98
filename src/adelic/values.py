"""Exact carriers for positive reals and their logarithms.

Measures, absolute values and discriminants in this package are products of
prime powers with rational exponents, so they are stored symbolically as
``prime -> exponent`` maps (:class:`PosRealExact`).  A :class:`LogValue` is
the log of a ``PosRealExact`` plus a float remainder, which carries the
genuinely transcendental contributions (theta sums, archimedean
``log alpha_v``).

Invariant: a ``PosRealExact``'s exponents are non-zero ``Fraction``s.  The
public constructors check and clean what they are given; the arithmetic
here builds its results from exponents that already hold it, through the
unchecked ``PosRealExact._of``, which no other module calls.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from typing import Dict


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in the library, not bad input."""


# Miller-Rabin with these 13 bases is exact below _MR_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class PrimalityUnproven(ValueError):
    """An integer past _MR_LIMIT that no Miller-Rabin base proves composite."""


def factorize(n: int) -> Dict[int, int]:
    """Factorization of a positive integer, primes in increasing order.

    Trial division below 1000, which is complete for n < 10^6; a larger
    cofactor is split by integer roots, a primality test and Pollard rho;
    the test may raise PrimalityUnproven past _MR_LIMIT."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    out: Dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d > n:  # the cofactor is 1 or a prime
        if n > 1:
            out[n] = 1
        return out
    _split(n, 1, out)
    return dict(sorted(out.items()))


def _split(n: int, k: int, out: Dict[int, int]) -> None:
    """Add the factorization of n^k to ``out``; n has no factor below 1000.

    Roots come first: rho needs about sqrt(p) steps on p^2, and p^2 may lie
    past the Miller-Rabin range while p does not."""
    for e in range(2, n.bit_length() // 9 + 1):  # a root is at least 1000 > 2^9
        r = 1 << -(-n.bit_length() // e)  # Newton's method from above the root
        while (y := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
            r = y
        if r ** e == n:
            return _split(r, k * e, out)
    if is_prime(n):
        out[n] = out.get(n, 0) + k
        return
    d = _pollard_brent(n)
    _split(d, k, out)
    _split(n // d, k, out)


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n by Brent's cycle search on
    y -> y^2 + c for c = 1, 2, ...  One gcd per batch of 128 steps, taken on
    the product of |x - y|; a batch whose gcd is n is walked again step by
    step from its start (Brent, BIT 20 (1980))."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g, y = 1, start
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Division by the 13 Miller-Rabin bases, then Miller-Rabin with them;
    from _MR_LIMIT on a number that passes every base raises PrimalityUnproven.

    A number above 1 that no base divides is a prime above 41 or a composite
    of at least 43^2, and every base is below it."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise PrimalityUnproven(
            f"{n} passes Miller-Rabin to bases 2..41, which proves primality "
            f"only below {_MR_LIMIT}")
    return True


def exact_rational(x):
    """``x``, a number that is to be held exactly.  A float would be taken at
    its binary value and labelled exact, so anything that is not a
    ``numbers.Rational`` raises TypeError."""
    if not isinstance(x, numbers.Rational):
        raise TypeError(f"expected a rational number, got {x!r}")
    return x


class PosRealExact:
    """A positive real number of the form prod p^{e_p}, e_p rational.

    Immutable.  Multiplication adds exponents; ``log()`` wraps ``self`` as
    the exact part of a :class:`LogValue`.
    """

    __slots__ = ("_e",)

    def __init__(self, exponents: Dict[int, Fraction] | None = None):
        cleaned: Dict[int, Fraction] = {}
        for p, e in (exponents or {}).items():
            if not isinstance(e, Fraction):
                e = Fraction(exact_rational(e))
            if e:
                if p < 2:
                    raise ValueError(f"invalid prime base {p}")
                cleaned[int(p)] = e
        self._e = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, cleaned: Dict[int, Fraction]) -> "PosRealExact":
        """Wrap ``cleaned``, unchecked: primes to non-zero ``Fraction``s."""
        x = object.__new__(cls)
        x._e = cleaned
        return x

    @classmethod
    def one(cls) -> "PosRealExact":
        return cls._of({})

    @classmethod
    def prime_power(cls, p: int, e) -> "PosRealExact":
        return cls({p: e})

    @classmethod
    def from_rational(cls, q) -> "PosRealExact":
        q = Fraction(exact_rational(q))
        if q <= 0:
            raise ValueError(f"expected a positive rational, got {q}")
        exps = factorize(q.numerator)  # coprime to the denominator
        exps.update((p, -k) for p, k in factorize(q.denominator).items())
        return cls(exps)

    # -- views -------------------------------------------------------------

    @property
    def exponents(self) -> Dict[int, Fraction]:
        return dict(self._e)

    def is_one(self) -> bool:
        return not self._e

    def __float__(self) -> float:
        return math.exp(float(self.log()))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "PosRealExact") -> "PosRealExact":
        if not (self._e and other._e):
            return self if self._e else other
        exps = dict(self._e)
        for p, e in other._e.items():
            exps[p] = exps[p] + e if p in exps else e
        return PosRealExact._of({p: e for p, e in exps.items() if e})

    def __truediv__(self, other: "PosRealExact") -> "PosRealExact":
        return self * other ** -1

    def __pow__(self, k) -> "PosRealExact":
        if type(k) is not int:
            k = Fraction(exact_rational(k))
        if k == -1:
            return PosRealExact._of({p: -e for p, e in self._e.items()})
        return PosRealExact._of({p: e * k for p, e in self._e.items()} if k else {})

    def log(self) -> "LogValue":
        return LogValue(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, PosRealExact) and self._e == other._e

    def __hash__(self):
        return hash(tuple(sorted(self._e.items())))

    def __repr__(self) -> str:
        if not self._e:
            return "1"
        return " * ".join(f"{p}^{e}" for p, e in sorted(self._e.items()))


class LogValue:
    """The log of a :class:`PosRealExact` plus a float remainder.

    The exact part is the formal sum ``sum_p c_p log p`` over the exponents
    ``c_p`` of that ``PosRealExact``.  Equality is exact on the symbolic
    coefficients and holds the real remainder to a tolerance (default 1e-9).
    A value is exact unless it was given a ``real``, even 0.0 (``of_real``
    included), or computed from one.
    """

    __slots__ = ("_x", "real", "_float")

    DEFAULT_TOL = 1e-9

    def __init__(self, coeffs: Dict[int, Fraction] | PosRealExact | None = None,
                 real: float | None = None):
        self._x = coeffs if isinstance(coeffs, PosRealExact) else PosRealExact(coeffs)
        self._float = real is not None
        self.real = float(real or 0.0)

    @classmethod
    def of_real(cls, x: float) -> "LogValue":
        return cls({}, x)

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return self._x.exponents

    def __float__(self) -> float:
        return math.fsum(float(c) * math.log(p) for p, c in self._x._e.items()) + self.real

    def __add__(self, other: "LogValue") -> "LogValue":
        return LogValue(self._x * other._x, self.real + other.real
                        if self._float or other._float else None)

    def __neg__(self) -> "LogValue":
        return LogValue(self._x ** -1, -self.real if self._float else None)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return LogValue(self._x / other._x, self.real - other.real
                        if self._float or other._float else None)

    def __mul__(self, k) -> "LogValue":
        return LogValue(self._x ** k, float(k) * self.real if self._float else None)

    __rmul__ = __mul__

    def eq(self, other: "LogValue", tol: float | None = None) -> bool:
        """Exact symbolic equality; real remainders within ``tol``."""
        tol = self.DEFAULT_TOL if tol is None else tol
        return self._x == other._x and abs(self.real - other.real) <= tol

    def __eq__(self, other) -> bool:
        return isinstance(other, LogValue) and self.eq(other)

    def __hash__(self):
        raise TypeError("LogValue compares with a tolerance and is unhashable")

    def to_json(self, tolerance: float | None = None) -> dict:
        """Schema: symbolic coefficient list, real remainder, provenance tag."""
        sym = [[p, str(c)] for p, c in sorted(self._x._e.items())]
        if not self._float:
            prov = "exact-symbolic"
        else:
            prov = f"float({tolerance:g})" if tolerance is not None else "float"
        return {"symbolic": sym, "real": self.real, "provenance": prov}

    def __repr__(self) -> str:
        parts = [f"({c})*log{p}" for p, c in sorted(self._x._e.items())]
        if self.real != 0.0 or not parts:
            parts.append(f"{self.real!r}")
        return " + ".join(parts)
