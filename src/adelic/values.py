"""Exact carriers for positive reals and their logarithms.

Measures, absolute values and discriminants in this package are products of
prime powers with rational exponents, so they are stored symbolically as
``prime -> exponent`` maps (:class:`PosRealExact`).  A :class:`LogValue` is
the log of a ``PosRealExact`` plus a float remainder, which carries the
genuinely transcendental contributions (theta sums, archimedean
``log alpha_v``).

Invariant: a ``PosRealExact`` holds its exponents as non-zero integer
numerators n_p over one shared denominator d >= 1, coprime to all of them,
and d = 1 when every exponent is an integer.  Exponents in this package are
integers (valuations times log #k_v) or halves of them (the measure
normalisation -1/2 log d_K), so the arithmetic is integer arithmetic.  The
public constructors check and clean what they are given; the arithmetic
here builds its results from numerators that already hold the invariant,
through the unchecked ``PosRealExact._of``, which no other module calls.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from typing import Dict, Tuple


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


_PRIMES = set()  # bases proven prime: a cache of facts, safe to share


def _check_bases(bases) -> None:
    """Raise TypeError on a base that is not an int (a bool included) and
    ValueError on one that is not prime; otherwise all join _PRIMES."""
    for p in bases:
        if type(p) is not int:
            raise TypeError(f"a prime base must be an int, got {p!r}")
        if p not in _PRIMES and not is_prime(p):
            raise ValueError(f"invalid prime base {p}")
    _PRIMES.update(bases)


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d >= 1, without building the Fraction."""
    g = math.gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def exact_rational(x):
    """``x``, a number that is to be held exactly.  A float would be taken at
    its binary value and labelled exact, so anything that is not a
    ``numbers.Rational`` raises TypeError."""
    if not isinstance(x, numbers.Rational):
        raise TypeError(f"expected a rational number, got {x!r}")
    return x


class PosRealExact:
    """A positive real number of the form prod p^(n_p / d), exactly.

    Immutable.  Stored as integer numerators n_p != 0 over one shared
    denominator d >= 1 that is coprime to all of them, with d = 1 when every
    exponent is an integer (the number 1 included), so the form is unique.
    Multiplication adds exponents; ``log()`` wraps ``self`` as the exact part
    of a :class:`LogValue`.  ``exponents`` views the form as ``Fraction``s.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, exponents: Dict[int, Fraction] | None = None):
        exps = exponents or {}
        # a non-int key may equal a proven prime, so the types come first
        if all(type(p) is type(e) is int for p, e in exps.items()):
            if not _PRIMES.issuperset(exps):
                _check_bases(exps)
            n, d = {p: e for p, e in exps.items() if e}, 1
        else:
            _check_bases(exps)
            fr = {p: Fraction(exact_rational(e)) for p, e in exps.items()}
            d = math.lcm(1, *(e.denominator for e in fr.values()))
            n = {p: e.numerator * (d // e.denominator) for p, e in fr.items() if e}
        self._n, self._d = n, d

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, n: Dict[int, int], d: int) -> "PosRealExact":
        """Wrap primes -> non-zero int numerators n_p over d >= 1, unchecked;
        a factor that d shares with every n_p is cancelled."""
        if d > 1:
            g = math.gcd(d, *n.values())
            if g > 1:
                n, d = {p: e // g for p, e in n.items()}, d // g
        x = object.__new__(cls)
        x._n, x._d = n, d
        return x

    @classmethod
    def one(cls) -> "PosRealExact":
        return _ONE

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
        return {p: Fraction(n, self._d) for p, n in self._n.items()}

    def is_one(self) -> bool:
        return not self._n

    def __float__(self) -> float:
        return math.exp(float(self.log()))

    def split_rational(self) -> Tuple[int, int, "PosRealExact"]:
        """(num, den, residual) with self = num / den * residual, num and den
        coprime positive ints and every exponent of residual in [0, 1)."""
        num = den = 1
        rest: Dict[int, int] = {}
        d = self._d
        for p, n in self._n.items():
            k, r = divmod(n, d)
            if k > 0:
                num *= p ** k
            elif k < 0:
                den *= p ** -k
            if r:
                rest[p] = r
        # a non-integral exponent keeps its reduced denominator, so d stays least
        return num, den, PosRealExact._of(rest, d) if rest else _ONE

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "PosRealExact") -> "PosRealExact":
        if not (self._n and other._n):
            return self if self._n else other
        d1, d2 = self._d, other._d
        d = d1 if d1 == d2 else math.lcm(d1, d2)
        s, t = d // d1, d // d2
        n = dict(self._n) if s == 1 else {p: e * s for p, e in self._n.items()}
        for p, e in other._n.items():
            e = n.get(p, 0) + e * t
            if e:
                n[p] = e
            else:
                del n[p]
        return PosRealExact._of(n, d)

    def __truediv__(self, other: "PosRealExact") -> "PosRealExact":
        return self * other ** -1

    def __pow__(self, k) -> "PosRealExact":
        if type(k) is int:
            num, den = k, 1
        else:
            k = Fraction(exact_rational(k))
            num, den = k.numerator, k.denominator
        if not (num and self._n):
            return _ONE
        return PosRealExact._of({p: e * num for p, e in self._n.items()}, self._d * den)

    def log(self) -> "LogValue":
        return LogValue(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, PosRealExact) and self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self._d, frozenset(self._n.items())))

    def __repr__(self) -> str:
        if not self._n:
            return "1"
        return " * ".join(f"{p}^{_ratio(n, self._d)}" for p, n in sorted(self._n.items()))


_ONE = PosRealExact._of({}, 1)


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
        return cls(_ONE, x)

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return self._x.exponents

    def __float__(self) -> float:
        # n / d is int true division, rounded once like float(Fraction(n, d))
        d = self._x._d
        return math.fsum(n / d * math.log(p) for p, n in self._x._n.items()) + self.real

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
        sym = [[p, str(c)] for p, c in sorted(self.coeffs.items())]
        if not self._float:
            prov = "exact-symbolic"
        else:
            prov = f"float({tolerance:g})" if tolerance is not None else "float"
        return {"symbolic": sym, "real": self.real, "provenance": prov}

    def __repr__(self) -> str:
        d = self._x._d
        parts = [f"({_ratio(n, d)})*log{p}" for p, n in sorted(self._x._n.items())]
        if self.real != 0.0 or not parts:
            parts.append(f"{self.real!r}")
        return " + ".join(parts)
