"""Small finite fields F_q and polynomial arithmetic over them.

Used by the global function-field code: places of F_q(t) are monic
irreducible polynomials (plus the degree place), and splitting in a
quadratic extension y^2 = f(t) is decided by a Euler-criterion power in
the residue field F_q[t]/(pi).

Elements of F_q (q = p^k) are encoded as integers in [0, q): the base-p
digits of the integer are the coordinates in the polynomial basis of a
fixed irreducible modulus.  Polynomials over F_q are tuples of such
integers, ascending degree, no trailing zeros.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from .values import factorize

Poly = Tuple[int, ...]

# Fixed moduli for the supported non-prime fields (full coefficient tuple of
# the monic modulus, ascending degree).
_MODULI: Dict[int, Tuple[int, ...]] = {
    4: (1, 1, 1),          # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),       # x^3 + x + 1 over F_2
    9: (1, 0, 1),          # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1 over F_2
    25: (3, 0, 1),         # x^2 + 3 over F_5  (== x^2 - 2)
    27: (1, 2, 0, 1),      # x^3 + 2x + 1 over F_3
    49: (1, 0, 1),         # x^2 + 1 over F_7
}


class GF:
    """Arithmetic in F_q for small prime powers q (tables precomputed)."""

    def __init__(self, q: int):
        fact = factorize(q)
        if len(fact) != 1:
            raise ValueError(f"{q} is not a prime power")
        (self.p, self.k), = fact.items()
        self.q = q
        if self.k > 1 and q not in _MODULI:
            raise ValueError(f"no modulus table for F_{q}")
        self._mul = self._build_mul_table()

    def _digits(self, a: int) -> List[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds: List[int]) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + d % self.p
        return out

    def _build_mul_table(self):
        if self.k == 1:
            return None
        mod = _MODULI[self.q]
        p, k = self.p, self.k
        table = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            da = self._digits(a)
            for b in range(a, self.q):
                db = self._digits(b)
                prod = [0] * (2 * k - 1)
                for i, ca in enumerate(da):
                    if ca:
                        for j, cb in enumerate(db):
                            prod[i + j] = (prod[i + j] + ca * cb) % p
                # reduce modulo the monic modulus
                for i in range(len(prod) - 1, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(k):
                            prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
                val = self._undigits(prod[:k])
                table[a][b] = table[b][a] = val
        return table

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._undigits([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._undigits([-x for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self._pow(a, self.q - 2)

    def _pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def pow(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        if a == 0:
            return 0
        return self._pow(a, n)



@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


# -- polynomials over F_q ----------------------------------------------------


def ptrim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdeg(f: Poly) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def padd(F: GF, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return ptrim(F.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0)
                 for i in range(n))


def pmul(F: GF, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ptrim(out)


def pscale(F: GF, c: int, f: Poly) -> Poly:
    return ptrim(F.mul(c, a) for a in f)


def pdivmod(F: GF, f: Poly, g: Poly) -> Tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = F.inv(g[-1])
    for i in range(len(f) - len(g), -1, -1):
        c = F.mul(r[i + len(g) - 1], inv_lead)
        if c:
            q[i] = c
            for j, b in enumerate(g):
                r[i + j] = F.sub(r[i + j], F.mul(c, b))
    return ptrim(q), ptrim(r)


def pmod(F: GF, f: Poly, g: Poly) -> Poly:
    return pdivmod(F, f, g)[1]


def pmonic(F: GF, f: Poly) -> Poly:
    if not f:
        return f
    return pscale(F, F.inv(f[-1]), f)


def ppow_mod(F: GF, f: Poly, n: int, m: Poly) -> Poly:
    out: Poly = (1,)
    base = pmod(F, f, m)
    while n:
        if n & 1:
            out = pmod(F, pmul(F, out, base), m)
        base = pmod(F, pmul(F, base, base), m)
        n >>= 1
    return out


def monic_polys(F: GF, deg: int) -> Iterator[Poly]:
    """All monic polynomials of exact degree ``deg`` in ascending-coeff order."""
    lead = F.q ** deg
    for idx in range(lead):
        yield int_to_poly(F, lead + idx)


@lru_cache(maxsize=None)
def monic_irreducibles(q: int, max_deg: int) -> Tuple[Poly, ...]:
    """Monic irreducibles of degree <= max_deg, ordered by (degree, coeffs)."""
    F = gf(q)
    return tuple(f for d in range(1, max_deg + 1) for f in monic_polys(F, d)
                 if is_irreducible(F, f))


def pgcd(F: GF, f: Poly, g: Poly) -> Poly:
    """Greatest common divisor, monic (zero when f = g = 0)."""
    while g:
        f, g = g, pmod(F, f, g)
    return pmonic(F, f)


def is_irreducible(F: GF, f: Poly) -> bool:
    """Ben-Or's test: f of degree d >= 2 is irreducible iff it shares no
    factor with x^(q^i) - x for i = 1..d/2."""
    d = pdeg(f)
    xq: Poly = (0, 1)
    for _ in range(d // 2):
        xq = ppow_mod(F, xq, F.q, f)
        if pgcd(F, f, padd(F, xq, (0, F.neg(1)))) != (1,):
            return False
    return d >= 1


def pfactor(F: GF, f: Poly) -> Tuple[int, Dict[Poly, int]]:
    """Factor f as (unit, {monic irreducible: multiplicity}).

    Monic divisors are divided out by increasing degree d while 2d <= deg g:
    a monic divisor of the least degree left is irreducible, and a cofactor
    with no factor of degree <= deg/2 is 1 or irreducible."""
    if not f:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    unit = f[-1]
    g = pmonic(F, f)
    out: Dict[Poly, int] = {}
    d = 1
    while 2 * d <= pdeg(g):
        for h in monic_polys(F, d):
            while True:
                q, r = pdivmod(F, g, h)
                if r:
                    break
                out[h] = out.get(h, 0) + 1
                g = q
        d += 1
    if pdeg(g) > 0:
        out[g] = out.get(g, 0) + 1
    return unit, out


def euler_symbol(F: GF, f: Poly, pi: Poly) -> int:
    """The quadratic-residue symbol of f in F_q[t]/(pi): 1, -1 (as q-1), or 0.

    q must be odd.  Returns 0 when pi | f.
    """
    if F.p == 2:
        raise ValueError("quadratic residue symbol needs odd characteristic")
    r = pmod(F, f, pi)
    if not r:
        return 0
    big_q = F.q ** pdeg(pi)
    s = ppow_mod(F, r, (big_q - 1) // 2, pi)
    if s == (1,):
        return 1
    return -1


def poly_to_int(F: GF, f: Poly) -> int:
    """Base-q integer encoding of a polynomial (used by CLI place selectors)."""
    out = 0
    for c in reversed(f):
        out = out * F.q + c
    return out


def int_to_poly(F: GF, n: int) -> Poly:
    if n < 0:
        raise ValueError(f"polynomial codes are non-negative, got {n}")
    coeffs = []
    while n:
        coeffs.append(n % F.q)
        n //= F.q
    return tuple(coeffs)
