"""Exact arithmetic in non-archimedean local fields of degree <= 2.

Supported fields: Q_p, F_p((t)), and quadratic extensions of either given by
a monic defining polynomial x^2 + b*x + c that is unramified (irreducible
reduction) or ramified through a validated shape.  Elements are stored as
exact coordinates in the power basis {1, theta} of the defining polynomial;
the public view is a digit expansion in a designated uniformizer with
residue-field digits.

The package normalizes the Haar measure by mu(O_v) = p^(-disc_exponent/2),
and the standard additive character is psi(trace(x)) with

    psi(x) = exp(-2*pi*i*Lambda(x))        on Q_p,
    psi(sum a_i t^i) = exp(2*pi*i*a_{-1}/p)  on F_p((t)),

where Lambda is the p-adic fractional part sum_{i<0} a_i p^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Tuple, Union

from .values import InvariantError, PosRealExact, is_prime

DEFAULT_DIGITS = 32

P_ADIC = "p-adic"
LAURENT = "laurent-series"


class LocalFieldError(Exception):
    pass


class WrongBase(LocalFieldError):
    """Operation applied to an element over the wrong kind of base field."""


class InvalidDefiningPolynomial(LocalFieldError):
    pass


# ---------------------------------------------------------------------------
# base-field scalars: Fraction for Q_p, finite Laurent polynomials for F_p((t))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentScalar:
    """A finite F_p-linear combination of powers of t (exponents in Z)."""

    p: int
    terms: Tuple[Tuple[int, int], ...]  # sorted (exponent, coeff), coeff in [1, p)

    @classmethod
    def make(cls, p: int, data) -> "LaurentScalar":
        if isinstance(data, LaurentScalar):
            return data
        if isinstance(data, Fraction):
            if data.denominator % p == 0:
                raise ValueError(f"{data} is not a constant mod {p}")
            data = data.numerator * pow(data.denominator, -1, p)
        if isinstance(data, int):
            data = {0: data}
        terms = tuple(sorted((e, c % p) for e, c in data.items() if c % p))
        return cls(p, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        return self.terms[0][0] if self.terms else None

    def coeff(self, e: int) -> int:
        for ee, c in self.terms:
            if ee == e:
                return c
        return 0

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        out: Dict[int, int] = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentScalar.make(self.p, out)

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar(self.p, tuple((e, (-c) % self.p) for e, c in self.terms))

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other: "LaurentScalar") -> "LaurentScalar":
        out: Dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentScalar.make(self.p, out)

    def __truediv__(self, other: "LaurentScalar") -> "LaurentScalar":
        if other.is_zero():
            raise ZeroDivisionError
        if len(other.terms) != 1:
            raise LocalFieldError(
                "Laurent scalar division is supported for monomial divisors only"
            )
        (e0, c0), = other.terms
        cinv = pow(c0, -1, self.p)
        return LaurentScalar(
            self.p, tuple((e - e0, (c * cinv) % self.p) for e, c in self.terms)
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in self.terms)


Scalar = Union[Fraction, LaurentScalar]


def _scalar(field: "LocalFieldDesc", data) -> Scalar:
    if field.base_kind == P_ADIC:
        if isinstance(data, LaurentScalar):
            raise WrongBase("Laurent scalar in a p-adic field")
        return Fraction(data)
    return LaurentScalar.make(field.p, data)


def _szero(field: "LocalFieldDesc") -> Scalar:
    return Fraction(0) if field.base_kind == P_ADIC else LaurentScalar(field.p, ())


def _is_zero(s: Scalar) -> bool:
    if isinstance(s, LaurentScalar):
        return s.is_zero()
    return s == 0


def _sval(s: Scalar, p: int):
    """Base valuation of a scalar; None for zero."""
    if isinstance(s, LaurentScalar):
        return s.valuation()
    if s == 0:
        return None
    v = 0
    n = s.numerator
    while n % p == 0:
        n //= p
        v += 1
    if v:
        return v
    d = s.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _sres(s: Scalar, p: int) -> int:
    """Residue in [0, p) of a scalar with base valuation >= 0."""
    if isinstance(s, LaurentScalar):
        return s.coeff(0)
    if s.denominator % p == 0:
        raise ValueError(f"{s} is not integral at {p}")
    return s.numerator * pow(s.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalFieldDesc:
    """A local field by its defining data: p, the base kind and the
    polynomial, which alone decide equality and the hash.  The factory
    derives the rest from them.

    ``disc_exponent`` is the base valuation of the discriminant of the
    defining polynomial, normalized so mu(O_v) = p^(-disc_exponent/2).  For
    every supported shape it coincides with the exponent of the different.
    """

    p: int
    base_kind: str
    rel_degree: int = dc_field(compare=False)
    poly: Tuple[Scalar, Scalar] | None  # (b, c) of x^2 + b x + c
    # derived, fixed by the factory:
    e: int = dc_field(compare=False)
    f: int = dc_field(compare=False)
    disc_exponent: int = dc_field(compare=False)
    uniformizer_coords: Tuple[Scalar, Scalar] = dc_field(compare=False)
    ram_root: int = dc_field(compare=False)  # residue of theta if ramified, else 0

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.base_kind, self.poly))

    def __hash__(self) -> int:
        # every field-keyed cache lookup hashes the descriptor: hash poly's
        # Fractions once per descriptor, not once per lookup
        return self._hash

    def __getstate__(self) -> dict:
        # a str hashes differently in another process
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def residue_card(self) -> int:
        return self.p ** self.f

    @property
    def different_exponent(self) -> int:
        return self.disc_exponent

    def base(self) -> "LocalFieldDesc":
        return base_field(self.p, self.base_kind)

    @cached_property
    def _residue_reps(self) -> Tuple:
        if self.f == 1:
            return tuple(range(self.p))
        return tuple((a, b) for a in range(self.p) for b in range(self.p))

    def residue_reps(self) -> Tuple:
        """Canonical residue digits, lowest lifts first (built once per
        descriptor)."""
        return self._residue_reps

    @cached_property
    def residue_index(self) -> Dict:
        """Each residue digit's position in residue_reps()."""
        return {dg: i for i, dg in enumerate(self._residue_reps)}

    def describe(self) -> str:
        base = f"Q_{self.p}" if self.base_kind == P_ADIC else f"F_{self.p}((t))"
        if self.rel_degree == 1:
            return base
        b, c = self.poly
        return f"{base}[x]/(x^2 + ({b})x + ({c}))"


@lru_cache(maxsize=None)
def base_field(p: int, kind: str = P_ADIC) -> LocalFieldDesc:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind not in (P_ADIC, LAURENT):
        raise ValueError(f"unknown base kind {kind!r}")
    pi = Fraction(p) if kind == P_ADIC else LaurentScalar(p, ((1, 1),))
    zero = Fraction(0) if kind == P_ADIC else LaurentScalar(p, ())
    return LocalFieldDesc(
        p=p, base_kind=kind, rel_degree=1, poly=None, e=1, f=1,
        disc_exponent=0, uniformizer_coords=(pi, zero), ram_root=0,
    )


def quadratic_extension(base: LocalFieldDesc, b, c) -> LocalFieldDesc:
    """Build the quadratic extension with defining polynomial x^2 + b x + c.

    Accepted shapes:

    - unramified: the reduction mod pi is irreducible over F_p;
    - Eisenstein: v(b) >= 1 and v(c) = 1 (odd p; for p = 2 only b = 0,
      i.e. x^2 - 2u; Laurent-series bases additionally need b = 0 and c a
      monomial, and no p = 2 ramified Laurent extensions at all);
    - p = 2 unit-ramified: x^2 - u over Q_2 with u = 3 mod 4.

    Anything else is rejected: wild shapes outside this list do not satisfy
    disc_exponent = v(disc(polynomial)).
    """
    if base.rel_degree != 1:
        raise InvalidDefiningPolynomial("towers of quadratic extensions are unsupported")
    p = base.p
    b = _scalar(base, b)
    c = _scalar(base, c)
    vb = _sval(b, p)
    vc = _sval(c, p)
    if vc is None:
        raise InvalidDefiningPolynomial("x^2 + bx + c with c = 0 is not irreducible")
    zero = _szero(base)

    # discriminant of the polynomial
    disc = b * b - _scalar(base, 4) * c
    vdisc = _sval(disc, p)

    if vc == 0:
        bres = _sres(b, p) if (vb is not None and vb >= 0) else None
        if vb is not None and vb < 0:
            raise InvalidDefiningPolynomial("non-integral defining polynomial")
        cres = _sres(c, p)
        if p != 2:
            # irreducible reduction <=> disc is a unit non-square mod p
            if vdisc == 0 and pow(_sres(disc, p), (p - 1) // 2, p) == p - 1:
                return LocalFieldDesc(p, base.base_kind, 2, (b, c), 1, 2, 0,
                                      (base.uniformizer_coords[0], zero), 0)
            raise InvalidDefiningPolynomial(
                "reduction mod p is reducible; not an unramified polynomial")
        # p = 2
        if (bres or 0) == 1:
            if cres != 1:
                raise InvalidDefiningPolynomial(
                    "reduction x^2 + x is reducible over F_2")
            # x^2 + x + 1 type: unramified
            return LocalFieldDesc(p, base.base_kind, 2, (b, c), 1, 2, 0,
                                  (base.uniformizer_coords[0], zero), 0)
        # b = 0 mod 2 over Q_2: the validated unit-ramified shape x^2 - u
        if base.base_kind != P_ADIC:
            raise InvalidDefiningPolynomial(
                "no separable ramified quadratics of F_2((t)) in scope")
        if not _is_zero(b):
            raise InvalidDefiningPolynomial(
                "2-adic ramified polynomials must have b = 0 (x^2 - u, x^2 - 2u)")
        u = -c  # c = -u
        if u.denominator % 2 == 0:
            raise InvalidDefiningPolynomial("non-integral defining polynomial")
        u_mod4 = (u.numerator * pow(u.denominator, -1, 4)) % 4
        if u_mod4 != 3:
            raise InvalidDefiningPolynomial(
                "x^2 - u over Q_2 is validated only for u = 3 mod 4 "
                "(u = 1 mod 8 splits; u = 5 mod 8 needs the unramified shape)")
        if vdisc != 2:
            raise InvariantError(f"x^2 - u, u = 3 mod 4: disc valuation {vdisc} != 2")
        # uniformizer 1 + theta, N(1 + theta) = 1 + c has valuation 1
        return LocalFieldDesc(p, base.base_kind, 2, (b, c), 2, 1, 2,
                              (_scalar(base, 1), _scalar(base, 1)), 1)

    if vc == 1 and (vb is None or vb >= 1):
        # Eisenstein
        if base.base_kind == LAURENT:
            if p == 2:
                raise InvalidDefiningPolynomial(
                    "ramified quadratics of F_2((t)) are wild/inseparable; out of scope")
            if not _is_zero(b) or len(c.terms) != 1:
                raise InvalidDefiningPolynomial(
                    "Laurent Eisenstein polynomials are validated as x^2 - u*t only")
        if p == 2 and not _is_zero(b):
            raise InvalidDefiningPolynomial(
                "2-adic Eisenstein polynomials are validated as x^2 - 2u only")
        expected = 3 if p == 2 else 1
        if vdisc != expected:
            raise InvalidDefiningPolynomial(
                f"discriminant valuation {vdisc} != {expected}")
        return LocalFieldDesc(p, base.base_kind, 2, (b, c), 2, 1, expected,
                              (zero, _scalar(base, 1)), 0)

    raise InvalidDefiningPolynomial(
        "defining polynomial is neither unramified nor Eisenstein")


# ---------------------------------------------------------------------------
# coordinate arithmetic
# ---------------------------------------------------------------------------

Coords = Tuple[Scalar, Scalar]


def _cadd(a: Coords, b: Coords) -> Coords:
    return (a[0] + b[0], a[1] + b[1])


def _cneg(a: Coords) -> Coords:
    return (-a[0], -a[1])


def _cmul(field: LocalFieldDesc, x: Coords, y: Coords) -> Coords:
    x0, x1 = x
    y0, y1 = y
    if field.rel_degree == 1:
        return (x0 * y0, _szero(field))
    b, c = field.poly
    cross = x1 * y1
    return (x0 * y0 - c * cross, x0 * y1 + x1 * y0 - b * cross)


def _cval(field: LocalFieldDesc, x: Coords):
    """Valuation normalized so the designated uniformizer has valuation 1."""
    x0, x1 = x
    if field.rel_degree == 1:
        return _sval(x0, field.p)
    if _is_zero(x0) and _is_zero(x1):
        return None
    b, c = field.poly
    norm = x0 * x0 - b * x0 * x1 + c * x1 * x1
    vn = _sval(norm, field.p)
    if vn is None:
        raise InvariantError("norm of a nonzero element vanished")
    if field.e == 1:
        if vn % 2:
            raise InvariantError(f"odd norm valuation {vn} in an unramified field")
        return vn // 2
    return vn


def _cres(field: LocalFieldDesc, x: Coords):
    """Residue digit of an integral element (valuation >= 0)."""
    p = field.p
    if field.rel_degree == 1:
        return _sres(x[0], p)
    if field.f == 2:
        return (_sres(x[0], p), _sres(x[1], p))
    return (_sres(x[0], p) + _sres(x[1], p) * field.ram_root) % p


def _clift(field: LocalFieldDesc, digit) -> Coords:
    zero = _szero(field)
    if field.rel_degree == 1:
        return (_scalar(field, digit), zero)
    if field.f == 2:
        return (_scalar(field, digit[0]), _scalar(field, digit[1]))
    return (_scalar(field, digit), zero)


@lru_cache(maxsize=None)
def _pi_inverse(field: LocalFieldDesc) -> Coords:
    pi0, pi1 = field.uniformizer_coords
    if field.rel_degree == 1:
        one = _scalar(field, 1)
        return (one / pi0, pi1)
    b, c = field.poly
    # 1/pi = conj(pi) / N(pi), conj(x0 + x1 theta) = (x0 - b x1) - x1 theta
    norm = pi0 * pi0 - b * pi0 * pi1 + c * pi1 * pi1
    return ((pi0 - b * pi1) / norm, (-pi1) / norm)


@lru_cache(maxsize=None)
def _pi_power(field: LocalFieldDesc, k: int) -> Coords:
    """pi^k by square-and-multiply over the bits of |k|."""
    base = field.uniformizer_coords if k >= 0 else _pi_inverse(field)
    power = (_scalar(field, 1), _szero(field))
    for bit in bin(abs(k))[2:]:
        power = _cmul(field, power, power)
        if bit == "1":
            power = _cmul(field, power, base)
    return power


def _digits_coords(field: LocalFieldDesc, start: int, digits) -> Coords:
    """Coordinates of sum_j lift(digits[j]) * pi^(start + j)."""
    coords = (_szero(field), _szero(field))
    for j, d in enumerate(digits):
        coords = _cadd(coords, _cmul(field, _clift(field, d), _pi_power(field, start + j)))
    return coords


def _expand_digits(field: LocalFieldDesc, coords: Coords, start: int, count: int) -> Tuple:
    """Digits of the element at positions start..start+count-1.

    Requires valuation(coords) >= start.  Greedy residue extraction: shift
    by pi^-start, then repeatedly peel the residue digit.
    """
    shifted = _cmul(field, coords, _pi_power(field, -start))
    digits = []
    pinv = _pi_inverse(field)
    for _ in range(count):
        d = _cres(field, shifted)
        digits.append(d)
        shifted = _cmul(field, _cadd(shifted, _cneg(_clift(field, d))), pinv)
    return tuple(digits)


def negate_digits(field: LocalFieldDesc, start: int, digits) -> Tuple:
    """Digits at positions start..start+len(digits)-1 of -x, where x is
    sum_j lift(digits[j]) * pi^(start + j)."""
    return _expand_digits(field, _cneg(_digits_coords(field, start, digits)), start, len(digits))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class LocalElement:
    """An element of a local field, given by exact coordinates.  ``digits``
    is the expansion in the designated uniformizer from the valuation, capped
    at DEFAULT_DIGITS (1/3 in Q_2, say, has an infinite expansion).

    Immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("field", "coords", "_val")

    def __init__(self, field: LocalFieldDesc, coords: Coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_val", _cval(field, coords))

    def __setattr__(self, *a):
        raise AttributeError("LocalElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: LocalFieldDesc) -> "LocalElement":
        z = _szero(field)
        return cls(field, (z, z))

    @classmethod
    def one(cls, field: LocalFieldDesc) -> "LocalElement":
        return cls(field, (_scalar(field, 1), _szero(field)))

    @classmethod
    def from_rational(cls, field: LocalFieldDesc, q) -> "LocalElement":
        """Embed a rational (p-adic base) or constant (Laurent base)."""
        return cls(field, (_scalar(field, Fraction(q)), _szero(field)))

    @classmethod
    def from_coords(cls, field: LocalFieldDesc, c0, c1=0) -> "LocalElement":
        return cls(field, (_scalar(field, c0), _scalar(field, c1)))

    @classmethod
    def from_digits(cls, field: LocalFieldDesc, valuation: int, digits) -> "LocalElement":
        """The element sum_j digits[j] * pi^(valuation + j)."""
        return cls(field, _digits_coords(field, valuation, digits))

    @classmethod
    def uniformizer(cls, field: LocalFieldDesc) -> "LocalElement":
        return cls(field, field.uniformizer_coords)

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        """True for the zero element."""
        return self._val is None

    @property
    def digits(self) -> Tuple:
        if self._val is None:
            return ()
        return _expand_digits(self.field, self.coords, self._val, DEFAULT_DIGITS)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"0 in {self.field.describe()}"
        prefix = self.digits[:6]
        v = self._val
        return f"<{self.field.describe()}: v={v}, digits {list(prefix)}...>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    # -- arithmetic -------------------------------------------------------------

    def _check_field(self, other: "LocalElement"):
        if self.field != other.field:
            raise LocalFieldError("elements of different local fields")

    def __add__(self, other: "LocalElement") -> "LocalElement":
        self._check_field(other)
        return LocalElement(self.field, _cadd(self.coords, other.coords))

    def __neg__(self) -> "LocalElement":
        return LocalElement(self.field, _cneg(self.coords))

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        self._check_field(other)
        return LocalElement(self.field, _cmul(self.field, self.coords, other.coords))


# ---------------------------------------------------------------------------
# angles on the unit circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitAngle:
    """exp(2*pi*i*r) for a rational r reduced modulo 1."""

    r: Fraction

    @classmethod
    def make(cls, r) -> "UnitAngle":
        r = Fraction(r)
        return cls(r - (r.numerator // r.denominator))

    def __add__(self, other: "UnitAngle") -> "UnitAngle":
        return UnitAngle.make(self.r + other.r)

    def is_zero(self) -> bool:
        return self.r == 0

    def __repr__(self) -> str:
        return f"e(2pi*i*{self.r})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def valuation(x: LocalElement):
    """pi-adic valuation; math.inf for zero."""
    return math.inf if x._val is None else x._val


def abs_value(x: LocalElement) -> PosRealExact:
    """|x|_v = (#k(v))^(-v(x)) as an exact prime power."""
    v = valuation(x)
    if v == math.inf:
        raise ZeroDivisionError("|0| = 0 is not a PosRealExact")
    return PosRealExact.prime_power(x.field.p, -x.field.f * v)


def lambda_fractional(x: LocalElement) -> Fraction:
    """The p-adic fractional part sum_{i<0} a_i p^i of an element of Q_p."""
    if x.field.base_kind != P_ADIC:
        raise WrongBase("fractional part is defined on p-adic base fields")
    if x.field.rel_degree != 1:
        raise WrongBase("fractional part applies to elements of Q_p itself")
    q = x.coords[0]
    if q == 0:
        return Fraction(0)
    v = _sval(q, x.field.p)
    if v >= 0:
        return Fraction(0)
    m = x.field.p ** (-v)
    d_unit = q.denominator // m  # v < 0, so p^(-v) exactly divides the denominator
    num = q.numerator * pow(d_unit, -1, m) % m
    return Fraction(num, m)


def residue_coefficient_angle(x: LocalElement) -> UnitAngle:
    """Angle a_{-1}/p from the t^(-1) coefficient of an F_p((t)) element."""
    if x.field.base_kind != LAURENT or x.field.rel_degree != 1:
        raise WrongBase("residue coefficient is defined on F_p((t)) itself")
    a = x.coords[0].coeff(-1)
    return UnitAngle.make(Fraction(a, x.field.p))


def trace_to_base(x: LocalElement) -> LocalElement:
    """Trace of a degree-2 element down to the base field.

    Computed as the trace of the 2x2 multiplication matrix of x in the
    power basis {1, theta}: for x = x0 + x1*theta this is 2*x0 - b*x1.
    """
    field = x.field
    if field.rel_degree != 2:
        raise WrongBase("trace_to_base needs a quadratic extension")
    b, _ = field.poly
    tr = x.coords[0] + x.coords[0] - b * x.coords[1]
    base = field.base()
    return LocalElement(base, (tr, _szero(base)))


def standard_character(x: LocalElement) -> UnitAngle:
    """The standard additive character psi(trace(x)) as a unit angle."""
    y = trace_to_base(x) if x.field.rel_degree == 2 else x
    if y.field.base_kind == P_ADIC:
        return UnitAngle.make(-lambda_fractional(y))
    return residue_coefficient_angle(y)


def local_measure(field: LocalFieldDesc) -> PosRealExact:
    """mu(O_v) = p^(-disc_exponent/2); 1 for unramified fields."""
    return PosRealExact.prime_power(field.p, Fraction(-field.disc_exponent, 2))


def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic non-residue modulo an odd prime."""
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError(f"no non-residue mod {p}?")


def validated_quadratics(p: int, kind: str) -> Tuple[LocalFieldDesc, ...]:
    """The quadratic extensions exercised by the verification suites."""
    base = base_field(p, kind)
    if kind == P_ADIC:
        if p == 2:
            # unramified, unit-ramified (u = -1, 3), wildly ramified (x^2-2, x^2-6)
            return (
                quadratic_extension(base, 1, 1),
                quadratic_extension(base, 0, 1),    # x^2 + 1
                quadratic_extension(base, 0, -3),   # x^2 - 3
                quadratic_extension(base, 0, -2),   # x^2 - 2
                quadratic_extension(base, 0, -6),   # x^2 - 6
            )
        u = smallest_nonresidue(p)
        return (
            quadratic_extension(base, 0, -u),       # unramified
            quadratic_extension(base, 0, -p),       # Eisenstein
            quadratic_extension(base, 0, -p * u),   # Eisenstein, twisted
        )
    if p == 2:
        return (quadratic_extension(base, 1, 1),)
    u = smallest_nonresidue(p)
    return (
        quadratic_extension(base, 0, {0: -u}),      # unramified constant
        quadratic_extension(base, 0, {1: -1}),      # Eisenstein x^2 - t
    )
