"""Global field descriptors, places, ideles and Arakelov divisors.

Supported fields: Q, quadratic number fields Q(sqrt d), rational function
fields F_q(t), and hyperelliptic extensions y^2 = f(t) for odd q.  Places
carry their splitting data (by the Kronecker symbol of the discriminant,
resp. the residue symbol of f); ramification and residue cardinalities
follow from it.

Conventions.  An idele stores its finite components as valuations
n = v(alpha_v) and its archimedean components as positive reals.  The
divisor of an idele uses the classical sign: the coefficient at a finite
place is -v(alpha_v) (so the associated lattice of global sections is
prod P^{v(alpha_v)}, the set of x with v(x) >= v(alpha) everywhere), and
the coefficient at an archimedean place is e_v * log(alpha_v).  With these
choices the divisor degree equals the idele log-norm uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

from . import ffpoly
from .ffpoly import Poly, gf
from .localfields import (
    P_ADIC,
    LocalFieldDesc,
    _sres,
    _sval,
    base_field,
    quadratic_extension,
    smallest_nonresidue,
)
from .values import InvariantError, LogValue, PosRealExact, factorize, is_prime

INFINITY = "infinity"

RATIONAL = "rational"
QUADRATIC = "quadratic-number-field"
RATFUNC = "rational-function-field"
HYPERELLIPTIC = "hyperelliptic-function-field"

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class GlobalFieldError(Exception):
    pass


class UnsupportedField(GlobalFieldError):
    pass


class NotAnExtension(GlobalFieldError):
    pass


def kronecker_of_disc(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for a fundamental discriminant D at a prime."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 == 1 else -1
    r = D % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


@dataclass(frozen=True)
class GlobalFieldDesc:
    kind: str
    d: int | None = None          # quadratic number fields
    q: int | None = None          # function fields
    fpoly: Poly | None = None     # hyperelliptic defining polynomial

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rationals() -> "GlobalFieldDesc":
        return GlobalFieldDesc(RATIONAL)

    @staticmethod
    def quadratic(d: int) -> "GlobalFieldDesc":
        if d in (0, 1) or not _is_squarefree(d):
            raise UnsupportedField(f"d = {d} must be squarefree and != 0, 1")
        return GlobalFieldDesc(QUADRATIC, d=d)

    @staticmethod
    def rational_function_field(q: int) -> "GlobalFieldDesc":
        gf(q)  # validates that q is a supported prime power
        return GlobalFieldDesc(RATFUNC, q=q)

    @staticmethod
    def hyperelliptic(q: int, coeffs) -> "GlobalFieldDesc":
        F = gf(q)
        if q % 2 == 0:
            raise UnsupportedField("hyperelliptic fields need odd q")
        f = ffpoly.ptrim(coeffs)
        if ffpoly.pdeg(f) < 1 or f[-1] != 1:
            raise UnsupportedField("f must be monic of positive degree")
        deriv = ffpoly.ptrim(F.mul(i % F.p, f[i]) for i in range(1, len(f)))
        # squarefree <=> gcd(f, f') = 1
        if ffpoly.pgcd(F, f, deriv) != (1,):
            raise UnsupportedField("f must be squarefree")
        return GlobalFieldDesc(HYPERELLIPTIC, q=q, fpoly=f)

    # -- invariants ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return 2 if self.kind in (QUADRATIC, HYPERELLIPTIC) else 1

    @property
    def disc(self) -> int:
        """Fundamental discriminant of a quadratic number field."""
        if self.kind == RATIONAL:
            return 1
        if self.kind != QUADRATIC:
            raise UnsupportedField("disc is a number-field invariant")
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def signature(self) -> Tuple[int, int]:
        if self.kind == RATIONAL:
            return (1, 0)
        if self.kind == QUADRATIC:
            return (2, 0) if self.d > 0 else (0, 1)
        raise UnsupportedField("signature is a number-field invariant")

    @property
    def genus(self) -> int:
        if self.kind == RATFUNC:
            return 0
        if self.kind == HYPERELLIPTIC:
            return (ffpoly.pdeg(self.fpoly) - 1) // 2
        raise UnsupportedField("genus is a function-field invariant")

    @property
    def is_function_field(self) -> bool:
        return self.kind in (RATFUNC, HYPERELLIPTIC)

    def omega_params(self) -> Tuple[int, int]:
        """(trace, norm) of the integral generator omega of a quadratic field:
        omega = (1+sqrt d)/2 when d = 1 mod 4, else sqrt d."""
        if self.kind != QUADRATIC:
            raise UnsupportedField("omega is a quadratic-field generator")
        if self.d % 4 == 1:
            return (1, (1 - self.d) // 4)
        return (0, -self.d)

    def describe(self) -> str:
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == QUADRATIC:
            return "Q(i)" if self.d == -1 else f"Q(sqrt {self.d})"
        if self.kind == RATFUNC:
            return f"F{self.q}(t)"
        return f"F{self.q}(t)[y]/(y^2 - f), f={list(self.fpoly)}"

    @property
    def prime_field(self) -> "GlobalFieldDesc":
        if self.kind in (RATIONAL, QUADRATIC):
            return GlobalFieldDesc.rationals()
        return GlobalFieldDesc.rational_function_field(self.q)


@dataclass(frozen=True)
class Place:
    """A place of a global field.  Stored: its defining data (the place
    below, splitting, index, and omega's root mod p on a quadratic field).
    Derived from them: e, f, whether it is archimedean, e_v, #k_v = p^k as
    the pair (p, k) and as an int, its degree over the constant field (0 on
    number fields) and log #k_v; None, None, 0 and None at an archimedean
    place."""

    field: GlobalFieldDesc
    below: object                 # rational prime, base polynomial, or INFINITY
    splitting: str | None = None
    index: int = 0
    root: int | None = None       # omega root mod p (number-field places)

    @property
    def e(self) -> int:
        return 2 if self.splitting == RAMIFIED else 1

    @property
    def f(self) -> int:
        return 2 if self.splitting == INERT else 1

    @cached_property
    def deg(self) -> int:
        """Degree of k_v over the constant field F_q; 0 on number fields."""
        if not self.field.is_function_field:
            return 0
        return self.f * (1 if self.below == INFINITY else ffpoly.pdeg(self.below))

    @cached_property
    def card_power(self) -> Tuple[int, int] | None:
        """(p, k) with #k_v = p^k: f over a rational prime, k deg on a
        function field over F_(p^k)."""
        if self.is_archimedean():
            return None
        if self.deg:
            F = gf(self.field.q)
            return F.p, F.k * self.deg
        return self.below, self.f

    @cached_property
    def residue_card(self) -> int | None:
        if self.is_archimedean():
            return None
        p, k = self.card_power
        return p ** k

    @cached_property
    def log_card(self) -> LogValue | None:
        """log #k_v = k log p, exact."""
        if self.is_archimedean():
            return None
        p, k = self.card_power
        return LogValue({p: k})

    @property
    def e_v(self) -> int:
        if not self.is_archimedean():
            raise GlobalFieldError("e_v is an archimedean constant")
        return 2 if self.field.kind == QUADRATIC and self.field.d < 0 else 1

    def is_archimedean(self) -> bool:
        return self.below == INFINITY and not self.field.is_function_field

    def is_ramified(self) -> bool:
        return self.splitting == RAMIFIED

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        """The label, formatted once: it is the sort key of every idele and
        divisor component."""
        if self.below == INFINITY:
            return f"inf#{self.index}"
        if self.field.is_function_field:
            return f"p{ffpoly.poly_to_int(gf(self.field.q), self.below)}#{self.index}"
        return f"p{self.below}#{self.index}"

    def __repr__(self) -> str:
        return f"Place({self.field.describe()}, {self.label()})"


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a nonzero square a modulo an odd prime (Tonelli-Shanks)."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0  # p - 1 = q 2^s, q odd
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c, t, r = pow(smallest_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # t has order 2^i, i < s
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def places_above(field: GlobalFieldDesc, below) -> List[Place]:
    """All places of the field over a place of its prime field.

    ``below`` is a rational prime, a monic irreducible of F_q[t] (tuple of
    coefficients), or the string "infinity".
    """
    if isinstance(below, list):
        below = tuple(below)
    return list(_places_above(field, below))


@lru_cache(maxsize=None)
def _places_above(field: GlobalFieldDesc, below) -> Tuple[Place, ...]:
    if field.kind == RATIONAL:
        if below == INFINITY:
            return (Place(field, INFINITY),)
        if not is_prime(below):
            raise UnsupportedField(f"{below} is not a prime")
        return (Place(field, below),)

    if field.kind == QUADRATIC:
        if below == INFINITY:
            if field.d > 0:
                return tuple(Place(field, INFINITY, index=i) for i in (0, 1))
            return (Place(field, INFINITY),)
        p = below
        if not is_prime(p):
            raise UnsupportedField(f"{below} is not a prime")
        D = field.disc
        t, _ = field.omega_params()
        sym = kronecker_of_disc(D, p)
        if sym == 1:
            if p == 2:
                roots = [0, 1]
            else:
                s = _sqrt_mod_p(D, p)
                inv2 = pow(2, -1, p)
                roots = sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})
            return tuple(Place(field, p, SPLIT, i, r) for i, r in enumerate(roots))
        if sym == -1:
            return (Place(field, p, INERT),)
        root = (t * pow(2, -1, p)) % p if p != 2 else (1 if field.d % 4 == 3 else 0)
        return (Place(field, p, RAMIFIED, root=root),)

    hyper = field.kind == HYPERELLIPTIC
    if below == INFINITY:
        if not hyper:
            return (Place(field, INFINITY),)
        if ffpoly.pdeg(field.fpoly) % 2 == 1:
            return (Place(field, INFINITY, RAMIFIED),)
        # f monic of even degree: the leading coefficient 1 is a square
        return tuple(Place(field, INFINITY, SPLIT, i) for i in (0, 1))
    F = gf(field.q)
    pi = ffpoly.ptrim(below)
    if not ffpoly.is_irreducible(F, pi) or pi[-1] != 1:
        raise UnsupportedField(f"{below} is not monic irreducible over F_{field.q}")
    if not hyper:
        return (Place(field, pi),)
    # y^2 = f(t)
    sym = ffpoly.euler_symbol(F, field.fpoly, pi)
    if sym == 0:
        return (Place(field, pi, RAMIFIED),)
    if sym == 1:
        return tuple(Place(field, pi, SPLIT, i) for i in (0, 1))
    return (Place(field, pi, INERT),)


def archimedean_places(field: GlobalFieldDesc) -> List[Place]:
    if field.kind in (RATIONAL, QUADRATIC):
        return places_above(field, INFINITY)
    return []


def ramified_finite_places(field: GlobalFieldDesc) -> List[Place]:
    return list(_ramified_places(field))


@lru_cache(maxsize=None)
def _ramified_places(field: GlobalFieldDesc) -> Tuple[Place, ...]:
    """Finite places dividing the discriminant (number fields), or all
    ramified places including the degree place (function fields)."""
    if field.kind == RATIONAL or field.kind == RATFUNC:
        return ()
    out = []
    if field.kind == QUADRATIC:
        for p in sorted(factorize(abs(field.disc))):
            pl, = places_above(field, p)
            if pl.splitting != RAMIFIED:
                raise InvariantError(f"{p} divides the discriminant but is not ramified")
            out.append(pl)
        return tuple(out)
    _, fact = ffpoly.pfactor(gf(field.q), field.fpoly)
    for pi in sorted(fact):
        pl, = places_above(field, pi)
        out.append(pl)
    if ffpoly.pdeg(field.fpoly) % 2 == 1:
        out.extend(places_above(field, INFINITY))
    return tuple(out)


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def absolute_discriminant(field: GlobalFieldDesc) -> PosRealExact:
    """d_K: |disc| for number fields, q^(2g-2) for function fields."""
    if field.kind == RATIONAL:
        return PosRealExact.one()
    if field.kind == QUADRATIC:
        return PosRealExact.from_rational(abs(field.disc))
    F = gf(field.q)
    g = 0 if field.kind == RATFUNC else field.genus
    return PosRealExact.prime_power(F.p, F.k * (2 * g - 2))


def _is_extension(L: GlobalFieldDesc, K: GlobalFieldDesc) -> bool:
    if L == K:
        return True
    if K == L.prime_field:
        return True
    return False


def relative_discriminant_norm(L: GlobalFieldDesc, K: GlobalFieldDesc) -> PosRealExact:
    """d_{L/K} = d_L / d_K^{[L:K]}, exactly."""
    if not _is_extension(L, K):
        raise NotAnExtension(f"{K.describe()} is not a base of {L.describe()}")
    rel_deg = 1 if L == K else L.degree
    return absolute_discriminant(L) / absolute_discriminant(K) ** rel_deg


def local_discriminant_desc(field: GlobalFieldDesc, p: int) -> LocalFieldDesc:
    """The local quadratic extension of Q_p at a ramified prime of a
    quadratic number field, built from a validated defining polynomial."""
    if field.kind != QUADRATIC:
        raise UnsupportedField("local descriptors are built for quadratic fields")
    if kronecker_of_disc(field.disc, p) != 0:
        raise GlobalFieldError(f"{p} is unramified in {field.describe()}")
    # K_P = Q_p(sqrt d); x^2 - d lands in a validated shape in every
    # ramified case: Eisenstein for odd p | d, x^2 - u (u = 3 mod 4) or
    # x^2 - 2u over Q_2
    return quadratic_extension(base_field(p, P_ADIC), 0, -field.d)


def different_exponent_at(field: GlobalFieldDesc, place: Place) -> int:
    """The exponent of the local different at a place (0 if unramified)."""
    if not place.is_ramified():
        return 0
    if field.kind == QUADRATIC:
        return local_discriminant_desc(field, place.below).different_exponent
    if field.kind == HYPERELLIPTIC:
        return 1  # odd q: all ramification is tame
    raise UnsupportedField(f"no ramified places on {field.describe()}")


# ---------------------------------------------------------------------------
# ideles and divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Idele:
    """Finite-support idele: finite components as valuations v(alpha_v),
    archimedean components as positive reals."""

    field: GlobalFieldDesc
    finite_components: Tuple[Tuple[Place, int], ...]
    archimedean_components: Tuple[Tuple[Place, float], ...]

    @staticmethod
    def make(field: GlobalFieldDesc, finite: Dict[Place, int] | None = None,
             arch: Dict[Place, float] | None = None) -> "Idele":
        finite = {pl: int(n) for pl, n in (finite or {}).items() if n != 0}
        arch = {pl: float(a) for pl, a in (arch or {}).items() if a != 1.0}
        for pl in finite:
            if pl.field != field or pl.is_archimedean():
                raise GlobalFieldError(f"bad finite component at {pl}")
        for pl, a in arch.items():
            if pl.field != field or not pl.is_archimedean():
                raise GlobalFieldError(f"bad archimedean component at {pl}")
            if not (math.isfinite(a) and a > 0):
                raise GlobalFieldError("archimedean components must be finite and positive")
        return Idele(field,
                     tuple(sorted(finite.items(), key=lambda kv: kv[0]._label)),
                     tuple(sorted(arch.items(), key=lambda kv: kv[0]._label)))

    @staticmethod
    def trivial(field: GlobalFieldDesc) -> "Idele":
        return Idele.make(field)

    @property
    def finite(self) -> Dict[Place, int]:
        return dict(self.finite_components)

    @property
    def arch(self) -> Dict[Place, float]:
        return dict(self.archimedean_components)

    def __mul__(self, other: "Idele") -> "Idele":
        if self.field != other.field:
            raise GlobalFieldError("ideles of different fields")
        fin = self.finite
        for pl, n in other.finite_components:
            fin[pl] = fin.get(pl, 0) + n
        ar = self.arch
        for pl, a in other.archimedean_components:
            ar[pl] = ar.get(pl, 1.0) * a
        return Idele.make(self.field, fin, ar)

    def inv(self) -> "Idele":
        return Idele.make(self.field,
                          {pl: -n for pl, n in self.finite_components},
                          {pl: 1.0 / a for pl, a in self.archimedean_components})

    def describe(self) -> str:
        parts = [f"{pl.label()}:{n}" for pl, n in self.finite_components]
        parts += [f"{pl.label()}:{a:g}" for pl, a in self.archimedean_components]
        return ",".join(parts) if parts else "trivial"


@dataclass(frozen=True)
class Divisor:
    """Arakelov divisor: integer coefficients at finite places, real
    coefficients at archimedean places."""

    field: GlobalFieldDesc
    coefficients: Tuple[Tuple[Place, object], ...]

    @staticmethod
    def make(field: GlobalFieldDesc, coeffs: Dict[Place, object]) -> "Divisor":
        cleaned = {pl: c for pl, c in coeffs.items() if c != 0}
        return Divisor(field, tuple(sorted(cleaned.items(),
                                           key=lambda kv: kv[0]._label)))

    @property
    def coeffs(self) -> Dict[Place, object]:
        return dict(self.coefficients)

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.field != other.field:
            raise GlobalFieldError("divisors on different fields")
        out = self.coeffs
        for pl, c in other.coefficients:
            out[pl] = out.get(pl, 0) + c
        return Divisor.make(self.field, out)

    def degree(self) -> LogValue:
        """Arakelov degree: finite coefficients pair with log(#k_v)."""
        exps, real = {}, None
        for pl, c in self.coefficients:
            if pl.is_archimedean():
                real = (real or 0.0) + float(c)
            else:
                p, k = pl.card_power
                exps[p] = exps.get(p, 0) + k * c
        return LogValue(exps, real)

    def finite_degree(self) -> int:
        """Function fields: sum of n_v * deg(v) over all places."""
        if not self.field.is_function_field:
            raise UnsupportedField("finite_degree is a function-field notion")
        return sum(c * pl.deg for pl, c in self.coefficients)


def divisor_of_idele(alpha: Idele) -> Divisor:
    """The divisor with coefficient -v(alpha_v) at finite places and
    e_v log(alpha_v) at archimedean places; a group homomorphism."""
    coeffs: Dict[Place, object] = {pl: -n for pl, n in alpha.finite_components}
    for pl, a in alpha.archimedean_components:
        coeffs[pl] = pl.e_v * math.log(a)
    return Divisor.make(alpha.field, coeffs)


def idele_log_norm(alpha: Idele) -> LogValue:
    """log |alpha| = sum_v log|alpha_v|_v, exact at the finite places."""
    exps, real = {}, None
    for pl, n in alpha.finite_components:
        p, k = pl.card_power
        exps[p] = exps.get(p, 0) - k * n
    for pl, a in alpha.archimedean_components:
        real = (real or 0.0) + pl.e_v * math.log(a)
    return LogValue(exps, real)


# ---------------------------------------------------------------------------
# principal ideles
# ---------------------------------------------------------------------------


def omega_embeddings(field: GlobalFieldDesc) -> List[complex]:
    """The images of omega at the archimedean places, in their order."""
    t, _ = field.omega_params()
    D = field.disc
    if field.d > 0:
        s = math.sqrt(D)
        return [complex((t + s) / 2), complex((t - s) / 2)]
    s = math.sqrt(-D)
    return [complex(t / 2, s / 2)]


def principal_idele(field: GlobalFieldDesc, element) -> Idele:
    """The idele of a nonzero global element.

    Element formats: a rational for Q; a pair (a, b) of rationals meaning
    a + b*omega for quadratic fields; a pair (numerator, denominator) of
    F_q[t] polynomials for rational function fields.

    A split prime p = P P' of a quadratic field, P = (p, omega - r), is
    settled by one residue (Dedekind-Kummer): write x = p^k u with
    k = min(v_p(a), v_p(b)); then u lies in at most one of P, P', and in P
    iff a' + b' r = 0 mod p.  That place takes v_p(N x) - k, the other k.
    """
    if field.kind == RATIONAL:
        x = Fraction(element)
        if x == 0:
            raise GlobalFieldError("the zero element has no idele")
        primes = set(factorize(abs(x.numerator))) | set(factorize(x.denominator))
        fin = {places_above(field, p)[0]: _sval(x, p) for p in primes}
        pl_inf, = places_above(field, INFINITY)
        return Idele.make(field, fin, {pl_inf: abs(float(x))})

    if field.kind == QUADRATIC:
        a, b = Fraction(element[0]), Fraction(element[1])
        if a == 0 and b == 0:
            raise GlobalFieldError("the zero element has no idele")
        t, n = field.omega_params()
        norm = a * a + a * b * t + b * b * n
        fin: Dict[Place, int] = {}
        primes = set(factorize(abs(norm.numerator))) | set(factorize(norm.denominator)) \
            | set(factorize(a.denominator)) | set(factorize(b.denominator))
        for p in primes:
            vn = _sval(norm, p)
            places = places_above(field, p)
            if places[0].splitting == INERT:
                if vn % 2:
                    raise InvariantError(f"odd norm valuation {vn} at inert {p}")
                fin[places[0]] = vn // 2
            elif places[0].splitting == RAMIFIED:
                fin[places[0]] = vn
            else:
                k = min(v for v in (_sval(a, p), _sval(b, p)) if v is not None)
                pk = Fraction(p) ** k
                P, P2 = places
                in_P = (_sres(a / pk, p) + _sres(b / pk, p) * P.root) % p == 0
                fin[P], fin[P2] = (vn - k, k) if in_P else (k, vn - k)
        pls = places_above(field, INFINITY)
        if field.d > 0:
            arch = {pl: abs(float(a) + float(b) * w.real)
                    for pl, w in zip(pls, omega_embeddings(field))}
        else:
            arch = {pls[0]: math.sqrt(float(abs(norm)))}
        return Idele.make(field, fin, arch)

    if field.kind == RATFUNC:
        F = gf(field.q)
        num, den = ffpoly.ptrim(element[0]), ffpoly.ptrim(element[1])
        if not num:
            raise GlobalFieldError("the zero element has no idele")
        fin: Dict[Place, int] = {}
        _, nf = ffpoly.pfactor(F, num)
        _, df = ffpoly.pfactor(F, den)
        for pi in set(nf) | set(df):
            pl, = places_above(field, pi)
            v = nf.get(pi, 0) - df.get(pi, 0)
            if v:
                fin[pl] = v
        pl_inf, = places_above(field, INFINITY)
        v_inf = ffpoly.pdeg(den) - ffpoly.pdeg(num)
        if v_inf:
            fin[pl_inf] = v_inf
        return Idele.make(field, fin)

    raise UnsupportedField(f"principal ideles unsupported on {field.describe()}")


# ---------------------------------------------------------------------------
# random ideles (seeded; used by verification suites)
# ---------------------------------------------------------------------------


def random_idele(field: GlobalFieldDesc, rng, max_val: int = 3,
                 max_places: int = 3) -> Idele:
    fin: Dict[Place, int] = {}
    if field.is_function_field:
        pool = [pi for pi in ffpoly.monic_irreducibles(field.q, 2)]
        rng.shuffle(pool)
        for pi in pool[: rng.randint(0, max_places)]:
            pls = places_above(field, pi)
            pl = rng.choice(pls)
            n = rng.randint(-max_val, max_val)
            if n:
                fin[pl] = n
        if rng.random() < 0.6:
            pl = rng.choice(places_above(field, INFINITY))
            n = rng.randint(-max_val, max_val)
            if n:
                fin[pl] = n
        return Idele.make(field, fin)
    primes = [2, 3, 5, 7, 11, 13]
    rng.shuffle(primes)
    for p in primes[: rng.randint(0, max_places)]:
        pls = places_above(field, p)
        pl = rng.choice(pls)
        n = rng.randint(-max_val, max_val)
        if n:
            fin[pl] = n
    arch = {}
    for pl in archimedean_places(field):
        if rng.random() < 0.8:
            arch[pl] = math.exp(rng.uniform(-1.5, 1.5))
    return Idele.make(field, fin, arch)


def random_idele_bounded(field: GlobalFieldDesc, rng, bound: float = 5.0) -> Idele:
    """A random idele with |log|alpha|| <= bound.

    For number fields the archimedean components are set to steer the
    log-norm to a uniform target in [-bound, bound] (with a small jitter
    between places); function fields resample until the degree fits.
    """
    if field.is_function_field:
        for _ in range(200):
            al = random_idele(field, rng, max_val=2, max_places=2)
            if abs(float(idele_log_norm(al))) <= bound:
                return al
        raise GlobalFieldError("could not sample a bounded idele")
    al = random_idele(field, rng, max_val=2, max_places=2)
    fin = al.finite
    fin_norm = float(idele_log_norm(Idele.make(field, fin)))
    target = rng.uniform(-bound, bound)
    need = target - fin_norm
    arches = archimedean_places(field)
    jitters = [rng.uniform(-0.5, 0.5) for _ in arches]
    total_e = sum(pl.e_v for pl in arches)
    arch = {pl: math.exp(need / total_e + j)
            for pl, j in zip(arches, jitters)}
    # the jitter shifts the norm by at most sum e_v * 1/2; rescale exactly
    out = Idele.make(field, fin, arch)
    excess = float(idele_log_norm(out)) - target
    arch = {pl: a * math.exp(-excess / total_e) for pl, a in arch.items()}
    return Idele.make(field, fin, arch)
