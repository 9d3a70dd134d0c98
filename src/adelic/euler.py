"""Euler characteristics of Arakelov divisors and their identities.

chi(D_alpha) is the log of the full adelic integral of the product
eigenfunction f_alpha; with the discriminant-normalized measure it equals
log|alpha| - (1/2) log d_K, exactly in LogValue arithmetic.  h0 is the log
of the sum of f_alpha over global sections (a lattice theta sum for number
fields, an exact dimension count times log q for F_q(t)), and h1 is
derived from the fundamental quotient-integral relation as h0 - chi.

On number fields h0 sums on the sparser side of the Poisson identity
h0(alpha) = chi(alpha) + h0(alpha^-1 kappa) (Tate's thesis; van der
Geer-Schoof 2000): when chi(alpha) > 0 the direct lattice is dense and
the dual one sparse, so h0 is chi(alpha) plus the theta sum over E^-T,
the dual of alpha's own sections lattice E, which is the lattice of
alpha^-1 kappa; otherwise alpha is summed directly.  chi is then taken in
floats from the lattice's scales, and no dual idele is built
(theta.theta_log_for_idele).  On a sample of ideles up to log-norm 12 the
dual side never needed more than 24 terms of theta's one-dimensional row
sums where the direct side needed up to about 1,000.  Serre duality and
Poisson summation are the identities this route rests on, so their checks
sum both of their sides directly, each on its own idele's lattice
(theta.theta_log_direct).

The verification routines check, each by two independent routes:

- absolute and relative Riemann-Roch (chi differences against divisor
  degrees),
- the compatibility chi_{L/K} = chi_L - [L:K] chi_K(0),
- Serre duality h0(D_{alpha^-1 kappa}) = h1(D_alpha) with kappa the
  canonical idele,
- the Poisson-summation form of Riemann-Roch with the non-self-dual
  relative measure (constant term -1/2 log d_{L/K}).

kappa is normalized so that its divisor is the canonical divisor: at a
ramified finite place v(kappa) is minus the different exponent, so the
sections lattice of alpha^-1 kappa at alpha = 1 is the inverse different,
the support of the Fourier transform of char(O).  Its log-norm is
+log d_K; this is the unique normalization under which the duality
equation holds (the printed shorthand with kappa on the chi side carries
an unresolved factor 1/2 and is not used as a formula).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List

from .globalfields import (
    INFINITY,
    QUADRATIC,
    RATFUNC,
    RATIONAL,
    GlobalFieldDesc,
    Idele,
    UnsupportedField,
    absolute_discriminant,
    different_exponent_at,
    divisor_of_idele,
    idele_log_norm,
    places_above,
    ramified_finite_places,
    relative_discriminant_norm,
)
from .theta import RadiusExceeded, theta_log_direct, theta_log_for_idele
from .values import LogValue

__all__ = [
    "ThetaParams",
    "Report",
    "chi",
    "h0",
    "h1",
    "chi_relative",
    "canonical_idele",
    "verify_rr",
    "verify_rr_relative",
    "verify_serre",
    "verify_poisson",
    "RadiusExceeded",
]


@dataclass(frozen=True)
class ThetaParams:
    """Truncation control for theta sums."""

    tolerance: float = 1e-10
    max_radius: float = 4096.0  # caps every theta radius: rows, row half-width, Jacobi terms

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_PARAMS = ThetaParams()


@dataclass
class Report:
    """Outcome of one verification identity."""

    check: str
    field: str
    idele: str
    lhs: LogValue
    rhs: LogValue
    passed: bool
    tolerance: float
    lattice_points_used: int = 0
    runtime_ms: float = 0.0
    notes: str = ""

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "field": self.field,
            "idele": self.idele,
            "lhs": self.lhs.to_json(self.tolerance),
            "rhs": self.rhs.to_json(self.tolerance),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "lattice_points_used": self.lattice_points_used,
            "runtime_ms": self.runtime_ms,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


# ---------------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------------


def chi(field: GlobalFieldDesc, alpha: Idele) -> LogValue:
    """chi(D_alpha) = log|alpha| - (1/2) log d_K, exact."""
    if alpha.field != field:
        raise UnsupportedField("idele belongs to a different field")
    return idele_log_norm(alpha) + _chi_of_one(field)


@lru_cache(maxsize=None)
def _chi_of_one(L: GlobalFieldDesc, K: GlobalFieldDesc | None = None) -> LogValue:
    """chi(D_1) = -(1/2) log d_L, or -(1/2) log d_{L/K} with the relative
    measure (raises NotAnExtension); one per field or pair."""
    d = absolute_discriminant(L) if K is None else relative_discriminant_norm(L, K)
    return d.log() * Fraction(-1, 2)


def h0(field: GlobalFieldDesc, alpha: Idele,
       params: ThetaParams = DEFAULT_PARAMS) -> LogValue:
    """log of the sum of f_alpha over global sections.

    Number fields: a certified lattice theta sum (float remainder), taken
    on the sparser side of the Poisson identity
    h0(alpha) = chi(alpha) + h0(alpha^-1 kappa).  When chi(alpha) > 0 the
    sections lattice E of alpha is dense (up to ~10^3 row-sum terms)
    and its dual E^-T, the lattice of alpha^-1 kappa, whose chi is
    -chi(alpha), is sparse (tens of terms), so h0 is chi(alpha), in
    floats, plus the sum over E^-T; otherwise alpha is summed directly.
    F_q(t): exact, max(0, deg D + 1) * log q.
    """
    return h0_with_count(field, alpha, params)[0]


def h0_with_count(field: GlobalFieldDesc, alpha: Idele,
                  params: ThetaParams) -> tuple[LogValue, int]:
    """h0 and the number of theta terms summed for it (0 off the theta route)."""
    if field.kind not in (RATIONAL, QUADRATIC) or alpha.field != field:
        return _h0_direct(field, alpha, params)  # raises on an idele of another field
    lt, n = theta_log_for_idele(alpha, params.tolerance, params.max_radius)
    return LogValue.of_real(lt), n


def _h0_direct(field: GlobalFieldDesc, alpha: Idele,
               params: ThetaParams) -> tuple[LogValue, int]:
    """h0_with_count summed on alpha as given, never on its Poisson dual:
    the identity checks use it so that neither side is derived from the
    other."""
    if alpha.field != field:
        raise UnsupportedField("idele belongs to a different field")
    if field.kind in (RATIONAL, QUADRATIC):
        lt, n = theta_log_direct(alpha, params.tolerance, params.max_radius)
        return LogValue.of_real(lt), n
    if field.kind == RATFUNC:
        deg = divisor_of_idele(alpha).finite_degree()
        pl, = places_above(field, INFINITY)  # #k_v = q
        return pl.log_card * max(0, deg + 1), 0
    raise UnsupportedField(f"h0 unsupported on {field.describe()}")


def h1(field: GlobalFieldDesc, alpha: Idele,
       params: ThetaParams = DEFAULT_PARAMS) -> LogValue:
    """h1 = h0 - chi (the quotient-integral route, by the product relation)."""
    return h0(field, alpha, params) - chi(field, alpha)


def chi_relative(L: GlobalFieldDesc, K: GlobalFieldDesc, alpha: Idele) -> LogValue:
    """chi with the relative measure: log|alpha| - (1/2) log d_{L/K}."""
    if alpha.field != L:
        raise UnsupportedField("idele belongs to a different field")
    return idele_log_norm(alpha) + _chi_of_one(L, K)


@lru_cache(maxsize=None)
def canonical_idele(field: GlobalFieldDesc) -> Idele:
    """kappa: v(kappa) = -(different exponent) at ramified finite places;
    for F_q(t), v = +2 at the degree place.  div(kappa) is the canonical
    divisor and log|kappa| = +log d_K.  One per field (cached; an Idele is
    immutable, so every caller may share it)."""
    if field.kind == RATIONAL:
        return Idele.trivial(field)
    if field.kind == QUADRATIC:
        fin = {pl: -different_exponent_at(field, pl)
               for pl in ramified_finite_places(field)}
        return Idele.make(field, fin)
    if field.kind == RATFUNC:
        pl, = places_above(field, INFINITY)
        return Idele.make(field, {pl: 2})
    raise UnsupportedField(f"no canonical idele for {field.describe()}")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_rr(field: GlobalFieldDesc, alpha: Idele,
              tol: float = 1e-12) -> Report:
    """chi(D_alpha) - chi(D_1) = log|alpha|.

    The left side runs through chi (measure normalization included); the
    right side is recomputed as the degree of the divisor of alpha, which
    exercises the independent place-by-place pairing.
    """
    start = time.perf_counter()
    lhs = chi(field, alpha) - _chi_of_one(field)
    rhs = divisor_of_idele(alpha).degree()
    passed = lhs.eq(rhs, tol=tol)
    return Report("rr", field.describe(), alpha.describe(), lhs, rhs, passed,
                  tol, runtime_ms=(time.perf_counter() - start) * 1000.0)


def verify_rr_relative(L: GlobalFieldDesc, K: GlobalFieldDesc, alpha: Idele,
                       tol: float = 1e-12) -> List[Report]:
    """The relative identity and the compatibility with the absolute one."""
    start = time.perf_counter()
    chi_rel = chi_relative(L, K, alpha)
    lhs = chi_rel - _chi_of_one(L, K)
    rhs = divisor_of_idele(alpha).degree()
    pair, idele = f"{L.describe()}/{K.describe()}", alpha.describe()
    rep1 = Report("rr-rel", pair, idele, lhs, rhs, lhs.eq(rhs, tol=tol), tol,
                  runtime_ms=(time.perf_counter() - start) * 1000.0)
    start = time.perf_counter()
    rhs2 = chi(L, alpha) - (1 if L == K else L.degree) * _chi_of_one(K)
    rep2 = Report("rr-rel-compat", pair, idele, chi_rel, rhs2, chi_rel.eq(rhs2, tol=tol),
                  tol, runtime_ms=(time.perf_counter() - start) * 1000.0)
    return [rep1, rep2]


def verify_serre(field: GlobalFieldDesc, alpha: Idele,
                 params: ThetaParams = DEFAULT_PARAMS,
                 check_tol: float = 1e-8) -> Report:
    """h0(D_{alpha^-1 kappa}) = h1(D_alpha).

    The left side is a fresh section count at the dual idele; the right
    side is h1(alpha) = h0(alpha) - chi(alpha).  Both h0 values are summed
    directly (h0 itself may take the dual side, which would make the
    identity hold by construction).  Exact (integer multiples of log q) on
    function fields; compared within check_tol on number fields.
    """
    start = time.perf_counter()
    lhs, n1 = _h0_direct(field, alpha.inv() * canonical_idele(field), params)
    h0_alpha, n2 = _h0_direct(field, alpha, params)
    rhs = h0_alpha - chi(field, alpha)
    if field.kind == RATFUNC:
        passed = lhs.eq(rhs, tol=0.0)
    else:
        passed = abs(float(lhs) - float(rhs)) < check_tol
    return Report("serre", field.describe(), alpha.describe(), lhs, rhs,
                  passed, check_tol, lattice_points_used=n1 + n2,
                  runtime_ms=(time.perf_counter() - start) * 1000.0)


def verify_poisson(field: GlobalFieldDesc, alpha: Idele,
                   params: ThetaParams = DEFAULT_PARAMS,
                   check_tol: float = 1e-10) -> Report:
    """The summation identity behind Riemann-Roch, two-sided and direct:

        -1/2 log d_{L/K} - log|alpha| + h0(D_{alpha kappa}) = h0(D_{alpha^-1})

    with K the prime field.  Both h0 values are independent truncated
    lattice sums, each taken directly on its idele; no chi is used.  The
    constant on the left is the log of the relative measure of O_L
    (-1/2 log 5 for Q(sqrt 5) over Q, zero for Q itself).
    """
    if field.kind not in (RATIONAL, QUADRATIC):
        raise UnsupportedField("poisson verification needs theta support")
    start = time.perf_counter()
    kappa = canonical_idele(field)
    const = _chi_of_one(field, field.prime_field)
    lhs_h0, n1 = _h0_direct(field, alpha * kappa, params)
    lhs = const - idele_log_norm(alpha) + lhs_h0
    rhs, n2 = _h0_direct(field, alpha.inv(), params)
    passed = abs(float(lhs) - float(rhs)) < check_tol
    return Report("poisson", field.describe(), alpha.describe(), lhs, rhs,
                  passed, check_tol, lattice_points_used=n1 + n2,
                  runtime_ms=(time.perf_counter() - start) * 1000.0,
                  notes=f"measure constant {const!r}")
