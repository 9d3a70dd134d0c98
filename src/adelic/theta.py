"""Lattice theta sums for number-field section counting.

The global sections attached to an idele alpha form a fractional ideal
I = prod P^{v_P(alpha)}; the archimedean test function weights a section x
by exp(-e_v pi |x / alpha_v|_v^{2/e_v}).  This module builds a 2x2 (or
1x1) embedding matrix E with Q(x) = pi * ||E x||^2 the resulting positive
definite form on ideal coordinates, and evaluates sum exp(-Q) over the
lattice with a certified truncation.

Truncation bound: with lam a lower bound on the smallest eigenvalue of
G = E^T E, every coefficient box [-B, B]^n misses at most

    n = 1:  2 * S(B)
    n = 2:  4 * S(B) * (1 + 2*S(0)) + 4 * S(B)^2

where S(B) = exp(-pi lam (B+1)^2) / (1 - exp(-pi lam (2B+3))) dominates
the one-dimensional tail by a geometric series.  The bound over-counts the
true tail by a small constant factor (at most ~4 in the flat regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .globalfields import (
    INFINITY,
    QUADRATIC,
    RATIONAL,
    GlobalFieldDesc,
    GlobalFieldError,
    Idele,
    Place,
    omega_embeddings,
    places_above,
)


class RadiusExceeded(GlobalFieldError):
    """The certified enumeration radius exceeds the configured cap."""


# ---------------------------------------------------------------------------
# fractional ideals of quadratic fields, Hermite normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalIdeal:
    """(1/den) * (Z*(a, 0) + Z*(b, c)) in the integral basis (1, omega)."""

    field: GlobalFieldDesc
    den: int
    a: int
    b: int
    c: int

    def basis_columns(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        d = self.den
        return ((Fraction(self.a, d), Fraction(0)),
                (Fraction(self.b, d), Fraction(self.c, d)))

    def norm(self) -> Fraction:
        return Fraction(self.a * self.c, self.den ** 2)


def _hnf2(cols: List[Tuple[int, int]]) -> Tuple[int, int, int]:
    """Hermite form (a, b, c) of the module generated by integer columns."""
    cols = [(x, y) for x, y in cols if x or y]
    if not cols:
        raise ValueError("zero module")
    # combine to a single column whose y-part is the gcd of all y's
    b, c = 0, 0
    for x, y in cols:
        if y == 0:
            continue
        if c == 0:
            b, c = x, y
            continue
        g, u, v = _xgcd(c, y)
        b, c = u * b + v * x, g
    if c == 0:
        raise ValueError("module has rank 1")
    a = 0
    for x, y in cols:
        a = math.gcd(a, x - (y // c) * b)
    if a == 0:
        raise ValueError("module has rank 1")
    if c < 0:
        b, c = -b, -c
    b %= a
    return a, b, c


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ring_of_integers(field: GlobalFieldDesc) -> FractionalIdeal:
    return FractionalIdeal(field, 1, 1, 0, 1)


def prime_ideal(place: Place) -> FractionalIdeal:
    """The prime ideal of a finite place of a quadratic number field."""
    field = place.field
    if field.kind != QUADRATIC:
        raise GlobalFieldError("prime ideals live in quadratic fields here")
    p = place.below
    t, n = field.omega_params()
    if place.splitting == "inert":
        return FractionalIdeal(field, 1, p, 0, p)
    r = place.root
    # module generated by p, p*omega, (omega - r), (omega - r)*omega
    cols = [(p, 0), (0, p), (-r, 1), (-n, t - r)]
    a, b, c = _hnf2(cols)
    return FractionalIdeal(field, 1, a, b, c)


def ideal_mul(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    field = I.field
    t, n = field.omega_params()
    cols = []
    for x1, y1 in ((I.a, 0), (I.b, I.c)):
        for x2, y2 in ((J.a, 0), (J.b, J.c)):
            # (x1 + y1 w)(x2 + y2 w) with w^2 = t w - n
            cross = y1 * y2
            cols.append((x1 * x2 - n * cross, x1 * y2 + x2 * y1 + t * cross))
    a, b, c = _hnf2(cols)
    den = I.den * J.den
    g = math.gcd(math.gcd(a, math.gcd(b, c)), den)
    return FractionalIdeal(field, den // g, a // g, b // g, c // g)


def ideal_conj(I: FractionalIdeal) -> FractionalIdeal:
    t, _ = I.field.omega_params()
    cols = [(I.a, 0), (I.b + t * I.c, -I.c)]
    a, b, c = _hnf2(cols)
    return FractionalIdeal(I.field, I.den, a, b, c)


def ideal_inv(I: FractionalIdeal) -> FractionalIdeal:
    """I^-1 = conj(I) / N(I)."""
    J = ideal_conj(I)
    nm = I.norm()
    den = J.den * nm.numerator
    a, b, c = J.a * nm.denominator, J.b * nm.denominator, J.c * nm.denominator
    g = math.gcd(math.gcd(a, math.gcd(b, c)), den)
    return FractionalIdeal(I.field, den // g, a // g, b // g, c // g)


def ideal_pow(I: FractionalIdeal, k: int) -> FractionalIdeal:
    if k < 0:
        return ideal_pow(ideal_inv(I), -k)
    out = ring_of_integers(I.field)
    for _ in range(k):
        out = ideal_mul(out, I)
    return out


def ideal_for_idele(alpha: Idele) -> FractionalIdeal:
    """The sections lattice prod P^{v_P(alpha)} of an idele."""
    out = ring_of_integers(alpha.field)
    for pl, v in alpha.finite_components:
        out = ideal_mul(out, ideal_pow(prime_ideal(pl), v))
    return out


# ---------------------------------------------------------------------------
# embeddings and theta sums
# ---------------------------------------------------------------------------


def embedding_matrix(field: GlobalFieldDesc, ideal: FractionalIdeal,
                     arch: Dict[Place, float]) -> np.ndarray:
    """Rows: scaled real embeddings; Q(x) = pi * ||E x||^2."""
    cols = ideal.basis_columns()
    arch_places = places_above(field, INFINITY)
    if field.d > 0:
        ws = omega_embeddings(field)
        E = np.zeros((2, 2))
        for i, (pl, w) in enumerate(zip(arch_places, ws)):
            al = arch.get(pl, 1.0)
            for j, (x, y) in enumerate(cols):
                E[i, j] = (float(x) + float(y) * w.real) / al
        return E
    w = omega_embeddings(field)[0]
    pl, = arch_places
    al = arch.get(pl, 1.0)
    E = np.zeros((2, 2))
    root2 = math.sqrt(2.0)
    for j, (x, y) in enumerate(cols):
        z = complex(float(x) + float(y) * w.real, float(y) * w.imag)
        E[0, j] = root2 * z.real / al
        E[1, j] = root2 * z.imag / al
    return E


def _geom_tail(lam: float, B: int) -> float:
    """Upper bound for sum_{n > B} exp(-pi lam n^2)."""
    top = math.exp(-math.pi * lam * (B + 1) ** 2)
    # 1 - exp(-x) through expm1: on dense lattices x falls below 1e-16
    return top / -math.expm1(-math.pi * lam * (2 * B + 3))


def certified_box(lam: float, rank: int, tol: float, max_radius: float) -> int:
    """Smallest B whose complement misses less than tol of the theta mass."""
    u_bound = 1.0 + 2.0 * _geom_tail(lam, 0)
    B = 1
    while True:
        s = _geom_tail(lam, B)
        miss = 2.0 * s if rank == 1 else 4.0 * s * u_bound + 4.0 * s * s
        if miss < tol:
            return B
        B = B + max(1, B // 8)
        if B > max_radius:
            raise RadiusExceeded(
                f"certified radius exceeds max_radius = {max_radius}")


def _gauss_reduce(E: np.ndarray) -> np.ndarray:
    """Lagrange-reduce the two basis columns (same lattice, shorter basis)."""
    c1, c2 = E[:, 0].copy(), E[:, 1].copy()
    for _ in range(64):
        if float(c1 @ c1) > float(c2 @ c2):
            c1, c2 = c2, c1
        n1 = float(c1 @ c1)
        if n1 == 0.0:
            raise GlobalFieldError("embedding matrix is singular in double precision")
        mu = round(float(c1 @ c2) / n1)
        if mu == 0:
            break
        c2 = c2 - mu * c1
    return np.column_stack([c1, c2])


def theta_log_sum(E: np.ndarray, tol: float, max_radius: float) -> Tuple[float, int]:
    """(log of the lattice Gaussian sum, lattice points evaluated).

    Reduction and the smallest eigenvalue scale with E, so they run on E/s,
    s the power of two just above its largest entry (exact, no overflow);
    a weight whose exponent overflows to inf is exactly 0.
    """
    top = float(np.abs(E).max())
    if not math.isfinite(top):
        raise GlobalFieldError("embedding matrix is not finite "
                               "(archimedean component out of range)")
    s = math.ldexp(1.0, math.frexp(top)[1])
    Es = E / s
    if E.shape[1] == 2:
        Es = _gauss_reduce(Es)
        E = Es * s
    lam = float(np.linalg.eigvalsh(Es.T @ Es).min()) * s * s * 0.999
    if lam <= 0:
        raise GlobalFieldError("embedding matrix is singular in double precision")
    rank = E.shape[1]
    B = certified_box(lam, rank, tol * 0.25, max_radius)
    with np.errstate(over="ignore"):
        if rank == 1:
            xs = np.arange(-B, B + 1, dtype=float)
            q = math.pi * (E[0, 0] * xs) ** 2
            return math.log(float(np.exp(-q).sum())), xs.size
        ys = np.arange(-B, B + 1, dtype=float)
        e00, e01 = float(E[0, 0]), float(E[0, 1])
        e10, e11 = float(E[1, 0]), float(E[1, 1])
        total = 0.0
        points = 0
        for x in range(-B, B + 1):
            r0 = e00 * x + e01 * ys
            r1 = e10 * x + e11 * ys
            q = math.pi * (r0 * r0 + r1 * r1)
            total += float(np.exp(-q).sum())
            points += ys.size
    return math.log(total), points


def rational_lattice_scale(alpha: Idele) -> Fraction:
    """Generator of the sections lattice of a Q-idele: prod p^{v_p(alpha)}."""
    if alpha.field.kind != RATIONAL:
        raise GlobalFieldError("rational ideles only")
    r = Fraction(1)
    for pl, v in alpha.finite_components:
        r *= Fraction(pl.below) ** v
    return r


def theta_log_for_idele(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """log sum over global sections of the Gaussian weights of an idele."""
    field = alpha.field
    if field.kind == RATIONAL:
        r = rational_lattice_scale(alpha)
        pl, = places_above(field, INFINITY)
        al = alpha.arch.get(pl, 1.0)
        E = np.array([[float(r) / al]])
        return theta_log_sum(E, tol, max_radius)
    if field.kind == QUADRATIC:
        ideal = ideal_for_idele(alpha)
        E = embedding_matrix(field, ideal, alpha.arch)
        return theta_log_sum(E, tol, max_radius)
    raise GlobalFieldError(f"no theta lattice for {field.describe()}")
