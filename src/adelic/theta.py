"""Lattice theta sums for number-field section counting.

The global sections attached to an idele alpha form a fractional ideal
I = prod P^{v_P(alpha)}; the archimedean test function weights a section x
by exp(-e_v pi |x / alpha_v|_v^{2/e_v}).  This module builds a 2x2 (or
1x1) embedding matrix E with Q(x) = pi * ||E x||^2 the resulting positive
definite form on ideal coordinates, and evaluates sum exp(-Q) over the
lattice with a certified truncation.

Sections lattice in closed form (Cohen, A Course in Computational
Algebraic Number Theory, 5.2): I = c * [N, omega - r] = c (Z N + Z (omega - r))
with c rational and N | r^2 - t r + n.  One plan, a list of (p, k, j, P) per
rational prime p under alpha, gives c = prod p^k and N = prod p^j.  Over p,
k is v_p(alpha) on Q and at an inert place, k // 2 at a ramified one
(leaving P = [p, omega - root] when k is odd) and min(k, k') over a split
pair, leaving P^j with j = |k - k'| and P the place of larger valuation:
P^j = [p^j, omega - r_j], r_j the root of P lifted mod p^j by Newton's
method.  j = 0 on Q and at inert primes.  The parts left have coprime norms,
so CRT joins their roots into one r.  The plan alone gives the scales that
decide extremes, log |alpha| = sum e_v log alpha_v - n log c - log N and
log c N (c N generates the rationals in I and is the largest basis entry),
so they are known before c and N are multiplied out.

Extremes are settled by the norm before a float lattice is built.  Sparse:
every nonzero section has ||E x||^2 >= m0, m0 = 2/|alpha| (AM-GM and
|N(x)| >= N(I)), 1/|alpha|^2 on Q; from log m0 >= 20 every nonzero weight
underflows, and h0 = 0.0 over one point.  Dense: the smallest eigenvalue of
G = E^T E is at most covol^(2/n), covol = sqrt|d_K| / |alpha|, and if the
certified box at that cap passes max_radius, so does the true one.  A
lattice that is neither, but whose basis leaves double range, is refused.

Truncation bound: with lam a lower bound on the smallest eigenvalue of
G, every coefficient box [-B, B]^n misses at most

    n = 1:  2 * S(B)
    n = 2:  4 * S(B) * (1 + 2*S(0)) + 4 * S(B)^2

where S(B) = exp(-pi lam (B+1)^2) / (1 - exp(-pi lam (2B+3))) dominates
the one-dimensional tail by a geometric series.  The bound over-counts the
true tail by a small constant factor (at most ~4 in the flat regime).
"""

from __future__ import annotations

import math
import sys
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
# the sections lattice of a quadratic field, c * [N, omega - r]
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


def _lift_root(field: GlobalFieldDesc, r: int, p: int, j: int) -> int:
    """The root r mod p of omega's minimal polynomial x^2 - t x + n, lifted
    mod p^j by Newton's method; a split root is simple, so 2r - t is a unit
    (j = 1 returns r, as a ramified place needs)."""
    t, n = field.omega_params()
    m, top = p, p ** j
    while m < top:
        m = min(m * m, top)
        r = (r - (r * r - t * r + n) * pow(2 * r - t, -1, m)) % m
    return r


def _plan(alpha: Idele) -> List[Tuple[int, int, int, Place | None]]:
    """(p, k, j, P) per rational prime p under the finite part of alpha:
    the sections lattice is prod p^k * [prod p^j, omega - r], r the root of
    P mod p^j joined by CRT; j = 0 and P None on Q and at inert primes."""
    fin = alpha.finite
    plan = []
    for p in sorted({pl.below for pl in fin}):
        pls = places_above(alpha.field, p)
        ks = [fin.get(pl, 0) for pl in pls]
        if pls[0].is_ramified():
            plan.append((p, ks[0] // 2, ks[0] % 2, pls[0]))
        elif len(pls) == 1:  # a prime of Q, or an inert one
            plan.append((p, ks[0], 0, None))
        else:
            plan.append((p, min(ks), abs(ks[0] - ks[1]), pls[ks[1] > ks[0]]))  # larger v_P
    return plan


def ideal_for_idele(alpha: Idele) -> FractionalIdeal:
    """The sections lattice prod P^{v_P(alpha)} of an idele of a quadratic
    field, built as c * [N, omega - r] from its plan."""
    content, N, r = Fraction(1), 1, 0
    for p, k, j, P in _plan(alpha):
        content *= Fraction(p) ** k
        if j:
            q = p ** j
            root = _lift_root(alpha.field, P.root, p, j)
            r += N * ((root - r) * pow(N, -1, q) % q)
            N *= q
    num = content.numerator
    return FractionalIdeal(alpha.field, content.denominator, num * N, num * (-r % N), num)


# ---------------------------------------------------------------------------
# embeddings and theta sums
# ---------------------------------------------------------------------------


def embedding_matrix(field: GlobalFieldDesc, ideal: FractionalIdeal,
                     arch: Dict[Place, float]) -> np.ndarray:
    """Rows z / alpha at a real place, sqrt 2 Re z / alpha and sqrt 2 Im z / alpha
    at a complex one, z the image of a basis column; Q(x) = pi * ||E x||^2."""
    cols = [(float(x), float(y)) for x, y in ideal.basis_columns()]
    rows = []
    root2 = math.sqrt(2.0)
    for pl, w in zip(places_above(field, INFINITY), omega_embeddings(field)):
        al = arch.get(pl, 1.0)
        zs = [complex(x + y * w.real, y * w.imag) for x, y in cols]
        if pl.e_v == 1:
            rows.append([z.real / al for z in zs])
        else:
            rows += [[root2 * z.real / al for z in zs], [root2 * z.imag / al for z in zs]]
    return np.array(rows)


def _geom_tail(lam: float, B: int) -> float:
    """Upper bound for sum_{n > B} exp(-pi lam n^2)."""
    top = math.exp(-math.pi * lam * (B + 1) ** 2)
    # 1 - exp(-x) through expm1: on dense lattices x falls below 1e-16
    return top / -math.expm1(-math.pi * lam * (2 * B + 3))


def certified_box(lam: float, rank: int, tol: float, max_radius: float,
                  start: int = 1) -> int:
    """Smallest B whose complement misses less than tol of the theta mass.

    The search steps B = 1, 2, ..., B + B // 8; it resumes at ``start``, a
    step whose predecessors are known to miss too much."""
    u_bound = 1.0 + 2.0 * _geom_tail(lam, 0)
    B = start
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


def theta_log_sum(E: np.ndarray, tol: float, max_radius: float,
                  start: int = 1) -> Tuple[float, int]:
    """(log of the lattice Gaussian sum, lattice points evaluated); the box
    search resumes at ``start`` (see ``certified_box``).

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
    B = certified_box(lam, rank, tol * 0.25, max_radius, start)
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


def theta_log_for_idele(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """log sum over global sections of the Gaussian weights of an idele."""
    field = alpha.field
    if field.kind not in (RATIONAL, QUADRATIC):
        raise GlobalFieldError(f"no theta lattice for {field.describe()}")
    n = field.degree
    plan = _plan(alpha)
    log_norm = math.fsum(pl.e_v * math.log(a) for pl, a in alpha.archimedean_components)
    log_cn = 0.0
    for p, k, j, _ in plan:
        log_norm -= (n * k + j) * math.log(p)
        log_cn += (k + j) * math.log(p)
    log_m0 = math.log(2.0) - log_norm if n == 2 else -2.0 * log_norm
    if log_m0 >= 20.0:  # exp(-pi e^20) is 0.0: every nonzero weight underflows
        return 0.0, 1
    # a cap that underflows stands for any smaller positive one; every box
    # below the cap's also misses too much at the true eigenvalue
    lam_cap = math.exp((0.5 * math.log(abs(field.disc)) - log_norm) * 2 / n)
    start = certified_box(max(lam_cap, sys.float_info.min), n, tol * 0.25, max_radius)
    if log_cn > math.log(sys.float_info.max) - 1.0:
        raise GlobalFieldError("the sections lattice leaves double range (a skewed idele "
                               "of moderate norm; exact reduction is not implemented)")
    if field.kind == RATIONAL:
        c = math.prod(Fraction(p) ** k for p, k, _, _ in plan)
        pl, = places_above(field, INFINITY)
        E = np.array([[float(c) / alpha.arch.get(pl, 1.0)]])
    else:
        E = embedding_matrix(field, ideal_for_idele(alpha), alpha.arch)
    return theta_log_sum(E, tol, max_radius, start)
