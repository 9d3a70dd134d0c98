"""Lattice theta sums for number-field section counting.

The global sections attached to an idele alpha form a fractional ideal
I = prod P^{v_P(alpha)}; the archimedean test function weights a section x
by exp(-e_v pi |x / alpha_v|_v^{2/e_v}).  This module builds the rows of a
2x2 (or 1x1) embedding matrix E with Q(x) = pi * ||E x||^2 the resulting
positive definite form on ideal coordinates, and evaluates sum exp(-Q) over
the lattice with a certified truncation.

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
so they are known before c and N are multiplied out.  Each sum builds its
plan once.

Extremes are settled by the norm before a float lattice is built.  Sparse:
every nonzero section has ||E x||^2 >= m0, m0 = 2/|alpha| (AM-GM and
|N(x)| >= N(I)), 1/|alpha|^2 on Q; from log m0 >= 20 every nonzero weight
underflows, and h0 = 0.0 over one point.  Dense: the smallest eigenvalue of
G = E^T E is at most covol^(2/n), covol = sqrt|d_K| / |alpha|, and if the
certified box at that cap passes max_radius, so does the true one.  A
lattice that is neither, but whose basis leaves double range, is refused.

theta_log_for_idele sums on the sparser side of Poisson summation (Tate's
thesis, section 4; van der Geer-Schoof 2000):

    sum_x exp(-pi ||E x||^2) = (1 / |det E|) sum_y exp(-pi ||E^-T y||^2),

where |det E| = sqrt|d_K| / |alpha| = e^-chi, chi = log |alpha| -
1/2 log |d_K| taken in floats from the plan's scales.  E^-T spans the
sections lattice of kappa alpha^-1 (kappa the canonical idele) up to a
rotation.  When chi > 0, E is dense and E^-T sparse, and the sum is
chi + log theta(E^-T), with E^-T = e^chi adj(E)^T built from alpha's own
rows: no dual idele, no second plan and no determinant in floats.  The
dual side settles its extremes as above with log |kappa alpha^-1| =
log |d_K| - log |alpha| (at the sparse exit the sum is chi; the box search
starts at the cap with covol = |alpha| / sqrt|d_K|), and the eigenvalue
bound of the reduced E^-T certifies its tail.  theta_log_direct always
sums E itself: the identity checks use it, so that neither side of
Poisson summation or Serre duality is derived from the other.

The set-up of a sum works on at most four numbers, so it runs in Python
floats: Lagrange reduction of the basis and a lower bound on the smallest
eigenvalue of G, det(E)^2 / lam_max on the reduced basis.  numpy evaluates
only the sum itself, one np.exp per block of at most BLOCK lattice points.

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
from typing import Dict, List, Sequence, Tuple

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

BLOCK = 4096  # lattice points per np.exp call; bounds the sum's temporary arrays

Plan = List[Tuple[int, int, int, "Place | None"]]


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


def _plan(alpha: Idele) -> Plan:
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


def _content(plan: Plan) -> Tuple[int, int]:
    """c = prod p^k as a reduced fraction (numerator, denominator)."""
    num = den = 1
    for p, k, _, _ in plan:
        if k > 0:
            num *= p ** k
        else:
            den *= p ** -k
    return num, den


def _ideal(field: GlobalFieldDesc, plan: Plan) -> FractionalIdeal:
    """The sections lattice c * [N, omega - r] of a quadratic field's idele,
    from its plan."""
    N, r = 1, 0
    for p, _, j, P in plan:
        if j:
            q = p ** j
            root = _lift_root(field, P.root, p, j)
            r += N * ((root - r) * pow(N, -1, q) % q)
            N *= q
    num, den = _content(plan)
    return FractionalIdeal(field, den, num * N, num * (-r % N), num)


def ideal_for_idele(alpha: Idele) -> FractionalIdeal:
    """The sections lattice prod P^{v_P(alpha)} of an idele of a quadratic
    field, built as c * [N, omega - r] from its plan."""
    return _ideal(alpha.field, _plan(alpha))


# ---------------------------------------------------------------------------
# embeddings and theta sums
# ---------------------------------------------------------------------------


def _rows(field: GlobalFieldDesc, ideal: FractionalIdeal,
          arch: Dict[Place, float]) -> List[List[float]]:
    """Rows z / alpha at a real place, sqrt 2 Re z / alpha and sqrt 2 Im z / alpha
    at a complex one, z the image of a basis column; Q(x) = pi * ||E x||^2."""
    d = ideal.den
    cols = ((ideal.a / d, 0.0), (ideal.b / d, ideal.c / d))
    rows = []
    root2 = math.sqrt(2.0)
    for pl, w in zip(places_above(field, INFINITY), omega_embeddings(field)):
        al = arch.get(pl, 1.0)
        zs = [complex(x + y * w.real, y * w.imag) for x, y in cols]
        if pl.e_v == 1:
            rows.append([z.real / al for z in zs])
        else:
            rows += [[root2 * z.real / al for z in zs], [root2 * z.imag / al for z in zs]]
    return rows


def embedding_matrix(field: GlobalFieldDesc, ideal: FractionalIdeal,
                     arch: Dict[Place, float]) -> np.ndarray:
    """E as an array (see ``_rows``)."""
    return np.array(_rows(field, ideal, arch))


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


def _reduce(rows: Sequence[Sequence[float]]) -> Tuple[Sequence[Sequence[float]], float]:
    """(rows of a Lagrange-reduced basis of the same lattice, lam): lam is a
    lower bound on the smallest eigenvalue of its Gram matrix, 0.1 % below
    det(E)^2 / lam_max (a product of eigenvalues over the larger one).

    Reduction and the eigenvalue scale with E, so they run on E/s, s the
    power of two just above its largest entry (exact, no overflow).
    """
    flat = [v for row in rows for v in row]
    if not all(map(math.isfinite, flat)):
        raise GlobalFieldError("embedding matrix is not finite "
                               "(archimedean component out of range)")
    s = math.ldexp(1.0, math.frexp(max(map(abs, flat)))[1])
    if len(flat) == 1:
        e = flat[0] / s
        lam, out = e * e, rows
    else:
        (u0, v0), (u1, v1) = [[x / s for x in row] for row in rows]  # columns u, v
        for _ in range(64):
            uu, vv = u0 * u0 + u1 * u1, v0 * v0 + v1 * v1
            if uu > vv:
                u0, u1, v0, v1, uu = v0, v1, u0, u1, vv
            if uu == 0.0:
                raise GlobalFieldError("embedding matrix is singular in double precision")
            mu = round((u0 * v0 + u1 * v1) / uu)
            if mu == 0:
                break
            v0, v1 = v0 - mu * u0, v1 - mu * u1
        uu, vv, uv = u0 * u0 + u1 * u1, v0 * v0 + v1 * v1, u0 * v0 + u1 * v1
        det = u0 * v1 - v0 * u1
        lam = det * det / ((uu + vv) / 2 + math.hypot((uu - vv) / 2, uv))
        out = [[u0 * s, v0 * s], [u1 * s, v1 * s]]
    lam = lam * s * s * 0.999
    if lam <= 0:
        raise GlobalFieldError("embedding matrix is singular in double precision")
    return out, lam


def _box_sum(rows: Sequence[Sequence[float]], B: int) -> Tuple[float, int]:
    """(sum of exp(-pi ||E x||^2) over the box [-B, B]^rank, its points).

    One np.exp per block of at most BLOCK points: whole grid rows x, or
    pieces of one row when it is longer.  Rank 1 is the row x = 0 of a
    rank-2 box with a zero first column.  A weight whose exponent
    overflows to inf is exactly 0.
    """
    rank = len(rows[0])
    ys = np.arange(-B, B + 1, dtype=float)
    xs = ys[:, None] if rank == 2 else np.zeros((1, 1))
    terms = [((row[0] if rank == 2 else 0.0) * xs, row[-1] * ys) for row in rows]
    step = max(1, BLOCK // ys.size)
    total = 0.0
    with np.errstate(over="ignore"):
        for i in range(0, len(xs), step):
            for j in range(0, ys.size, BLOCK):
                q = sum((ax[i:i + step] + by[j:j + BLOCK]) ** 2 for ax, by in terms)
                total += float(np.exp(-math.pi * q).sum())
    return total, ys.size ** rank


def theta_log_sum(rows: Sequence[Sequence[float]], tol: float, max_radius: float,
                  start: int = 1) -> Tuple[float, int]:
    """(log of the lattice Gaussian sum, lattice points evaluated) for E
    given by its rows in Python floats; the box search resumes at
    ``start`` (see ``certified_box``).

    The set-up runs in Python floats (``_reduce``): the finiteness check,
    Lagrange reduction and the eigenvalue bound that certifies the box.
    numpy sums the (2B + 1)^rank points in blocks (``_box_sum``).
    """
    rows, lam = _reduce(rows)
    B = certified_box(lam, len(rows[0]), tol * 0.25, max_radius, start)
    total, points = _box_sum(rows, B)
    return math.log(total), points


def _dual(rows: Sequence[Sequence[float]], chi: float) -> List[List[float]]:
    """Rows of E^-T = adj(E)^T / det E: the columns of E turned by a right
    angle and swapped, times 1 / |det E| = e^chi (the sign of det E does
    not change the lattice)."""
    k = math.exp(chi)
    if len(rows) == 1:
        return [[k]]
    (u0, v0), (u1, v1) = rows
    return [[v1 * k, -u1 * k], [-v0 * k, u0 * k]]


def _theta_log(alpha: Idele, tol: float, max_radius: float,
               sparser: bool) -> Tuple[float, int]:
    """(log theta, points) of alpha's sections lattice E, summed on E or,
    with ``sparser`` and chi > 0, as chi + log theta(E^-T)."""
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
    half_log_d = 0.5 * math.log(abs(field.disc))
    chi = log_norm - half_log_d
    dual = sparser and chi > 0.0
    side = -chi if dual else chi  # chi of the summed lattice: chi(kappa alpha^-1) = -chi
    log_m0 = math.log(2.0) - side - half_log_d if n == 2 else -2.0 * side
    if log_m0 >= 20.0:  # exp(-pi e^20) is 0.0: every nonzero weight underflows
        return (chi if dual else 0.0), 1
    # the cap is covol^(2/n), covol = e^-side; a cap that underflows stands
    # for any smaller positive one, and every box below the cap's also misses
    # too much at the true eigenvalue
    lam_cap = math.exp(-side * 2 / n)
    start = certified_box(max(lam_cap, sys.float_info.min), n, tol * 0.25, max_radius)
    if log_cn > math.log(sys.float_info.max) - 1.0:
        raise GlobalFieldError("the sections lattice leaves double range (a skewed idele "
                               "of moderate norm; exact reduction is not implemented)")
    if field.kind == RATIONAL:
        num, den = _content(plan)
        pl, = places_above(field, INFINITY)
        rows = [[num / den / alpha.arch.get(pl, 1.0)]]
    else:
        rows = _rows(field, _ideal(field, plan), alpha.arch)
    if not dual:
        return theta_log_sum(rows, tol, max_radius, start)
    lt, points = theta_log_sum(_dual(rows, chi), tol, max_radius, start)
    return chi + lt, points


def theta_log_for_idele(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """(log sum over global sections of the Gaussian weights of an idele,
    lattice points evaluated), on the sparser side of Poisson summation."""
    return _theta_log(alpha, tol, max_radius, sparser=True)


def theta_log_direct(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """theta_log_for_idele summed on alpha's own lattice E, never on E^-T."""
    return _theta_log(alpha, tol, max_radius, sparser=False)
