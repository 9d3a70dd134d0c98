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
plan once.  What it needs of the field, n, 1/2 log |d_K| and per infinite
place e_v and omega's image, is one record made once per field
(FieldConstants), from which E's rows are built in real arithmetic.

Extremes are settled by the norm before a float lattice is built.  Sparse:
every nonzero section has ||E x||^2 >= m0, m0 = 2/|alpha| (AM-GM and
|N(x)| >= N(I)), 1/|alpha|^2 on Q; from log m0 >= 20 every nonzero weight
underflows, and h0 = 0.0 over one term.  A lattice whose basis or Gram
entries leave double range is refused.

theta_log_for_idele sums on the sparser side of Poisson summation (Tate's
thesis, section 4; van der Geer-Schoof 2000):

    sum_x exp(-pi ||E x||^2) = (1 / |det E|) sum_y exp(-pi ||E^-T y||^2),

where |det E| = sqrt|d_K| / |alpha| = e^-chi, chi = log |alpha| -
1/2 log |d_K| taken in floats from the plan's scales.  E^-T spans the
sections lattice of kappa alpha^-1 (kappa the canonical idele) up to a
rotation.  When chi > 0, E is dense and E^-T sparse, and the sum is
chi + log theta(E^-T), with E^-T = e^chi adj(E)^T built from alpha's own
rows: no dual idele, no second plan and no determinant in floats.  The
dual side settles its sparse extreme as above with log |kappa alpha^-1| =
log |d_K| - log |alpha| (there the sum is chi).  theta_log_direct always
sums E itself: the identity checks use it, so that neither side of
Poisson summation or Serre duality is derived from the other.

The sum runs in Python floats as rows of one-dimensional sums, the
completion of the square of Fincke-Pohst (Math. Comp. 44, 1985).  Lagrange
reduction gives a basis u, v with Gram entries C = |u|^2 <= |v|^2 and
B = u.v, |B| <= C/2; with A' = det^2 / C,

    sum_x exp(-pi A' x^2) theta1(C, x B/C),  theta1(c, s) = sum_n exp(-pi c (n + s)^2),

and rank 1 is theta1(e^2, 0).  theta1 is summed directly when c >= 1 and
through Jacobi's formula c^-1/2 sum_k exp(-pi k^2 / c) cos 2 pi k s when
c < 1.  That formula is Poisson summation on Z along the one column u, not
the two-dimensional identity on E that the Serre and Poisson checks test:
the sum still runs over E's own rows, never over E^-T, so a direct sum
derives neither side of either identity from the other.

Certificate: one rule, certified_box(lam, tol, max_radius), the smallest B
with 2 sum_{n > B} exp(-pi lam n^2) < tol, sets at t = tol/64 the number of
rows X (lam = A'), a direct row's half-width (lam = C) and the number of
Jacobi terms (lam = 1/C); the last two depend on C alone, so they are found
once per sum.  The sum is at least its row x = 0, theta1(C, 0), which
bounds every row, so rows beyond X miss at most t of it.  A direct row
misses less than t, under row weights that add up to at most 1.2
(A' >= 3C/4 >= 3/4); a Jacobi row misses at most c^-1/2 t of at least
(1 - 2 e^-pi) c^-1/2.  So the log is off by less than 2.3 t.  The rule is
nearly tight (the first omitted term dominates each tail), hence the small
share t.  Costs count terms, not lattice points: lattice_points_used and
the benchmark's theta.points count the summands of the one-dimensional sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

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


class FieldConstants(NamedTuple):
    """What a theta sum needs of its field: n, 1/2 log |d_K| and, per
    infinite place in order, (place, e_v, Re omega, Im omega); omega is 0
    on Q, whose lattice has the basis 1 alone."""

    degree: int
    half_log_d: float
    infinite: Tuple[Tuple[Place, int, float, float], ...]


@lru_cache(maxsize=None)
def _field_constants(field: GlobalFieldDesc) -> FieldConstants:
    """The FieldConstants of Q or a quadratic field, one per field."""
    if field.kind not in (RATIONAL, QUADRATIC):
        raise GlobalFieldError(f"no theta lattice for {field.describe()}")
    ws = omega_embeddings(field) if field.kind == QUADRATIC else [0j]
    return FieldConstants(field.degree, 0.5 * math.log(abs(field.disc)),
                          tuple((pl, pl.e_v, w.real, w.imag)
                                for pl, w in zip(places_above(field, INFINITY), ws)))


def _rows(field: GlobalFieldDesc, ideal: FractionalIdeal,
          arch: Dict[Place, float]) -> List[List[float]]:
    """Rows z / alpha at a real place, sqrt 2 Re z / alpha and sqrt 2 Im z / alpha
    at a complex one, z = x + y omega the image of a basis column (x, y);
    Q(x) = pi * ||E x||^2.  The first column is (a, 0), real, so its
    imaginary entry is 0.0."""
    d = ideal.den
    a, b, c = ideal.a / d, ideal.b / d, ideal.c / d
    rows = []
    root2 = math.sqrt(2.0)
    for pl, e_v, w_re, w_im in _field_constants(field).infinite:
        al = arch.get(pl, 1.0)
        re = b + c * w_re
        if e_v == 1:
            rows.append([a / al, re / al])
        else:
            rows += [[root2 * a / al, root2 * re / al], [0.0, root2 * (c * w_im) / al]]
    return rows


def embedding_matrix(field: GlobalFieldDesc, ideal: FractionalIdeal,
                     arch: Dict[Place, float]) -> "numpy.ndarray":
    """E as a numpy array (see ``_rows``).  The library sums on Python
    floats; only the benchmark's reference sum and the tests call this."""
    import numpy

    return numpy.array(_rows(field, ideal, arch))


def certified_box(lam: float, tol: float, max_radius: float) -> int:
    """The smallest B >= 0 with 2 sum_{n > B} exp(-pi lam n^2) < tol, the
    tail bounded by the geometric series of ratio exp(-pi lam (2B + 3)).

    Every B with (B + 1)^2 <= log(2 / tol) / (pi lam) misses too much in
    its first omitted term alone, so the search starts just below that root.
    """
    log_2_tol = max(0.0, math.log(2.0) - math.log(tol))  # 2 / tol can overflow
    B = max(0, int(math.sqrt(log_2_tol / (math.pi * lam))) - 1)
    while B <= max_radius:
        b = B + 1.0  # a float: (B + 1)^2 as an int can pass double range
        # 1 - exp(-x) through expm1: on dense lattices x falls below 1e-16
        tail = math.exp(-math.pi * lam * b * b) / -math.expm1(-math.pi * lam * (2 * b + 1))
        if 2.0 * tail < tol:
            return B
        B += 1
    raise RadiusExceeded(f"certified radius exceeds max_radius = {max_radius}")


def _reduce(rows: Sequence[Sequence[float]]) -> Tuple[float, float, float]:
    """Gram entries (C, B, A') of a Lagrange-reduced basis (u, v), as in the
    module docstring; rank 1 is (e^2, 0, inf), its one row x = 0.  Reduction
    scales with E, so it runs on E/s, s the power of two just above its
    largest entry (exact, no overflow), and the entries are scaled back by s^2.
    """
    flat = [v for row in rows for v in row]
    if not all(map(math.isfinite, flat)):
        raise GlobalFieldError("embedding matrix is not finite "
                               "(archimedean component out of range)")
    s = math.ldexp(1.0, math.frexp(max(map(abs, flat)))[1])
    if len(flat) == 1:
        e = flat[0] / s
        return e * e * s * s, 0.0, math.inf
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
    uu, uv, det = u0 * u0 + u1 * u1, u0 * v0 + u1 * v1, u0 * v1 - v0 * u1
    if det == 0.0:
        raise GlobalFieldError("embedding matrix is singular in double precision")
    return uu * s * s, uv * s * s, det * det / uu * s * s


def _theta1(c: float, s: float, R: int) -> float:
    """theta1(c, s) for s in [0, 1/2], R its certified radius.  When c >= 1
    it sums every n with |n + s| < R + 1, so both of its tails start beyond
    R + 1; when c < 1 it sums Jacobi's formula over |k| <= R."""
    if c >= 1.0:
        return sum(math.exp(-math.pi * c * (n + s) ** 2) for n in range(-R - 1, R + 1))
    return (1.0 + 2.0 * sum(math.exp(-math.pi * k * k / c) * math.cos(2.0 * math.pi * k * s)
                            for k in range(1, R + 1))) / math.sqrt(c)


def theta_log_sum(rows: Sequence[Sequence[float]], tol: float,
                  max_radius: float) -> Tuple[float, int]:
    """(log of the lattice Gaussian sum, terms evaluated) for E given by its
    rows in Python floats, as rows of one-dimensional sums (module
    docstring).  theta1 is even with period 1 in s, so the rows x and -x are
    summed once, at s reduced into [0, 1/2]."""
    C, B, A1 = _reduce(rows)
    if C == math.inf:  # |u|^2 overflows: every nonzero weight underflows
        return 0.0, 1
    if not min(C, A1) >= sys.float_info.min:
        raise GlobalFieldError("the sections lattice leaves double range (a Gram "
                               "entry underflows)")
    part = tol / 64  # the share of each of the three truncations (module docstring)
    X = certified_box(A1, part, max_radius)
    R = certified_box(C if C >= 1.0 else 1.0 / C, part, max_radius)  # C alone sets it
    parts = [_theta1(C, 0.0, R)]
    for x in range(1, X + 1):
        s = x * B / C
        parts.append(2.0 * math.exp(-math.pi * A1 * x * x) * _theta1(C, abs(s - round(s)), R))
    return math.log(math.fsum(parts)), (X + 1) * (2 * R + 2 if C >= 1.0 else R + 1)


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
    """(log theta, terms) of alpha's sections lattice E, summed on E or,
    with ``sparser`` and chi > 0, as chi + log theta(E^-T)."""
    field = alpha.field
    n, half_log_d, infinite = _field_constants(field)
    plan = _plan(alpha)
    arch = alpha.arch
    # fsum rounds the exact sum, so the order of the places does not matter
    log_norm = math.fsum(e_v * math.log(arch[pl]) for pl, e_v, _, _ in infinite if pl in arch)
    log_cn = 0.0
    for p, k, j, _ in plan:
        log_norm -= (n * k + j) * math.log(p)
        log_cn += (k + j) * math.log(p)
    chi = log_norm - half_log_d
    dual = sparser and chi > 0.0
    side = -chi if dual else chi  # chi of the summed lattice: chi(kappa alpha^-1) = -chi
    log_m0 = math.log(2.0) - side - half_log_d if n == 2 else -2.0 * side
    if log_m0 >= 20.0:  # exp(-pi e^20) is 0.0: every nonzero weight underflows
        return (chi if dual else 0.0), 1
    if log_cn > math.log(sys.float_info.max) - 1.0:
        raise GlobalFieldError("the sections lattice leaves double range (a skewed idele "
                               "of moderate norm; exact reduction is not implemented)")
    if field.kind == RATIONAL:
        num, den = _content(plan)
        (pl, _, _, _), = infinite
        rows = [[num / den / arch.get(pl, 1.0)]]
    else:
        rows = _rows(field, _ideal(field, plan), arch)
    if not dual:
        return theta_log_sum(rows, tol, max_radius)
    lt, terms = theta_log_sum(_dual(rows, chi), tol, max_radius)
    return chi + lt, terms


def theta_log_for_idele(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """(log sum over global sections of the Gaussian weights of an idele,
    terms evaluated), on the sparser side of Poisson summation."""
    return _theta_log(alpha, tol, max_radius, sparser=True)


def theta_log_direct(alpha: Idele, tol: float, max_radius: float) -> Tuple[float, int]:
    """theta_log_for_idele summed on alpha's own lattice E, never on E^-T."""
    return _theta_log(alpha, tol, max_radius, sparser=False)
