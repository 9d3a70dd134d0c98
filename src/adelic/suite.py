"""The verification battery: every identity the package certifies, bundled.

Each check returns a :class:`SuiteResult` with a pass flag, a one-line
detail string, and enough counters to audit what ran.  The CLI ``suite``
command executes all of them with a seed; the acceptance tests call them
individually and pin the tolerances they run with.

A check is a function under ``@_check(name)`` returning ``(passed, detail,
cases, extra)``; a check of ``verify_*`` reports returns :func:`_report_loop`
over them.  Sizes are parameters, tolerances are not: rr, rr-rel, serre and
poisson's comparison use the ``verify_*`` defaults, as the CLI does, and
poisson's theta tolerance and the theta oracle's are literals in their checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Tuple

from . import ffpoly
from .ffpoly import gf
from .euler import (
    ThetaParams,
    h0,
    verify_poisson,
    verify_rr,
    verify_rr_relative,
    verify_serre,
)
from .globalfields import (
    INFINITY,
    GlobalFieldDesc,
    Idele,
    different_exponent_at,
    local_discriminant_desc,
    places_above,
    UnsupportedField,
    ramified_finite_places,
    random_idele,
    random_idele_bounded,
    relative_discriminant_norm,
)
from .harmonic import (
    CycScalar,
    StepFunction,
    character_coset_integral,
    coset_measure,
    fourier,
    indicator,
    random_step_function,
    verify_inversion,
)
from .localfields import (
    LAURENT,
    P_ADIC,
    LocalFieldDesc,
    base_field,
    validated_quadratics,
)
from .values import PosRealExact, factorize


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    runtime_ms: float = 0.0
    checks: int = 0
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "detail": self.detail,
            "checks": self.checks,
            "runtime_ms": self.runtime_ms,
            **self.extra,
        }


def _check(name: str):
    """Make a function returning ``(passed, detail, cases, extra)`` a check
    named ``name``: timed, and failed rather than passed if it ran zero cases."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> SuiteResult:
            start = time.perf_counter()
            passed, detail, cases, extra = body(*args, **kwargs)
            if passed and cases == 0:
                passed, detail = False, "ran zero cases"
            return SuiteResult(name, passed, detail,
                               (time.perf_counter() - start) * 1e3, cases, extra)
        return check
    return decorate


def _report_loop(name: str, reports, done: str, gap=None):
    """Count ``reports`` up to the first failure, nested under "failure" so
    that it leaves the check's own fields as they are, and named by the
    report's ``check`` (an InversionReport has none: ``name``) and field.
    ``done`` is the passing detail, formatted with the count ``n`` and the
    largest ``gap(report)``, ``worst``, which is also returned as "worst_gap"."""
    n, worst = 0, 0.0
    for rep in reports:
        n += 1
        if not rep.passed:
            obj = rep.to_json()
            return False, f"{obj.get('check', name)} failed on {obj['field']}", n, \
                {"failure": obj}
        if gap is not None:
            worst = max(worst, gap(rep))
    return True, done.format(n=n, worst=worst), n, {"worst_gap": worst} if gap else {}


def local_field_roster(ps=(2, 3, 5)) -> List[LocalFieldDesc]:
    out: List[LocalFieldDesc] = []
    for p in ps:
        for kind in (P_ADIC, LAURENT):
            out.append(base_field(p, kind))
            out.extend(validated_quadratics(p, kind))
    return out


def number_field_roster() -> List[GlobalFieldDesc]:
    return [GlobalFieldDesc.rationals(), GlobalFieldDesc.quadratic(-1),
            GlobalFieldDesc.quadratic(5), GlobalFieldDesc.quadratic(-3)]


def two_adic_roster() -> List[GlobalFieldDesc]:
    """Q(sqrt -7) and Q(sqrt 17), where 2 splits, and Q(sqrt 2) and
    Q(sqrt -2), where 2 ramifies with different exponent 3: the Serre and
    Poisson checks run on them after the fields that the benchmark reads
    from number_field_roster()."""
    return [GlobalFieldDesc.quadratic(d) for d in (-7, 17, 2, -2)]


def rr_field_roster() -> List[GlobalFieldDesc]:
    return number_field_roster() + [GlobalFieldDesc.rational_function_field(2),
                                    GlobalFieldDesc.rational_function_field(3)]


def relative_pairs() -> List[Tuple[GlobalFieldDesc, GlobalFieldDesc]]:
    F3 = GlobalFieldDesc.rational_function_field(3)
    return [
        (GlobalFieldDesc.quadratic(5), GlobalFieldDesc.rationals()),
        (GlobalFieldDesc.quadratic(-1), GlobalFieldDesc.rationals()),
        (GlobalFieldDesc.hyperelliptic(3, (0, 2, 0, 1)), F3),  # y^2 = t^3 - t
    ]


# -- 1. appendix lemmas, exact ---------------------------------------------------


@_check("lemmas")
def check_lemmas(ps=(2, 3, 5), m_range=(-3, 3)):
    n = 0
    for K in local_field_roster(ps):
        d = K.different_exponent
        for m in range(m_range[0], m_range[1] + 1):
            got = character_coset_integral(K, m)
            if m >= -d:
                want = CycScalar.from_posreal(K.p, coset_measure(K, m))
                if not got.eq(want):
                    return False, f"coset integral {K.describe()} m={m}", n, {}
            elif not got.is_zero():
                return False, f"coset integral {K.describe()} m={m}", n, {}
            ghat = fourier(indicator(K, m))
            scale = PosRealExact.prime_power(K.p, -K.f * m)
            want_fn = indicator(K, -m - d)
            want_fn = StepFunction(
                K, want_fn.support_bound, want_fn.level,
                {k: v.scale_measure(scale * coset_measure(K, 0))
                 for k, v in want_fn.values.items()})
            if not ghat.equals(want_fn):
                return False, f"transform {K.describe()} m={m}", n, {}
            n += 2
    return True, f"L1 + indicator transforms exact on {n} cases", n, {}


# -- 2. inversion formula ---------------------------------------------------------


@_check("inversion")
def check_inversion(seed: int = 1, per_field: int = 200, ps=(2, 3, 5)):
    rng = random.Random(seed)
    return _report_loop("inversion", (
        verify_inversion(random_step_function(K, rng, coset_cap=81))
        for K in local_field_roster(ps) for _ in range(per_field)),
        "{n} random step functions inverted exactly")


# -- 3. discriminant product formula ----------------------------------------------


@_check("disc-product")
def check_disc_product(dmax: int = 50):
    Q = GlobalFieldDesc.rationals()
    n = 0
    for d in range(-dmax, dmax + 1):
        if d in (0, 1):
            continue
        try:
            K = GlobalFieldDesc.quadratic(d)
        except UnsupportedField:
            continue  # not squarefree
        local = PosRealExact.one()
        for pl in ramified_finite_places(K):
            desc = local_discriminant_desc(K, pl.below)
            local = local * PosRealExact.prime_power(pl.below,
                                                     desc.disc_exponent)
        if local != relative_discriminant_norm(K, Q):
            return False, f"disc product failed for d={d}", n, {}
        # Dedekind: the sum over v | p of f_v d_v is v_p(d_K)
        vp = factorize(abs(K.disc))
        for p in sorted({2, *vp}):
            if sum(pl.f * different_exponent_at(K, pl)
                   for pl in places_above(K, p)) != vp.get(p, 0):
                return False, f"Dedekind's different failed for d={d} at p={p}", n, {}
        n += 1
    return True, (f"local x global discriminants and Dedekind's different "
                  f"agree for {n} fields"), n, {}


# -- 4/5. Riemann-Roch ------------------------------------------------------------


@_check("rr")
def check_rr(seed: int = 2, per_field: int = 1000):
    rng = random.Random(seed)
    return _report_loop("rr", (
        verify_rr(F, random_idele(F, rng))
        for F in rr_field_roster() for _ in range(per_field)),
        "chi(D) - chi(0) = deg D exact on {n} ideles")


@_check("rr-rel")
def check_rr_relative(seed: int = 3, per_pair: int = 1000):
    rng = random.Random(seed)
    return _report_loop("rr-rel", (
        rep for L, K in relative_pairs() for _ in range(per_pair)
        for rep in verify_rr_relative(L, K, random_idele(L, rng))),
        "relative RR + compatibility exact on {n} checks")


# -- 6. Serre duality ---------------------------------------------------------------


def _serre_ideles(rng, per_field: int):
    """per_field bounded random ideles on each number field, then on each
    field of two_adic_roster() every valuation pair in [-3, 3] at the places
    above 2: a root of omega's polynomial is lifted mod 2^j only at a split
    2 with |v_P - v_P'| = j >= 2, which random draws seldom reach.  Last, on
    F_2(t) and F_3(t), the divisors n * infinity with |n| <= 6."""
    for F in number_field_roster() + two_adic_roster():
        for _ in range(per_field):
            yield F, random_idele_bounded(F, rng, bound=5.0)
    for F in two_adic_roster():
        pls = places_above(F, 2)
        for vs in itertools.product(range(-3, 4), repeat=len(pls)):
            yield F, Idele.make(F, dict(zip(pls, vs)))
    for q in (2, 3):
        F = GlobalFieldDesc.rational_function_field(q)
        pl, = places_above(F, INFINITY)
        for deg in range(-6, 7):
            yield F, Idele.make(F, {pl: -deg})


@_check("serre")
def check_serre(seed: int = 4, per_field: int = 50):
    # a function-field report passes only with lhs == rhs, at gap 0
    rng = random.Random(seed)
    return _report_loop("serre", (
        verify_serre(F, al) for F, al in _serre_ideles(rng, per_field)),
        "{n} dualities (worst number-field gap {worst:.2e})",
        gap=lambda rep: abs(float(rep.lhs) - float(rep.rhs)))


# -- 7. Poisson summation --------------------------------------------------------------


@_check("poisson")
def check_poisson():
    Q = GlobalFieldDesc.rationals()
    pl, = places_above(Q, INFINITY)
    ideles = [Idele.make(Q, {}, {pl: a}) for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
    fields = [GlobalFieldDesc.quadratic(-1), GlobalFieldDesc.quadratic(5)]
    ideles += [Idele.trivial(F) for F in fields + two_adic_roster()]
    params = ThetaParams(tolerance=1e-12)
    return _report_loop("poisson", (
        verify_poisson(al.field, al, params) for al in ideles),
        "two-sided sums agree on {n} configurations")


# -- 8. function-field section counting --------------------------------------------------


def _ff_place_pools(q: int):
    linears = [pi for pi in ffpoly.monic_irreducibles(q, 1)]
    quads = [pi for pi in ffpoly.monic_irreducibles(q, 2) if ffpoly.pdeg(pi) == 2]
    other = linears[0] if q == 2 else linears[2]  # F_2 has two linear places
    return [(linears[0], linears[1], INFINITY), (other, quads[0], INFINITY)]


def brute_force_sections(field: GlobalFieldDesc, div_coeffs: Dict) -> int:
    """Count L(D) = {x : div(x) + D >= 0} by enumerating candidates.

    Writes x = h / d with d collecting the demanded poles, so the bound at
    infinity is deg h <= n_inf + deg d.  h ranges over every polynomial of
    degree up to one above that bound, and each candidate is tested place by
    place: the degree at infinity, and v_pi(h) >= max(0, -n_pi) at every
    finite place (the places are distinct monic irreducibles, so
    v_pi(d) = max(0, n_pi)).
    """
    q = field.q
    F = gf(q)
    n_inf = div_coeffs.get(INFINITY, 0)
    finite = {pi: n for pi, n in div_coeffs.items() if pi != INFINITY}
    bound = n_inf + sum(max(0, npi) * ffpoly.pdeg(pi) for pi, npi in finite.items())
    count = 1  # the zero function
    for idx in range(1, q ** (max(bound, -1) + 2)):
        h = ffpoly.int_to_poly(F, idx)
        ok = ffpoly.pdeg(h) <= bound
        for pi, npi in finite.items():
            if not ok:
                break
            mult = 0
            r = h
            while True:
                qq, rr = ffpoly.pdivmod(F, r, pi)
                if rr:
                    break
                mult += 1
                r = qq
            ok = mult >= max(0, -npi)
        if ok:
            count += 1
    return count


@_check("ff-sections")
def check_ff_sections():
    n = 0
    for q in (2, 3):
        field = GlobalFieldDesc.rational_function_field(q)
        for pool in _ff_place_pools(q):
            for coeffs in itertools.product(range(-2, 3), repeat=len(pool)):
                div = dict(zip(pool, coeffs))
                deg = sum(c * (1 if pi == INFINITY else ffpoly.pdeg(pi))
                          for pi, c in div.items())
                if abs(deg) > 6:
                    continue
                count = brute_force_sections(field, div)
                ell = max(0, deg + 1)
                if count != q ** ell:
                    return False, (f"q={q} divisor {div}: brute {count} "
                                   f"!= q^{ell}"), n, {}
                # cross-check the library value through an actual idele
                fin = {}
                for pi, c in div.items():
                    pl, = places_above(field, pi)
                    if c:
                        fin[pl] = -c
                val = h0(field, Idele.make(field, fin))
                want = math.log(q) * ell
                if abs(float(val) - want) > 1e-12:
                    return False, f"h0 mismatch for {div}", n, {}
                n += 1
    return True, f"section counts match brute enumeration on {n} divisors", n, {}


# -- 9. theta oracle ------------------------------------------------------------------


@_check("theta-oracle")
def check_theta_oracle():
    Q = GlobalFieldDesc.rationals()
    val = h0(Q, Idele.trivial(Q), ThetaParams(tolerance=1e-13))
    theta_lib = math.exp(float(val))
    theta_brute = math.fsum(math.exp(-math.pi * k * k) for k in range(-12, 13))
    frozen, tol = 1.0864348112, 1e-10
    if abs(theta_lib - theta_brute) > tol:
        return False, f"library {theta_lib!r} vs brute {theta_brute!r}", 1, {}
    if abs(theta_brute - frozen) > 1e-9:
        return False, f"brute oracle drifted from {frozen}", 1, {}
    return True, f"theta(1) = {theta_brute:.10f} matches to {tol:g}", 1, \
        {"theta": theta_brute}


# -- negative control -------------------------------------------------------------------


@_check("negative-control")
def check_negative_control():
    """A deliberately corrupted round trip must be caught.

    The true round trip F^-1(F f) is f on f's own table, so f's table with
    one coset raised by 1 stands in for it.
    """
    K = base_field(2)
    f = random_step_function(K, random.Random(99), coset_cap=64)
    key = next(iter(f.values), (0,) * f.length)
    vals = dict(f.values)
    vals[key] = vals.get(key, CycScalar.zero(2)) + CycScalar.rational(2, 1)
    rep = verify_inversion(f, double_transform=StepFunction(
        K, f.support_bound, f.level, vals))
    if rep.passed or not rep.witnesses:
        return False, "corrupted transform was not flagged", 1, {}
    return True, "corrupted transform rejected with a coset witness", 1, {}


# -- the full battery ----------------------------------------------------------------------


def run_battery(seed: int = 0, fast: bool = False) -> List[SuiteResult]:
    """Every check, seeded; ``fast`` trims the randomized sample sizes."""
    per_inv = 40 if fast else 200
    per_rr = 200 if fast else 1000
    per_serre = 12 if fast else 50
    return [
        check_lemmas(),
        check_inversion(seed=seed + 1, per_field=per_inv),
        check_disc_product(),
        check_rr(seed=seed + 2, per_field=per_rr),
        check_rr_relative(seed=seed + 3, per_pair=per_rr),
        check_serre(seed=seed + 4, per_field=per_serre),
        check_poisson(),
        check_ff_sections(),
        check_theta_oracle(),
        check_negative_control(),
    ]
