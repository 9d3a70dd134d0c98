"""The verification battery: every identity the package certifies, bundled.

Each check returns a :class:`SuiteResult` with a pass flag, a one-line
detail string, and enough counters to audit what ran.  The CLI ``suite``
command executes all of them with a seed; the acceptance tests call them
individually with pinned tolerances.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Tuple

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


def _failed(detail: str, n: int, report) -> Tuple[bool, str, int, dict]:
    """A check's result after ``n`` cases, the failing report nested under
    one key so that it leaves the check's own fields as they are."""
    return False, detail, n, {"failure": report.to_json()}


def _wrap(name: str, fn: Callable[[], Tuple[bool, str, int, dict]]) -> SuiteResult:
    """Run one check; a check that ran zero cases fails rather than passing."""
    start = time.perf_counter()
    passed, detail, checks, extra = fn()
    if passed and checks == 0:
        passed, detail = False, "ran zero cases"
    return SuiteResult(name, passed, detail, (time.perf_counter() - start) * 1e3,
                       checks, extra)


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


def check_lemmas(ps=(2, 3, 5), m_range=(-3, 3)) -> SuiteResult:
    def run():
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
    return _wrap("lemmas", run)


# -- 2. inversion formula ---------------------------------------------------------


def check_inversion(seed: int = 1, per_field: int = 200,
                    ps=(2, 3, 5), coset_cap: int = 81) -> SuiteResult:
    def run():
        rng = random.Random(seed)
        n = 0
        for K in local_field_roster(ps):
            for _ in range(per_field):
                f = random_step_function(K, rng, coset_cap=coset_cap)
                rep = verify_inversion(f)
                n += 1
                if not rep.passed:
                    return _failed(f"inversion failed on {K.describe()}", n, rep)
        return True, f"{n} random step functions inverted exactly", n, {}
    return _wrap("inversion", run)


# -- 3. discriminant product formula ----------------------------------------------


def check_disc_product(dmax: int = 50) -> SuiteResult:
    def run():
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
    return _wrap("disc-product", run)


# -- 4/5. Riemann-Roch ------------------------------------------------------------


def check_rr(seed: int = 2, per_field: int = 1000, tol: float = 1e-12) -> SuiteResult:
    def run():
        rng = random.Random(seed)
        n = 0
        for F in rr_field_roster():
            for _ in range(per_field):
                rep = verify_rr(F, random_idele(F, rng), tol=tol)
                n += 1
                if not rep.passed:
                    return _failed(f"rr failed on {F.describe()}", n, rep)
        return True, f"chi(D) - chi(0) = deg D exact on {n} ideles", n, {}
    return _wrap("rr", run)


def check_rr_relative(seed: int = 3, per_pair: int = 1000,
                      tol: float = 1e-12) -> SuiteResult:
    def run():
        rng = random.Random(seed)
        n = 0
        for L, K in relative_pairs():
            for _ in range(per_pair):
                for rep in verify_rr_relative(L, K, random_idele(L, rng), tol=tol):
                    n += 1
                    if not rep.passed:
                        return _failed(f"{rep.check} failed on {rep.field}", n, rep)
        return True, f"relative RR + compatibility exact on {n} checks", n, {}
    return _wrap("rr-rel", run)


# -- 6. Serre duality ---------------------------------------------------------------


def _serre_ideles(rng, per_field: int):
    """per_field bounded random ideles on each number field, then on each
    field of two_adic_roster() every valuation pair in [-3, 3] at the places
    above 2: a root of omega's polynomial is lifted mod 2^j only at a split
    2 with |v_P - v_P'| = j >= 2, which random draws seldom reach."""
    for F in number_field_roster() + two_adic_roster():
        for _ in range(per_field):
            yield F, random_idele_bounded(F, rng, bound=5.0)
    for F in two_adic_roster():
        pls = places_above(F, 2)
        for vs in itertools.product(range(-3, 4), repeat=len(pls)):
            yield F, Idele.make(F, dict(zip(pls, vs)))


def check_serre(seed: int = 4, per_field: int = 50, theta_tol: float = 1e-10,
                check_tol: float = 1e-8, ff_deg: int = 6) -> SuiteResult:
    def run():
        rng = random.Random(seed)
        params = ThetaParams(tolerance=theta_tol)
        n = 0
        worst = 0.0
        for F, al in _serre_ideles(rng, per_field):
            rep = verify_serre(F, al, params, check_tol=check_tol)
            n += 1
            worst = max(worst, abs(float(rep.lhs) - float(rep.rhs)))
            if not rep.passed:
                return _failed(f"serre failed on {F.describe()}", n, rep)
        for q in (2, 3):
            F = GlobalFieldDesc.rational_function_field(q)
            pl, = places_above(F, INFINITY)
            for deg in range(-ff_deg, ff_deg + 1):
                rep = verify_serre(F, Idele.make(F, {pl: -deg}), params)
                n += 1
                if not rep.passed:
                    return _failed(f"serre failed on {F.describe()} deg={deg}", n, rep)
        return True, f"{n} dualities (worst number-field gap {worst:.2e})", n, \
            {"worst_gap": worst}
    return _wrap("serre", run)


# -- 7. Poisson summation --------------------------------------------------------------


def check_poisson(theta_tol: float = 1e-12, check_tol: float = 1e-10) -> SuiteResult:
    def run():
        params = ThetaParams(tolerance=theta_tol)
        Q = GlobalFieldDesc.rationals()
        pl, = places_above(Q, INFINITY)
        n = 0
        for a in (0.25, 0.5, 1.0, 2.0, 4.0):
            rep = verify_poisson(Q, Idele.make(Q, {}, {pl: a}), params,
                                 check_tol=check_tol)
            n += 1
            if not rep.passed:
                return _failed(f"poisson failed on Q at alpha={a}", n, rep)
        for F in [GlobalFieldDesc.quadratic(-1), GlobalFieldDesc.quadratic(5),
                  *two_adic_roster()]:
            rep = verify_poisson(F, Idele.trivial(F), params, check_tol=check_tol)
            n += 1
            if not rep.passed:
                return _failed(f"poisson failed on {F.describe()}", n, rep)
        return True, f"two-sided sums agree on {n} configurations", n, {}
    return _wrap("poisson", run)


# -- 8. function-field section counting --------------------------------------------------


def _ff_place_pools(q: int):
    linears = [pi for pi in ffpoly.monic_irreducibles(q, 1)]
    quads = [pi for pi in ffpoly.monic_irreducibles(q, 2) if ffpoly.pdeg(pi) == 2]
    if q == 2:
        return [(linears[0], linears[1], INFINITY),
                (linears[0], quads[0], INFINITY)]
    return [(linears[0], linears[1], INFINITY),
            (linears[2], quads[0], INFINITY)]


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
    d: ffpoly.Poly = (1,)
    for pi, npi in finite.items():
        for _ in range(max(0, npi)):
            d = ffpoly.pmul(F, d, pi)
    bound = n_inf + ffpoly.pdeg(d)
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


def check_ff_sections(max_deg: int = 6, coeff_span: int = 2) -> SuiteResult:
    def run():
        n = 0
        for q in (2, 3):
            field = GlobalFieldDesc.rational_function_field(q)
            for pool in _ff_place_pools(q):
                spans = [range(-coeff_span, coeff_span + 1)] * len(pool)
                for coeffs in itertools.product(*spans):
                    div = dict(zip(pool, coeffs))
                    deg = sum(c * (1 if pi == INFINITY else ffpoly.pdeg(pi))
                              for pi, c in div.items())
                    if abs(deg) > max_deg:
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
    return _wrap("ff-sections", run)


# -- 9. theta oracle ------------------------------------------------------------------


def check_theta_oracle(tol: float = 1e-10) -> SuiteResult:
    def run():
        Q = GlobalFieldDesc.rationals()
        val = h0(Q, Idele.trivial(Q), ThetaParams(tolerance=1e-13))
        theta_lib = math.exp(float(val))
        theta_brute = math.fsum(math.exp(-math.pi * k * k) for k in range(-12, 13))
        frozen = 1.0864348112
        if abs(theta_lib - theta_brute) > tol:
            return False, f"library {theta_lib!r} vs brute {theta_brute!r}", 1, {}
        if abs(theta_brute - frozen) > 1e-9:
            return False, f"brute oracle drifted from {frozen}", 1, {}
        return True, f"theta(1) = {theta_brute:.10f} matches to {tol:g}", 1, \
            {"theta": theta_brute}
    return _wrap("theta-oracle", run)


# -- negative control -------------------------------------------------------------------


def check_negative_control() -> SuiteResult:
    """A deliberately corrupted round trip must be caught.

    The true round trip F^-1(F f) is f on f's own table, so f's table with
    one coset raised by 1 stands in for it.
    """
    def run():
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
    return _wrap("negative-control", run)


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
