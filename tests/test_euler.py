import hashlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from adelic.euler import (
    RadiusExceeded,
    ThetaParams,
    _h0_direct,
    canonical_idele,
    chi,
    chi_relative,
    h0,
    h0_with_count,
    h1,
    verify_poisson,
    verify_rr,
    verify_rr_relative,
    verify_serre,
)
from adelic.globalfields import (
    HYPERELLIPTIC,
    INFINITY,
    RATIONAL,
    GlobalFieldDesc,
    Idele,
    NotAnExtension,
    UnsupportedField,
    archimedean_places,
    divisor_of_idele,
    idele_log_norm,
    omega_embeddings,
    places_above,
    principal_idele,
    random_idele,
    random_idele_bounded,
)
from adelic.theta import (
    _reduce,
    certified_box,
    embedding_matrix,
    ideal_for_idele,
    theta_log_direct,
)
from adelic.values import LogValue

Q = GlobalFieldDesc.rationals()
Qi = GlobalFieldDesc.quadratic(-1)
Q5 = GlobalFieldDesc.quadratic(5)
Qm3 = GlobalFieldDesc.quadratic(-3)
Q2 = GlobalFieldDesc.quadratic(2)
Qm7 = GlobalFieldDesc.quadratic(-7)
F2 = GlobalFieldDesc.rational_function_field(2)
F3 = GlobalFieldDesc.rational_function_field(3)
H = GlobalFieldDesc.hyperelliptic(3, (0, 2, 0, 1))


def arch_idele(field, a):
    pl, = places_above(field, INFINITY)
    return Idele.make(field, {}, {pl: a})


def ff_divisor_idele(field, n):
    """Idele whose divisor is n[infinity]."""
    pl, = places_above(field, INFINITY)
    return Idele.make(field, {pl: -n})


# -- chi ---------------------------------------------------------------------------


def test_chi_examples():
    assert float(chi(Q, Idele.trivial(Q))) == 0.0
    assert chi(F3, Idele.trivial(F3)).coeffs == {3: Fraction(1)}   # log q
    assert chi(Qi, Idele.trivial(Qi)).coeffs == {2: Fraction(-1)}  # -log 2


def test_chi_determined_by_adelic_norm():
    # two ideles with the same log-norm have identical chi, exactly
    pls = places_above(Qi, 5)
    a = Idele.make(Qi, {pls[0]: 1})
    b = Idele.make(Qi, {pls[1]: 1})
    assert chi(Qi, a).coeffs == chi(Qi, b).coeffs


def test_chi_invariant_under_principal_scaling():
    rng = random.Random(3)
    for x in (Fraction(3, 2), Fraction(-7, 5)):
        pr = principal_idele(Q, x)
        for _ in range(10):
            al = random_idele(Q, rng)
            lhs = chi(Q, pr * al)
            rhs = chi(Q, al)
            assert abs(float(lhs) - float(rhs)) < 1e-12


# -- h0 -----------------------------------------------------------------------------


def test_h0_trivial_rationals_against_oracles():
    v = float(h0(Q, Idele.trivial(Q), ThetaParams(tolerance=1e-13)))
    theta = math.exp(v)
    brute = math.fsum(math.exp(-math.pi * n * n) for n in range(-12, 13))
    assert abs(theta - brute) < 1e-12
    # independent high-precision oracle: Jacobi theta_3 at q = e^-pi
    mp = float(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi)))
    assert abs(theta - mp) < 1e-12
    assert abs(theta - 1.0864348112) < 1e-9


def test_h0_function_field_sections():
    assert h0(F3, ff_divisor_idele(F3, 2)).coeffs == {3: Fraction(3)}  # 3 log 3
    assert h0(F3, ff_divisor_idele(F3, -1)).coeffs == {}
    assert h0(F2, ff_divisor_idele(F2, 5)).coeffs == {2: Fraction(6)}


def test_h0_brute_force_polynomial_count():
    # sections of 2[inf] over F_3 are the polynomials of degree <= 2
    count = sum(1 for c0 in range(3) for c1 in range(3) for c2 in range(3))
    assert count == 27
    assert float(h0(F3, ff_divisor_idele(F3, 2))) == pytest.approx(math.log(27))


def test_h0_large_alpha_asymptotics():
    # theta(alpha) ~ alpha for wide Gaussians: h0 = log|alpha| + o(1)
    v = float(h0(Q, arch_idele(Q, 100.0)))
    assert abs(v - math.log(100.0)) < 1e-6


def test_h0_monotone_in_archimedean_component():
    vals = [float(h0(Q, arch_idele(Q, a))) for a in (0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    vals = [float(h0(Qi, arch_idele(Qi, a))) for a in (0.7, 1.0, 1.8)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_h0_invariant_under_principal_scaling():
    params = ThetaParams(tolerance=1e-12)
    for F, x in ((Q, Fraction(3, 2)), (Qi, (1, 1))):
        pr = principal_idele(F, x)
        al = arch_idele(F, 1.3)
        lhs = float(h0(F, pr * al, params))
        rhs = float(h0(F, al, params))
        assert abs(lhs - rhs) < 1e-10


def test_h0_unsupported_and_radius():
    with pytest.raises(UnsupportedField):
        h0(H, Idele.trivial(H))
    # a dense idele is summed on its sparse Poisson dual, within any radius
    v = float(h0(Q, arch_idele(Q, 1e5), ThetaParams(tolerance=1e-10, max_radius=64)))
    assert abs(v - math.log(1e5)) < 1e-10
    with pytest.raises(RadiusExceeded):
        h0(Q, Idele.trivial(Q), ThetaParams(tolerance=1e-10, max_radius=1))


def steered_idele(field, rng, target):
    """A seeded finite part, with archimedean components jittered apart and
    scaled so that the log-norm is ``target``."""
    fin = random_idele(field, rng, max_val=2, max_places=2).finite
    arches = archimedean_places(field)
    total_e = sum(pl.e_v for pl in arches)
    need = target - float(idele_log_norm(Idele.make(field, fin)))
    jitter = [rng.uniform(-0.1, 0.1) for _ in arches]
    mean = sum(pl.e_v * j for pl, j in zip(arches, jitter)) / total_e
    arch = {pl: math.exp(need / total_e + j - mean) for pl, j in zip(arches, jitter)}
    return Idele.make(field, fin, arch)


def h0_through_the_dual_idele(field, alpha, params):
    """h0 as (value, points) by the route that builds kappa alpha^-1: the
    exact chi, then the dual idele's own lattice when chi > 0."""
    c = float(chi(field, alpha))
    if c > 0.0:
        dual, n = _h0_direct(field, alpha.inv() * canonical_idele(field), params)
        return c + float(dual), n
    value, n = _h0_direct(field, alpha, params)
    return float(value), n


@pytest.mark.parametrize("field, top", [(Q, 6.5), (Qi, 12.0), (Q5, 12.0), (Qm3, 12.0),
                                        (Q2, 12.0), (Qm7, 12.0)],
                         ids=["Q", "Qi", "Q5", "Qm3", "Q2", "Qm7"])
def test_h0_sums_the_sparser_side(field, top):
    # one idele per stratum of log-norm 0..top: h0 agrees with the direct
    # theta sum (up to millions of points) while summing few points itself,
    # and with the sum on the dual idele's own lattice, point for point
    rng = random.Random(f"sparser:{field.describe()}")
    params = ThetaParams()
    for s in range(24):
        target = top * (s + rng.random()) / 24
        al = steered_idele(field, rng, target)
        assert abs(float(idele_log_norm(al)) - target) < 1e-9
        value, points = h0_with_count(field, al, params)
        direct, _ = theta_log_direct(al, params.tolerance, params.max_radius)
        assert abs(float(value) - direct) < 1e-10, al.describe()
        assert points <= 100, (al.describe(), points)
        oracle, oracle_points = h0_through_the_dual_idele(field, al, params)
        assert abs(float(value) - oracle) < 1e-12, al.describe()
        assert points == oracle_points, al.describe()


def test_h0_builds_no_idele_and_one_plan_after_warm_up(monkeypatch):
    # h0 on a dense idele sums E^-T of the idele's own lattice: no dual
    # idele is built and one lattice is planned per h0
    from adelic import theta

    rng = random.Random(21)
    params = ThetaParams()
    ideles = [(F, steered_idele(F, rng, rng.uniform(2.0, 12.0)))
              for F in (Qi, Q5) for _ in range(50)]
    assert all(float(chi(F, al)) > 0.0 for F, al in ideles)
    for F, al in ideles[::50]:
        h0(F, al, params)  # warm-up
    calls = {"make": 0, "plan": 0}
    make, plan = Idele.make, theta._plan

    def counting_make(*args, **kwargs):
        calls["make"] += 1
        return make(*args, **kwargs)

    def counting_plan(alpha):
        calls["plan"] += 1
        return plan(alpha)

    monkeypatch.setattr(Idele, "make", staticmethod(counting_make))
    monkeypatch.setattr(theta, "_plan", counting_plan)
    for F, al in ideles:
        h0(F, al, params)
    assert calls == {"make": 0, "plan": len(ideles)}


def test_h0_h1_chi_refuse_an_idele_of_another_field():
    # one sparse and one dense idele of Q(sqrt 5), on each side of h0's
    # choice, handed to Q(i), and one dense idele of Q(i) handed to Q
    a1, a2 = archimedean_places(Q5)
    sparse = Idele.make(Q5, {}, {a1: math.exp(-6.0), a2: math.exp(-6.0)})
    dense = Idele.make(Q5, {}, {a1: math.exp(4.0), a2: math.exp(4.0)})
    assert float(chi(Q5, sparse)) < 0.0 < float(chi(Q5, dense))
    for field, al in ((Qi, sparse), (Qi, dense), (Q, arch_idele(Qi, math.exp(4.0)))):
        for fn in (h0, h1, chi):
            with pytest.raises(UnsupportedField):
                fn(field, al)


def test_identity_checks_sum_both_sides_directly(monkeypatch):
    # on a dense idele h0 takes the sparse dual E^-T, but Serre and Poisson
    # must not, or each identity would hold by construction
    from adelic import theta

    duals = []
    real = theta._dual

    def spy(rows, chi):
        duals.append(chi)
        return real(rows, chi)

    monkeypatch.setattr(theta, "_dual", spy)
    al = arch_idele(Qi, math.exp(4.0))  # log-norm 8
    assert h0_with_count(Qi, al, ThetaParams())[1] <= 100 and len(duals) == 1
    rep = verify_serre(Qi, al, ThetaParams(tolerance=1e-10), check_tol=1e-8)
    assert rep.passed
    rep = verify_poisson(Qi, al, ThetaParams(tolerance=1e-12), check_tol=1e-10)
    assert rep.passed and len(duals) == 1


# -- h1 -----------------------------------------------------------------------------


def test_h1_examples():
    a = float(h1(Q, Idele.trivial(Q)))
    b = float(h0(Q, Idele.trivial(Q)))
    assert abs(a - b) < 1e-15                      # chi(Q, 1) = 0
    for n in range(0, 5):
        assert float(h1(F3, ff_divisor_idele(F3, n))) == 0.0   # exact
    lhs = h1(Qi, Idele.trivial(Qi))
    rhs = h0(Qi, Idele.trivial(Qi)) + LogValue({2: Fraction(1)})
    assert lhs.eq(rhs, tol=1e-12)


def test_h1_nonnegative():
    rng = random.Random(8)
    for F in (Q, Qi, Q5):
        for _ in range(10):
            al = random_idele_bounded(F, rng, bound=4.0)
            assert float(h1(F, al)) > -1e-9


# -- chi_relative --------------------------------------------------------------------


def test_chi_relative_examples():
    assert float(chi_relative(Q5, Q5, Idele.trivial(Q5))) == 0.0
    assert chi_relative(Q5, Q, Idele.trivial(Q5)).coeffs == {5: Fraction(-1, 2)}
    ram2, = places_above(Qi, 2)
    al = Idele.make(Qi, {ram2: 1})
    assert chi_relative(Qi, Q, al).coeffs == {2: Fraction(-2)}   # -2 log 2
    with pytest.raises(NotAnExtension):
        chi_relative(Q5, Qi, Idele.trivial(Q5))


# -- degree shift law -----------------------------------------------------------------


def test_ff_degree_shift():
    P, = places_above(F3, (1, 1))  # a degree-1 place
    base = ff_divisor_idele(F3, 3)
    shifted = base * Idele.make(F3, {P: -1})   # divisor coefficient +1
    dh0 = h0(F3, shifted) - h0(F3, base)
    dchi = chi(F3, shifted) - chi(F3, base)
    assert dh0.coeffs == {3: Fraction(1)}
    assert dchi.coeffs == {3: Fraction(1)}


# -- verify_* -----------------------------------------------------------------------


def test_verify_rr_examples():
    rng = random.Random(1)
    for _ in range(25):
        assert verify_rr(Qi, random_idele(Qi, rng)).passed
    rep = verify_rr(F3, ff_divisor_idele(F3, 5))
    assert rep.passed
    assert rep.lhs.coeffs == {3: Fraction(5)}   # both sides 5 log 3
    assert verify_rr(Q, Idele.trivial(Q)).passed


def test_verify_rr_relative_examples():
    reps = verify_rr_relative(Q5, Q, Idele.trivial(Q5))
    assert all(r.passed for r in reps)
    reps = verify_rr_relative(H, F3, Idele.trivial(H))
    assert all(r.passed for r in reps)
    # L = K collapse
    reps = verify_rr_relative(Q5, Q5, Idele.trivial(Q5))
    assert all(r.passed for r in reps)


def test_rr_checks_factor_no_integer_after_warm_up(monkeypatch):
    # log #k_v is derived once per place, so once a field's places and
    # discriminant are known the Riemann-Roch checks factor nothing
    import sys

    from adelic import values
    from adelic.suite import relative_pairs, rr_field_roster

    calls = []
    real = values.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "adelic" and getattr(mod, "factorize", None) is real:
            monkeypatch.setattr(mod, "factorize", counting)
    rng = random.Random(9)
    runs = [(F, lambda F, al: [verify_rr(F, al)]) for F in rr_field_roster()]
    runs += [(L, lambda L, al, K=K: verify_rr_relative(L, K, al))
             for L, K in relative_pairs()]
    for F, check in runs:
        check(F, random_idele(F, rng))  # warm-up
        ideles = [random_idele(F, rng) for _ in range(1000)]
        before = len(calls)
        assert all(rep.passed for al in ideles for rep in check(F, al))
        assert calls[before:] == [], F


def test_identity_checks_build_no_fraction_after_warm_up(monkeypatch):
    # log #k_v = k log p is a cached (p, k) per place, and exponents are
    # integer numerators over one denominator, so once a field's places and
    # discriminant are known rr, rr-rel, serre and poisson construct no
    # Fraction; poisson's note and every report's JSON print their exponents
    # from the ints
    from adelic.suite import number_field_roster, relative_pairs, rr_field_roster

    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    rng = random.Random(24)
    runs = [(F, lambda F, al: [verify_rr(F, al)], random_idele(F, rng))
            for F in rr_field_roster() for _ in range(200)]
    runs += [(L, lambda L, al, K=K: verify_rr_relative(L, K, al), random_idele(L, rng))
             for L, K in relative_pairs() for _ in range(200)]
    runs += [(F, lambda F, al: [verify_serre(F, al)],
              random_idele_bounded(F, rng, bound=5.0))
             for F in number_field_roster() + [F2, F3] for _ in range(20)]
    runs += [(F, lambda F, al: [verify_poisson(F, al)],
              random_idele_bounded(F, rng, bound=2.0))
             for F in number_field_roster() for _ in range(5)]
    for F, check, al in runs:
        check(F, al)  # warm-up: places, discriminants, canonical ideles
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    reports = [rep for F, check, al in runs for rep in check(F, al)]
    for rep in reports:
        rep.to_json()
    monkeypatch.undo()
    passed = [rep.passed for rep in reports]
    assert all(passed) and len(passed) == 6 * 200 + 3 * 400 + 6 * 20 + 4 * 5
    assert calls == []


def test_verify_serre_trivial_and_scaled():
    rep = verify_serre(Q, Idele.trivial(Q))
    assert rep.passed and abs(float(rep.lhs) - float(rep.rhs)) < 1e-12
    rep = verify_serre(Q, arch_idele(Q, 3.0))
    assert rep.passed and abs(float(rep.lhs) - float(rep.rhs)) < 1e-8
    rep = verify_serre(Qi, Idele.trivial(Qi))
    assert rep.passed


def test_serre_kappa_is_the_different():
    k = canonical_idele(Qi)
    ram2, = places_above(Qi, 2)
    assert k.finite == {ram2: -2}       # (1+i)^2 at the idele level
    assert divisor_of_idele(k).coeffs == {ram2: 2}
    assert idele_log_norm(k).coeffs == {2: Fraction(2)}  # +log d_K


def test_verify_serre_ff_exact():
    for q, F in ((2, F2), (3, F3)):
        for n in range(-6, 7):
            rep = verify_serre(F, ff_divisor_idele(F, n))
            assert rep.passed
            # h1(n[inf]) = max(0, -n-1) log q
            assert rep.rhs.coeffs.get(q, Fraction(0)) == max(0, -n - 1)


def test_verify_poisson_jacobi_family():
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        rep = verify_poisson(Q, arch_idele(Q, a), ThetaParams(tolerance=1e-12))
        assert rep.passed
        assert abs(float(rep.lhs) - float(rep.rhs)) < 1e-10


def test_verify_poisson_quadratic_constant():
    rep = verify_poisson(Q5, Idele.trivial(Q5), ThetaParams(tolerance=1e-12))
    assert rep.passed
    assert "log5" in rep.notes.replace(" ", "").replace("*", "")
    rep = verify_poisson(Qi, Idele.trivial(Qi), ThetaParams(tolerance=1e-12))
    assert rep.passed


def test_poisson_direct_sums_match_jacobi():
    # the identity at alpha = 2 is literally theta(4) = (1/2) theta(1/4)
    lhs = math.fsum(math.exp(-math.pi * (2 * n) ** 2) for n in range(-50, 51))
    rhs = 0.5 * math.fsum(math.exp(-math.pi * (n / 2) ** 2) for n in range(-50, 51))
    assert abs(lhs - rhs) < 1e-12
    rep = verify_poisson(Q, arch_idele(Q, 2.0))
    assert abs(math.exp(float(rep.rhs)) - lhs) < 1e-10


# Serre and Poisson at the suite's tolerances on the 2-adic classes that the
# suite's number field roster misses: it has no field where 2 splits
# (d = 1 mod 8) and none where 2 ramifies with different exponent 3
# (d = 2 mod 4).
SERRE_PARAMS, SERRE_CHECK = ThetaParams(tolerance=1e-10), 1e-8
POISSON_PARAMS, POISSON_CHECK = ThetaParams(tolerance=1e-12), 1e-10


def serre_and_poisson_failures(field, ideles):
    reports = []
    for al in ideles:
        reports.append(verify_serre(field, al, SERRE_PARAMS, check_tol=SERRE_CHECK))
        reports.append(verify_poisson(field, al, POISSON_PARAMS, check_tol=POISSON_CHECK))
    return [rep.to_json() for rep in reports if not rep.passed]


@pytest.mark.parametrize("d", [2, -2, 6, 3])
def test_serre_and_poisson_where_2_ramifies(d):
    # d = 2 mod 4: different exponent 3 at 2; d = 3 mod 4: exponent 2
    F = GlobalFieldDesc.quadratic(d)
    rng = random.Random(1)
    failed = serre_and_poisson_failures(
        F, [random_idele_bounded(F, rng, bound=5.0) for _ in range(10)])
    assert not failed, failed[:2]


@pytest.mark.parametrize("d", [-7, 17, -15])
def test_serre_and_poisson_where_2_splits(d):
    # d = 1 mod 8: the sections lattice lifts the root of each place mod 2^j
    F = GlobalFieldDesc.quadratic(d)
    P, P2 = places_above(F, 2)
    failed = serre_and_poisson_failures(
        F, [Idele.make(F, {P: i, P2: j}) for i in range(-3, 4) for j in range(-3, 4)])
    assert not failed, failed[:2]


def test_report_json_schema():
    rep = verify_serre(Qi, Idele.trivial(Qi))
    obj = rep.to_json()
    for key in ("field", "idele", "lhs", "rhs", "pass", "tolerance",
                "lattice_points_used", "runtime_ms"):
        assert key in obj
    assert set(obj["lhs"]) == {"symbolic", "real", "provenance"}


# sha256 of the Riemann-Roch reports below, runtime_ms left out: it pins
# their symbols, the bits of their reals and their provenance tags
IDENTITY_REPORTS_DIGEST = "1922c4bd907fbbf6d80000ae3ec7c61b7231dfecc9d10bd57ec11289642f09bc"


def test_identity_reports_json_digest():
    from adelic.suite import relative_pairs, rr_field_roster

    h = hashlib.sha256()
    rng = random.Random(2208)

    def ideles(F):
        out = [Idele.trivial(F)]
        if F.kind != HYPERELLIPTIC:  # no canonical idele there
            out.append(canonical_idele(F))
        out += [random_idele(F, rng) for _ in range(30)]
        out += [random_idele(F, rng, max_val=9, max_places=6) for _ in range(10)]
        return out

    def digest(reports):
        for rep in reports:
            obj = rep.to_json()
            del obj["runtime_ms"]
            h.update(json.dumps(obj, sort_keys=True).encode())

    for F in rr_field_roster():
        digest(verify_rr(F, al) for al in ideles(F))
    pairs = relative_pairs() + [(F, F) for F in rr_field_roster()]
    for L, K in pairs:
        for al in ideles(L):
            digest(verify_rr_relative(L, K, al))
    assert h.hexdigest() == IDENTITY_REPORTS_DIGEST


# -- theta internals ------------------------------------------------------------------


def ideal_norm(ideal):
    """N(I) of a FractionalIdeal, exact: the index of its basis in Z^2."""
    return Fraction(ideal.a * ideal.c, ideal.den ** 2)


def ideal_basis(ideal):
    """The two basis columns of a FractionalIdeal as exact coordinates in
    the integral basis (1, omega)."""
    d = ideal.den
    return ((Fraction(ideal.a, d), Fraction(0)), (Fraction(ideal.b, d), Fraction(ideal.c, d)))


def test_theta_ideal_covolume():
    # covol(I) = N(I) sqrt|disc| with the self-dual normalization
    for F in (Qi, Q5, Qm3):
        O = ideal_for_idele(Idele.trivial(F))
        E = embedding_matrix(F, O, {})
        assert abs(abs(np.linalg.det(E)) - math.sqrt(abs(F.disc))) < 1e-12
        P = ideal_for_idele(Idele.make(F, {places_above(F, 11)[0]: 1}))
        EP = embedding_matrix(F, P, {})
        assert abs(abs(np.linalg.det(EP)) -
                   float(ideal_norm(P)) * math.sqrt(abs(F.disc))) < 1e-10


def test_theta_ideal_norm_is_product_of_prime_norms():
    # N(c * [N, omega - r]) against prod N(P)^{v_P}, exact, on split, inert
    # and ramified primes of 14 fields
    rng = random.Random(8)
    fields = [GlobalFieldDesc.quadratic(d)
              for d in (-1, -2, -3, -5, -7, -11, -15, 2, 3, 5, 6, 7, 13, 17)]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    for _ in range(2000):
        F = rng.choice(fields)
        fin = {pl: rng.randint(-40, 40)
               for p in rng.sample(primes, rng.randint(0, 4))
               for pl in places_above(F, p)}
        expected = Fraction(1)
        for pl, v in fin.items():
            expected *= Fraction(pl.residue_card) ** v
        assert ideal_norm(ideal_for_idele(Idele.make(F, fin))) == expected, (F, fin)


def test_theta_ideal_of_a_deep_split_power_is_fast():
    # P5^20000 on Q(i): one Newton lift of the root of P5 mod 5^20000
    P5 = places_above(Qi, 5)[0]
    t = time.perf_counter()
    ideal = ideal_for_idele(Idele.make(Qi, {P5: 20000}))
    assert time.perf_counter() - t < 1.0
    assert ideal_norm(ideal) == 5 ** 20000 and ideal.den == ideal.c == 1


def two_sided_tail(lam, B, floor):
    """2 sum_{n > B} exp(-pi lam n^2) in mpmath, up to a term below floor."""
    total, n = mpmath.mpf(0), B + 1
    while True:
        term = mpmath.exp(-mpmath.pi * lam * n * n)
        total += term
        if term < floor:
            return 2 * total
        n += 1


def test_certified_box_bounds_the_tail_against_mpmath():
    # the one truncation rule: the tail beyond B, summed in mpmath, is below
    # tol, and one radius less would miss more than tol/4
    with mpmath.workdps(40):
        for lam in (1e-6, 1e-3, 0.05, 0.7, 1.0, 4.0, 50.0, 1e4):
            for tol in (1e-3, 1e-10, 1e-13, 1e-16):
                B = certified_box(lam, tol, 1e9)
                assert two_sided_tail(lam, B, tol * 1e-20) < tol, (lam, tol, B)
                assert B == 0 or two_sided_tail(lam, B - 1, tol * 1e-20) > tol / 4, \
                    (lam, tol, B)


def test_theta_sections_lattice_orientation():
    # positive valuation shrinks the sections lattice, lowering h0
    P, = places_above(Qi, 2)
    deep = float(h0(Qi, Idele.make(Qi, {P: 2})))
    wide = float(h0(Qi, Idele.make(Qi, {P: -2})))
    base = float(h0(Qi, Idele.trivial(Qi)))
    assert deep < base < wide


def arch_weight(field, alpha, element):
    """The archimedean factor exp(-e_v pi |x/alpha_v|_v^{2/e_v}) of the
    eigenfunction of alpha at a global element: a rational on Q, (a, b)
    coordinates in the integral basis of a quadratic field."""
    arch = alpha.arch
    if field.kind == RATIONAL:
        pl, = places_above(field, INFINITY)
        x = float(Fraction(element))
        return math.exp(-math.pi * (x / arch.get(pl, 1.0)) ** 2)
    a0, b0 = float(Fraction(element[0])), float(Fraction(element[1]))
    total = 0.0
    for pl, w in zip(places_above(field, INFINITY), omega_embeddings(field)):
        av = arch.get(pl, 1.0)
        z = complex(a0 + b0 * w.real, b0 * w.imag)
        if pl.e_v == 1:
            total += math.pi * (z.real / av) ** 2
        else:
            total += 2 * math.pi * (abs(z) / av) ** 2
    return math.exp(-total)


def test_h0_matches_direct_weighted_sum():
    # independent oracle: sum the eigenfunction weights element by element
    P5, = places_above(Q, 5)
    al = Idele.make(Q, {P5: -1}, {places_above(Q, INFINITY)[0]: 1.7})
    assert arch_weight(Q, al, 0) == 1.0
    r = math.prod(Fraction(pl.below) ** v for pl, v in al.finite_components)  # 1/5
    direct = math.fsum(arch_weight(Q, al, r * k) for k in range(-400, 401))
    assert abs(math.exp(float(h0(Q, al))) - direct) < 1e-10

    al = Idele.make(Qi, {places_above(Qi, 2)[0]: 1},
                    {places_above(Qi, INFINITY)[0]: 1.4})
    assert arch_weight(Qi, al, (0, 0)) == 1.0
    I = ideal_for_idele(al)
    cols = ideal_basis(I)
    direct = math.fsum(
        arch_weight(Qi, al, (cols[0][0] * i + cols[1][0] * j,
                             cols[0][1] * i + cols[1][1] * j))
        for i in range(-30, 31) for j in range(-30, 31))
    assert abs(math.exp(float(h0(Qi, al))) - direct) < 1e-10


def test_dense_direct_sums_match_weighted_sum():
    # dense lattices summed directly, as the identity checks do: rows of
    # Jacobi sums against the element-by-element oracle over a wide box
    P3, = places_above(Qm3, 3)
    al = Idele.make(Qm3, {P3: -2}, {places_above(Qm3, INFINITY)[0]: 7.0})
    value, _ = _h0_direct(Qm3, al, ThetaParams())
    cols = ideal_basis(ideal_for_idele(al))  # (1/3, 0), (0, 1/3)
    direct = math.fsum(
        arch_weight(Qm3, al, (cols[0][0] * i + cols[1][0] * j,
                              cols[0][1] * i + cols[1][1] * j))
        for i in range(-92, 93) for j in range(-92, 93))
    assert abs(math.log(direct) - float(value)) < 1e-10

    # rank 1
    P5, = places_above(Q, 5)
    al = Idele.make(Q, {P5: -1}, {places_above(Q, INFINITY)[0]: 150.0})
    value, _ = _h0_direct(Q, al, ThetaParams())
    direct = math.fsum(arch_weight(Q, al, Fraction(k, 5)) for k in range(-3000, 3001))
    assert abs(math.log(direct) - float(value)) < 1e-10


def test_reduced_gram_entries_against_numpy():
    # the rows are certified through the Gram entries (C, B, A') of the
    # Lagrange-reduced basis: |B| <= C/2 and C <= 4A'/3 up to rounding, and
    # C A' = det(E)^2 = det(E^T E) against numpy, skewed ideles included.
    # A float matrix with kappa = |u| |v| / |det E| knows its determinant
    # only to about eps kappa, so the comparison widens by 1e-13 kappa.
    rng = random.Random(17)
    fields = [GlobalFieldDesc.quadratic(d)
              for d in (-1, -2, -3, -7, -11, -15, 2, 3, 5, 13, 17, 21)]
    for _ in range(2000):
        F = rng.choice(fields)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        pls = places_above(F, p)
        v = rng.randint(-6, 6)
        fin = {pls[0]: v, pls[-1]: -v} if len(pls) == 2 else {pls[0]: v}
        arch = {pl: math.exp(rng.uniform(-3.0, 3.0)) for pl in archimedean_places(F)}
        al = Idele.make(F, fin, arch)
        E = embedding_matrix(F, ideal_for_idele(al), al.arch)
        C, B, A1 = _reduce(E.tolist())
        assert 2 * abs(B) <= C and 3 * C <= 4 * A1 * (1 + 1e-15), (al.describe(), C, B, A1)
        det2 = float(np.linalg.det(E)) ** 2
        kappa = float(np.prod(np.linalg.norm(E, axis=0))) / math.sqrt(det2)
        assert abs(C * A1 - det2) <= (1e-9 + 1e-13 * kappa) * det2, (al.describe(), kappa)
