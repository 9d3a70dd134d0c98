"""Acceptance battery: one test per criterion, with its stated tolerance
and runtime budget pinned.  Each prints one pass/fail line."""

import math

from adelic.suite import (
    check_disc_product,
    check_ff_sections,
    check_inversion,
    check_lemmas,
    check_negative_control,
    check_poisson,
    check_rr,
    check_rr_relative,
    check_serre,
    check_theta_oracle,
)


def _require(res, budget_s=None):
    status = "PASS" if res.passed else "FAIL"
    line = f"ACCEPTANCE {res.name}: {status} [{res.runtime_ms / 1000:.2f}s] {res.detail}"
    print(line)
    assert res.passed, line
    if budget_s is not None:
        assert res.runtime_ms / 1000 < budget_s, \
            f"{res.name} took {res.runtime_ms / 1000:.1f}s (budget {budget_s}s)"


def test_criterion_1_appendix_lemmas_exact():
    # p in {2,3,5}, both base kinds, validated quadratics, m in [-3,3];
    # coset integrals and indicator transforms exact; < 10 s
    _require(check_lemmas(ps=(2, 3, 5), m_range=(-3, 3)), budget_s=10)


def test_criterion_2_inversion_formula():
    # 200 random step functions per field with M, N <= 2; exact; < 30 s
    _require(check_inversion(seed=1, per_field=200, ps=(2, 3, 5)), budget_s=30)


def test_criterion_3_discriminant_product_formula():
    # all quadratic fields with |d| <= 50: global relative discriminant
    # equals the product of local contributions, and Dedekind's sum of
    # f_v d_v over v | p equals v_p(d_K) at 2 and each ramified p, exactly
    _require(check_disc_product(dmax=50))


def test_criterion_4_absolute_riemann_roch():
    # 1000 random ideles per field on Q, Q(i), Q(sqrt5), Q(sqrt-3),
    # F2(t), F3(t); symbolic equality, real residual < 1e-12; < 5 s
    _require(check_rr(seed=2, per_field=1000, tol=1e-12), budget_s=5)


def test_criterion_5_relative_rr_and_compatibility():
    # (Q(sqrt5), Q), (Q(i), Q), (y^2 = t^3 - t over F_3, F_3(t))
    _require(check_rr_relative(seed=3, per_pair=1000, tol=1e-12))


def test_criterion_6_serre_duality():
    # |lhs - rhs| < 1e-8 at theta tolerance 1e-10, >= 50 ideles per number
    # field with |log alpha| <= 5 on Q, Q(i), Q(sqrt5), Q(sqrt-3), then
    # Q(sqrt-7), Q(sqrt17) (2 splits), Q(sqrt2), Q(sqrt-2) (2 ramified),
    # and on these four every valuation pair in [-3, 3] at the places above
    # 2; exact on F2(t), F3(t) with |deg| <= 6; < 60 s
    _require(check_serre(seed=4, per_field=50, theta_tol=1e-10,
                         check_tol=1e-8, ff_deg=6), budget_s=60)


def test_criterion_7_poisson_summation():
    # two-sided truncated sums agree < 1e-10: Q across alpha_inf in
    # {1/4, 1/2, 1, 2, 4}; Q(i), Q(sqrt5), Q(sqrt-7), Q(sqrt17), Q(sqrt2),
    # Q(sqrt-2) at the trivial idele
    _require(check_poisson(theta_tol=1e-12, check_tol=1e-10))


def test_criterion_8_function_field_sections():
    # closed-form dimension vs brute-force enumeration, q in {2,3},
    # divisors on <= 3 places with |deg| <= 6, exact
    _require(check_ff_sections(max_deg=6, coeff_span=2))


def test_criterion_9_theta_oracle():
    # h0(Q, trivial) = log theta with the independently summed
    # theta = 1.0864348112... matching to 1e-10
    _require(check_theta_oracle(tol=1e-10))


def test_negative_control():
    _require(check_negative_control())
