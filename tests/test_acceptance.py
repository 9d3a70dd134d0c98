"""Acceptance battery: one test per criterion, with its stated tolerance
and runtime budget pinned.  Each prints one pass/fail line.

A check takes its tolerances from the ``verify_*`` defaults or from literals
in ``adelic.suite``, so each criterion pins its tolerance by recording the
values that the check's calls run with: a loosened default fails here."""

import inspect

from adelic import suite
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


def _record(monkeypatch, name):
    """Wrap ``suite.<name>``; the returned set gathers, over its calls, the
    (theta tolerance or None, report tolerance) pairs, defaults applied."""
    real, seen = getattr(suite, name), set()
    sig = inspect.signature(real)

    def recording(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        params = call.arguments.get("params")
        out = real(*args, **kwargs)
        for rep in out if isinstance(out, list) else [out]:
            seen.add((params and params.tolerance, rep.tolerance))
        return out

    monkeypatch.setattr(suite, name, recording)
    return seen


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


def test_criterion_2_inversion_formula(monkeypatch):
    # 200 random step functions per field with M, N <= 2 and at most 81
    # cosets, on the 22 local fields over 2, 3 and 5; exact; < 30 s
    caps = set()
    real = suite.random_step_function

    def recording(K, rng, coset_cap):
        caps.add(coset_cap)
        return real(K, rng, coset_cap=coset_cap)

    monkeypatch.setattr(suite, "random_step_function", recording)
    res = check_inversion(seed=1, per_field=200, ps=(2, 3, 5))
    _require(res, budget_s=30)
    assert caps == {81} and res.checks == 22 * 200


def test_criterion_3_discriminant_product_formula():
    # all quadratic fields with |d| <= 50: global relative discriminant
    # equals the product of local contributions, and Dedekind's sum of
    # f_v d_v over v | p equals v_p(d_K) at 2 and each ramified p, exactly
    _require(check_disc_product(dmax=50))


def test_criterion_4_absolute_riemann_roch(monkeypatch):
    # 1000 random ideles per field on Q, Q(i), Q(sqrt5), Q(sqrt-3),
    # F2(t), F3(t); symbolic equality, real residual < 1e-12; < 5 s
    tols = _record(monkeypatch, "verify_rr")
    _require(check_rr(seed=2, per_field=1000), budget_s=5)
    assert tols == {(None, 1e-12)}


def test_criterion_5_relative_rr_and_compatibility(monkeypatch):
    # (Q(sqrt5), Q), (Q(i), Q), (y^2 = t^3 - t over F_3, F_3(t)); both
    # identities symbolic, real residual < 1e-12
    tols = _record(monkeypatch, "verify_rr_relative")
    _require(check_rr_relative(seed=3, per_pair=1000))
    assert tols == {(None, 1e-12)}


def test_criterion_6_serre_duality(monkeypatch):
    # |lhs - rhs| < 1e-8 at theta tolerance 1e-10, >= 50 ideles per number
    # field with |log alpha| <= 5 on Q, Q(i), Q(sqrt5), Q(sqrt-3), then
    # Q(sqrt-7), Q(sqrt17) (2 splits), Q(sqrt2), Q(sqrt-2) (2 ramified),
    # and on these four every valuation pair in [-3, 3] at the places above
    # 2 (49 + 49 + 7 + 7); exact on F2(t), F3(t) with |deg| <= 6 (2 * 13);
    # < 60 s
    tols = _record(monkeypatch, "verify_serre")
    res = check_serre(seed=4, per_field=50)
    _require(res, budget_s=60)
    assert tols == {(1e-10, 1e-8)} and res.checks == 8 * 50 + 112 + 26


def test_criterion_7_poisson_summation(monkeypatch):
    # two-sided truncated sums agree < 1e-10 at theta tolerance 1e-12: Q
    # across alpha_inf in {1/4, 1/2, 1, 2, 4}; Q(i), Q(sqrt5), Q(sqrt-7),
    # Q(sqrt17), Q(sqrt2), Q(sqrt-2) at the trivial idele
    tols = _record(monkeypatch, "verify_poisson")
    res = check_poisson()
    _require(res)
    assert tols == {(1e-12, 1e-10)} and res.checks == 11


def test_criterion_8_function_field_sections():
    # closed-form dimension vs brute-force enumeration, q in {2,3}, two
    # pools of 3 places each, coefficients in [-2, 2] with |deg| <= 6, exact
    res = check_ff_sections()
    _require(res)
    assert res.checks == 488


def test_criterion_9_theta_oracle(monkeypatch):
    # h0(Q, trivial) at theta tolerance 1e-13 = log theta with the
    # independently summed theta = 1.0864348112... matching to 1e-10
    thetas = []
    real = suite.h0

    def recording(F, alpha, params):
        thetas.append(params.tolerance)
        return real(F, alpha, params)

    monkeypatch.setattr(suite, "h0", recording)
    res = check_theta_oracle()
    _require(res)
    assert thetas == [1e-13] and res.detail.endswith("matches to 1e-10")


def test_negative_control():
    _require(check_negative_control())
