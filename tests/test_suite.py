import dataclasses

import pytest

from adelic import suite
from adelic.suite import (
    check_disc_product,
    check_inversion,
    check_lemmas,
    check_poisson,
    check_rr,
    check_rr_relative,
    check_serre,
)


def test_checks_that_ran_nothing_fail():
    for res in (check_lemmas(ps=(3,), m_range=(5, -5)),
                check_inversion(seed=1, per_field=0, ps=(3,)),
                check_disc_product(dmax=0),
                check_rr(per_field=0),
                check_rr_relative(per_pair=0)):
        assert res.checks == 0
        assert not res.passed and res.detail == "ran zero cases", res.name


def test_disc_product_skips_only_non_squarefree():
    res = check_disc_product(dmax=10)
    # d in -10..10 without 0, 1 and the non-squarefree -9, -8, -4, 4, 8, 9
    assert res.passed and res.checks == 13


@pytest.mark.parametrize("m", [-60, 600])
def test_lemmas_at_large_exponents(m):
    # pi^600 and the character integral over pi^-60 O_v, on all 22 local fields
    # over 2, 3 and 5: once a recursion overflow and a product of p^60 terms
    res = check_lemmas(ps=(2, 3, 5), m_range=(m, m))
    assert res.passed and res.checks == 44


# serre with per_field=0 runs the 112 valuation pairs above 2 on the
# two-adic fields first, so its report 112 is the first on F2(t)
@pytest.mark.parametrize("check, name, kwargs, fail_at, detail", [
    pytest.param(check_inversion, "verify_inversion", {"per_field": 2}, 2,
                 "inversion failed on Q_2[x]/(x^2 + (1)x + (1))",
                 id="check_inversion-verify_inversion"),
    pytest.param(check_rr, "verify_rr", {"per_field": 2}, 2, "rr failed on Q(i)",
                 id="check_rr-verify_rr"),
    pytest.param(check_rr_relative, "verify_rr_relative", {"per_pair": 2}, 2,
                 "rr-rel failed on Q(sqrt 5)/Q", id="check_rr_relative-rr-rel"),
    pytest.param(check_rr_relative, "verify_rr_relative", {"per_pair": 2}, 5,
                 "rr-rel-compat failed on Q(i)/Q", id="check_rr_relative-rr-rel-compat"),
    pytest.param(check_serre, "verify_serre", {"per_field": 2}, 2, "serre failed on Q(i)",
                 id="check_serre-verify_serre"),
    pytest.param(check_serre, "verify_serre", {"per_field": 0}, 112,
                 "serre failed on F2(t)", id="check_serre-function-field"),
    pytest.param(check_poisson, "verify_poisson", {}, 2, "poisson failed on Q",
                 id="check_poisson-rationals"),
    pytest.param(check_poisson, "verify_poisson", {}, 6, "poisson failed on Q(sqrt 5)",
                 id="check_poisson-quadratic"),
])
def test_failing_report_is_nested_under_failure(monkeypatch, check, name, kwargs,
                                                 fail_at, detail):
    # the suite line keeps the check's own fields; the failing report, whose
    # field, idele, pass and runtime_ms would shadow them, sits under one key
    real = getattr(suite, name)
    made = []

    def fail(rep):
        if hasattr(rep, "runtime_ms"):  # an InversionReport has none
            return dataclasses.replace(rep, passed=False, runtime_ms=12345.0)
        return dataclasses.replace(rep, passed=False)

    def fails_one(*args, **kwargs):
        out = real(*args, **kwargs)
        reps = [fail(rep) if len(made) + i == fail_at else rep
                for i, rep in enumerate(out if isinstance(out, list) else [out])]
        made.extend(reps)
        return reps if isinstance(out, list) else reps[0]

    monkeypatch.setattr(suite, name, fails_one)
    res = check(**kwargs)
    obj = res.to_json()
    assert set(obj) == {"check", "pass", "detail", "checks", "runtime_ms", "failure"}
    assert obj["check"] == res.name and obj["pass"] is False
    assert obj["checks"] == fail_at + 1 and obj["detail"] == detail
    assert obj["runtime_ms"] == res.runtime_ms != 12345.0
    assert obj["failure"] == made[fail_at].to_json() and obj["failure"]["pass"] is False
    want_ms = None if check is check_inversion else 12345.0  # see fail()
    assert obj["failure"].get("runtime_ms") == want_ms
