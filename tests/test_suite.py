import dataclasses

import pytest

from adelic import suite
from adelic.suite import (
    check_disc_product,
    check_inversion,
    check_lemmas,
    check_rr,
    check_serre,
)


def test_checks_that_ran_nothing_fail():
    for res in (check_lemmas(ps=(3,), m_range=(5, -5)),
                check_inversion(seed=1, per_field=0, ps=(3,)),
                check_disc_product(dmax=0)):
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


@pytest.mark.parametrize("check, name", [(check_rr, "verify_rr"),
                                         (check_serre, "verify_serre")])
def test_failing_report_is_nested_under_failure(monkeypatch, check, name):
    # the suite line keeps the check's own fields; the failing report, whose
    # field, idele, pass and runtime_ms would shadow them, sits under one key
    real = getattr(suite, name)
    made = []

    def fails_third(*args, **kwargs):
        rep = real(*args, **kwargs)
        if len(made) == 2:
            rep = dataclasses.replace(rep, passed=False, runtime_ms=12345.0)
        made.append(rep)
        return rep

    monkeypatch.setattr(suite, name, fails_third)
    res = check(per_field=2)
    obj = res.to_json()
    assert set(obj) == {"check", "pass", "detail", "checks", "runtime_ms", "failure"}
    assert obj["check"] == res.name and obj["pass"] is False and obj["checks"] == 3
    assert obj["runtime_ms"] == res.runtime_ms != 12345.0
    assert obj["failure"] == made[2].to_json()
    assert obj["failure"]["runtime_ms"] == 12345.0 and obj["failure"]["pass"] is False
