import pytest

from adelic.suite import check_disc_product, check_inversion, check_lemmas


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
