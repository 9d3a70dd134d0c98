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
