import pytest

from adelic import ffpoly
from adelic.ffpoly import gf


def is_square(F, a):
    """Euler's criterion in F; every element is a square in characteristic 2."""
    return a == 0 or F.p == 2 or F.pow(a, (F.q - 1) // 2) == 1


def test_gf_prime_arithmetic():
    F = gf(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.mul(F.inv(3), 3) == 1
    assert is_square(F, 4) and not is_square(F, 2)


def test_gf_prime_power_field_axioms():
    for q in (4, 9, 25):
        F = gf(q)
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1
        # Frobenius fixed field has p elements: a^q = a for all a
        for a in range(q):
            assert F.pow(a, q) == a


def test_gf_rejects_non_prime_power():
    with pytest.raises(ValueError):
        gf(6)


def test_poly_divmod_roundtrip():
    F = gf(3)
    f = (1, 2, 0, 1)   # 1 + 2t + t^3
    g = (2, 1)         # 2 + t
    q, r = ffpoly.pdivmod(F, f, g)
    assert ffpoly.padd(F, ffpoly.pmul(F, q, g), r) == f
    assert ffpoly.pdeg(r) < ffpoly.pdeg(g)


def test_irreducible_counts():
    # #monic irreducibles of degree 2 over F_q is q(q-1)/2
    for q in (2, 3, 5):
        irr = [f for f in ffpoly.monic_irreducibles(q, 2) if ffpoly.pdeg(f) == 2]
        assert len(irr) == q * (q - 1) // 2


def test_is_irreducible_matches_enumeration():
    # oracle: f of degree d >= 1 is irreducible iff no monic polynomial of
    # degree 1..d/2 divides it
    for q, max_deg in ((2, 5), (3, 5), (4, 5), (5, 5), (9, 3)):
        F = gf(q)
        irr = set(ffpoly.monic_irreducibles(q, max_deg))
        for d in range(max_deg + 1):
            for f in ffpoly.monic_polys(F, d):
                want = d >= 1 and all(ffpoly.pmod(F, f, g)
                                      for k in range(1, d // 2 + 1)
                                      for g in ffpoly.monic_polys(F, k))
                assert ffpoly.is_irreducible(F, f) == want, (q, f)
                assert (f in irr) == want, (q, f)
    # degree 49 over F_2, past any enumeration: 10^15 is reducible,
    # x^49 + x^9 + 1 is irreducible
    F = gf(2)
    assert not ffpoly.is_irreducible(F, ffpoly.int_to_poly(F, 10 ** 15))
    assert ffpoly.is_irreducible(F, ffpoly.int_to_poly(F, 2 ** 49 + 2 ** 9 + 1))


def test_factor_roundtrip():
    F = gf(3)
    f = ffpoly.pmul(F, ffpoly.pmul(F, (0, 1), (0, 1)), (1, 1))  # t^2 (t+1)
    unit, fact = ffpoly.pfactor(F, f)
    assert unit == 1
    assert fact == {(0, 1): 2, (1, 1): 1}


def test_euler_symbol():
    F = gf(3)
    # f = t^3 - t vanishes at t, t-1, t+1
    f = (0, 2, 0, 1)
    assert ffpoly.euler_symbol(F, f, (0, 1)) == 0
    # t^2 + 1 is irreducible over F_3; check a known square there
    pi = (1, 0, 1)
    sq = ffpoly.pmod(F, ffpoly.pmul(F, (1, 1), (1, 1)), pi)
    assert ffpoly.euler_symbol(F, sq, pi) == 1


def test_poly_int_encoding_roundtrip():
    F = gf(3)
    for f in ffpoly.monic_irreducibles(3, 2):
        assert ffpoly.int_to_poly(F, ffpoly.poly_to_int(F, f)) == f
