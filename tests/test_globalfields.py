import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

import adelic.globalfields
from adelic.ffpoly import monic_irreducibles
from adelic.globalfields import (
    INFINITY,
    Divisor,
    GlobalFieldDesc,
    GlobalFieldError,
    Idele,
    NotAnExtension,
    Place,
    UnsupportedField,
    absolute_discriminant,
    archimedean_places,
    divisor_of_idele,
    idele_log_norm,
    kronecker_of_disc,
    local_discriminant_desc,
    places_above,
    principal_idele,
    ramified_finite_places,
    random_idele,
    random_idele_bounded,
    relative_discriminant_norm,
)
from adelic.theta import ideal_for_idele
from adelic.values import LogValue, PosRealExact, factorize

Q = GlobalFieldDesc.rationals()
Qi = GlobalFieldDesc.quadratic(-1)
Q5 = GlobalFieldDesc.quadratic(5)
F3 = GlobalFieldDesc.rational_function_field(3)
H = GlobalFieldDesc.hyperelliptic(3, (0, 2, 0, 1))  # y^2 = t^3 - t
HE = GlobalFieldDesc.hyperelliptic(3, (1, 2, 0, 0, 1))  # y^2 = t^4 + 2t + 1


# -- field descriptors ------------------------------------------------------------


def test_field_validation():
    with pytest.raises(UnsupportedField):
        GlobalFieldDesc.quadratic(12)      # not squarefree
    with pytest.raises(UnsupportedField):
        GlobalFieldDesc.quadratic(1)
    with pytest.raises(UnsupportedField):
        GlobalFieldDesc.hyperelliptic(2, (0, 1, 1))   # even q
    with pytest.raises(UnsupportedField):
        GlobalFieldDesc.hyperelliptic(3, (0, 0, 1))   # t^2 not squarefree


def test_quadratic_discriminants():
    assert GlobalFieldDesc.quadratic(5).disc == 5     # 5 = 1 mod 4
    assert GlobalFieldDesc.quadratic(-1).disc == -4
    assert GlobalFieldDesc.quadratic(-3).disc == -3
    assert GlobalFieldDesc.quadratic(10).disc == 40


def test_signatures_and_genus():
    assert Q5.signature == (2, 0)
    assert Qi.signature == (0, 1)
    assert F3.genus == 0
    assert H.genus == 1
    assert GlobalFieldDesc.hyperelliptic(3, (1, 2, 0, 0, 0, 1)).genus == 2


# -- places -----------------------------------------------------------------------


def test_places_above_examples():
    split5 = places_above(Qi, 5)
    assert len(split5) == 2
    assert all(p.splitting == "split" and p.residue_card == 5 for p in split5)
    ram2, = places_above(Qi, 2)
    assert ram2.splitting == "ramified" and ram2.residue_card == 2
    ramt, = places_above(H, (0, 1))   # t divides t^3 - t
    assert ramt.splitting == "ramified"


# (field, below, [(label, is_archimedean, e_v, e, f) per place above]);
# e_v is None where it raises
@pytest.mark.parametrize("field, below, expected", [
    (Q, INFINITY, [("inf#0", True, 1, 1, 1)]),
    (Q, 2, [("p2#0", False, None, 1, 1)]),
    (Qi, INFINITY, [("inf#0", True, 2, 1, 1)]),
    (Qi, 2, [("p2#0", False, None, 2, 1)]),
    (Qi, 3, [("p3#0", False, None, 1, 2)]),
    (Qi, 5, [("p5#0", False, None, 1, 1), ("p5#1", False, None, 1, 1)]),
    (Q5, INFINITY, [("inf#0", True, 1, 1, 1), ("inf#1", True, 1, 1, 1)]),
    (Q5, 2, [("p2#0", False, None, 1, 2)]),
    (Q5, 5, [("p5#0", False, None, 2, 1)]),
    (Q5, 11, [("p11#0", False, None, 1, 1), ("p11#1", False, None, 1, 1)]),
    (F3, INFINITY, [("inf#0", False, None, 1, 1)]),
    (F3, (1, 0, 1), [("p10#0", False, None, 1, 1)]),
    (H, INFINITY, [("inf#0", False, None, 2, 1)]),
    (H, (0, 1), [("p3#0", False, None, 2, 1)]),
    (H, (1, 0, 1), [("p10#0", False, None, 1, 1), ("p10#1", False, None, 1, 1)]),
    (HE, INFINITY, [("inf#0", False, None, 1, 1), ("inf#1", False, None, 1, 1)]),
    (HE, (0, 1), [("p3#0", False, None, 1, 1), ("p3#1", False, None, 1, 1)]),
    (HE, (1, 1), [("p4#0", False, None, 2, 1)]),
    (HE, (1, 0, 1), [("p10#0", False, None, 1, 2)]),
], ids=lambda v: v.describe() if isinstance(v, GlobalFieldDesc) else None)
def test_place_invariants_follow_from_defining_data(field, below, expected):
    # a place stores field, below, splitting, index and root; whether it is
    # archimedean, e_v, e, f and its label are read from them, and every
    # infinite place lies over INFINITY, Q's real place included
    got = []
    for pl in places_above(field, below):
        assert pl.below == below
        if pl.is_archimedean():
            e_v = pl.e_v
        else:
            with pytest.raises(GlobalFieldError):
                pl.e_v
            e_v = None
        got.append((pl.label(), pl.is_archimedean(), e_v, pl.e, pl.f))
        assert pl.label() is pl.label()  # formatted once: it is a sort key
    assert got == expected


def test_place_stores_only_its_defining_data():
    assert [f.name for f in dataclasses.fields(Place)] == \
        ["field", "below", "splitting", "index", "root"]
    for name in ("FINITE", "REAL", "COMPLEX", "FF_FINITE", "FF_INFINITE"):
        assert not hasattr(adelic.globalfields, name)


def test_place_residue_data_matches_factorization():
    # oracle: e f g = [L:K], so #k_v = N^(n / (e g)) with N = p, resp.
    # q^deg(pi) (q at infinity); deg and log #k_v come from factorizing it
    primes = [p for p in range(2, 200) if all(p % k for k in range(2, p))]
    number_fields = [Q, Qi, Q5, GlobalFieldDesc.quadratic(-3)] + [
        GlobalFieldDesc.quadratic(d)
        for d in (-2, -5, -7, -11, -15, 2, 3, 6, 7, 13, 17)]
    function_fields = [GlobalFieldDesc.rational_function_field(2), F3, H]
    cases = [(F, below) for F in number_fields for below in primes + [INFINITY]]
    cases += [(F, below) for F in function_fields
              for below in list(monic_irreducibles(F.q, 3)) + [INFINITY]]
    for F, below in cases:
        pls = places_above(F, below)
        for pl in pls:
            if pl.is_archimedean():
                assert (pl.residue_card, pl.deg, pl.log_card) == (None, 0, None)
                continue
            n = F.degree // (pl.e * len(pls))
            if F.is_function_field:
                card = F.q ** (n * (1 if below == INFINITY else len(below) - 1))
            else:
                card = below ** n
            fact = factorize(card)
            assert pl.residue_card == card, pl
            assert pl.log_card == LogValue(fact), pl
            assert pl.log_card.to_json()["provenance"] == "exact-symbolic"
            if F.is_function_field:
                (p, k), = factorize(F.q).items()
                assert pl.deg == fact[p] // k, pl
            else:
                assert pl.deg == 0, pl


def test_split_roots_at_large_primes():
    # the roots of omega's minimal polynomial mod p come from a modular
    # square root, not from a scan over the residues
    t0 = time.perf_counter()
    roots_i = [pl.root for pl in places_above(Qi, 469513381)]
    roots_5 = [pl.root for pl in places_above(Q5, 1000000009)]
    elapsed = time.perf_counter() - t0
    assert roots_i == [141154016, 328359365]
    assert all((r * r + 1) % 469513381 == 0 for r in roots_i)  # omega = i
    assert roots_5 == [308495997, 691504013]
    assert all((r * r - r - 1) % 1000000009 == 0 for r in roots_5)  # omega = (1+sqrt5)/2
    assert elapsed < 1.0


def test_splitting_matches_kronecker_oracle():
    # independent oracle: p odd splits in Q(i) iff p = 1 mod 4
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        pls = places_above(Qi, p)
        if p % 4 == 1:
            assert len(pls) == 2
            r = pls[0].root
            assert (r * r + 1) % p == 0  # root of x^2 + 1
        else:
            assert len(pls) == 1 and pls[0].f == 2


def test_local_degrees_sum_to_global_degree():
    for F in (Qi, Q5, GlobalFieldDesc.quadratic(-3), GlobalFieldDesc.quadratic(21)):
        for p in (2, 3, 5, 7, 11):
            assert sum(pl.e * pl.f for pl in places_above(F, p)) == 2
    for pi in [(0, 1), (1, 1), (2, 1), (1, 0, 1)]:
        assert sum(pl.e * pl.f for pl in places_above(H, pi)) == 2


def test_hyperelliptic_infinite_place_parity():
    odd = places_above(H, INFINITY)
    assert len(odd) == 1 and odd[0].splitting == "ramified"
    assert len(places_above(HE, INFINITY)) == 2


def test_ramified_places_divide_discriminant():
    for d in (-1, -3, 5, 10, -35):
        K = GlobalFieldDesc.quadratic(d)
        for pl in ramified_finite_places(K):
            assert K.disc % pl.below == 0


# -- discriminants -----------------------------------------------------------------


def test_absolute_discriminant_examples():
    assert absolute_discriminant(Q).is_one()
    assert absolute_discriminant(Qi) == PosRealExact.from_rational(4)
    assert absolute_discriminant(F3) == PosRealExact.prime_power(3, -2)
    assert absolute_discriminant(H).is_one()  # genus 1: q^0


def test_relative_discriminant_examples():
    assert relative_discriminant_norm(Q5, Q5).is_one()
    assert relative_discriminant_norm(Q5, Q) == PosRealExact.from_rational(5)
    # genus 1 over genus 0: q^(2g-2) / q^(-4) = q^4
    assert relative_discriminant_norm(H, F3) == PosRealExact.prime_power(3, 4)
    with pytest.raises(NotAnExtension):
        relative_discriminant_norm(Q5, Qi)
    with pytest.raises(NotAnExtension):
        relative_discriminant_norm(H, GlobalFieldDesc.rational_function_field(5))


def test_relative_discriminant_matches_ramification_product():
    # Riemann-Hurwitz oracle: the product of local discriminant norms over
    # ALL ramified places (the degree place included) equals d_L/d_K^2
    prod = PosRealExact.one()
    for pl in ramified_finite_places(H):
        below_deg = 1 if pl.below == INFINITY else len(pl.below) - 1
        prod = prod * PosRealExact.prime_power(3, below_deg)
    assert prod == relative_discriminant_norm(H, F3)


def test_local_discriminant_descriptors():
    # (p odd, tame), (2, unit), (2, wild)
    assert local_discriminant_desc(Q5, 5).disc_exponent == 1
    assert local_discriminant_desc(GlobalFieldDesc.quadratic(-1), 2).disc_exponent == 2
    assert local_discriminant_desc(GlobalFieldDesc.quadratic(10), 2).disc_exponent == 3


# -- ideles and divisors --------------------------------------------------------------


def test_divisor_of_idele_examples():
    assert divisor_of_idele(Idele.trivial(Qi)).coefficients == ()
    P3, = places_above(F3, (0, 1))  # norm-3 place
    al = Idele.make(F3, {P3: -2})
    D = divisor_of_idele(al)
    assert D.coeffs == {P3: 2}
    assert D.finite_degree() == 2


def test_divisor_map_is_homomorphism():
    rng = random.Random(31)
    for F in (Q, Qi, Q5, F3, H):
        for _ in range(20):
            a, b = random_idele(F, rng), random_idele(F, rng)
            lhs = divisor_of_idele(a * b)
            rhs = divisor_of_idele(a) + divisor_of_idele(b)
            assert lhs.coeffs.keys() == rhs.coeffs.keys()
            for pl in lhs.coeffs:
                assert math.isclose(float(lhs.coeffs[pl]), float(rhs.coeffs[pl]),
                                    rel_tol=0, abs_tol=1e-12)


def idele_from_divisor(div):
    """A preimage of a divisor under divisor_of_idele (witnesses surjectivity)."""
    fin, arch = {}, {}
    for pl, c in div.coefficients:
        if pl.is_archimedean():
            arch[pl] = math.exp(float(c) / pl.e_v)
        else:
            fin[pl] = -int(c)
    return Idele.make(div.field, fin, arch)


def test_divisor_preimage_builder():
    rng = random.Random(12)
    for F in (Q, Qi, Q5, F3, H):
        for _ in range(10):
            D = divisor_of_idele(random_idele(F, rng))
            back = divisor_of_idele(idele_from_divisor(D))
            assert back.coeffs.keys() == D.coeffs.keys()
            for pl in D.coeffs:
                assert math.isclose(float(back.coeffs[pl]), float(D.coeffs[pl]),
                                    rel_tol=0, abs_tol=1e-12)


def test_idele_log_norm_examples():
    assert float(idele_log_norm(Idele.trivial(Q))) == 0.0
    P5, = places_above(Q, 5)
    al = Idele.make(Q, {P5: -1})    # component 1/5 at 5
    assert idele_log_norm(al).coeffs == {5: Fraction(1)}
    pl_inf, = places_above(F3, INFINITY)
    al = Idele.make(F3, {pl_inf: -3})
    assert idele_log_norm(al).coeffs == {3: Fraction(3)}


def test_degree_equals_log_norm():
    rng = random.Random(77)
    for F in (Q, Qi, Q5, F3, H):
        for _ in range(15):
            al = random_idele(F, rng)
            assert divisor_of_idele(al).degree().eq(idele_log_norm(al), tol=1e-12)


def test_idele_validation():
    P5, = places_above(Q, 5)
    inf, = archimedean_places(Q)
    with pytest.raises(Exception):
        Idele.make(Q, {}, {inf: -2.0})       # negative archimedean part
    with pytest.raises(Exception):
        Idele.make(Qi, {P5: 1})              # place of the wrong field
    for a in (math.nan, math.inf):
        with pytest.raises(GlobalFieldError):
            Idele.make(Q, {}, {inf: a})      # non-finite archimedean part
    with pytest.raises(GlobalFieldError):
        Idele.make(Q, {}, {inf: 1e-320}).inv()  # 1 / 1e-320 overflows to inf


# -- product formula -------------------------------------------------------------------


def test_product_formula_rationals():
    rng = random.Random(5)
    for _ in range(60):
        num = rng.randint(-90, 90) or 7
        den = rng.randint(1, 90)
        x = Fraction(num, den)
        total = float(idele_log_norm(principal_idele(Q, x)))
        assert abs(total) < 1e-12


def test_product_formula_gaussian_integers():
    cases = [(1, 1), (2, 1), (0, 1), (3, 2), (5, 0), (1, -2), (7, 4),
             (Fraction(1, 2), Fraction(3, 5)), (-3, 1), (12, 5)]
    for a, b in cases:
        total = float(idele_log_norm(principal_idele(Qi, (a, b))))
        assert abs(total) < 1e-12, (a, b, total)


def test_product_formula_real_quadratic():
    cases = [(1, 1), (2, -3), (Fraction(5, 7), 2), (0, 1), (9, 4), (1, -1)]
    for a, b in cases:
        total = float(idele_log_norm(principal_idele(Q5, (a, b))))
        assert abs(total) < 1e-12, (a, b, total)


def test_product_formula_rational_functions_exact():
    rng = random.Random(9)
    from adelic import ffpoly
    from adelic.ffpoly import gf
    F = gf(3)
    for _ in range(30):
        num = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
        num = ffpoly.ptrim(num) or (1,)
        den = ffpoly.ptrim(den) or (1,)
        ln = idele_log_norm(principal_idele(F3, (num, den)))
        assert ln.coeffs == {} and ln.real == 0.0  # exactly zero


def test_principal_idele_split_valuations():
    # 2 + i generates one of the primes over 5: valuation 1 there, 0 at the other
    pls = places_above(Qi, 5)
    al = principal_idele(Qi, (2, 1))
    vals = sorted(al.finite.get(pl, 0) for pl in pls)
    assert vals == [0, 1]


def _in_ideal(ideal, a, b):
    """a + b*omega lies in (1/den)(Z(a0, 0) + Z(b0, c0)) (HNF membership)."""
    y = ideal.den * b / ideal.c
    if y.denominator != 1:
        return False
    return ((ideal.den * a - y * ideal.b) / ideal.a).denominator == 1


def test_split_valuations_match_ideal_membership():
    # v_P(x) is the largest k with x in P^k P'^-e, where p^e and an integer
    # s prime to p clear the denominators of s*x; decided by HNF membership in
    # theta's closed-form sections lattice c * [N, omega - r] of the idele
    # with v_P = k and v_P' = -e, independently of the residue rule
    rng = random.Random(31)
    seen = 0
    for d in (-1, 5, -7, 17):
        F = GlobalFieldDesc.quadratic(d)
        for p in (2, 3, 5, 7, 11, 13, 19, 29):
            pls = places_above(F, p)
            if pls[0].splitting != "split":
                continue
            for _ in range(10):
                # half of the elements are steered into P or P'
                b = rng.randint(-9, 9)
                a = -b * rng.choice(pls).root + p * rng.randint(-3, 3) \
                    if rng.random() < 0.5 else rng.randint(-9, 9)
                scale = Fraction(p) ** rng.randint(-2, 2) / rng.choice([1, 2, 3])
                a, b = a * scale, b * scale
                if a == b == 0:
                    continue
                al = principal_idele(F, (a, b))
                den = math.lcm(a.denominator, b.denominator)
                e = 0
                while den % p == 0:
                    den //= p
                    e += 1
                for pl, other in (pls, pls[::-1]):
                    v = al.finite.get(pl, 0)
                    for k, inside in ((v, True), (v + 1, False)):
                        J = ideal_for_idele(Idele.make(F, {pl: k, other: -e}))
                        assert _in_ideal(J, a * den, b * den) == inside, (d, a, b, pl, k)
                seen += al.finite.get(pls[0], 0) != al.finite.get(pls[1], 0)
    assert seen >= 50  # many elements separate P from P'


def test_random_idele_bounded():
    rng = random.Random(123)
    for F in (Q, Qi, Q5, F3):
        for _ in range(25):
            al = random_idele_bounded(F, rng, bound=5.0)
            assert abs(float(idele_log_norm(al))) <= 5.0 + 1e-9
