import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from adelic.localfields import (
    LAURENT,
    P_ADIC,
    InvalidDefiningPolynomial,
    LaurentScalar,
    LocalElement,
    UnitAngle,
    WrongBase,
    abs_value,
    base_field,
    lambda_fractional,
    local_measure,
    quadratic_extension,
    residue_coefficient_angle,
    standard_character,
    trace_to_base,
    validated_quadratics,
    valuation,
)
from adelic.suite import local_field_roster
from adelic.values import PosRealExact


def Qp(p):
    return base_field(p, P_ADIC)


def Fpt(p):
    return base_field(p, LAURENT)


def from_laurent(field, terms):
    """The element sum c t^e, {e: c} = terms, of a field over F_p((t))."""
    return LocalElement.from_coords(field, LaurentScalar.make(field.p, terms))


# -- valuations ---------------------------------------------------------------


def test_valuation_of_uniformizers():
    assert valuation(LocalElement.from_rational(Qp(7), 7)) == 1
    assert valuation(from_laurent(Fpt(3), {-1: 1})) == -1


def test_valuation_eisenstein_rescaling():
    K = quadratic_extension(Qp(5), 0, -5)  # x^2 - 5
    pi = LocalElement.uniformizer(K)
    assert valuation(pi) == 1
    five = LocalElement.from_rational(K, 5)
    assert valuation(five) == 2
    # oracle: pi^2 is literally 5, so additivity forces v(pi) = 1
    assert pi * pi == five


def test_valuation_additive_random():
    rng = random.Random(7)
    fields = [Qp(2), Qp(5), quadratic_extension(Qp(3), 0, -3),
              quadratic_extension(Qp(3), 0, -2), Fpt(3)]
    for K in fields:
        for _ in range(40):
            if K.base_kind == P_ADIC:
                def rand_elt():
                    num = rng.randint(-50, 50)
                    den = rng.choice([1, 1, K.p, K.p ** 2, 3 if K.p != 3 else 7])
                    c1 = rng.randint(-10, 10) if K.rel_degree == 2 else 0
                    return LocalElement.from_coords(K, Fraction(num, den), c1)
            else:
                def rand_elt():
                    terms = {rng.randint(-3, 4): rng.randint(0, K.p - 1)
                             for _ in range(3)}
                    return from_laurent(K, terms)
            x, y = rand_elt(), rand_elt()
            if x.is_zero() or y.is_zero():
                continue
            assert valuation(x * y) == valuation(x) + valuation(y)
            assert abs_value(x * y) == abs_value(x) * abs_value(y)


def test_valuation_zero_and_indeterminate():
    K = Qp(3)
    assert valuation(LocalElement.zero(K)) == math.inf
    # all digits zero: the exact zero, not an element of unknown valuation
    assert valuation(LocalElement.from_digits(K, 0, [0, 0, 0])) == math.inf


# -- absolute values ----------------------------------------------------------


def test_abs_value_examples():
    assert abs_value(LocalElement.from_rational(Qp(2), 4)) == \
        PosRealExact.prime_power(2, -2)
    K = quadratic_extension(Fpt(2), 1, 1)  # residue field F_4
    t2 = from_laurent(K, {2: 1})
    assert valuation(t2) == 2
    assert abs_value(t2) == PosRealExact.prime_power(2, -4)  # 4^-2
    assert abs_value(LocalElement.one(Qp(13))).is_one()


def test_abs_value_norm_compatibility():
    # |x|_L = |N(x)|_base for quadratic extensions
    K = quadratic_extension(Qp(3), 0, -2)
    x = LocalElement.from_coords(K, 3, 2)   # 3 + 2*sqrt(2)
    n = Fraction(3) ** 2 - 2 * Fraction(2) ** 2  # = 1
    assert abs_value(x) == PosRealExact.from_rational(abs(n))


# -- fractional part and residue angle ----------------------------------------


def test_lambda_examples():
    assert lambda_fractional(LocalElement.from_rational(Qp(2), Fraction(1, 2))) == \
        Fraction(1, 2)
    assert lambda_fractional(LocalElement.from_rational(Qp(5), 7)) == 0
    x = LocalElement.from_rational(Qp(5), Fraction(7, 25))
    assert lambda_fractional(x) == Fraction(7, 25)
    # digit oracle: 7/25 = 2*5^-2 + 1*5^-1
    assert x.digits[:3] == (2, 1, 0)
    assert valuation(x) == -2


def test_lambda_well_defined_mod_integers():
    rng = random.Random(11)
    K = Qp(3)
    for _ in range(50):
        num = rng.randint(-40, 40)
        x = LocalElement.from_rational(K, Fraction(num, 27))
        shift = LocalElement.from_rational(K, rng.randint(-20, 20))
        assert lambda_fractional(x) == lambda_fractional(x + shift)


def test_lambda_wrong_base():
    with pytest.raises(WrongBase):
        lambda_fractional(from_laurent(Fpt(3), {0: 1}))
    with pytest.raises(WrongBase):
        lambda_fractional(LocalElement.one(quadratic_extension(Qp(3), 0, -2)))


def test_residue_coefficient_angle_examples():
    K = Fpt(3)
    assert residue_coefficient_angle(
        from_laurent(K, {-1: 2})) == UnitAngle.make(Fraction(2, 3))
    assert residue_coefficient_angle(
        from_laurent(K, {0: 1, 1: 1})).is_zero()
    assert residue_coefficient_angle(
        from_laurent(K, {-2: 1})).is_zero()
    with pytest.raises(WrongBase):
        residue_coefficient_angle(LocalElement.from_rational(Qp(3), 1))


# -- traces --------------------------------------------------------------------


def test_trace_examples():
    K = quadratic_extension(Qp(3), 0, -2)  # unramified, theta = sqrt(2)
    a = LocalElement.from_rational(K, 7)
    tr = trace_to_base(a)
    assert tr == LocalElement.from_rational(Qp(3), 14)

    L = quadratic_extension(Qp(5), 0, -5)
    root5 = LocalElement.uniformizer(L)
    assert trace_to_base(root5).is_zero()

    x = LocalElement.from_coords(K, 1, 1)  # 1 + sqrt(2)
    assert trace_to_base(x) == LocalElement.from_rational(Qp(3), 2)
    # conjugate-sum oracle: (1+theta) + (1-theta) = 2
    conj = LocalElement.from_coords(K, 1, -1)
    assert x + conj == LocalElement.from_rational(K, 2)


def test_trace_is_base_linear():
    K = quadratic_extension(Qp(7), 0, -3)  # 3 is a non-residue mod 7
    rng = random.Random(3)
    for _ in range(20):
        x = LocalElement.from_coords(K, rng.randint(-9, 9), rng.randint(-9, 9))
        y = LocalElement.from_coords(K, rng.randint(-9, 9), rng.randint(-9, 9))
        c = rng.randint(-5, 5)
        lhs = trace_to_base(x * LocalElement.from_rational(K, c) + y)
        rhs = trace_to_base(x) * LocalElement.from_rational(Qp(7), c) + trace_to_base(y)
        assert lhs == rhs


# -- characters -----------------------------------------------------------------


def test_character_examples():
    for p in (2, 3, 5):
        for n in (0, 1, p, p + 1, 7):
            x = LocalElement.from_rational(Qp(p), n)
            assert standard_character(x).is_zero()
    ang = standard_character(LocalElement.from_rational(Qp(2), Fraction(1, 2)))
    assert ang == UnitAngle.make(Fraction(1, 2))
    ang = standard_character(from_laurent(Fpt(2), {-1: 1}))
    assert ang == UnitAngle.make(Fraction(1, 2))


def test_character_is_additive_exhaustive():
    # exhaustively on representatives of pi^-2 O / pi^2 O
    for K in (Qp(2), Fpt(3), quadratic_extension(Qp(2), 0, -2),
              quadratic_extension(Qp(3), 0, -3), quadratic_extension(Fpt(3), 0, {1: -1})):
        reps = []
        for d0 in K.residue_reps():
            for d1 in K.residue_reps():
                reps.append(LocalElement.from_digits(K, -2, [d0, d1]))
        for x in reps[: 12]:
            for y in reps[: 12]:
                lhs = standard_character(x + y)
                rhs = standard_character(x) + standard_character(y)
                assert lhs == rhs


def test_character_trivial_on_integers_unramified():
    for K in (quadratic_extension(Qp(3), 0, -2), quadratic_extension(Fpt(5), 0, {0: -2}),
              quadratic_extension(Qp(2), 1, 1)):
        rng = random.Random(5)
        for _ in range(25):
            if K.base_kind == P_ADIC:
                x = LocalElement.from_coords(K, rng.randint(0, 30), rng.randint(0, 30))
            else:
                x = LocalElement.from_coords(
                    K, {rng.randint(0, 3): 1}, {rng.randint(0, 3): 1})
            assert standard_character(x).is_zero()


def test_character_conductor_is_inverse_different():
    # trivial on pi^(-d) O, nontrivial on pi^(-d-1) O
    for K in validated_quadratics(2, P_ADIC) + validated_quadratics(5, P_ADIC):
        d = K.different_exponent
        triv = True
        for digs in [(r,) for r in K.residue_reps()]:
            x = LocalElement.from_digits(K, -d, digs)
            if not standard_character(x).is_zero():
                triv = False
        assert triv, f"character nontrivial on inverse different of {K.describe()}"
        found = any(
            not standard_character(
                LocalElement.from_digits(K, -d - 1, (r,))
            ).is_zero()
            for r in K.residue_reps()
        )
        assert found, f"character trivial past the inverse different of {K.describe()}"


# -- measures -------------------------------------------------------------------


def test_local_measure_examples():
    assert local_measure(Qp(5)).is_one()
    assert local_measure(Fpt(5)).is_one()
    assert local_measure(quadratic_extension(Qp(5), 0, -5)) == \
        PosRealExact.prime_power(5, Fraction(-1, 2))
    assert local_measure(quadratic_extension(Qp(2), 0, -2)) == \
        PosRealExact.prime_power(2, Fraction(-3, 2))
    assert local_measure(quadratic_extension(Qp(2), 0, 1)) == \
        PosRealExact.prime_power(2, -1)


# -- descriptor validation -------------------------------------------------------


def test_polynomial_rejections():
    with pytest.raises(InvalidDefiningPolynomial):
        quadratic_extension(Qp(2), 0, -5)   # u = 5 mod 8: needs unramified shape
    with pytest.raises(InvalidDefiningPolynomial):
        quadratic_extension(Qp(2), 0, -17)  # splits
    with pytest.raises(InvalidDefiningPolynomial):
        quadratic_extension(Qp(3), 0, -9)   # x^2 - 9 not Eisenstein
    with pytest.raises(InvalidDefiningPolynomial):
        quadratic_extension(Qp(5), 0, -1)   # -1 is a square mod 5
    with pytest.raises(InvalidDefiningPolynomial):
        quadratic_extension(Fpt(2), 0, {1: -1})  # inseparable in char 2


def test_descriptor_invariants():
    for p in (2, 3, 5):
        for kind in (P_ADIC, LAURENT):
            for K in (base_field(p, kind),) + validated_quadratics(p, kind):
                assert K.e * K.f == K.rel_degree
                assert K.residue_card == p ** K.f
                assert (K.disc_exponent == 0) == (K.e == 1)
                pi = LocalElement.uniformizer(K)
                assert valuation(pi) == 1


def test_descriptor_equality_is_p_base_and_polynomial():
    # two descriptors built separately from one polynomial are equal and hash
    # alike; the factory's derived data takes no part in either
    for p, kind, b, c in ((3, P_ADIC, 0, -3), (2, P_ADIC, 1, 1), (3, LAURENT, 0, {1: -1})):
        K1 = quadratic_extension(base_field(p, kind), b, c)
        K2 = quadratic_extension(base_field(p, kind), b, c)
        assert K1 is not K2 and K1 == K2 and hash(K1) == hash(K2)
        assert hash(K1) == hash((K1.p, K1.base_kind, K1.poly))
        # the hash is computed once per descriptor, and a str hashes
        # differently in another process, so a pickled copy recomputes it
        copy = pickle.loads(pickle.dumps(K1))
        assert "_hash" not in copy.__dict__ and copy == K1 and hash(copy) == hash(K1)
        assert dataclasses.replace(K1, ram_root=1, uniformizer_coords=None) == K1
    assert quadratic_extension(Qp(3), 0, -3) != quadratic_extension(Qp(3), 0, -6)
    assert quadratic_extension(Qp(3), 0, -3) != base_field(3)


# -- digits ----------------------------------------------------------------------


def test_from_digits_roundtrip():
    K = quadratic_extension(Qp(3), 0, -3)
    digs = (1, 2, 0, 1, 2)
    x = LocalElement.from_digits(K, -2, digs)
    assert x.digits[: 5] == digs
    assert valuation(x) == -2
    # every roster field: a nonzero leading digit fixes the valuation
    for K in local_field_roster():
        rng = random.Random(K.describe())
        reps = K.residue_reps()
        digs = (rng.choice(reps[1:]),) + tuple(rng.choice(reps) for _ in range(5))
        x = LocalElement.from_digits(K, -2, digs)
        assert valuation(x) == -2, K.describe()
        assert x.digits[: len(digs)] == digs, K.describe()
        assert valuation(x + (-x)) == math.inf, K.describe()


def test_first_digit_nonzero():
    for K in (Qp(5), quadratic_extension(Qp(5), 0, -10)):
        x = LocalElement.from_rational(K, Fraction(50))
        assert x.digits[0] != 0 if K.f == 1 else x.digits[0] != (0, 0)
