import cmath
import hashlib
import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from adelic import harmonic, localfields
from adelic.harmonic import (
    CycScalar,
    HarmonicError,
    StepFunction,
    character_coset_integral,
    coset_measure,
    fourier,
    indicator,
    negate_coset,
    random_step_function,
    transform_shape,
    verify_inversion,
)
from adelic.localfields import (
    LAURENT,
    P_ADIC,
    LocalElement,
    UnitAngle,
    base_field,
    local_measure,
    quadratic_extension,
    standard_character,
    validated_quadratics,
)
from adelic.suite import check_inversion, local_field_roster
from adelic.values import PosRealExact


def integrate(f):
    """Exact integral: sum of coset values weighted by the coset measure."""
    total = CycScalar.zero(f.field.p)
    for v in f.values.values():
        total = total + v
    return total.scale_measure(coset_measure(f.field, f.level))


def all_test_fields(ps=(2, 3, 5)):
    out = []
    for p in ps:
        for kind in (P_ADIC, LAURENT):
            out.append(base_field(p, kind))
            out.extend(validated_quadratics(p, kind))
    return out


SMALL_FIELDS = [base_field(2), base_field(3), base_field(3, LAURENT),
                quadratic_extension(base_field(2), 0, -2),
                quadratic_extension(base_field(3), 0, -2),
                quadratic_extension(base_field(3, LAURENT), 0, {1: -1})]


# -- test oracles: float values, pointwise lookup, linear combinations --------


def complex_value(x):
    """The float value of a scalar, a numeric cross-check on its exact form."""
    total = sum((c * cmath.exp(2j * math.pi * m / x.D) for m, c in x.coeffs.items()), 0j)
    return total / x.den * float(x.measure_factor)


def iter_cosets(f):
    """Every digit vector of f's (M, N) table, stored or not, in product order."""
    return itertools.product(f.field.residue_reps(), repeat=f.length)


def value_at(f, start, digits):
    """f on the coset of the element with the given digit window from
    position ``start``."""
    M, N = f.support_bound, f.level
    zero = 0 if f.field.f == 1 else (0, 0)
    key = []
    for pos in range(-M, N):
        idx = pos - start
        key.append(digits[idx] if 0 <= idx < len(digits) else zero)
    for pos in range(start, -M):
        if digits[pos - start] != zero:
            return CycScalar.zero(f.field.p)  # outside the support
    return f.values.get(tuple(key), CycScalar.zero(f.field.p))


def value_at_zero(f):
    zero = 0 if f.field.f == 1 else (0, 0)
    return f.values.get((zero,) * f.length, CycScalar.zero(f.field.p))


def as_rational(x):
    """The exact rational value of a scalar; raises when it is irrational."""
    if x.D != 1 or not x.measure_factor.is_one():
        raise HarmonicError(f"{x} is not rational")
    return Fraction(x.coeffs.get(0, 0), x.den)


def add(f, g):
    """f + g on the common refinement of their tables."""
    M, N = max(f.support_bound, g.support_bound), max(f.level, g.level)
    vals = dict(f.refine(M, N).values)
    for k, v in g.refine(M, N).values.items():
        vals[k] = vals[k] + v if k in vals else v
    return StepFunction(f.field, M, N, vals)


def scale(f, q):
    return StepFunction(f.field, f.support_bound, f.level,
                        {k: v.scale_rational(q) for k, v in f.values.items()})


def round_trip(f):
    """F^-1(F f), decoded from the packed table that verify_inversion
    compares: the transform's digit passes, then the conjugate kernel's, at
    the first transform's level and residual.  The slots of each of the R^n
    middle values sum to at most num1 l1 (l1 the input's norm), so the width
    comes from num1 num2 R^n l1, never from the expected f."""
    K, n = f.field, f.length
    vals = f.values.values()
    D = math.lcm(K.p, harmonic._pass_plan(K, n)[0], *(v.D for v in vals))
    L = math.lcm(1, *(v.den for v in vals))
    num, den, residual, shape = harmonic._scales(K, (f.support_bound, f.level),
                                                 f.measure_factor, 2)
    w = (num * K.residue_card ** n * harmonic._l1(f, L)).bit_length() + 1
    T = harmonic._digit_passes(K, n, harmonic._pack(f, L, w, D), num, w, D, (1, -1))
    slots = harmonic._Slots(K.p, w, D)
    decoded = (slots.decode(v, L * den, residual) for v in T)
    return StepFunction(K, *shape, {k: x for k, x in zip(iter_cosets(f), decoded)
                                    if x is not None})


# -- CycScalar ----------------------------------------------------------------


def test_cyc_rational_canonical_form():
    x = CycScalar(3, {Fraction(0): Fraction(5), Fraction(1, 3): Fraction(2),
                      Fraction(2, 3): Fraction(2)})
    assert x.terms == {Fraction(0): Fraction(3)}  # canonical at construction
    c = x.canonical()
    assert c.terms == {Fraction(0): Fraction(3)}
    assert as_rational(x) == 3
    assert as_rational(CycScalar(3, {0: 1, 1: 1})) == 2  # equal angles mod 1 add


def test_cyc_canonical_at_construction():
    # the rational part of the measure factor moves into the coefficients
    y = CycScalar.from_posreal(2, PosRealExact.prime_power(2, Fraction(3, 2)))
    assert y.terms == {Fraction(0): Fraction(2)}
    assert y.measure_factor == PosRealExact.prime_power(2, Fraction(1, 2))
    # a sum of canonical terms is canonical: the 1/3-cycle split over two
    # scalars cancels, and zero carries measure factor 1
    s3 = PosRealExact.prime_power(3, Fraction(1, 2))
    z = CycScalar(3, {0: 1, Fraction(1, 3): 1}, s3) + CycScalar(3, {Fraction(2, 3): 1}, s3)
    assert z.terms == {} and z.measure_factor.is_one()


def test_cyc_full_cycle_cancels():
    x = CycScalar(5, {Fraction(a, 5): Fraction(7) for a in range(5)})
    assert x.is_zero() and x.terms == {}
    y = CycScalar(2, {Fraction(1, 8): 1, Fraction(5, 8): 1})  # zeta + (-zeta)
    assert y.is_zero()


def assert_canonical(x):
    """The integer form's conditions: D the least power of p that holds the
    power-basis exponents, nonzero coefficients, den > 0 coprime to them and
    a measure factor with exponents in [0, 1); zero is D = 1, den = 1."""
    p, D = x.p, x.D
    assert D >= 1 and pow(p, D.bit_length(), D) == 0
    assert all(0 <= m < max(1, (p - 1) * D // p) for m in x.coeffs)
    assert D == 1 or any(m % p for m in x.coeffs)
    assert all(x.coeffs.values())
    assert x.den > 0 and math.gcd(x.den, *x.coeffs.values()) == 1
    assert all(0 <= e < 1 for e in x.measure_factor.exponents.values())
    if not x.coeffs:
        assert (D, x.den) == (1, 1) and x.measure_factor.is_one()


def random_cyc_terms(rng, p):
    """Angles with denominators up to p^4, some carrying a cancelling
    1/p-cycle, and coefficients with small denominators."""
    k = rng.randint(0, 4)
    terms = {Fraction(rng.randrange(p ** k), p ** k):
             Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 4]))
             for _ in range(rng.randint(1, 6))}
    if k and rng.random() < 0.5:
        r0, c = Fraction(rng.randrange(p ** k), p ** k), rng.randint(1, 5)
        for j in range(p):
            terms[r0 + Fraction(j, p)] = terms.get(r0 + Fraction(j, p), 0) + c
    return terms


def test_cyc_canonicalization_idempotent_and_sound():
    rng = random.Random(123)
    for p in (2, 3, 5):
        for _ in range(60):
            terms = random_cyc_terms(rng, p)
            mf = PosRealExact.prime_power(p, Fraction(rng.randint(-4, 4), 2))
            x = CycScalar(p, terms, mf)
            c = x.canonical()
            cc = c.canonical()
            assert c.terms == cc.terms and c.measure_factor == cc.measure_factor
            assert abs(complex_value(x) - complex_value(c)) < 1e-12
            # the terms view round-trips, and angles r and r + 1 are one angle
            assert CycScalar(p, x.terms, x.measure_factor).eq(x)
            assert CycScalar(p, {r + 1: co for r, co in terms.items()}, mf).eq(x)
            # arithmetic keeps the form and agrees with complex arithmetic
            y = CycScalar(p, random_cyc_terms(rng, p), mf)
            q = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            m = PosRealExact.prime_power(p, Fraction(rng.randint(-3, 3), 2))
            X, Y = complex_value(x), complex_value(y)
            for got, want in ((x, X), (x + y, X + Y), (x - y, X - Y), (-x, -X),
                              (x * y, X * Y), (x.scale_rational(q), X * float(q)),
                              (x.scale_measure(m), X * float(m))):
                assert_canonical(got)
                assert abs(complex_value(got) - want) < 1e-9


def test_cyc_refuses_non_p_power_angles_and_irrational_as_rational():
    with pytest.raises(HarmonicError, match="denominator"):
        CycScalar(3, {Fraction(1, 6): 1})
    with pytest.raises(HarmonicError, match="denominator"):
        CycScalar(3, {Fraction(1, 9): 1, Fraction(1, 2): 1})
    x = CycScalar(3, {Fraction(1, 9): Fraction(1, 2), Fraction(0): 2,
                      Fraction(7, 9): Fraction(5, 6)}, PosRealExact.prime_power(3, Fraction(3, 2)))
    assert repr(x) == "[(6)e(0) + (-1)e(1/9) + (-5/2)e(4/9)] * 3^1/2"
    for irrational in (x, CycScalar(3, {Fraction(1, 3): 1}),
                       CycScalar.from_posreal(3, PosRealExact.prime_power(3, Fraction(1, 2)))):
        with pytest.raises(HarmonicError, match="is not rational"):
            as_rational(irrational)


def test_floats_refused_where_exact_rationals_are_built():
    # a float would be taken at its binary value and labelled exact
    K = base_field(2)
    for build in (lambda: PosRealExact.from_rational(0.1),
                  lambda: CycScalar.rational(3, 0.1),
                  lambda: scale(indicator(K, 0), 0.1),
                  lambda: CycScalar(2, {0.1: 1}),
                  lambda: CycScalar(2, {0: 0.5})):
        with pytest.raises(TypeError):
            build()


def test_cyc_rational_is_the_general_constructor():
    # zero and rational build the canonical form directly, field for field
    # what the general constructor builds from {0: q}
    rng = random.Random(7)
    qs = [0, 1, -7, True, Fraction(0), Fraction(-3, 4)]
    qs += [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6)) for _ in range(300)]
    for p in (2, 3, 5):
        for x, y in [(CycScalar.zero(p), CycScalar(p, {}))] + \
                [(CycScalar.rational(p, q), CycScalar(p, {0: q})) for q in qs]:
            assert (x.p, x.D, x.coeffs, x.den, x.measure_factor) == \
                (y.p, y.D, y.coeffs, y.den, y.measure_factor)
            assert all(type(c) is int for c in x.coeffs.values()) and type(x.den) is int
    for bad in (0.5, 2.0, Decimal("0.5"), 1j, complex(2, 0)):
        with pytest.raises(TypeError):
            CycScalar.rational(3, bad)


def test_cyc_incompatible_scalars_only_equal_when_zero():
    a = CycScalar.rational(3, 2)
    b = CycScalar.from_posreal(3, PosRealExact.prime_power(3, Fraction(1, 2)))
    with pytest.raises(HarmonicError):
        a.eq(b)
    za = CycScalar.zero(3)
    zb = CycScalar(3, {}, PosRealExact.prime_power(3, Fraction(1, 2)))
    assert za.eq(zb)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyc_sum_independent_of_operand_order(p):
    # nonzero scalars with factors 1 and sqrt(p) have no common factor, so
    # sums, differences and comparisons raise in either order, for every p
    a = CycScalar.rational(p, 2)
    b = CycScalar.from_posreal(p, PosRealExact.prime_power(p, Fraction(1, 2)))
    for x, y in ((a, b), (b, a)):
        for op in (x.__add__, x.__sub__, x.eq):
            with pytest.raises(HarmonicError):
                op(y)


def test_step_function_refuses_mixed_measure_factors():
    K = base_field(3)
    one = CycScalar.rational(3, 1)
    s3 = CycScalar.from_posreal(3, PosRealExact.prime_power(3, Fraction(1, 2)))
    with pytest.raises(HarmonicError):
        StepFunction(K, 0, 1, {(0,): one, (1,): s3})
    f = StepFunction(K, 0, 1, {(0,): one})
    g = StepFunction(K, 0, 1, {(1,): s3})
    with pytest.raises(HarmonicError):
        add(f, g)
    # zero values are dropped before the check, and a sum keeps one factor
    assert StepFunction(K, 0, 1, {(0,): CycScalar.zero(3), (1,): s3}).measure_factor == \
        s3.measure_factor
    assert add(g, g).measure_factor == s3.measure_factor


def test_cyc_mul_matches_complex():
    x = CycScalar(3, {Fraction(1, 3): Fraction(2), Fraction(0): Fraction(1)})
    y = CycScalar(3, {Fraction(2, 9): Fraction(1, 2)})
    z = x * y
    assert abs(complex_value(z) - complex_value(x) * complex_value(y)) < 1e-12


# -- integration ----------------------------------------------------------------


def test_integrate_indicator_examples():
    assert as_rational(integrate(indicator(base_field(3), 2))) == Fraction(1, 9)
    assert as_rational(integrate(indicator(base_field(2), -2))) == 4
    zero_fn = StepFunction(base_field(2), 1, 1, {})
    assert integrate(zero_fn).is_zero()


def test_integrate_scaling_by_uniformizer():
    # mu(x S) = |x| mu(S): halving the support scales by (#k)^-1
    for K in SMALL_FIELDS:
        a = integrate(indicator(K, 1))
        b = integrate(indicator(K, 0))
        assert a.eq(b.scale_rational(Fraction(1, K.residue_card)))


def test_integrate_measure_normalization():
    for K in all_test_fields():
        got = integrate(indicator(K, 0))
        assert got.eq(CycScalar.from_posreal(K.p, local_measure(K)))


# -- character coset integrals (appendix lemma closed form) -----------------------


def brute_coset_integral(K, m, depth_past=1):
    """Independent oracle: full character sum at a finer level."""
    level = max(-K.different_exponent, m) + depth_past
    total = CycScalar.zero(K.p)
    for vec in itertools.product(K.residue_reps(), repeat=level - m):
        x = LocalElement.from_digits(K, m, vec)
        total = total + CycScalar(K.p, {standard_character(x).r: 1})
    return total.scale_measure(coset_measure(K, level)).canonical()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_character_coset_integral_closed_form(p):
    for kind in (P_ADIC, LAURENT):
        for K in (base_field(p, kind),) + validated_quadratics(p, kind):
            d = K.different_exponent
            for m in range(-3, 4):
                got = character_coset_integral(K, m)
                if m >= -d:
                    want = CycScalar.from_posreal(K.p, coset_measure(K, m))
                    assert got.eq(want), (K.describe(), m)
                else:
                    assert got.is_zero(), (K.describe(), m)


def test_character_coset_integral_brute_oracle():
    rng = random.Random(4)
    for K in SMALL_FIELDS:
        for m in (-2, -1, 0, 1):
            if K.residue_card ** (max(-K.different_exponent, m) + 1 - m) > 4000:
                continue
            assert character_coset_integral(K, m).eq(brute_coset_integral(K, m)), \
                (K.describe(), m)


def test_lemma_examples():
    assert as_rational(character_coset_integral(base_field(3), 1)) == Fraction(1, 3)
    assert character_coset_integral(base_field(2), -1).is_zero()
    assert character_coset_integral(base_field(5, LAURENT), -2).is_zero()


# -- the Fourier transform ---------------------------------------------------------


def closed_form_transform(K, m):
    scale = PosRealExact.prime_power(K.p, -K.f * m) * local_measure(K)
    g = indicator(K, -m - K.different_exponent)
    return StepFunction(K, g.support_bound, g.level,
                        {k: v.scale_measure(scale) for k, v in g.values.items()})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fourier_indicator_closed_form(p):
    for kind in (P_ADIC, LAURENT):
        for K in (base_field(p, kind),) + validated_quadratics(p, kind):
            for m in range(-2, 3):
                got = fourier(indicator(K, m))
                assert got.equals(closed_form_transform(K, m)), (K.describe(), m)


def test_fourier_indicator_brute_oracle():
    # exhaustive low-level check on Q_2(sqrt 2): transform of char_O is
    # mu(O) * char of the inverse different
    K = quadratic_extension(base_field(2), 0, -2)
    g = fourier(indicator(K, 0))
    assert (g.support_bound, g.level) == (3, -3)
    val = next(iter(g.values.values()))
    assert val.eq(CycScalar.from_posreal(2, local_measure(K)))
    # brute: chi is trivial on pi^-3 O and the coset sums vanish beyond it
    h = fourier(indicator(K, 1))
    assert h.equals(closed_form_transform(K, 1))


def test_fourier_zero_function():
    z = StepFunction(base_field(5), 1, 1, {})
    assert fourier(z).equals(StepFunction(base_field(5), *transform_shape(base_field(5), 1, 1), {}))


def test_fourier_linearity():
    rng = random.Random(9)
    for K in SMALL_FIELDS:
        f = random_step_function(K, rng, coset_cap=81)
        g = random_step_function(K, rng, coset_cap=81)
        a, b = Fraction(2, 3), Fraction(-5)
        lhs = fourier(add(scale(f, a), scale(g, b)))
        rhs = add(scale(fourier(f), a), scale(fourier(g), b))
        assert lhs.equals(rhs), K.describe()


def test_fourier_plancherel_at_zero():
    rng = random.Random(10)
    for K in SMALL_FIELDS:
        f = random_step_function(K, rng, coset_cap=81)
        assert integrate(fourier(f)).eq(value_at_zero(f)), K.describe()


# -- inversion ------------------------------------------------------------------


def test_inversion_indicator():
    rep = verify_inversion(indicator(base_field(3), 1))
    assert rep.passed


def test_inversion_random_functions():
    rng = random.Random(20)
    for K in SMALL_FIELDS:
        for _ in range(10):
            f = random_step_function(K, rng, coset_cap=128)
            rep = verify_inversion(f)
            assert rep.passed, (K.describe(), rep.witnesses[:1])


def test_inversion_negative_control():
    K = base_field(2)
    f = random_step_function(K, random.Random(33), coset_cap=64)
    g = fourier(fourier(f))
    corrupted = dict(g.values)
    some_key = next(iter(corrupted)) if corrupted else (0,) * g.length
    corrupted[some_key] = corrupted.get(some_key, CycScalar.zero(2)) + CycScalar.rational(2, 1)
    bad = StepFunction(K, g.support_bound, g.level, corrupted)
    rep = verify_inversion(f, double_transform=bad)
    assert not rep.passed
    assert rep.witnesses  # includes the offending coset


def test_inversion_negative_control_report():
    # the suite's negative control: one coset of the true round trip
    # F^-1(F f) raised by 1; the witness strings are the scalars' repr
    K = base_field(2)
    f = random_step_function(K, random.Random(99), coset_cap=64)
    g = round_trip(f)
    key = next(iter(g.values), (0,) * g.length)
    vals = dict(g.values)
    vals[key] = vals.get(key, CycScalar.zero(2)) + CycScalar.rational(2, 1)
    rep = verify_inversion(f, double_transform=StepFunction(K, g.support_bound, g.level, vals))
    out = rep.to_json()
    assert not rep.passed and not out["pass"] and 1 <= len(out["witnesses"]) <= 5
    assert out == {"field": "Q_2", "pass": False, "cosets_checked": 4,
                   "witnesses": [{"coset": ["0", "0"], "lhs": "(-1/3)e(0)",
                                  "rhs": "(2/3)e(0)"}]}


def test_inversion_rejects_mismatched_shape():
    K = base_field(3)
    f = indicator(K, 1)
    assert transform_shape(K, *transform_shape(K, f.support_bound, f.level)) == \
        (f.support_bound, f.level)
    with pytest.raises(HarmonicError):
        verify_inversion(f, double_transform=fourier(f))


def test_inversion_rejects_other_field():
    # Q_3 and F_3((t)) share digits and shapes: f's true round trip,
    # relabelled onto F_3((t)), is refused like a wrong shape
    f = random_step_function(base_field(3), random.Random(3), coset_cap=27)
    g = round_trip(f)
    assert verify_inversion(f, double_transform=g).passed
    other = StepFunction(base_field(3, LAURENT), g.support_bound, g.level, g.values)
    with pytest.raises(HarmonicError, match="F_3"):
        verify_inversion(f, double_transform=other)


def test_inversion_refuses_keys_off_the_table():
    # a short key would otherwise pack onto another coset's index, and
    # refine() would pad (1,) into the real cosets (1, 0), (1, 1), (1, 2):
    # the table refuses every key off it when it is built
    K = base_field(3)
    f = StepFunction(K, 1, 1, {(0, 1): CycScalar.rational(3, 2)})
    for key in ((1,), (0, 1, 0), (0, 7), ((0, 1), 0)):
        with pytest.raises(HarmonicError, match="not a coset"):
            verify_inversion(f, double_transform=StepFunction(
                K, 1, 1, {key: CycScalar.rational(3, 2)}))
    K9 = quadratic_extension(base_field(3), 0, -2)  # f = 2: a digit is a pair
    with pytest.raises(HarmonicError, match=r"\(1, 2\) is not a coset of the \(1, 1\)"):
        StepFunction(K9, 1, 1, {((0, 1), (2, 2)): CycScalar.rational(3, 1),
                                (1, 2): CycScalar.rational(3, 1)})


def test_inversion_refuses_other_measure_factor_where_both_are_nonzero():
    # the message names f's factor first; with disjoint supports every
    # stored coset is a witness
    K = base_field(3)
    s3 = PosRealExact.prime_power(3, Fraction(1, 2))
    f = StepFunction(K, 0, 1, {(0,): CycScalar.rational(3, 1)})
    g = StepFunction(K, 0, 1, {(0,): CycScalar.from_posreal(3, s3)})
    with pytest.raises(HarmonicError, match=r"incompatible measure factors 1 / 3\^1/2"):
        verify_inversion(f, double_transform=g)
    h = StepFunction(K, 0, 1, {(1,): CycScalar.from_posreal(3, s3)})
    rep = verify_inversion(f, double_transform=h)
    assert not rep.passed and rep.cosets_checked == 2
    assert rep.witnesses == [((0,), "(1)e(0)", "0"), ((1,), "0", "[(1)e(0)] * 3^1/2")]


def test_inversion_slot_width_is_adversarial():
    # with slots only as wide as f's own l1 norm asks, w0 bits, the packing
    # sends zeta_3 to 2^w0, so f and f + (zeta_3 - 2^w0) at one coset pack
    # to the same int modulo Phi_3(2^w0); the width comes from a bound on
    # the difference, so the double transform carrying that change fails
    K = base_field(3)
    f = StepFunction(K, 1, 1, {(0, 1): CycScalar.rational(3, 5),
                               (2, 2): CycScalar.rational(3, -7)})
    w0 = (5 + 7).bit_length() + 1
    delta = CycScalar(3, {Fraction(1, 3): 1, 0: -2 ** w0})
    assert delta.coeffs == {1: 1, 0: -2 ** w0}  # zeta_3 - 2^w0, not zero
    g = StepFunction(K, 1, 1, {**f.values, (0, 1): f.values[(0, 1)] + delta})
    rep = verify_inversion(f, double_transform=g)
    assert not rep.passed and rep.cosets_checked == 2
    assert rep.witnesses == [((0, 1), "(5)e(0)", f"({5 - 2 ** w0})e(0) + (1)e(1/3)")]
    # the same change on the true round trip, and at a coset f leaves empty
    g = round_trip(f)
    for key in ((0, 1), (1, 0)):
        vals = dict(g.values)
        vals[key] = vals.get(key, CycScalar.zero(3)) + delta
        rep = verify_inversion(f, double_transform=StepFunction(K, 1, 1, vals))
        assert not rep.passed and [w[0] for w in rep.witnesses] == [key]


def test_inversion_negates_no_coset(monkeypatch):
    # F^-1(F f) lands on f's own table, so checking inversion over a seeded
    # criterion-2 pool reflects no coset: no negate_coset call (cache hits
    # included) and no negate_digits call
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    for module, name in ((harmonic, "negate_coset"), (harmonic, "negate_digits"),
                         (localfields, "negate_digits")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    res = check_inversion(seed=1, per_field=5)
    assert res.passed and res.checks == 5 * len(local_field_roster())
    assert calls == []


def test_passing_inversion_decodes_nothing(monkeypatch):
    # the round trip is compared with f on the packed table: over a seeded
    # criterion-2 pool no scalar or step function is built for it, and each
    # report checks exactly f's stored cosets (1,497 over this pool)
    rng = random.Random(1)
    pool = [random_step_function(K, rng, coset_cap=81)
            for K in local_field_roster() for _ in range(20)]
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CycScalar, "_make", classmethod(counted(CycScalar._make.__func__)))
    monkeypatch.setattr(harmonic, "_normalize", counted(harmonic._normalize))
    monkeypatch.setattr(StepFunction, "__post_init__", counted(StepFunction.__post_init__))
    reports = [verify_inversion(f) for f in pool]
    monkeypatch.undo()
    assert calls == []
    assert all(rep.passed and not rep.witnesses for rep in reports)
    assert [rep.cosets_checked for rep in reports] == [len(f.values) for f in pool]
    assert sum(rep.cosets_checked for rep in reports) == 1497


# -- step function structure -------------------------------------------------------


def test_refining_level_preserves_values():
    K = base_field(3)
    f = random_step_function(K, random.Random(5), coset_cap=27)
    g = f.refine(f.support_bound + 1, f.level + 1)
    for vec in iter_cosets(g):
        assert value_at(g, -g.support_bound, vec).eq(value_at(f, -g.support_bound, vec))


def test_step_function_drops_zero_values():
    K = base_field(3)
    assert StepFunction(K, 1, 1, {(0, 1): CycScalar.zero(3)}).values == {}
    two = CycScalar.rational(3, 2)
    assert StepFunction(K, 1, 1, {(1, 2): two - two}).values == {}


def test_refine_is_sparse():
    # 625 stored cosets out of a 5^8 table
    one = CycScalar.rational(5, 1)
    f = StepFunction(base_field(5), 0, 0, {(): one})
    g = f.refine(4, 4)
    assert len(g.values) == 625
    assert g.equals(f) and f.equals(g)
    assert value_at(g, -4, (0, 0, 0, 0, 1, 2, 3, 4)).eq(one)
    assert value_at(g, -4, (1, 0, 0, 0, 0, 0, 0, 0)).is_zero()


def test_coset_count_invariant():
    for K in SMALL_FIELDS:
        f = random_step_function(K, random.Random(6), coset_cap=128)
        assert len(f.values) <= K.residue_card ** (f.support_bound + f.level)


def test_negate_coset_involution():
    for K in SMALL_FIELDS:
        f = random_step_function(K, random.Random(8), coset_cap=81)
        start = -f.support_bound
        for vec in list(f.values)[:5]:
            assert negate_coset(K, start, negate_coset(K, start, vec)) == vec


# -- an independent oracle for the transform on general step functions -------------


def direct_transform_value(f, xvec):
    """mu(pi^N O) * sum_y f(y) chi(-x y) from field arithmetic and the
    standard character alone.  Any coset representatives will do: x y moves
    by at most pi^(-d) O, where chi is trivial."""
    K = f.field
    Mh, _ = transform_shape(K, f.support_bound, f.level)
    x = LocalElement.from_digits(K, -Mh, xvec)
    total = CycScalar.zero(K.p)
    for yvec, val in f.values.items():
        y = LocalElement.from_digits(K, -f.support_bound, yvec)
        total = total + val * CycScalar(K.p, {standard_character(-(x * y)).r: 1})
    mu = PosRealExact.prime_power(K.p, -K.f * f.level) * local_measure(K)
    return total.scale_measure(mu)


def random_cyc_step_function(K, rng, M, N, max_cosets=5):
    """Values with p-power angles, rational coefficients and a shared
    half-integral measure factor."""
    mf = PosRealExact.prime_power(K.p, Fraction(rng.randint(-2, 2), 2))
    values = {}
    for _ in range(rng.randint(1, max_cosets)):
        vec = tuple(rng.choice(K.residue_reps()) for _ in range(M + N))
        terms = {Fraction(rng.randrange(K.p ** 2), K.p ** 2):
                 Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                 for _ in range(rng.randint(1, 3))}
        values[vec] = CycScalar(K.p, terms, mf)
    return StepFunction(K, M, N, values)


def dense_cyc_step_function(K, rng, M, N, sign=0):
    """Every coset stored, with coefficients up to 10^30 over small
    denominators, angles up to 1/p^3 and a shared half-integral measure
    factor.  With ``sign`` = +1 or -1 every value is a rational of that
    sign, so the transform at 0 collects the whole l1 norm of the scaled
    coefficients in one slot of fourier's packed integers."""
    mf = PosRealExact.prime_power(K.p, Fraction(rng.randint(-3, 3), 2))
    values = {}
    for vec in itertools.product(K.residue_reps(), repeat=M + N):
        if sign:
            terms = {0: Fraction(sign * rng.randint(1, 10 ** 30), rng.choice([1, 2, 3, 7]))}
        else:
            terms = {Fraction(rng.randrange(K.p ** 3), K.p ** 3):
                     Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.choice([1, 2, 3, 7]))
                     for _ in range(rng.randint(1, 3))}
        values[vec] = CycScalar(K.p, terms, mf)
    return StepFunction(K, M, N, values)


ORACLE_FIELDS = [
    base_field(3),                                      # Q_p
    base_field(2, LAURENT),                             # F_p((t))
    validated_quadratics(3, P_ADIC)[0],                 # unramified, f = 2
    quadratic_extension(base_field(3), 0, -3),          # odd ramified, d = 1
    quadratic_extension(base_field(2), 0, 1),           # 2-adic ramified, d = 2
    quadratic_extension(base_field(2), 0, -2),          # 2-adic ramified, d = 3
]


@pytest.mark.parametrize("K", ORACLE_FIELDS, ids=lambda K: K.describe())
def test_fourier_matches_direct_character_sum(K):
    rng = random.Random(K.describe())
    shapes = [(0, 0), (0, 0)] + [
        (M, N) for M in range(-1, 3) for N in range(-1, 3)
        if M + N >= 0 and K.residue_card ** (M + N) <= 27] * 2
    functions = [StepFunction(K, 1, 0, {})]
    functions += [random_cyc_step_function(K, rng, M, N) for M, N in shapes]
    functions += [random_step_function(K, rng, coset_cap=27) for _ in range(4)]
    functions += [dense_cyc_step_function(K, rng, M, N, sign)
                  for M, N in sorted(set(shapes)) for sign in (0, 1, -1)]
    for f in functions:
        g = fourier(f)
        assert (g.support_bound, g.level) == transform_shape(K, f.support_bound, f.level)
        for xvec in iter_cosets(g):
            want = direct_transform_value(f, xvec)
            got = g.values.get(xvec)
            if want.is_zero():
                assert got is None, (K.describe(), f.support_bound, f.level, xvec)
            else:
                assert got is not None and got.eq(want), \
                    (K.describe(), f.support_bound, f.level, xvec)


def test_fourier_refinement_invariant_at_benchmark_size():
    # the direct oracle is too slow at the benchmark's cap of 81 cosets; a
    # function and its refinement to one more digit at each end are the same
    # function, so their transforms agree, on the sparse random function and
    # on its dense transform
    rng = random.Random(81)
    for K in local_field_roster((2, 3, 5)):
        f = random_step_function(K, rng, coset_cap=81)
        for g in (f, fourier(f)):
            refined = g.refine(g.support_bound + 1, g.level + 1)
            assert fourier(refined).equals(fourier(g)), K.describe()


def test_double_transform_is_two_transforms():
    # verify_inversion's round trip F^-1(F f) runs the transform's digit
    # passes and then the conjugate transform's over one packed table, with
    # the slot width from an a-priori bound; re-keyed through the reflection
    # x -> -x, it equals two single transforms field for field, in product
    # order, on sparse and dense inputs (coefficients up to 10^30, all three
    # signs), on transforms and on the zero function
    for K in dict.fromkeys(ORACLE_FIELDS + local_field_roster((2, 3, 5))):
        rng = random.Random(K.describe())
        shapes = [(M, N) for M in range(-1, 3) for N in range(-1, 3)
                  if M + N >= 0 and K.residue_card ** (M + N) <= 27]
        functions = [StepFunction(K, 1, 0, {})]
        functions += [random_cyc_step_function(K, rng, M, N) for M, N in shapes]
        functions += [dense_cyc_step_function(K, rng, M, N, sign)
                      for M, N in shapes for sign in (0, 1, -1)]
        functions += [fourier(f) for f in functions]
        for f in functions:
            want, got = fourier(fourier(f)), round_trip(f)
            where = (K.describe(), f.support_bound, f.level)
            assert (got.support_bound, got.level) == (want.support_bound, want.level), where
            start = -want.support_bound
            reflected = {negate_coset(K, start, k): v for k, v in want.values.items()}
            assert list(got.values) == [k for k in iter_cosets(f) if k in reflected], where
            for k, u in got.values.items():
                v = reflected[k]
                assert (u.D, list(u.coeffs.items()), u.den, u.measure_factor) == \
                    (v.D, list(v.coeffs.items()), v.den, v.measure_factor), where


@pytest.mark.parametrize("K", ORACLE_FIELDS, ids=lambda K: K.describe())
def test_inversion_on_dense_functions(K):
    # every coset stored, coefficients up to 10^30 with all three signs, and
    # their dense transforms: the packed comparison passes, checking each
    # stored coset, and fails once one coset is raised by 1
    rng = random.Random(K.describe())
    shapes = [(M, N) for M in range(-1, 3) for N in range(-1, 3)
              if M + N >= 0 and K.residue_card ** (M + N) <= 27]
    functions = [dense_cyc_step_function(K, rng, M, N, sign)
                 for M, N in shapes for sign in (0, 1, -1)]
    functions += [fourier(f) for f in functions]
    for f in functions:
        where = (K.describe(), f.support_bound, f.level)
        rep = verify_inversion(f)
        assert rep.passed and rep.cosets_checked == len(f.values), where
        key = next(iter(f.values))
        vals = {**f.values, key: f.values[key] + CycScalar.rational(K.p, 1).scale_measure(
            f.measure_factor)}
        bad = verify_inversion(f, double_transform=StepFunction(K, f.support_bound, f.level, vals))
        assert not bad.passed and [w[0] for w in bad.witnesses] == [key], where


# sha256 of the JSON of the transforms below, recorded when every scalar was
# a table of Fraction angles and coefficients: the integer form must print
# the same values
TRANSFORM_DIGEST = "bb4497b9217eb1a4f43990fcf3e0d2d3af1b319dee26a11faa2b965c86c302ef"


def test_transform_json_digest():
    h = hashlib.sha256()
    rng = random.Random(2208)
    for K in local_field_roster():
        functions = [indicator(K, m) for m in range(-2, 3)]
        functions += [random_step_function(K, rng) for _ in range(60)]
        for f in functions:
            g = fourier(f)
            cosets = sorted([list(map(str, k)), v.to_json()] for k, v in g.values.items())
            h.update(json.dumps([K.describe(), g.support_bound, g.level, cosets],
                                sort_keys=True).encode())
    assert h.hexdigest() == TRANSFORM_DIGEST
