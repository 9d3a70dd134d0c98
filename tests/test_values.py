import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adelic.globalfields import GlobalFieldDesc, principal_idele
from adelic.values import LogValue, PosRealExact, PrimalityUnproven, factorize, is_prime


def test_factorize_basics():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    n = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]
    # either side of 10^6, and 1000001 = 101 * 9901
    assert is_prime(999983) and is_prime(1000003) and not is_prime(1000001)
    # Carmichael numbers and strong pseudoprimes to small bases
    for k in (561, 41041, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(k), k
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 15 + 37)
    # from 3.3e24 on a witness still proves compositeness, but passing all
    # 13 bases does not prove primality
    assert not is_prime(2 ** 90)
    with pytest.raises(PrimalityUnproven):
        is_prime(2 ** 89 - 1)


def trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def test_factorize_matches_trial_division():
    for n in range(1, 20001):
        assert factorize(n) == trial_division(n), n
    rng = random.Random(11)
    primes = [p for p in range(10 ** 7, 10 ** 7 + 400) if trial_division(p) == {p: 1}]
    for _ in range(20):
        p, q = rng.choice(primes), rng.choice(primes)
        assert factorize(p * q) == ({p: 2} if p == q else {min(p, q): 1, max(p, q): 1})
    # a square beyond trial division: rho would need about sqrt(p) steps
    assert factorize((10 ** 9 + 7) ** 2) == {10 ** 9 + 7: 2}
    assert factorize(10 ** 15 + 3) == {14902357: 1, 67103479: 1}
    # past 3.3e24, with a prime near 10^19 as one factor
    assert factorize(1000003 * 10000000000000000051) == {1000003: 1, 10000000000000000051: 1}


@pytest.mark.parametrize("work", [
    lambda: principal_idele(GlobalFieldDesc.quadratic(-1), (10000044, 1)),  # prime norm
    lambda: factorize(99999999999973),
    lambda: GlobalFieldDesc.quadratic(100000000000031),
    lambda: factorize(1000003 * 10000000000000000051),
], ids=["principal-idele", "factorize", "quadratic", "factorize-past-mr-limit"])
def test_large_integers_are_fast(work):
    t = time.perf_counter()
    work()
    assert time.perf_counter() - t < 0.2


def test_posreal_from_rational_roundtrip():
    x = PosRealExact.from_rational(Fraction(8, 45))
    assert x.exponents == {2: Fraction(3), 3: Fraction(-2), 5: Fraction(-1)}
    assert x.as_fraction() == Fraction(8, 45)


def test_posreal_mul_pow():
    a = PosRealExact.prime_power(2, Fraction(-3, 2))
    b = PosRealExact.prime_power(2, Fraction(3, 2))
    assert (a * b).is_one()
    assert (a ** 2).as_fraction() == Fraction(1, 8)
    assert float(a) == pytest.approx(2 ** -1.5)


def test_posreal_irrational_guard():
    a = PosRealExact.prime_power(5, Fraction(1, 2))
    assert not a.is_rational()
    with pytest.raises(ValueError):
        a.as_fraction()


rationals = st.fractions(
    min_value=Fraction(1, 720), max_value=Fraction(720), max_denominator=720
)


@given(rationals, rationals)
def test_posreal_mul_is_homomorphic(a, b):
    pa = PosRealExact.from_rational(a)
    pb = PosRealExact.from_rational(b)
    assert (pa * pb).as_fraction() == a * b


@given(rationals, rationals)
def test_log_is_additive(a, b):
    pa = PosRealExact.from_rational(a)
    pb = PosRealExact.from_rational(b)
    lhs = (pa * pb).log()
    rhs = pa.log() + pb.log()
    assert lhs.coeffs == rhs.coeffs
    assert float(lhs) == pytest.approx(float(pa.log()) + float(pb.log()))


def test_logvalue_equality_tolerance():
    a = LogValue({2: Fraction(1)}, 0.5)
    b = LogValue({2: Fraction(1)}, 0.5 + 1e-12)
    c = LogValue({2: Fraction(1)}, 0.51)
    d = LogValue({3: Fraction(1)}, 0.5)
    assert a.eq(b)
    assert not a.eq(c)
    assert not a.eq(d)  # symbolic part must match exactly
    assert a.eq(c, tol=0.1)


def test_logvalue_scaling_and_float():
    v = LogValue({2: 2, 3: 1})  # log 12 = 2 log2 + log3
    assert v.coeffs == {2: Fraction(2), 3: Fraction(1)}
    import math
    assert float(v) == pytest.approx(math.log(12))
    half = v * Fraction(1, 2)
    assert float(half) == pytest.approx(0.5 * math.log(12))


def test_logvalue_json_provenance():
    sym = LogValue({2: Fraction(-1, 2)})
    assert sym.to_json()["provenance"] == "exact-symbolic"
    fl = LogValue({}, 0.25)
    assert fl.to_json(1e-10)["provenance"] == "float(1e-10)"
    assert fl.to_json(1e-10)["real"] == 0.25


def test_exponents_and_scale_factors_must_be_rational():
    # a float exponent would print as an exact-symbolic binary fraction
    with pytest.raises(TypeError):
        LogValue({2: 1}) * 0.1
    with pytest.raises(TypeError):
        LogValue({2: 0.1})
    with pytest.raises(TypeError):
        PosRealExact({3: 0.1})


prime_maps = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 97]),
    st.fractions(min_value=-6, max_value=6, max_denominator=12), max_size=4)


def _clean(v):
    assert all(type(c) is Fraction and c != 0 for c in v.coeffs.values())
    return v


@settings(derandomize=True, database=None)
@given(prime_maps, prime_maps, st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.booleans())
def test_logvalue_is_the_log_of_a_posreal(xm, ym, k, real):
    x, y = PosRealExact(xm), PosRealExact(ym)
    assert LogValue(x) == LogValue(x.exponents) == x.log()
    s = _clean(x.log() + y.log())
    assert s.coeffs == (x * y).exponents
    assert _clean(x.log() * k) == (x ** k).log()
    assert _clean(-x.log()) == (PosRealExact.one() / x).log()
    assert _clean(x.log() - x.log()).coeffs == {}
    exact = [x.log() + y.log(), x.log() * k, -x.log(), x.log() - y.log()]
    assert {v.to_json()["provenance"] for v in exact} == {"exact-symbolic"}
    r = LogValue(y, 0.5) if real else LogValue.of_real(0.0)
    mixed = [x.log() + r, r + x.log(), r * k, -r, x.log() - r]
    assert {v.to_json()["provenance"] for v in mixed} == {"float"}
