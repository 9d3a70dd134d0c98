import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adelic.globalfields import INFINITY, Divisor, GlobalFieldDesc, places_above, principal_idele
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


def is_rational(x):
    return all(e.denominator == 1 for e in x.exponents.values())


def as_fraction(x):
    """The exact rational value of a PosRealExact; raises if any exponent
    is fractional."""
    if not is_rational(x):
        raise ValueError(f"{x} is irrational")
    out = Fraction(1)
    for p, e in x.exponents.items():
        out *= Fraction(p) ** int(e)
    return out


def test_posreal_from_rational_roundtrip():
    x = PosRealExact.from_rational(Fraction(8, 45))
    assert x.exponents == {2: Fraction(3), 3: Fraction(-2), 5: Fraction(-1)}
    assert as_fraction(x) == Fraction(8, 45)


def test_posreal_mul_pow():
    a = PosRealExact.prime_power(2, Fraction(-3, 2))
    b = PosRealExact.prime_power(2, Fraction(3, 2))
    assert (a * b).is_one()
    assert as_fraction(a ** 2) == Fraction(1, 8)
    assert float(a) == pytest.approx(2 ** -1.5)


def test_posreal_irrational_guard():
    a = PosRealExact.prime_power(5, Fraction(1, 2))
    assert not is_rational(a)
    with pytest.raises(ValueError):
        as_fraction(a)


rationals = st.fractions(
    min_value=Fraction(1, 720), max_value=Fraction(720), max_denominator=720
)


@given(rationals, rationals)
def test_posreal_mul_is_homomorphic(a, b):
    pa = PosRealExact.from_rational(a)
    pb = PosRealExact.from_rational(b)
    assert as_fraction(pa * pb) == a * b


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
    # a float exponent would print as an exact-symbolic binary fraction; the
    # arithmetic's unchecked paths take only what these entries let through
    x = PosRealExact({2: Fraction(1, 3), 5: -2})
    pl, = places_above(GlobalFieldDesc.rational_function_field(3), INFINITY)
    for bad in (0.1, 2.0, Decimal("0.5"), 1j, "2"):
        entries = [
            lambda: LogValue({2: 1}) * bad,
            lambda: bad * LogValue({2: 1}),
            lambda: LogValue({2: bad}),
            lambda: PosRealExact({3: bad}),
            lambda: PosRealExact.prime_power(3, bad),
            lambda: PosRealExact.from_rational(bad),
            lambda: x ** bad,
            lambda: PosRealExact.one() ** bad,
            # a divisor's finite coefficient pairs with log #k_v
            lambda: Divisor.make(pl.field, {pl: bad}).degree(),
        ]
        for i, entry in enumerate(entries):
            with pytest.raises(TypeError):
                entry()
                pytest.fail(f"entry {i} took {bad!r}")


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


def _stored(x):
    """The exponents x stores, checked against the invariant."""
    e = x.exponents
    assert all(type(c) is Fraction and c != 0 for c in e.values()), e
    return e


@settings(derandomize=True, database=None)
@given(prime_maps, prime_maps, st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.integers(min_value=-5, max_value=5))
def test_trusted_arithmetic_keeps_the_invariant(xm, ym, k, n):
    x, y = PosRealExact(xm), PosRealExact(ym)
    one = PosRealExact.one()
    # y's first primes cancel x's exactly in x * z
    zm = {**ym, **{p: -e for p, e in list(xm.items())[:2]}}
    z = PosRealExact(zm)
    merged = {p: Fraction(xm.get(p, 0)) + Fraction(zm.get(p, 0)) for p in {**xm, **zm}}
    assert _stored(x * z) == _stored(PosRealExact(merged))
    for w in (x * x ** -1, x ** -1 * x, x / x, (x * y) / (y * x), x ** 0, x ** Fraction(0),
              one ** k, one * one, (x ** k) ** 0):
        assert w == one and hash(w) == hash(one) and _stored(w) == {} and w.is_one()
    assert x * one == x == one * x
    if not x.is_one():  # a product with 1 is the other operand itself
        assert x * one is x and one * x is x
    assert x ** -1 == x ** Fraction(-1) == one / x == PosRealExact({p: -e for p, e in xm.items()})
    assert x ** 0 == x ** Fraction(0) == one
    for w, ref in ((x ** k, {p: Fraction(e) * k for p, e in xm.items()}),
                   (x ** n, {p: Fraction(e) * n for p, e in xm.items()}),
                   (x / y, {p: Fraction(xm.get(p, 0)) - Fraction(ym.get(p, 0))
                            for p in {**xm, **ym}})):
        assert _stored(w) == _stored(PosRealExact(ref))
        assert w == PosRealExact(ref) and hash(w) == hash(PosRealExact(ref))


reals = st.one_of(st.none(), st.just(0.0), st.just(-0.0),
                  st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, database=None)
@given(prime_maps, prime_maps, reals, reals)
def test_logvalue_sub_is_add_of_negation(xm, ym, ra, rb):
    a, b = LogValue(xm, ra), LogValue(ym, rb)
    d, s = a - b, a + (-b)
    assert _stored(d._x) == s.coeffs
    assert d.real.hex() == s.real.hex()  # the same bits, the sign of zero included
    assert d.to_json() == s.to_json()
    assert d.to_json()["provenance"] == ("float" if rb is not None or ra is not None
                                         else "exact-symbolic")


# -- the integer form against the old Fraction-map arithmetic ---------------------


def oracle_mul(a, b):
    """The product of two exponent maps, as Fraction-valued dicts."""
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, 0) + e
    return {p: e for p, e in out.items() if e}


def oracle_pow(a, k):
    return {p: e * k for p, e in a.items()} if k else {}


def oracle_split(a):
    """m = ratio * residual, ratio rational and residual exponents in [0, 1)."""
    ratio, residual = Fraction(1), {}
    for q, e in a.items():
        k = math.floor(e)
        ratio *= Fraction(q) ** k
        if e != k:
            residual[q] = e - k
    return ratio, residual


def oracle_float(a, real=0.0):
    return math.fsum(float(c) * math.log(p) for p, c in a.items()) + real


def canonical(x, ref):
    """x is the value with exponent map ``ref`` in its unique integer form:
    d the least common denominator (1 when every exponent is an integer),
    hence coprime to the numerators, and no zero numerator."""
    d = math.lcm(1, *(e.denominator for e in ref.values()))
    assert (x._n, x._d) == ({p: int(e * d) for p, e in ref.items()}, d)
    assert all(type(n) is int and n for n in x._n.values())
    assert math.gcd(x._d, *x._n.values()) == 1
    assert x.exponents == ref
    return x


exponent = st.one_of(st.integers(min_value=-6, max_value=6),
                     st.fractions(min_value=-6, max_value=6, max_denominator=12))
mixed_maps = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 97]), exponent, max_size=4)


@settings(derandomize=True, database=None, max_examples=300)
@given(mixed_maps, mixed_maps, st.integers(min_value=-5, max_value=5),
       st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.floats(min_value=-1e3, max_value=1e3))
def test_integer_form_matches_fraction_maps(xm, ym, n, k, real):
    X = {p: Fraction(e) for p, e in xm.items() if e}
    Y = {p: Fraction(e) for p, e in ym.items() if e}
    x, y = canonical(PosRealExact(xm), X), canonical(PosRealExact(ym), Y)
    for w, ref in ((x * y, oracle_mul(X, Y)),
                   (x / y, oracle_mul(X, oracle_pow(Y, -1))),
                   (y / x, oracle_mul(Y, oracle_pow(X, -1))),
                   (x ** n, oracle_pow(X, n)),
                   (x ** k, oracle_pow(X, k)),
                   ((x * y) / y, X)):
        canonical(w, ref)
        # one value, one hash, however it was reached
        assert w == PosRealExact(ref) and hash(w) == hash(PosRealExact(ref))
        v = LogValue(w, real)
        assert float(w.log()).hex() == oracle_float(ref).hex()
        assert float(v).hex() == oracle_float(ref, real).hex()
        assert v.to_json()["symbolic"] == [[p, str(c)] for p, c in sorted(ref.items())]
    num, den, residual = x.split_rational()
    ratio, rest = oracle_split(X)
    assert Fraction(num, den) == ratio and (num, den) == (ratio.numerator, ratio.denominator)
    canonical(residual, rest)


def test_one_is_shared():
    # the unit is immutable, so every caller gets the same object
    one = PosRealExact.one()
    assert one is PosRealExact.one() is LogValue.of_real(0.5)._x
    x = PosRealExact({2: Fraction(1, 2)})
    assert x ** 0 is one and (x ** 2).split_rational()[2] is one


def test_bases_are_int_primes():
    # a base is an int prime: 4 is not 2^2 under another name, 6 is not a
    # prime, and 2.5, 2.0 and True are not ints to be truncated or compared
    for bad in ({4: 1}, {6: Fraction(1, 2)}, {1: 1}, {0: 1}, {-3: 1}, {9: 0}):
        with pytest.raises(ValueError):
            PosRealExact(bad)
    for bad in ({2.5: 1}, {2.0: 1}, {2.0: Fraction(1, 2)}, {True: 1}, {"2": 1}):
        with pytest.raises(TypeError):
            PosRealExact(bad)
        with pytest.raises(TypeError):
            LogValue(bad, 0.5)
    with pytest.raises(ValueError):
        LogValue({2: 1, 15: 1})
    with pytest.raises(ValueError):
        PosRealExact.prime_power(49, 1)
    big = 10000000000000000051  # a prime past 2^63
    x = PosRealExact({big: 1, 2: Fraction(-1, 2)})
    assert x == PosRealExact({2: Fraction(-1, 2), big: 1}) and x.exponents[big] == 1
    assert hash(PosRealExact({2: 2})) == hash(PosRealExact.from_rational(4))


def test_reprs_match_the_fraction_views():
    # the reprs are read from the integer numerators, as str(Fraction) would be
    x = PosRealExact({2: Fraction(-3, 2), 3: 1, 5: Fraction(4, 6)})
    assert x._d == 6
    assert repr(x) == " * ".join(f"{p}^{e}" for p, e in sorted(x.exponents.items()))
    assert repr(x) == "2^-3/2 * 3^1 * 5^2/3"
    v = LogValue(x, 0.25)
    assert repr(v) == "(-3/2)*log2 + (1)*log3 + (2/3)*log5 + 0.25"
    assert repr(LogValue({7: -1})) == "(-1)*log7" and repr(LogValue()) == "0.0"
