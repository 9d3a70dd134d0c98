"""Integration and Fourier transforms of step functions on local fields.

A step function is locally constant and compactly supported: it is stored
as a sparse table of exact values on cosets of pi^N O_v inside pi^(-M) O_v.
Values are :class:`CycScalar`: rational combinations of roots of unity of
p-power order times an exact positive measure factor.  With the measure
normalized by mu(O_v) = p^(-d/2) the Fourier transform is an exact
involution up to reflection, and the classical coset-integral formulas are
reproduced by honest character sums.

A scalar is held in one integer form: (sum over m of c_m zeta_D^m) / den
times the measure factor, with D a power of p and integers c_m and den.  It
is canonical from construction on (see :class:`CycScalar`), so vanishing of
a character sum is decided exactly, by an empty coefficient table.
Step-function tables likewise never store a zero value.

The transform (:func:`fourier`) runs one pass per digit position, summing
out one input digit against the output digits it meets, over a table with
one entry per coset; :func:`verify_inversion` runs its passes and then the
inverse's, with the conjugate character, over one such table.  Inside, a
value's coefficients are packed into one int, the numerators over a common
denominator in fixed-width slots modulo 2^(wD) - 1 (zeta_D -> 2^w), so that
a root of unity is a shift; each output coset is unpacked once into the
integer form above.

Every measure here is a half-integral power of p, and a transform maps a
function whose values share one measure factor to another such function.
So that is an invariant: a step function whose values carry two different
measure factors is refused, and so are sums and comparisons of nonzero
scalars with different factors.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .localfields import (
    LocalElement,
    LocalFieldDesc,
    local_measure,
    negate_digits,
    standard_character,
)
from .values import PosRealExact, exact_rational


class HarmonicError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact scalars: rational sums of p-power roots of unity times a measure
# ---------------------------------------------------------------------------


def _normalize(p: int, D: int, work: Dict[int, int],
               den: int) -> Tuple[int, Dict[int, int], int]:
    """Canonical (D, coeffs, den) of (sum_m work[m] zeta_D^m) / den.

    D is a power of p, ``work`` (consumed) maps exponents in [0, D) to ints
    and den > 0.  Exponents >= (p-1)*D/p are rewritten through the
    cyclotomic relation 1 + zeta^(D/p) + ... + zeta^((p-1)D/p) = 0, which
    cancels exactly the full 1/p-cycles; the rewritten exponents all fall
    below that bound, so one pass suffices.  The power basis of
    Q(zeta_(D/g)) is part of that of Q(zeta_D), so when g divides D and
    every exponent, D/g holds the value; h, the gcd of den and the
    coefficients, is cancelled.  Zero is (1, {}, 1).
    """
    if D > 1:
        step = D // p
        bound = (p - 1) * step
        for m in [m for m in work if m >= bound]:
            c = work.pop(m)
            for j in range(1, p):
                work[m - j * step] = work.get(m - j * step, 0) - c
    coeffs = {m: c for m, c in work.items() if c}
    if not coeffs:
        return 1, {}, 1
    g, h = math.gcd(D, *coeffs), math.gcd(den, *coeffs.values())
    if g > 1 or h > 1:
        coeffs = {m // g: c // h for m, c in coeffs.items()}
    return D // g, coeffs, den // h


class CycScalar:
    """(sum over m of coeffs[m] * zeta_D^m) / den * measure_factor, exact.

    ``D`` is a power of p and zeta_D = e^{2 pi i / D}; ``coeffs`` maps
    exponents m < (p-1)D/p to nonzero ints and ``den`` is an int > 0.
    Canonical by construction: the constructor sums angles equal mod 1,
    folds the terms into the power basis of Q(zeta_D), takes the least such
    D, drops zero coefficients, takes den coprime to the coefficients and
    moves the rational part of the measure factor into them; zero is D = 1,
    no coefficients, den = 1 and measure factor 1.  Under one measure factor
    the form is then unique, and every operation keeps it.  ``terms`` views
    the form as {angle m/D: coefficient c/den}.

    Sums, differences and comparisons need one measure factor: nonzero
    scalars with different factors raise HarmonicError; zero goes with any.
    """

    __slots__ = ("p", "D", "coeffs", "den", "measure_factor")

    def __init__(self, p: int, terms: Dict[Fraction, Fraction],
                 measure_factor: PosRealExact | None = None):
        # a float angle or coefficient would be taken at its binary value
        pairs = [(exact_rational(r), exact_rational(c)) for r, c in terms.items()]
        D = math.lcm(1, *(r.denominator for r, _ in pairs))
        if pow(p, D.bit_length(), D):
            raise HarmonicError(f"angle denominator {D} is not a power of {p}")
        den = math.lcm(1, *(c.denominator for _, c in pairs))
        num, rden, mf = (1, 1, PosRealExact.one()) if measure_factor is None \
            else measure_factor.split_rational()
        work: Dict[int, int] = {}
        for r, c in pairs:
            m = r.numerator * (D // r.denominator) % D
            work[m] = work.get(m, 0) + c.numerator * (den // c.denominator) * num
        self.p = p
        self.D, self.coeffs, self.den = _normalize(p, D, work, den * rden)
        self.measure_factor = mf if self.coeffs else PosRealExact.one()

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, p: int, D: int, coeffs: Dict[int, int], den: int,
              measure_factor: PosRealExact) -> "CycScalar":
        """A scalar from the canonical parts that _normalize returns."""
        obj = object.__new__(cls)
        obj.p, obj.D, obj.coeffs, obj.den = p, D, coeffs, den
        obj.measure_factor = measure_factor if coeffs else PosRealExact.one()
        return obj

    @classmethod
    def zero(cls, p: int) -> "CycScalar":
        return cls.rational(p, 0)

    @classmethod
    def rational(cls, p: int, q) -> "CycScalar":
        q = exact_rational(q)  # canonical as it stands: D = 1, den = q.denominator
        return cls._make(p, 1, {0: q.numerator} if q else {}, q.denominator,
                         PosRealExact.one())

    @classmethod
    def from_posreal(cls, p: int, m: PosRealExact) -> "CycScalar":
        return cls(p, {0: 1}, m)

    # -- canonical form ---------------------------------------------------------

    def canonical(self) -> "CycScalar":
        """The canonical form, which every scalar already is."""
        return self

    @property
    def terms(self) -> Dict[Fraction, Fraction]:
        """A fresh {angle m/D: coefficient c/den} view of the integer form."""
        return {Fraction(m, self.D): Fraction(c, self.den) for m, c in self.coeffs.items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------------------

    def _measure_with(self, other: "CycScalar") -> PosRealExact:
        """The operands' common measure factor; a zero takes the other's."""
        if self.measure_factor == other.measure_factor or not other.coeffs:
            return self.measure_factor
        if not self.coeffs:
            return other.measure_factor
        raise HarmonicError(
            f"incompatible measure factors {self.measure_factor} / {other.measure_factor}")

    def __add__(self, other: "CycScalar") -> "CycScalar":
        # a union of power-basis terms stays in the power basis; the sum
        # may still lie in a smaller field or share a factor with den
        mf = self._measure_with(other)
        D = max(self.D, other.D)
        den = math.lcm(self.den, other.den)
        work: Dict[int, int] = {}
        for x in (self, other):
            s, k = D // x.D, den // x.den
            for m, c in x.coeffs.items():
                work[m * s] = work.get(m * s, 0) + c * k
        return CycScalar._make(self.p, *_normalize(self.p, D, work, den), mf)

    def __neg__(self) -> "CycScalar":
        return self.scale_rational(-1)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self + (-other)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        D = max(self.D, other.D)
        s, t = D // self.D, D // other.D
        num, rden, mf = (self.measure_factor * other.measure_factor).split_rational()
        work: Dict[int, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1 * s + m2 * t) % D
                work[m] = work.get(m, 0) + c1 * c2 * num
        return CycScalar._make(self.p, *_normalize(
            self.p, D, work, self.den * other.den * rden), mf)

    def scale_rational(self, q) -> "CycScalar":
        return self * CycScalar.rational(self.p, q)

    def scale_measure(self, m: PosRealExact) -> "CycScalar":
        return self * CycScalar.from_posreal(self.p, m)

    def eq(self, other: "CycScalar") -> bool:
        self._measure_with(other)
        return (self.D, self.den, self.coeffs) == (other.D, other.den, other.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.eq(other)

    __hash__ = None  # type: ignore[assignment]

    def to_json(self) -> dict:
        terms = sorted(self.terms.items())
        return {
            "angles": [[r.numerator, r.denominator] for r, _ in terms],
            "coefficients": [str(c) for _, c in terms],
            "measure_factor": {str(q): str(e) for q, e in
                               sorted(self.measure_factor.exponents.items())},
        }

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        body = " + ".join(f"({co})e({r})" for r, co in sorted(self.terms.items()))
        if self.measure_factor.is_one():
            return body
        return f"[{body}] * {self.measure_factor}"


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

DigitVec = Tuple


@dataclass(frozen=True)
class StepFunction:
    """Locally constant compactly supported function on a local field.

    Supported in pi^(-M) O_v, constant on cosets of pi^N O_v.  ``values``
    maps canonical digit vectors (positions -M .. N-1, lowest lifts) to
    nonzero scalars with one measure factor; missing cosets are zero, and
    zero values are dropped.
    """

    field: LocalFieldDesc
    support_bound: int
    level: int
    values: Dict[DigitVec, CycScalar] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.support_bound + self.level < 0:
            raise HarmonicError(
                f"support bound {self.support_bound} + level {self.level} < 0")
        values = {k: v for k, v in self.values.items() if v.coeffs}
        object.__setattr__(self, "values", values)
        mf = self.measure_factor
        if any(v.measure_factor != mf for v in values.values()):
            raise HarmonicError("step function values with different measure factors")

    @property
    def measure_factor(self) -> PosRealExact:
        """The measure factor of every stored value; 1 when none is stored."""
        for v in self.values.values():
            return v.measure_factor
        return PosRealExact.one()

    @property
    def length(self) -> int:
        return self.support_bound + self.level

    def refine(self, M2: int, N2: int) -> "StepFunction":
        """The same function on the finer (M2, N2) table: each stored coset
        becomes its zero-padded head followed by every digit tail."""
        if M2 < self.support_bound or N2 < self.level:
            raise HarmonicError("refinement must not coarsen the table")
        zero = 0 if self.field.f == 1 else (0, 0)
        head = (zero,) * (M2 - self.support_bound)
        tails = list(itertools.product(self.field.residue_reps(), repeat=N2 - self.level))
        return StepFunction(self.field, M2, N2, {head + vec + tail: v
                                                 for vec, v in self.values.items()
                                                 for tail in tails})

    def equals(self, other: "StepFunction") -> bool:
        if self.field != other.field:
            return False
        M = max(self.support_bound, other.support_bound)
        N = max(self.level, other.level)
        a, b = self.refine(M, N).values, other.refine(M, N).values
        return a.keys() == b.keys() and all(v.eq(b[k]) for k, v in a.items())


def indicator(field: LocalFieldDesc, m: int) -> StepFunction:
    """The characteristic function of pi^m O_v (value 1)."""
    return StepFunction(field, -m, m, {(): CycScalar.rational(field.p, 1)})


def coset_measure(field: LocalFieldDesc, level: int) -> PosRealExact:
    """mu(pi^level O_v) = (#k)^(-level) * mu(O_v)."""
    return PosRealExact.prime_power(field.p, -field.f * level) * local_measure(field)


def character_coset_integral(field: LocalFieldDesc, m: int) -> CycScalar:
    """The integral of the standard character over pi^m O_v.

    The character is additive and trivial precisely on the inverse different
    pi^(-d) O_v (d the different exponent), so with top = max(m, -d) + 1 the
    integral is mu(pi^top O_v) times the product over positions s in
    [m, top) of the one-digit character sums.  For m >= -d that is #k
    mu(pi^(m+1) O_v) = (#k)^(-m) mu(O_v); below it the sum at s = -d - 1
    cancels to exact zero.  The product runs from s = top - 1 down, so that
    zero comes second and the partial products stay small.
    """
    top = max(m, -field.different_exponent) + 1
    total = CycScalar.from_posreal(field.p, coset_measure(field, top))
    for s in range(top - 1, m - 1, -1):
        A = _kernel_angles(field, s)  # angles of chi(-c pi^s)
        total = total * CycScalar(field.p, Counter(
            -(dg * A[0] if field.f == 1 else dg[0] * A[0] + dg[1] * A[1]) % 1
            for dg in field.residue_reps()))
    return total


# ---------------------------------------------------------------------------
# the Fourier transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _kernel_angles(field: LocalFieldDesc, s: int) -> Tuple[Fraction, ...]:
    """Angles of chi(-c * pi^s) for c = 1, theta, theta^2 (only c = 1 when
    the field has degree 1)."""
    pis = LocalElement.from_digits(field, s, [1 if field.f == 1 else (1, 0)])
    if field.rel_degree == 1:
        return (standard_character(-pis).r,)
    theta = LocalElement.from_coords(field, 0, 1)
    return tuple(standard_character(-(c * pis)).r
                 for c in (LocalElement.one(field), theta, theta * theta))


def transform_shape(field: LocalFieldDesc, M: int, N: int) -> Tuple[int, int]:
    """(support bound, level) of the transform of an (M, N) step function.

    The support bound grows by the different exponent; the level is the
    sharp one (the transform of a support-M function is invariant under
    translation by pi^(M-d) O_v).
    """
    d = field.different_exponent
    return (N + d, M - d)


@lru_cache(maxsize=256)
def _digit_plan(field: LocalFieldDesc, n: int):
    """(Dk, diag, twiddles, reversal): the shape-only data of an n-digit
    transform.  pair[q][a][b] is Dk times the angle of chi(-lift(a) lift(b)
    pi^(-d-1-q)), symmetric in a and b, and diag = pair[0]; twiddles[t][P][b]
    is the sum over k < t of pair[t - k][a_k][b] for the output digits
    P = (a_0, ..., a_(t-1)), in product order, which reversal reverses."""
    d = field.different_exponent
    reps = field.residue_reps()
    kernels = [_kernel_angles(field, -d - 1 - q) for q in range(n)]
    Dk = math.lcm(1, *(r.denominator for A in kernels for r in A))
    # lift(a) lift(b) = a0 b0 + (a0 b1 + a1 b0) theta + a1 b1 theta^2
    lifts = [(r, 0) if field.f == 1 else r for r in reps]
    pair = []
    for A in kernels:
        A0, A1, A2 = [r.numerator * (Dk // r.denominator) for r in A] + [0] * (3 - len(A))
        pair.append([[(a0 * (b0 * A0 + b1 * A1) + a1 * (b0 * A1 + b1 * A2)) % Dk
                      for b0, b1 in lifts] for a0, a1 in lifts])
    twiddles = []
    for t in range(n):
        tw = [[0] * len(reps)]
        for k in range(t):
            tw = [[x + y for x, y in zip(row, col)] for row in tw for col in pair[t - k]]
        twiddles.append(tuple(tuple(x % Dk for x in row) for row in tw))
    reversal = tuple(sum(x * len(reps) ** j for j, x in enumerate(ds))
                     for ds in itertools.product(range(len(reps)), repeat=n))
    # tuples: the cache hands one result to every caller
    return Dk, tuple(map(tuple, pair[0])) if n else (), tuple(twiddles), reversal


@lru_cache(maxsize=256)
def _transform_scale(field: LocalFieldDesc, level: int, mf: PosRealExact):
    """mf * mu(pi^level O_v) as (numerator, denominator, residual measure)."""
    return (mf * coset_measure(field, level)).split_rational()


def fourier(f: StepFunction) -> StepFunction:
    """The Fourier transform integral f(y) chi(-x y) dy, exactly.

    Linear in f; on indicators it reproduces the closed form
    (#k)^(-m) mu(O) * indicator(-m - d).  Computed by _transform, whose
    packed digit passes verify_inversion follows with the inverse's.
    """
    return _transform(f, twice=False)


def _transform(f: StepFunction, twice: bool) -> StepFunction:
    """fourier(f), or F^-1(fourier(f)) when ``twice``: one pack, one decode.

    Number the n = M + N output digits a_k from the shallowest and the input
    digits b_l from the deepest.  The angle of chi(-x y) is the sum over k, l
    of a_k^T K(-d - 1 + k - l) b_l (K from _kernel_angles), which vanishes
    for l < k, where chi is trivial.  So pass t sums out b_t against
    a_0..a_t, Cooley-Tukey on the digit filtration, over a table of one
    entry per coset.  The table is packed in product order and digit-reversed
    before each transform, so pass t reads b_t as its most significant digit
    and appends a_t as its least, and the outputs end in product order; zero
    entries are skipped, so a sparse input costs little until the table fills.
    Twice, F^-1 follows at the first's level and residual, its shifts negated.

    A value is one int modulo 2^(wD) - 1 with coefficient c_m in slot m of
    w bits (zeta_D -> 2^w): times zeta^j is a shift by w j and a fold.
    An output is then reduced modulo Phi_D(2^w), the cyclotomic fold, and
    its slots decode once.  A coefficient there is the difference of two
    slots, each a signed sum of scaled input coefficients, so it stays
    within their l1 norm, and with 2^(w-1) above that norm the biased slots
    decode exactly.  Twice, the slots of each of the R^n middle values sum to
    at most num1 l1, l1 the input's norm, so w comes from num1 num2 R^n l1;
    never from the expected f, which would assume the identity checked.
    """
    field, p, n = f.field, f.field.p, f.length
    reps = field.residue_reps()
    R = len(reps)
    Dk, diag, twiddles, reversal = _digit_plan(field, n)
    vals = f.values
    D = math.lcm(p, Dk, *(v.D for v in vals.values()))
    L = math.lcm(1, *(v.den for v in vals.values()))
    num, den, residual, shape = 1, L, f.measure_factor, (f.support_bound, f.level)
    for _ in range(1 + twice):  # the rational part of each mf * mu scales the input
        k, h, residual = _transform_scale(field, shape[1], residual)
        num, den, shape = num * k, den * h, transform_shape(field, *shape)
    l1 = sum(L // v.den * sum(map(abs, v.coeffs.values())) for v in vals.values())
    w = (num * R ** (n * twice) * l1).bit_length() + 1
    wD = w * D
    mod = (1 << wD) - 1
    T = [0] * R ** n
    for yvec, v in vals.items():
        i = sum(reps.index(dg) * R ** k for k, dg in enumerate(reversed(yvec)))
        ws = w * (D // v.D)
        T[i] = L // v.den * num * sum(c << ws * m for m, c in v.coeffs.items()) % mod

    H = R ** n // R
    for sgn in (1, -1)[:1 + twice]:  # F, then F^-1 with the kernel chi(+x y)
        s = sgn * w * (D // Dk)  # signed bits per angle unit 1/Dk
        sdiag = [[s * x for x in row] for row in diag]
        T = [T[i] for i in reversal]
        for tw in twiddles:
            stride = len(tw)
            new = [0] * len(T)
            for i, x in enumerate(T):
                if x:
                    b, rest = divmod(i, H)
                    x = (x & mod) + (x >> wD)
                    u = s * tw[rest % stride][b]
                    base = rest * R
                    for a, sh in enumerate(sdiag[b]):
                        new[base + a] += x << (u + sh) % wD
            T = new

    # modulo Phi_D(2^w), D >= p, a value lands in the power basis of
    # Q(zeta_D), its exponents below B = (p-1)D/p, so a zero value is 0
    B = D - D // p
    phi = mod // ((1 << wD // p) - 1)
    half = 1 << (w - 1)
    bias = half * (((1 << w * B) - 1) // ((1 << w) - 1))  # half in each slot < B
    slot = (1 << w) - 1
    out_values: Dict[DigitVec, CycScalar] = {}
    for xvec, v in zip(itertools.product(reps, repeat=n), T):
        z = (v + bias) % phi
        if z != bias:
            work = {m: c for m in range(B) if (c := (z >> w * m & slot) - half)}
            out_values[xvec] = CycScalar._make(p, *_normalize(p, D, work, den), residual)
    return StepFunction(field, *shape, out_values)


@lru_cache(maxsize=200_000)
def negate_coset(field: LocalFieldDesc, start: int, vec: DigitVec) -> DigitVec:
    """Digit vector of the negative of a coset representative: the tests'
    reflection oracle for f^^(x) = f(-x), and a cache perfbench's spans name."""
    return negate_digits(field, start, vec)


@dataclass
class InversionReport:
    field: LocalFieldDesc
    passed: bool
    cosets_checked: int
    witnesses: List[Tuple[DigitVec, str, str]]

    def to_json(self) -> dict:
        return {
            "field": self.field.describe(),
            "pass": self.passed,
            "cosets_checked": self.cosets_checked,
            "witnesses": [
                {"coset": list(map(str, w[0])), "lhs": w[1], "rhs": w[2]}
                for w in self.witnesses[:5]
            ],
        }


def verify_inversion(f: StepFunction,
                     double_transform: StepFunction | None = None) -> InversionReport:
    """Check F^-1(F f) = f pointwise as exact scalars, on f's own table.

    F^-1 uses the conjugate character chi(+x y), so this is Tate's inversion
    f^^(x) = f(-x) with no coset negated; ``double_transform`` replaces the
    round trip made by _transform (negative controls) and needs f's shape.
    """
    g = double_transform if double_transform is not None else _transform(f, twice=True)
    if (g.support_bound, g.level) != (f.support_bound, f.level):
        raise HarmonicError(f"double transform has shape {(g.support_bound, g.level)}, "
                            f"not {(f.support_bound, f.level)}")
    keys = f.values.keys() | g.values.keys()
    zero = CycScalar.zero(f.field.p)
    witnesses = []
    for k in sorted(keys):
        lhs, rhs = f.values.get(k, zero), g.values.get(k, zero)
        if not lhs.eq(rhs):
            witnesses.append((k, repr(lhs), repr(rhs)))
    return InversionReport(f.field, not witnesses, len(keys), witnesses)


def random_step_function(field: LocalFieldDesc, rng,
                         coset_cap: int = 256) -> StepFunction:
    """A random sparse step function with M, N <= 2 and 1..10 stored cosets.

    The coset count (#k)^(M+N) is capped so double transforms stay cheap.
    """
    R = field.residue_card
    shapes = [(m, n) for m in range(3) for n in range(3) if R ** (m + n) <= coset_cap]
    M, N = rng.choice(shapes)
    reps = field.residue_reps()
    values: Dict[DigitVec, CycScalar] = {}
    for _ in range(rng.randint(1, 10)):
        vec = tuple(rng.choice(reps) for _ in range(M + N))
        num = rng.choice([x for x in range(-9, 10) if x])
        den = rng.choice([1, 1, 2, 3, 4])
        values[vec] = CycScalar.rational(field.p, Fraction(num, den))
    return StepFunction(field, M, N, values)
