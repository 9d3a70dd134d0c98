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
one entry per coset; each entry reads one flat row of a plan made once per
(field, number of digits).  :func:`verify_inversion` runs those passes and
then the inverse's, with the conjugate character, over one such table.
Inside, a value's coefficients are packed into one int, the numerators over
a common denominator in fixed-width slots modulo 2^(wD) - 1
(zeta_D -> 2^w), so that a root of unity is a shift.  ``fourier`` unpacks
each output coset once into the integer form above.  ``verify_inversion``
unpacks none: it compares the round trip with f's own packed values modulo
Phi_D(2^w), which is exact because w is taken from a bound on their
difference, and decodes only the cosets that fail, for their witnesses.

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
def _pass_plan(field: LocalFieldDesc, n: int):
    """(Dk, bases, passes, reversal): the shape-only data of an n-digit
    transform.

    pair[q][a][b] is Dk times the angle of chi(-lift(a) lift(b) pi^(-d-1-q)),
    symmetric in a and b.  Pass t reads entry i = b R^(n-1) + rest, b the
    input digit it sums out and the last t digits of rest the output digits
    P = (a_0, ..., a_(t-1)) already found, and adds it to the R entries
    rest R + a at the angles pair[0][b][a] + sum over k < t of
    pair[t - k][a_k][b].  So entry i has one flat row in every pass: its
    output base bases[i] = rest R, the same in each pass, and passes[t][i],
    those R angles mod Dk, one tuple for each (b, P) shared by the entries
    that meet it.  Both signs of the kernel read the same rows.  reversal
    reverses the digits of a product-order index.
    """
    d = field.different_exponent
    reps = field.residue_reps()
    R = len(reps)
    kernels = [_kernel_angles(field, -d - 1 - q) for q in range(n)]
    Dk = math.lcm(1, *(r.denominator for A in kernels for r in A))
    # lift(a) lift(b) = a0 b0 + (a0 b1 + a1 b0) theta + a1 b1 theta^2
    lifts = [(r, 0) if field.f == 1 else r for r in reps]
    pair = []
    for A in kernels:
        A0, A1, A2 = [r.numerator * (Dk // r.denominator) for r in A] + [0] * (3 - len(A))
        pair.append([[(a0 * (b0 * A0 + b1 * A1) + a1 * (b0 * A1 + b1 * A2)) % Dk
                      for b0, b1 in lifts] for a0, a1 in lifts])
    H = R ** n // R
    passes = []
    for t in range(n):
        tw = [[0] * R]  # tw[P][b], P in product order
        for k in range(t):
            tw = [[x + y for x, y in zip(row, col)] for row in tw for col in pair[t - k]]
        angles = [[tuple((x + y) % Dk for y in pair[0][b]) for b, x in enumerate(row)]
                  for row in tw]
        passes.append(tuple(angles[rest % len(tw)][b]
                            for b in range(R) for rest in range(H)))
    bases = tuple(range(0, R * H, R)) * R
    reversal = tuple(sum(x * R ** j for j, x in enumerate(ds))
                     for ds in itertools.product(range(R), repeat=n))
    # tuples: the cache hands one result to every caller
    return Dk, bases, tuple(passes), reversal


@lru_cache(maxsize=1024)
def _scales(field: LocalFieldDesc, shape: Tuple[int, int], mf: PosRealExact,
            rounds: int):
    """(num, den, residual, shape) after ``rounds`` transforms of a function
    of the given shape and measure factor: each scales by its mf * mu(pi^N
    O_v), and their product with the starting mf is num / den * residual."""
    num = den = 1
    residual = mf
    for _ in range(rounds):
        k, h, residual = (residual * coset_measure(field, shape[1])).split_rational()
        num, den, shape = num * k, den * h, transform_shape(field, *shape)
    return num, den, residual, shape


def _l1(f: StepFunction, L: int) -> int:
    """The l1 norm of f's coefficients over the common denominator L."""
    return sum(L // v.den * sum(map(abs, v.coeffs.values())) for v in f.values.values())


def _pack(f: StepFunction, L: int, w: int, D: int) -> Dict[int, int]:
    """{product-order index of a stored coset: L times its value, packed}:
    coefficient c_m of zeta_D^m in slot m of w bits (zeta_D -> 2^w)."""
    index, R = f.field.residue_index, f.field.residue_card
    out = {}
    try:
        for vec, v in f.values.items():
            i = 0
            for dg in vec:
                i = i * R + index[dg]
            if len(vec) != f.length:  # a short key would alias another coset
                raise KeyError(vec)
            ws = w * (D // v.D)
            out[i] = L // v.den * sum(c << ws * m for m, c in v.coeffs.items())
    except KeyError:
        raise HarmonicError(f"{vec} is not a coset of the {(f.support_bound, f.level)} "
                            f"table of {f.field.describe()}") from None
    return out


def _digit_passes(field: LocalFieldDesc, n: int, packed: Dict[int, int], num: int,
                  w: int, D: int, signs: Tuple[int, ...]) -> List[int]:
    """num times the packed table, in product order, after one transform per
    sign: +1 the kernel chi(-x y), -1 its conjugate chi(+x y).

    Values are ints modulo 2^(wD) - 1, so times zeta_D^j is a shift by w j
    and a fold; S maps an angle k/Dk to its shift for the sign.  The table
    is digit-reversed before each transform, so pass t reads b_t as its most
    significant digit and appends a_t as its least, and the outputs end in
    product order; zero entries are skipped, so a sparse input costs little
    until the table fills.
    """
    Dk, bases, passes, reversal = _pass_plan(field, n)
    wD = w * D
    mod = (1 << wD) - 1
    unit = w * (D // Dk)  # bits per angle unit 1/Dk
    T = [0] * len(reversal)
    for i, x in packed.items():
        T[reversal[i]] = num * x % mod
    for r, sgn in enumerate(signs):
        if r:
            T = [T[i] for i in reversal]
        S = [sgn * k * unit % wD for k in range(Dk)]
        for rows in passes:
            new = [0] * len(T)
            for x, j, angles in zip(T, bases, rows):
                if x:
                    x = (x & mod) + (x >> wD)
                    for k in angles:
                        new[j] += x << S[k]
                        j += 1
            T = new
    return T


class _Slots:
    """Reading a packed value modulo Phi_D(2^w), D >= p a power of p.

    There a value lands in the power basis of Q(zeta_D), its exponents
    below B = (p-1)D/p, so it is 0 exactly when the element is, as long as
    every power-basis coefficient is below 2^(w-1) in absolute value: the
    int sum of c_m 2^(wm) then lies strictly between -Phi and Phi.  Under
    the same bound the slots, biased by 2^(w-1), decode exactly.
    """

    __slots__ = ("p", "w", "D", "B", "phi", "half", "bias")

    def __init__(self, p: int, w: int, D: int):
        self.p, self.w, self.D, self.B = p, w, D, D - D // p
        self.phi = ((1 << w * D) - 1) // ((1 << w * D // p) - 1)
        self.half = 1 << (w - 1)
        self.bias = self.half * (((1 << w * self.B) - 1) // ((1 << w) - 1))

    def decode(self, v: int, den: int, residual: PosRealExact) -> CycScalar | None:
        """v / den * residual as a scalar; None when it is zero."""
        z = (v + self.bias) % self.phi
        if z == self.bias:
            return None
        w, half, slot = self.w, self.half, (1 << self.w) - 1
        work = {m: c for m in range(self.B) if (c := (z >> w * m & slot) - half)}
        return CycScalar._make(self.p, *_normalize(self.p, self.D, work, den), residual)


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
    for l < k, where chi is trivial.  So pass t of _digit_passes sums out
    b_t against a_0..a_t, Cooley-Tukey on the digit filtration.  Twice,
    F^-1 follows at the first's level and residual, with the conjugate
    kernel.

    The input is packed times its common denominator L and num, the
    numerators of the rational parts of the mf * mu, and each output is
    decoded over L times their denominators.  A coefficient there is the
    difference of two slots, each a signed sum of scaled input coefficients,
    so it stays within their l1 norm, the bound of _Slots.  Twice, the slots
    of each of the R^n middle values sum to at most num1 l1, l1 the input's
    norm, so w comes from num1 num2 R^n l1; never from the expected f.
    """
    field, p, n = f.field, f.field.p, f.length
    vals = f.values.values()
    D = math.lcm(p, _pass_plan(field, n)[0], *(v.D for v in vals))
    L = math.lcm(1, *(v.den for v in vals))
    num, den, residual, shape = _scales(field, (f.support_bound, f.level),
                                        f.measure_factor, 1 + twice)
    w = (num * field.residue_card ** (n * twice) * _l1(f, L)).bit_length() + 1
    T = _digit_passes(field, n, _pack(f, L, w, D), num, w, D, (1, -1)[:1 + twice])
    slots = _Slots(p, w, D)
    out_values: Dict[DigitVec, CycScalar] = {}
    for xvec, v in zip(itertools.product(field.residue_reps(), repeat=n), T):
        x = slots.decode(v, L * den, residual)
        if x is not None:
            out_values[xvec] = x
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
    """Check F^-1(F f) = f pointwise, exactly, on f's own table.

    F^-1 uses the conjugate character chi(+x y), so this is Tate's inversion
    f^^(x) = f(-x) with no coset negated.  The comparison is made on the
    packed table of _digit_passes, without decoding.  With f's values packed
    as F_i over their common denominator L, the round trip T_i is L h1 h2
    times F^-1(F f) at coset i (h1, h2 the denominators of the two
    transforms' rational scales; the residual measure is f's own), so coset
    i passes when T_i = h1 h2 F_i modulo Phi_D(2^w).  That test is exact
    below the bound of _Slots: the slots of T_i sum to at most num R^n l1
    and F_i's coefficients to l1, so w comes from (num R^n + h1 h2) l1, a
    bound on the difference, never from f alone, which would assume the
    identity checked.  Only a failing coset is decoded, for its witness
    (coset, f there, the round trip there).

    ``double_transform`` replaces the round trip (negative controls).  It
    needs f's field and shape, and f's measure factor wherever both are
    nonzero.  Packed as G_i over its own common denominator Lg, it goes
    through the same comparison, L G_i against Lg F_i, with w from
    L l1(g) + Lg l1(f).
    """
    field, p, n = f.field, f.field.p, f.length
    g = double_transform
    L = math.lcm(1, *(v.den for v in f.values.values()))
    l1 = _l1(f, L)
    if g is None:
        D = math.lcm(p, _pass_plan(field, n)[0], *(v.D for v in f.values.values()))
        num, q, residual, _ = _scales(field, (f.support_bound, f.level),
                                      f.measure_factor, 2)
        w = ((num * field.residue_card ** n + q) * l1).bit_length() + 1
        F = _pack(f, L, w, D)
        T = _digit_passes(field, n, F, num, w, D, (1, -1))
    else:
        if (g.support_bound, g.level) != (f.support_bound, f.level):
            raise HarmonicError(f"double transform has shape {(g.support_bound, g.level)}, "
                                f"not {(f.support_bound, f.level)}")
        if g.field != field:
            raise HarmonicError(f"double transform is on {g.field.describe()}, "
                                f"not {field.describe()}")
        if g.measure_factor != f.measure_factor and f.values.keys() & g.values.keys():
            raise HarmonicError(f"incompatible measure factors {f.measure_factor} / "
                                f"{g.measure_factor}")
        q = math.lcm(1, *(v.den for v in g.values.values()))
        D = math.lcm(p, *(v.D for h in (f, g) for v in h.values.values()))
        w = (L * _l1(g, q) + q * l1).bit_length() + 1
        F = _pack(f, L, w, D)
        T = [0] * field.residue_card ** n
        for i, x in _pack(g, q, w, D).items():
            T[i] = L * x
    slots = _Slots(p, w, D)
    phi = slots.phi
    bad = [i for i, t in enumerate(T) if t % phi and i not in F]
    checked = len(F) + len(bad)
    bad += [i for i, x in F.items() if (T[i] - q * x) % phi]
    reps, R = field.residue_reps(), field.residue_card
    witnesses = []
    for i in sorted(bad):  # product order: sorted cosets
        k = tuple(reps[i // R ** (n - 1 - j) % R] for j in range(n))
        zero = CycScalar.zero(p)
        rhs = g.values.get(k, zero) if g is not None else \
            slots.decode(T[i], L * q, residual) or zero
        witnesses.append((k, repr(f.values.get(k, zero)), repr(rhs)))
    return InversionReport(field, not witnesses, checked, witnesses)


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
