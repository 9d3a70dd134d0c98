"""The three benchmark workloads: seeded inputs, one op each, reference checks.

Every workload calls the library's public functions directly and never
``adelic.suite``'s ``check_*`` functions, which draw their random inputs
inside the call that would be timed.  ``suite`` is used only for its field
rosters.

- ``local-fourier``: one op is ``harmonic.verify_inversion`` on one seeded
  ``random_step_function`` (coset_cap 81) over the 22 local fields of
  ``suite.local_field_roster((2, 3, 5))``, every field equally often, as in
  ``suite.check_inversion``.  Loads ``harmonic.fourier``; bypasses
  ``globalfields``, ``theta`` and ``euler``.
- ``global-identities``: a fixed, shuffled mix of ``verify_rr``,
  ``verify_rr_relative``, ``verify_serre`` and ``verify_poisson`` in the
  proportions of ``adelic suite`` (6000 : 3000 : 226 : 7).  Loads exact
  ``values``/``globalfields``/``euler`` bookkeeping and ``theta`` only on
  sparse, small-box sums; bypasses ``harmonic``.
- ``theta-dense``: one op is ``euler.h0`` at the default ``ThetaParams`` on
  an idele whose log-norm is drawn from [0, 12] (Q: [0, 6.5]).  Loads
  ``theta.theta_log_sum`` with 5 to ~9e6 lattice points per op; bypasses
  ``harmonic`` and ``ffpoly``.

Inputs come in blocks with a fixed composition (every field, every op kind,
every log-norm stratum) shuffled inside the block, so that runs with
different seeds load the layers in the same proportions.  A run's input pool
is a fixed number of whole blocks, whatever its length; a run that outlasts
the pool cycles through it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from adelic import suite, theta
from adelic.euler import (
    ThetaParams,
    h0,
    verify_poisson,
    verify_rr,
    verify_rr_relative,
    verify_serre,
)
from adelic.globalfields import (
    INFINITY,
    RATIONAL,
    Idele,
    archimedean_places,
    idele_log_norm,
    places_above,
    random_idele,
    random_idele_bounded,
)
from adelic.harmonic import (
    CycScalar,
    StepFunction,
    fourier,
    random_step_function,
    verify_inversion,
)

SERRE_PARAMS = ThetaParams(tolerance=1e-10)
POISSON_PARAMS = ThetaParams(tolerance=1e-12)
RR_TOL = 1e-12
SERRE_CHECK = 1e-8
POISSON_CHECK = 1e-10

# theta-dense: log-norm ranges; on Q the certified box passes max_radius
# (4096) near log-norm 7.15, so Q stops well below it
LOG_NORM_RANGE = {RATIONAL: (0.0, 6.5)}
LOG_NORM_DEFAULT = (0.0, 12.0)
STRATA = 24

REFERENCE_SAMPLE = 64
REFERENCE_TOL = 1e-8
# the reference keeps lattice points with pi*|Ex|^2 <= CUTOFF; for a lattice
# of rank n <= 2 the omitted mass is at most 2^(n/2) exp(-CUTOFF/2) of the
# whole sum (split exp(-q) = exp(-q/2) exp(-q/2) and bound the theta series
# at half the exponent by 2^(n/2) times itself), here below 2e-15
CUTOFF = 70.0

# global-identities, per block: ops per field or pair for rr and rr-rel,
# serre per number field and per function field, poisson per number field;
# 2400 : 1200 : 88 : 4 is the suite's 6000 : 3000 : 226 : 7, with poisson
# rounded up to one op per number field
RR_PER_FIELD = 400
SERRE_PER_NUMBER_FIELD = 20
SERRE_PER_FUNCTION_FIELD = 4

# the input pool holds the fewest whole blocks with at least POOL_OPS ops
POOL_OPS = 4000

# negative control: every CORRUPT_EVERY-th op is corrupted
CORRUPT_EVERY = 10


def roster(name):
    """The fields a workload runs on; building it is part of set-up."""
    if name == "local-fourier":
        return suite.local_field_roster((2, 3, 5))
    if name == "global-identities":
        return (suite.rr_field_roster(), suite.relative_pairs(),
                suite.number_field_roster())
    if name == "theta-dense":
        return suite.number_field_roster()
    raise ValueError(f"unknown workload {name!r}")


def make_ops(name, fields, seed):
    """The seeded input pool, made before any timing starts."""
    rng = random.Random(f"{name}:{seed}")
    block = {"local-fourier": _fourier_block,
             "global-identities": _identities_block,
             "theta-dense": _theta_block}[name]
    ops = []
    while len(ops) < POOL_OPS:
        b = block(fields, rng)
        rng.shuffle(b)
        ops.extend(b)
    return ops


def _fourier_block(fields, rng):
    """One step function per field; ``random_step_function`` picks its
    (M, N) shape uniformly among those within the coset cap."""
    return [("inv", random_step_function(K, rng, coset_cap=81)) for K in fields]


def _identities_block(fields, rng):
    rr_fields, pairs, number_fields = fields
    b = []
    for F in rr_fields:
        b += [("rr", F, random_idele(F, rng)) for _ in range(RR_PER_FIELD)]
    for L, K in pairs:
        b += [("rr-rel", L, K, random_idele(L, rng)) for _ in range(RR_PER_FIELD)]
    for F in rr_fields:
        k = (SERRE_PER_NUMBER_FIELD if F in number_fields
             else SERRE_PER_FUNCTION_FIELD)
        b += [("serre", F, random_idele_bounded(F, rng, bound=5.0))
              for _ in range(k)]
    for F in number_fields:
        b.append(("poisson", F, random_idele_bounded(F, rng, bound=2.0)))
    return b


def _theta_block(fields, rng):
    b = []
    for F in fields:
        lo, hi = LOG_NORM_RANGE.get(F.kind, LOG_NORM_DEFAULT)
        for s in range(STRATA):
            target = lo + (hi - lo) * (s + rng.random()) / STRATA
            b.append(("h0", F, steered_idele(F, rng, target)))
    return b


def steered_idele(F, rng, target):
    """A seeded finite part, with archimedean components that bring the
    log-norm to ``target`` (a small jitter between places, then rescaled)."""
    fin = random_idele(F, rng, max_val=2, max_places=2).finite
    arches = archimedean_places(F)
    total_e = sum(pl.e_v for pl in arches)
    need = target - float(idele_log_norm(Idele.make(F, fin)))
    arch = {pl: math.exp(need / total_e + rng.uniform(-0.1, 0.1))
            for pl in arches}
    excess = float(idele_log_norm(Idele.make(F, fin, arch))) - target
    arch = {pl: a * math.exp(-excess / total_e) for pl, a in arch.items()}
    return Idele.make(F, fin, arch)


def run_op(op, corrupt=False):
    """Run one op; returns (passed, value) and lets exceptions through.

    ``value`` is the float h0 for theta-dense ops (checked later against
    the reference) and None otherwise.
    """
    kind = op[0]
    if kind == "inv":
        f = op[1]
        if corrupt:
            rep = verify_inversion(f, double_transform=_corrupted(f))
        else:
            rep = verify_inversion(f)
        return rep.passed and rep.cosets_checked > 0, None
    if kind == "rr":
        return verify_rr(op[1], op[2], tol=RR_TOL).passed, None
    if kind == "rr-rel":
        reps = verify_rr_relative(op[1], op[2], op[3], tol=RR_TOL)
        return bool(reps) and all(r.passed for r in reps), None
    if kind == "serre":
        return verify_serre(op[1], op[2], SERRE_PARAMS,
                            check_tol=SERRE_CHECK).passed, None
    if kind == "poisson":
        return verify_poisson(op[1], op[2], POISSON_PARAMS,
                              check_tol=POISSON_CHECK).passed, None
    if kind == "h0":
        v = float(h0(op[1], op[2]))
        return math.isfinite(v), v
    raise ValueError(f"unknown op kind {kind!r}")


def _corrupted(f):
    """The true double transform of f with one coset value changed."""
    g = fourier(fourier(f))
    key = next(iter(g.values), (0,) * g.length)
    vals = dict(g.values)
    vals[key] = vals.get(key, CycScalar.zero(f.field.p)) + CycScalar.rational(f.field.p, 1)
    return StepFunction(f.field, g.support_bound, g.level, vals)


# ---------------------------------------------------------------------------
# independent theta reference
# ---------------------------------------------------------------------------


def reference_log_theta(F, alpha):
    """log sum over the sections lattice of exp(-pi |Ex|^2), summed over an
    ellipse in numpy; never calls theta_log_sum, theta_log_for_idele or h0."""
    if F.kind == RATIONAL:
        r = Fraction(1)
        for pl, v in alpha.finite_components:
            r *= Fraction(pl.below) ** v
        pl, = places_above(F, INFINITY)
        e = float(r) / alpha.arch.get(pl, 1.0)
        k = math.floor(math.sqrt(CUTOFF / math.pi) / abs(e))
        xs = np.arange(-k, k + 1, dtype=float)
        return math.log(math.fsum(np.exp(-math.pi * (e * xs) ** 2)))
    E = theta.embedding_matrix(F, theta.ideal_for_idele(alpha), alpha.arch)
    G = E.T @ E
    # walk the ellipse x^T G x <= CUTOFF/pi row by row along the coordinate
    # with the shorter extent
    if G[0, 0] > G[1, 1]:
        G = G[::-1, ::-1]
    a, b, c = float(G[0, 0]), float(G[0, 1]), float(G[1, 1])
    det = a * c - b * b
    rad = CUTOFF / math.pi
    ymax = math.floor(math.sqrt(rad * a / det))
    parts = []
    for y in range(-ymax, ymax + 1):
        centre = -b * y / a
        half = math.sqrt(max(0.0, (rad - y * y * det / a) / a))
        xs = np.arange(math.ceil(centre - half), math.floor(centre + half) + 1,
                       dtype=float)
        q = a * xs * xs + 2.0 * b * xs * y + c * y * y
        parts.append(float(np.exp(-math.pi * q).sum()))
    return math.log(math.fsum(parts))


def reference_check(ops, values, seed, corrupt=False):
    """Compare h0 with the reference on a seeded subsample of the completed
    theta-dense ops.  Returns (indices checked, indices that mismatch)."""
    done = [i for i, v in enumerate(values) if v is not None]
    rng = random.Random(f"reference:{seed}")
    sample = sorted(rng.sample(done, min(REFERENCE_SAMPLE, len(done))))
    bad = []
    for i in sample:
        got = values[i] + (1e-6 if corrupt else 0.0)
        _, F, alpha = ops[i]
        if abs(reference_log_theta(F, alpha) - got) > REFERENCE_TOL:
            bad.append(i)
    return sample, bad
