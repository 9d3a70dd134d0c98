"""Span recorder for the traced benchmark run.

The recorder wraps library functions from outside ``src/``: each wrapper
replaces the function under every name that binds it in the ``adelic``
modules (and in the benchmark's own ``workloads``), because a caller looks a
name up in its own module; ``from .theta import theta_log_for_idele`` binds
a second name inside ``euler``.  The untraced run never imports this module.

A span holds a name, start, end, parent span and op id, kept in flat arrays
in memory.  A span's self time is its duration minus the durations of its
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import adelic.euler
import adelic.ffpoly
import adelic.globalfields
import adelic.harmonic
import adelic.localfields
import adelic.theta
import adelic.values

SETUP = -1  # op id of spans recorded while the field roster is built

# functions that get a span, by layer (module); every plain function of
# ffpoly is spanned, generators excepted
SPANNED = {
    "localfields": ("validated_quadratics", "standard_character"),
    "harmonic": ("fourier", "verify_inversion"),
    "globalfields": ("places_above", "archimedean_places", "ramified_finite_places",
                     "absolute_discriminant", "relative_discriminant_norm",
                     "local_discriminant_desc", "different_exponent_at",
                     "idele_log_norm", "divisor_of_idele", "Idele.make",
                     "Idele.inv", "Idele.__mul__", "Divisor.degree"),
    "theta": ("theta_log_for_idele", "theta_log_sum", "ideal_for_idele",
              "embedding_matrix", "certified_box"),
    "euler": ("chi", "h0", "h0_with_count", "h1", "chi_relative",
              "canonical_idele", "verify_rr", "verify_rr_relative",
              "verify_serre", "verify_poisson"),
}

# call counts without spans, for methods too small or too frequent to span
COUNTED = {
    "values.LogValue.new": (adelic.values.LogValue, "__init__"),
    "values.PosRealExact.new": (adelic.values.PosRealExact, "__init__"),
    "harmonic.CycScalar.canonical.calls": (adelic.harmonic.CycScalar, "canonical"),
}

CACHES = {
    "harmonic.negate_coset.hit_ratio": adelic.harmonic.negate_coset,
    "globalfields.places_above.hit_ratio": adelic.globalfields._places_above,
}


def _fourier_out_cosets(args, _result):
    f = args[0]
    Mh, Nh = adelic.harmonic.transform_shape(f.field, f.support_bound, f.level)
    return "harmonic.fourier.out_cosets", f.field.residue_card ** (Mh + Nh)


# extra counts taken from a spanned call's arguments or result
HOOKS = {
    "harmonic.fourier": _fourier_out_cosets,
    "harmonic.verify_inversion":
        lambda _a, rep: ("harmonic.verify_inversion.cosets_checked", rep.cosets_checked),
    "theta.theta_log_sum": lambda _a, res: ("theta.points", res[1]),
}


class Recorder:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id: int | None = None  # None: not recording
        self.counts: Counter = Counter()
        self._cache0: dict = {}
        self._cache1: dict = {}

    # -- installing wrappers ------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every function in SPANNED and COUNTED in place."""
        modules = [m for name, m in sys.modules.items()
                   if name == "adelic" or name.startswith("adelic.")]
        modules += list(extra_modules)
        for layer, names in SPANNED.items():
            mod = getattr(adelic, layer)
            for qual in names:
                self._wrap_name(mod, layer, qual, modules)
        for name, fn in vars(adelic.ffpoly).items():
            if (inspect.isfunction(fn) or hasattr(fn, "cache_info")) \
                    and getattr(fn, "__module__", None) == "adelic.ffpoly" \
                    and not inspect.isgeneratorfunction(fn):
                self._wrap_name(adelic.ffpoly, "ffpoly", name, modules)
        for key, (cls, attr) in COUNTED.items():
            setattr(cls, attr, self._counter(key, getattr(cls, attr)))

    def _wrap_name(self, mod, layer, qual, modules):
        full = f"{layer}.{qual}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = inspect.getattr_static(cls, attr)
            fn = getattr(cls, attr)
            wrapped = self._span(full, fn)
            setattr(cls, attr, staticmethod(wrapped)
                    if isinstance(raw, staticmethod) else wrapped)
            return
        fn = getattr(mod, qual)
        wrapped = self._span(full, fn)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, wrapped)

    def _span(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        hook = HOOKS.get(name)
        rec = self

        def wrapper(*args, **kwargs):
            if rec.op_id is None:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name_ix.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec.stack.append(i)
            rec.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                rec.stack.pop()
            if hook is not None:
                key, n = hook(args, out)
                rec.counts[key] += n
            return out

        return wrapper

    def _counter(self, key, fn):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.op_id is not None:
                rec.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- phases ------------------------------------------------------------

    def begin_ops(self):
        self._cache0 = {k: c.cache_info() for k, c in CACHES.items()}

    def end_ops(self):
        self.op_id = None
        self._cache1 = {k: c.cache_info() for k, c in CACHES.items()}

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, inclusive and self time; per-layer self time;
        counts and cache hit ratios."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        fns: dict = {}
        for i in range(n):
            name = self.names[self.name_ix[i]]
            d = fns.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child[i]
        layers: dict = {}
        for name, d in fns.items():
            layer = name.split(".")[0]
            agg = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += d["calls"]
            agg["self_s"] += d["self_s"]
        ratios = {}
        for key in CACHES:
            a, b = self._cache0[key], self._cache1[key]
            hits, misses = b.hits - a.hits, b.misses - a.misses
            ratios[key] = hits / (hits + misses) if hits + misses else None
        return {"functions": fns, "layers": layers, "counts": dict(self.counts),
                "hit_ratios": ratios, "spans": n}
