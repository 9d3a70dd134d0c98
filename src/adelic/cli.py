"""Command-line front end.

Field literals:
    Q                          the rationals
    Q(i)                       the Gaussian field (alias of Q(sqrt -1))
    Q(sqrt 5), Q(sqrt-3)       quadratic number fields
    Fq(t) q=3                  rational function field over F_q
    hyperelliptic q=3 f=0,-1,0,1   y^2 = f(t), ascending coefficients

--field also accepts a path to a text file whose first non-comment line is
a literal.  Idele literals are comma-separated place:value entries, e.g.

    p5#0:-1,inf#0:2.5          (number fields: p<prime>#<index>, inf#<index>)
    p3#0:2,inf#0:-1            (function fields: p<enc> encodes the monic
                                irreducible by its base-q digits; values at
                                finite and function-field infinite places
                                are valuations, archimedean values are
                                positive reals)

or the word "trivial".  Each command accepts only the options it reads; all
but transform also take --output text|json and --config FILE:

    describe                 --field
    chi                      --field --idele --seed
    h0, h1                   --field --idele --tol --max-radius --seed
    chi-rel                  --field --idele --base --seed
    verify lemmas            --p --range --seed
    verify inversion         --p --count --seed
    verify rr                --field --idele --count --seed
    verify rr-rel            --field --idele --count --base --seed
    verify serre | poisson   --field --idele --count --tol --max-radius --seed
    suite                    --fast --seed
    transform                --p --base-kind --quad-index --m

Exit status: 0 = success/pass, 1 = a verification failed (witness in the
report), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional

from . import ffpoly
from .euler import (
    DEFAULT_PARAMS,
    RadiusExceeded,
    ThetaParams,
    chi,
    chi_relative,
    h0,
    h1,
    verify_poisson,
    verify_rr,
    verify_rr_relative,
    verify_serre,
)
from .ffpoly import gf
from .globalfields import (
    INFINITY,
    GlobalFieldDesc,
    GlobalFieldError,
    Idele,
    NotAnExtension,
    UnsupportedField,
    absolute_discriminant,
    archimedean_places,
    places_above,
    random_idele,
    random_idele_bounded,
)
from .harmonic import fourier, indicator
from .localfields import (
    LAURENT,
    P_ADIC,
    LocalFieldError,
    base_field,
    validated_quadratics,
)
from .suite import check_inversion, check_lemmas, run_battery
from .values import LogValue, PrimalityUnproven, is_prime
import random


class CLIError(Exception):
    """Bad input; maps to exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CLIError (one line, exit 2), not a usage block."""

    def error(self, message):
        raise CLIError(message)


# ---------------------------------------------------------------------------
# literal parsing
# ---------------------------------------------------------------------------


def parse_field(text: str) -> GlobalFieldDesc:
    text = text.strip()
    if os.path.exists(text) or text.startswith("@"):
        path = text[1:] if text.startswith("@") else text
        try:
            with open(path) as fh:
                lines = [ln.strip() for ln in fh
                         if ln.strip() and not ln.strip().startswith("#")]
        except OSError as exc:
            raise CLIError(f"cannot read field descriptor {path}: {exc}")
        if not lines:
            raise CLIError(f"empty field descriptor file {path}")
        text = lines[0]
    if text == "Q":
        return GlobalFieldDesc.rationals()
    if text == "Q(i)":
        return GlobalFieldDesc.quadratic(-1)
    if text.startswith("Q(sqrt") and text.endswith(")"):
        body = text[len("Q(sqrt"):-1].strip()
        try:
            return GlobalFieldDesc.quadratic(int(body))
        except (ValueError, UnsupportedField) as exc:
            raise CLIError(f"bad quadratic field literal {text!r}: {exc}")
    if text.startswith("Fq(t)"):
        opts = _parse_opts(text[len("Fq(t)"):])
        if "q" not in opts:
            raise CLIError(f"missing q= in {text!r}")
        try:
            return GlobalFieldDesc.rational_function_field(int(opts["q"]))
        except (ValueError, UnsupportedField) as exc:
            raise CLIError(f"bad function field literal {text!r}: {exc}")
    if text.startswith("hyperelliptic"):
        opts = _parse_opts(text[len("hyperelliptic"):])
        if "q" not in opts or "f" not in opts:
            raise CLIError(f"need q= and f= in {text!r}")
        try:
            q = int(opts["q"])
            coeffs = [int(c) % q for c in opts["f"].split(",")]
            return GlobalFieldDesc.hyperelliptic(q, coeffs)
        except (ValueError, ZeroDivisionError, UnsupportedField) as exc:
            raise CLIError(f"bad hyperelliptic literal {text!r}: {exc}")
    raise CLIError(f"unrecognized field literal {text!r}")


def _parse_opts(text: str) -> Dict[str, str]:
    out = {}
    for tok in text.split():
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k] = v
    return out


def parse_idele(field: GlobalFieldDesc, text: str) -> Idele:
    text = text.strip()
    if text in ("", "trivial", "1"):
        return Idele.trivial(field)
    fin: Dict = {}
    arch: Dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CLIError(f"idele component {part!r} needs selector:value")
        sel, val = part.rsplit(":", 1)
        if sel.startswith("inf"):
            idx = _parse_int(sel[4:], part) if "#" in sel else 0
            if field.is_function_field:
                pls = places_above(field, INFINITY)
                if not 0 <= idx < len(pls):
                    raise CLIError(f"no infinite place #{idx} on {field.describe()}")
                fin[pls[idx]] = _parse_int(val, part)
            else:
                pls = archimedean_places(field)
                if not 0 <= idx < len(pls):
                    raise CLIError(f"no archimedean place #{idx}")
                arch[pls[idx]] = _positive_float(val, f"archimedean component {part!r}")
        elif sel.startswith("p"):
            body = sel[1:]
            enc, _, idx_s = body.partition("#")
            idx = _parse_int(idx_s, part) if idx_s else 0
            try:
                below = int(enc)
                if field.is_function_field:  # bounded: Ben-Or's cost grows with the degree
                    below = ffpoly.int_to_poly(gf(field.q), _parse_int(enc, part))
            except ValueError:
                raise CLIError(f"bad place selector {sel!r}")
            try:
                pls = places_above(field, below)
            except (UnsupportedField, GlobalFieldError) as exc:
                raise CLIError(f"bad place selector {sel!r}: {exc}")
            if not 0 <= idx < len(pls):
                raise CLIError(f"no place {sel!r} (only {len(pls)} above)")
            fin[pls[idx]] = _parse_int(val, part)
        else:
            raise CLIError(f"unknown place selector in {part!r}")
    try:
        return Idele.make(field, fin, arch)
    except GlobalFieldError as exc:
        raise CLIError(str(exc))


def _parse_int(val: str, ctx: str) -> int:
    """An integer within -10^18..10^18: a valuation or a place index."""
    try:
        n = int(val)
    except ValueError:
        raise CLIError(f"expected an integer in {ctx!r}, got {val!r}")
    if abs(n) > 10 ** 18:
        raise CLIError(f"{ctx.rsplit(':', 1)[0]!r}: integer outside -10^18..10^18")
    return n


def _positive_float(text: str, what: str) -> float:
    """A finite positive float; NaN, infinities and non-numbers are rejected."""
    try:
        x = float(text)
    except ValueError:
        raise CLIError(f"{what} must be a number, got {text!r}")
    if not (math.isfinite(x) and x > 0):
        raise CLIError(f"{what} must be finite and positive, got {text!r}")
    return x


def _count(text: str) -> int:
    """A non-negative integer number of cases."""
    try:
        n = int(text)
    except ValueError:
        raise CLIError(f"--count must be an integer, got {text!r}")
    if n < 0:
        raise CLIError(f"--count must be non-negative, got {text!r}")
    return n


def parse_range(text: str) -> range:
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise CLIError(f"bad range {text!r}, expected like -3..3")
    if lo > hi:
        raise CLIError(f"empty range {text!r}: {lo} > {hi}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit(obj: dict, args) -> None:
    if args.output == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        pairs = ", ".join(f"{k}={_fmt(v)}" for k, v in obj.items()
                          if k not in ("check",))
        name = obj.get("check", "")
        print(f"{name + ': ' if name else ''}{pairs}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def logvalue_obj(v: LogValue, tol: Optional[float]) -> dict:
    out = v.to_json(tol)
    out["value"] = float(v)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_describe(args) -> int:
    F = parse_field(args.field)
    obj = {"check": "describe", "field": F.describe(), "kind": F.kind}
    if F.kind == "quadratic-number-field":
        obj["disc"] = F.disc
        obj["signature"] = list(F.signature)
    if F.is_function_field:
        obj["q"] = F.q
        obj["genus"] = F.genus
    obj["abs_disc_log"] = logvalue_obj(absolute_discriminant(F).log(), None)
    emit(obj, args)
    return 0


def _theta_params(args) -> ThetaParams:
    return ThetaParams(tolerance=args.tol, max_radius=args.max_radius)


def _value_command(value):
    """A command printing value(args, F, al) = (LogValue, tolerance or None)."""
    def run(args) -> int:
        F = parse_field(args.field)
        al = parse_idele(F, args.idele or "trivial")
        v, tol = value(args, F, al)
        emit({"check": args.command, "field": F.describe(), "idele": al.describe(),
              "seed": args.seed, "result": logvalue_obj(v, tol)}, args)
        return 0
    return run


cmd_chi = _value_command(lambda args, F, al: (chi(F, al), None))
cmd_h0 = _value_command(lambda args, F, al: (h0(F, al, _theta_params(args)), args.tol))
cmd_h1 = _value_command(lambda args, F, al: (h1(F, al, _theta_params(args)), args.tol))
cmd_chi_rel = _value_command(
    lambda args, F, al: (chi_relative(F, parse_field(args.base), al), None))


def _emit_seeded(objs, args) -> None:
    for obj in objs:
        obj["seed"] = args.seed
        emit(obj, args)


def _emit_reports(reports, args) -> int:
    _emit_seeded([r.to_json() for r in reports] or [
        {"check": args.what, "pass": False, "detail": "ran zero cases"}], args)
    return 0 if reports and all(r.passed for r in reports) else 1


def _primes(args) -> tuple:
    if args.p is not None and not is_prime(args.p):
        raise CLIError(f"--p {args.p} is not a prime")
    return (args.p,) if args.p else (2, 3, 5)


def cmd_lemmas(args) -> int:
    r = args.range_
    return _emit_reports([check_lemmas(ps=_primes(args), m_range=(r.start, r.stop - 1))], args)


def cmd_inversion(args) -> int:
    return _emit_reports([check_inversion(seed=args.seed, per_field=args.count,
                                          ps=_primes(args))], args)


def _verify_ideles(args, F, check, draw=random_idele) -> int:
    """Emit check(al)'s reports on --idele, or on --count ideles drawn by draw."""
    if args.idele is not None:
        ideles = [parse_idele(F, args.idele)]
    else:
        rng = random.Random(args.seed)
        ideles = [draw(F, rng) for _ in range(args.count)]
    return _emit_reports([rep for al in ideles for rep in check(al)], args)


def cmd_rr(args) -> int:
    F = parse_field(args.field)
    return _verify_ideles(args, F, lambda al: [verify_rr(F, al)])


def cmd_rr_rel(args) -> int:
    F, K = parse_field(args.field), parse_field(args.base)
    return _verify_ideles(args, F, lambda al: verify_rr_relative(F, K, al))


def cmd_serre(args) -> int:
    F, params = parse_field(args.field), _theta_params(args)
    return _verify_ideles(args, F, lambda al: [verify_serre(F, al, params)],
                          random_idele_bounded)


def cmd_poisson(args) -> int:
    F, params = parse_field(args.field), _theta_params(args)
    return _verify_ideles(args, F, lambda al: [verify_poisson(F, al, params)],
                          random_idele_bounded)


def cmd_suite(args) -> int:
    results = run_battery(seed=args.seed, fast=args.fast)
    passed = sum(r.passed for r in results)
    _emit_seeded([r.to_json() for r in results] + [
        {"check": "summary", "pass": passed == len(results), "passed": passed,
         "total": len(results)}], args)
    return 0 if passed == len(results) else 1


def cmd_transform(args) -> int:
    kind = P_ADIC if args.base_kind == "p-adic" else LAURENT
    try:
        K = base_field(args.p, kind)
        if args.quad_index is not None:
            if args.quad_index < 0:
                raise IndexError(f"negative --quad-index {args.quad_index}")
            K = validated_quadratics(args.p, kind)[args.quad_index]
    except (LocalFieldError, ValueError, IndexError) as exc:
        raise CLIError(f"bad local field: {exc}")
    g = fourier(indicator(K, args.m))
    table = {",".join(map(str, k)) if k else "0": v.to_json()
             for k, v in g.values.items()}
    print(json.dumps({
        "field": K.describe(), "m": args.m,
        "support_bound": g.support_bound, "level": g.level,
        "cosets": table,
    }, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str) -> List[str]:
    """The entries of a file of flag=value lines, as argv tokens."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise CLIError(f"cannot read config {path}: {exc}")
    pairs = [ln.split("=", 1) for ln in lines if "=" in ln and not ln.startswith("#")]
    return [tok for k, v in pairs for tok in (f"--{k.strip()}", v.strip())]


OPTIONS = {
    "--field": dict(default="Q", help="field literal or descriptor file"),
    "--idele": dict(default=None, help='idele literal, e.g. "p5#0:-1,inf#0:2.5"'),
    "--base": dict(default="Q", help="base field literal"),
    "--tol": dict(type=lambda t: _positive_float(t, "--tol"),
                  default=DEFAULT_PARAMS.tolerance,
                  help=f"theta tolerance (default {DEFAULT_PARAMS.tolerance:g})"),
    "--max-radius": dict(type=lambda t: _positive_float(t, "--max-radius"),
                         default=DEFAULT_PARAMS.max_radius),
    "--count": dict(type=_count, default=20, help="random cases when no --idele given"),
    "--p": dict(type=int, default=None, help="prime (default: 2, 3 and 5)"),
    "--range": dict(dest="range_", type=parse_range, default=range(-3, 4),
                    help="m range, e.g. -3..3"),
    "--fast": dict(action="store_true", help="smaller randomized sample sizes"),
    "--seed": dict(type=int, default=0),
    "--output": dict(choices=("text", "json"), default="text"),
    "--config": dict(default=None, help="file with flag=value lines (flags override)"),
}

# command path -> (runner, summary, the options it reads besides --output)
COMMANDS = {
    ("describe",): (cmd_describe, "print field invariants", "--field"),
    ("chi",): (cmd_chi, "compute chi", "--field --idele --seed"),
    ("h0",): (cmd_h0, "compute h0", "--field --idele --tol --max-radius --seed"),
    ("h1",): (cmd_h1, "compute h1", "--field --idele --tol --max-radius --seed"),
    ("chi-rel",): (cmd_chi_rel, "compute chi-rel", "--field --idele --base --seed"),
    ("verify", "lemmas"): (cmd_lemmas, "local lemmas", "--p --range --seed"),
    ("verify", "inversion"): (cmd_inversion, "Fourier inversion", "--p --count --seed"),
    ("verify", "rr"): (cmd_rr, "Riemann-Roch", "--field --idele --count --seed"),
    ("verify", "rr-rel"): (cmd_rr_rel, "relative Riemann-Roch",
                           "--field --idele --count --base --seed"),
    ("verify", "serre"): (cmd_serre, "Serre duality",
                          "--field --idele --count --tol --max-radius --seed"),
    ("verify", "poisson"): (cmd_poisson, "Poisson summation",
                            "--field --idele --count --tol --max-radius --seed"),
    ("suite",): (cmd_suite, "run the full verification battery", "--fast --seed"),
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="adelic",
        description="Euler characteristics of Arakelov divisors via adelic integrals")
    sub = top.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification")
    kinds = verify.add_subparsers(dest="what", required=True)
    for path, (func, summary, opts) in COMMANDS.items():
        p = (kinds if len(path) == 2 else sub).add_parser(path[-1], help=summary)
        p.set_defaults(func=func)
        for opt in opts.split() + ["--output", "--config"]:
            p.add_argument(opt, **OPTIONS[opt])

    p = sub.add_parser("transform", help="dump a Fourier transform table as JSON")
    p.set_defaults(func=cmd_transform)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--base-kind", choices=("p-adic", "laurent"), default="p-adic")
    p.add_argument("--quad-index", type=int, default=None,
                   help="index into the validated quadratic extensions")
    p.add_argument("--m", type=int, default=0)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    argv = [t for tok in (sys.argv[1:] if argv is None else argv)  # --config=FILE too
            for t in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    try:
        # config entries go after the command path (the words before the
        # first flag) and before the explicit flags, which win on conflicts
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 >= len(argv):
                raise CLIError("--config needs a path")
            cut = next(j for j, tok in enumerate(argv) if tok.startswith("-"))
            argv = argv[:cut] + _load_config(argv[i + 1]) + argv[cut:]
        # argparse takes a value such as "-1e-3" or "-3..3" for an option, so
        # bind every value that starts with "-" and a digit or "." to its flag
        bound: List[str] = []
        for tok in argv:
            if bound and bound[-1].startswith("--") and "=" not in bound[-1] \
                    and len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == "."):
                bound[-1] = f"{bound[-1]}={tok}"
            else:
                bound.append(tok)
        args = build_parser().parse_args(bound)
        return args.func(args)
    except (UnsupportedField, NotAnExtension) as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
    except RadiusExceeded as exc:
        print(f"radius exceeded: {exc}", file=sys.stderr)
    except (CLIError, GlobalFieldError, LocalFieldError, PrimalityUnproven) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
