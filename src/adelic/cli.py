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

or the word "trivial".  Exit status: 0 = success/pass, 1 = a verification
failed (witness in the report), 2 = usage or input error.
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


def cmd_value(args) -> int:
    F = parse_field(args.field)
    al = parse_idele(F, args.idele or "trivial")
    if args.command == "chi":
        v = chi(F, al)
        tol = None
    elif args.command == "h0":
        v = h0(F, al, _theta_params(args))
        tol = args.tol
    elif args.command == "h1":
        v = h1(F, al, _theta_params(args))
        tol = args.tol
    else:  # chi-rel
        K = parse_field(args.base)
        v = chi_relative(F, K, al)
        tol = None
    emit({"check": args.command, "field": F.describe(), "idele": al.describe(),
          "seed": args.seed, "result": logvalue_obj(v, tol)}, args)
    return 0


def _report_seed(rep, args) -> dict:
    obj = rep.to_json()
    obj["seed"] = args.seed
    return obj


def cmd_verify(args) -> int:
    if args.what in ("lemmas", "inversion"):
        if args.p is not None and not is_prime(args.p):
            raise CLIError(f"--p {args.p} is not a prime")
        ps = (args.p,) if args.p else (2, 3, 5)
        if args.what == "lemmas":
            res = check_lemmas(ps=ps, m_range=(args.range_.start,
                                               args.range_.stop - 1))
        else:
            res = check_inversion(seed=args.seed, per_field=args.count, ps=ps)
        emit(_report_seed(res, args), args)
        return 0 if res.passed else 1

    F = parse_field(args.field)
    params = _theta_params(args)
    rng = random.Random(args.seed)

    def ideles():
        if args.idele is not None:
            yield parse_idele(F, args.idele)
            return
        for _ in range(args.count):
            if args.what == "serre":
                yield random_idele_bounded(F, rng, bound=5.0)
            else:
                yield random_idele(F, rng)

    reports = []
    for al in ideles():
        if args.what == "rr":
            reports.append(verify_rr(F, al))
        elif args.what == "rr-rel":
            K = parse_field(args.base)
            reports.extend(verify_rr_relative(F, K, al))
        elif args.what == "serre":
            reports.append(verify_serre(F, al, params))
        elif args.what == "poisson":
            reports.append(verify_poisson(F, al, params))
        else:
            raise CLIError(f"unknown verification {args.what!r}")
    for rep in reports:
        emit(_report_seed(rep, args), args)
    if not reports:
        emit({"check": args.what, "pass": False, "detail": "ran zero cases",
              "seed": args.seed}, args)
    return 0 if reports and all(r.passed for r in reports) else 1


def cmd_suite(args) -> int:
    results = run_battery(seed=args.seed, fast=args.fast)
    for res in results:
        obj = res.to_json()
        obj["seed"] = args.seed
        emit(obj, args)
    passed = sum(r.passed for r in results)
    emit({"check": "summary", "pass": passed == len(results),
          "passed": passed, "total": len(results), "seed": args.seed}, args)
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


def _load_config(path: str) -> Dict[str, str]:
    try:
        out = {}
        with open(path) as fh:
            for ln in fh:
                ln = ln.strip()
                if not ln or ln.startswith("#") or "=" not in ln:
                    continue
                k, v = ln.split("=", 1)
                out[k.strip()] = v.strip()
        return out
    except OSError as exc:
        raise CLIError(f"cannot read config {path}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="adelic",
        description="Euler characteristics of Arakelov divisors via adelic integrals")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, summary, field=True, idele=True, theta=False, seed=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if field:
            p.add_argument("--field", required=False, default="Q",
                           help="field literal or descriptor file")
        if idele:
            p.add_argument("--idele", default=None,
                           help='idele literal, e.g. "p5#0:-1,inf#0:2.5"')
        if theta:
            p.add_argument("--tol", type=lambda t: _positive_float(t, "--tol"),
                           default=DEFAULT_PARAMS.tolerance,
                           help=f"theta tolerance (default {DEFAULT_PARAMS.tolerance:g})")
            p.add_argument("--max-radius", default=DEFAULT_PARAMS.max_radius,
                           type=lambda t: _positive_float(t, "--max-radius"))
        p.add_argument("--output", choices=("text", "json"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None,
                       help="file with flag=value lines (flags override)")
        return p

    command("describe", cmd_describe, "print field invariants", idele=False, seed=False)
    for name in ("chi", "h0", "h1", "chi-rel"):
        p = command(name, cmd_value, f"compute {name}", theta=name in ("h0", "h1"))
        if name == "chi-rel":
            p.add_argument("--base", default="Q", help="base field literal")

    p = command("verify", cmd_verify, "run a verification", theta=True)
    p.add_argument("what", choices=("rr", "rr-rel", "serre", "poisson",
                                    "lemmas", "inversion"))
    p.add_argument("--base", default="Q")
    p.add_argument("--count", type=int, default=20,
                   help="random ideles / functions when no --idele given")
    p.add_argument("--p", type=int, default=None,
                   help="prime for lemmas/inversion (default: 2, 3 and 5)")
    p.add_argument("--range", dest="range_", type=parse_range,
                   default=range(-3, 4), help="m range for lemmas, e.g. -3..3")

    p = command("suite", cmd_suite, "run the full verification battery",
                field=False, idele=False)
    p.add_argument("--fast", action="store_true",
                   help="smaller randomized sample sizes")

    p = sub.add_parser("transform", help="dump a Fourier transform table as JSON")
    p.set_defaults(func=cmd_transform)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--base-kind", choices=("p-adic", "laurent"), default="p-adic")
    p.add_argument("--quad-index", type=int, default=None,
                   help="index into the validated quadratic extensions")
    p.add_argument("--m", type=int, default=0)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a config file mirrors flags; inject its entries before the explicit
    # flags so the command line wins on conflicts
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return 2
        try:
            cfg = _load_config(argv[i + 1])
        except CLIError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        extra: List[str] = []
        for k, v in cfg.items():
            extra.extend([f"--{k}", v])
        argv = argv[:1] + extra + argv[1:]
    # argparse takes a value such as "-1e-3" or "-3..3" for an option, so
    # bind every value that starts with "-" and a digit or "." to its flag
    bound: List[str] = []
    for tok in argv:
        if bound and bound[-1].startswith("--") and "=" not in bound[-1] \
                and len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == "."):
            bound[-1] = f"{bound[-1]}={tok}"
        else:
            bound.append(tok)
    parser = build_parser()
    try:
        args = parser.parse_args(bound)
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedField, NotAnExtension) as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
        return 2
    except RadiusExceeded as exc:
        print(f"radius exceeded: {exc}", file=sys.stderr)
        return 2
    except (GlobalFieldError, LocalFieldError, PrimalityUnproven) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
