import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import adelic
from adelic import cli
from adelic.cli import main, parse_field, parse_idele, CLIError
from adelic.globalfields import GlobalFieldDesc, idele_log_norm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(text):
    return [json.loads(ln) for ln in text.strip().splitlines() if ln.strip()]


# -- literal parsing -----------------------------------------------------------------


def test_parse_field_literals():
    assert parse_field("Q").kind == "rational"
    assert parse_field("Q(i)").d == -1
    assert parse_field("Q(sqrt -3)").d == -3
    assert parse_field("Q(sqrt5)").d == 5
    assert parse_field("Fq(t) q=9").q == 9
    H = parse_field("hyperelliptic q=3 f=0,-1,0,1")
    assert H.fpoly == (0, 2, 0, 1)
    with pytest.raises(CLIError):
        parse_field("Z")
    with pytest.raises(CLIError):
        parse_field("Q(sqrt 12)")


def test_parse_field_from_file(tmp_path):
    p = tmp_path / "field.txt"
    p.write_text("# my field\nQ(sqrt 5)\n")
    assert parse_field(str(p)).d == 5


def test_parse_idele_literals():
    Q = parse_field("Q")
    al = parse_idele(Q, "p5#0:-1,inf#0:2.5")
    assert float(idele_log_norm(al)) == pytest.approx(
        __import__("math").log(5) + __import__("math").log(2.5))
    F3 = parse_field("Fq(t) q=3")
    al = parse_idele(F3, "p3#0:2,inf#0:-1")   # p3 encodes the polynomial t
    assert al.describe() == "inf#0:-1,p3#0:2"
    with pytest.raises(CLIError):
        parse_idele(Q, "p4#0:1")
    with pytest.raises(CLIError):
        parse_idele(Q, "inf#0:-2.0")
    with pytest.raises(CLIError):
        parse_idele(Q, "bogus")


# -- commands --------------------------------------------------------------------------


def test_chi_trivial_exit_zero(capsys):
    code, out, _ = run(capsys, "chi", "--field", "Q", "--idele", "trivial")
    assert code == 0
    assert "0" in out


def test_chi_json_schema(capsys):
    code, out, _ = run(capsys, "chi", "--field", "Q(i)", "--output", "json")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["result"]["symbolic"] == [[2, "-1"]]
    assert obj["result"]["provenance"] == "exact-symbolic"
    assert "seed" in obj


def test_verify_serre_cli(capsys):
    code, out, _ = run(capsys, "verify", "serre", "--field", "Q(i)",
                       "--idele", "trivial", "--tol", "1e-10", "--output", "json")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["pass"] is True
    assert obj["tolerance"] == 1e-8
    for key in ("field", "idele", "lhs", "rhs", "lattice_points_used",
                "runtime_ms", "seed"):
        assert key in obj


def test_verify_lemmas_cli(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--p", "3", "--range", "-3..3")
    assert code == 0
    assert "pass=True" in out


def test_verify_rr_random_deterministic(capsys):
    a = run(capsys, "verify", "rr", "--field", "Q(sqrt 5)", "--count", "4",
            "--seed", "11", "--output", "json")
    b = run(capsys, "verify", "rr", "--field", "Q(sqrt 5)", "--count", "4",
            "--seed", "11", "--output", "json")
    assert a[0] == b[0] == 0

    def strip(text):
        out = []
        for obj in json_lines(text):
            obj.pop("runtime_ms", None)
            out.append(json.dumps(obj, sort_keys=True))
        return out

    assert strip(a[1]) == strip(b[1])  # byte-identical modulo runtime_ms


def test_verify_poisson_loose_theta_fails(capsys):
    # a sloppy truncation must be caught by the two-sided comparison
    code, out, _ = run(capsys, "verify", "poisson", "--field", "Q",
                       "--idele", "inf#0:2.0", "--tol", "1e-3", "--output", "json")
    assert code == 1
    assert json_lines(out)[0]["pass"] is False


def test_verify_poisson_defaults_pass(capsys):
    # the default 20 ideles are drawn with a bounded log-norm, as for serre
    code, out, err = run(capsys, "verify", "poisson", "--field", "Q(sqrt 5)")
    assert code == 0, err
    assert out.count("pass=True") == 20


def test_describe_quadratic_cli(capsys):
    code, out, _ = run(capsys, "describe", "--field", "Q(sqrt -3)", "--output", "json")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["disc"] == -3 and obj["signature"] == [0, 1]


def test_h1_cli_is_h0_minus_chi(capsys):
    # chi(Q(i), 1) = -1/2 log 4, so h1 = h0 + log 2
    values = {}
    for cmd in ("h0", "h1"):
        code, out, _ = run(capsys, cmd, "--field", "Q(i)", "--output", "json")
        assert code == 0
        values[cmd] = json_lines(out)[0]["result"]["value"]
    assert abs(values["h1"] - values["h0"] - math.log(2)) < 1e-12


def test_chi_rel_cli(capsys):
    code, out, _ = run(capsys, "chi-rel", "--field", "Q(sqrt 5)", "--base", "Q",
                       "--output", "json")
    assert code == 0
    result = json_lines(out)[0]["result"]
    assert result["symbolic"] == [[5, "-1/2"]]
    assert result["provenance"] == "exact-symbolic"


@pytest.mark.parametrize("field, idele", [
    ("Q(sqrt-3)", "p2#0:400"),
    ("Q", "inf#0:1e-300"),
])
def test_theta_sum_is_labelled_float(capsys, field, idele):
    # a truncated theta sum is a float even when its value is 0.0 or exact-looking
    code, out, _ = run(capsys, "h0", "--field", field, "--idele", idele, "--output", "json")
    assert code == 0
    assert json_lines(out)[0]["result"]["provenance"] == "float(1e-10)"


def test_describe_cli(capsys):
    code, out, _ = run(capsys, "describe", "--field",
                       "hyperelliptic q=3 f=0,-1,0,1", "--output", "json")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["genus"] == 1 and obj["q"] == 3


def test_transform_dump(capsys):
    code, out, _ = run(capsys, "transform", "--p", "2", "--quad-index", "3",
                       "--m", "0")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["support_bound"] == 3 and obj["level"] == -3
    coset = obj["cosets"]["0"]
    assert coset["measure_factor"] == {"2": "1/2"}
    assert coset["coefficients"] == ["1/4"]


def test_exit_codes_for_bad_input(capsys):
    code, _, err = run(capsys, "chi", "--field", "Q(sqrt 12)")
    assert code == 2 and "squarefree" in err
    code, _, err = run(capsys, "h0", "--field", "hyperelliptic q=3 f=0,-1,0,1")
    assert code == 2 and "unsupported" in err.lower()
    code, _, err = run(capsys, "chi", "--field", "Q", "--idele", "p6#0:1")
    assert code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = Q(i)\noutput = json\n")
    code, out, _ = run(capsys, "chi", "--config", str(cfg))
    assert code == 0
    assert json_lines(out)[0]["field"] == "Q(i)"
    code, out, _ = run(capsys, "chi", f"--config={cfg}")  # the = form is read too
    assert code == 0
    assert json_lines(out)[0]["field"] == "Q(i)"


def test_config_entries_follow_the_verify_kind(tmp_path, capsys):
    # a config entry acts as the flag would after the kind; an explicit flag
    # wins, and an entry the kind does not read is a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-3\n")
    poisson = ("verify", "poisson", "--field", "Q", "--idele", "inf#0:2.0",
               "--config", str(cfg), "--output", "json")
    code, out, _ = run(capsys, *poisson)
    assert code == 1 and json_lines(out)[0]["pass"] is False
    code, out, _ = run(capsys, *poisson, "--tol", "1e-10")
    assert code == 0 and json_lines(out)[0]["pass"] is True
    code, _, err = run(capsys, "verify", "lemmas", "--config", str(cfg))
    assert code == 2 and len(err.strip().splitlines()) == 1


# every line of `adelic suite --fast --seed 1` but its runtime_ms: check,
# checks, detail, extra keys; pass is True and seed 1 on each
SUITE_FAST_SEED_1 = [
    ("lemmas", 308, "L1 + indicator transforms exact on 308 cases", {}),
    ("inversion", 880, "880 random step functions inverted exactly", {}),
    ("disc-product", 61,
     "local x global discriminants and Dedekind's different agree for 61 fields", {}),
    ("rr", 1200, "chi(D) - chi(0) = deg D exact on 1200 ideles", {}),
    ("rr-rel", 1200, "relative RR + compatibility exact on 1200 checks", {}),
    ("serre", 234, "234 dualities (worst number-field gap 2.85e-12)",
     {"worst_gap": 2.8459457013241263e-12}),
    ("poisson", 11, "two-sided sums agree on 11 configurations", {}),
    ("ff-sections", 488, "section counts match brute enumeration on 488 divisors", {}),
    ("theta-oracle", 1, "theta(1) = 1.0864348112 matches to 1e-10",
     {"theta": 1.086434811213308}),
    ("negative-control", 1, "corrupted transform rejected with a coset witness", {}),
]


def test_suite_fast(capsys):
    code, out, _ = run(capsys, "suite", "--fast", "--seed", "1", "--output", "json")
    assert code == 0
    objs = json_lines(out)
    assert objs[-1] == {"check": "summary", "pass": True, "passed": 10, "seed": 1,
                        "total": 10}
    for obj, (name, checks, detail, extra) in zip(objs[:-1], SUITE_FAST_SEED_1,
                                                  strict=True):
        assert obj.pop("runtime_ms") >= 0
        assert obj == {"check": name, "pass": True, "checks": checks,
                       "detail": detail, "seed": 1, **extra}


@pytest.mark.parametrize("argv", [
    ("h0", "--tol", "0"),
    ("h0", "--tol", "nan"),
    ("h0", "--tol=-1e-3"),
    ("h0", "--max-radius", "-0.5"),
    ("h0", "--tol", "abc"),
    ("h0", "--max-radius", "inf"),
    ("h0", "--max-radius", "nan"),
    ("h0", "--idele", "inf#0:abc"),
    ("h0", "--idele", "inf#0:nan"),
    ("h0", "--idele", "inf#0:inf"),
    ("chi", "--idele", "inf#x:2"),
    ("chi", "--idele", "p5#y:1"),
    ("verify", "lemmas", "--range", "5..-5"),
    ("verify", "lemmas", "--range", "abc"),
    ("verify", "inversion", "--p", "4"),
    ("transform", "--p", "2", "--quad-index=-1"),
    ("transform", "--p", "2", "--quad-index", "5"),
    ("h0", "--tol", "-1e-3"),
    ("h0", "--max-radius", "-1e3"),
    ("chi", "--field", "Fq(t) q=3", "--idele", "p-1#0:1"),
    ("transform",),
    ("verify", "bogus"),
    ("chi", "--output", "xml"),
    ("h0", "--idele", "inf#-1:2"),
    ("chi", "--field", "Q(sqrt5)", "--idele", "p5#-1:1"),
    ("chi", "--field", "hyperelliptic q=0 f=1"),
    ("chi", "--field", "Q", "--idele", "p5#0:" + "9" * 400),
    ("h0", "--field", "Q", "--idele", "p5#0:" + "9" * 400),
    ("h1", "--field", "Q", "--idele", "p5#0:" + "9" * 400),
    ("chi", "--field", "Fq(t) q=3", "--idele", "p3#0:" + "9" * 400),
    # place codes past 10^18: a degree-521 trinomial over F_2, 3^40 over F_3
    ("chi", "--field", "Fq(t) q=2", "--idele", f"p{2 ** 521 + 2 ** 32 + 1}#0:1"),
    ("chi", "--field", "Fq(t) q=3", "--idele", f"p{3 ** 40}#0:1"),
    # file inputs that cannot be read, and a place kind that does not exist
    ("chi", "--config"),
    ("chi", "--config", "/nonexistent/run.cfg"),
    ("chi", "--config=/nonexistent/run.cfg"),
    ("chi", "--field", "@/nonexistent/field.txt"),
    ("chi", "--idele", "x5:1"),
    # options a command does not read, and a kind after its options
    ("describe", "--tol", "1e-3"),
    ("chi", "--max-radius", "5"),
    ("verify", "lemmas", "--p", "3", "--field", "Z"),
    ("verify", "inversion", "--idele", "bogus"),
    ("verify", "rr", "--tol", "1e-3"),
    ("verify", "serre", "--p", "3"),
    ("verify", "rr-rel", "--count", "0", "--base", "Z"),
    ("verify", "--field", "Q", "rr"),
    # a negative number of cases
    ("verify", "rr", "--count", "-1"),
    ("verify", "inversion", "--count", "-1"),
])
def test_bad_numeric_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, (argv, out, err)
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, idele, h0", [
    ("Q", "inf#0:1e-320", None),
    ("Q(i)", "inf#0:1e-320", None),
    ("Q(sqrt5)", "inf#0:1e-200", 0.0),
    ("Q(i)", "inf#0:1e-200", 0.0),
    ("Q", "inf#0:1e-300", 0.0),
    ("Q", "inf#0:1e9", None),
    ("Q(i)", "inf#0:1e9", None),
    ("Q(sqrt5)", "inf#0:1e100", None),
    ("Q", "p5#0:100000", 0.0),
    ("Q(i)", "p5#0:300", 0.0),
    ("Q(i)", "p5#0:20000", 0.0),
    ("Q(i)", "p5#0:100000000", 0.0),
    ("Q", "p5#0:-400", None),
    ("Q(i)", "p5#0:-300", None),
    ("Q(sqrt5)", "p11#0:2000,p11#1:-2000", None),
])
def test_h0_extreme_archimedean_component(capsys, field, idele, h0):
    # either a finite h0 and a clean stderr, or exit 2 with one line; the
    # norm settles sparse and dense ideles before a float lattice can be
    # singular
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "h0", "--field", field, "--idele", idele,
                             "--output", "json")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1
    if code == 0:
        value = json_lines(out)[0]["result"]["value"]
        assert math.isfinite(value) and not err
    else:
        assert code == 2 and err.strip() and "singular" not in err
    if h0 is not None:
        assert code == 0 and value == h0


def test_verify_inversion_cli_matches_suite(capsys):
    code, out, _ = run(capsys, "verify", "inversion", "--p", "2", "--count", "3",
                       "--seed", "5", "--output", "json")
    assert code == 0
    obj = json_lines(out)[0]
    assert obj["check"] == "inversion" and obj["pass"] is True
    assert obj["checks"] == 3 * 8 and obj["seed"] == 5  # 8 fields over p = 2


@pytest.mark.parametrize("argv", [
    ("verify", "inversion", "--count", "0"),
    ("verify", "rr", "--count", "0"),
])
def test_verify_that_ran_nothing_fails(capsys, argv):
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 1
    obj = json_lines(out)[-1]
    assert obj["pass"] is False and "zero cases" in obj["detail"]


# -- every accepted option is read ---------------------------------------------------


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# each command with the fewest arguments it runs on; inversion runs one
# function per field, as its default 20 take seconds
MINIMAL_ARGVS = [("describe",), ("chi",), ("h0",), ("h1",), ("chi-rel",), ("suite",),
                 ("transform", "--p", "2"), ("verify", "lemmas"),
                 ("verify", "inversion", "--count", "1"), ("verify", "rr"),
                 ("verify", "rr-rel"), ("verify", "serre"), ("verify", "poisson")]


def test_every_accepted_option_is_read(monkeypatch, capsys):
    # an option that a command accepts but never reads would let bad input
    # pass unnoticed; the battery itself is not what is under test here
    monkeypatch.setattr(cli, "run_battery", lambda seed, fast: [])
    unread = []
    for argv in MINIMAL_ARGVS:
        args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
        object.__getattribute__(args, "_reads").clear()
        assert args.func(args) == 0, argv
        dests = {d for d in vars(args) if not d.startswith("_")}
        unread += [(" ".join(argv[:2] if argv[0] == "verify" else argv[:1]), dest)
                   for dest in sorted(dests - object.__getattribute__(args, "_reads")
                                      - {"func", "command", "what", "config"})]
    capsys.readouterr()
    assert not unread, f"{len(unread)} accepted options never read: {unread}"


# -- large place codes ---------------------------------------------------------------


@pytest.mark.parametrize("field, idele, code, needle", [
    # inert in Q(i): the residue field has (10^9 + 7)^2 elements
    ("Q(i)", "p1000000007#0:1", 0, '"symbolic": [[2, "-1"], [1000000007, "-2"]]'),
    # degree 49 over F_2: reducible, and x^49 + x^9 + 1
    ("Fq(t) q=2", "p1000000000000000:1", 2, "not monic irreducible"),
    ("Fq(t) q=2", "p562949953421825:1", 0, '"symbolic": [[2, "-48"]]'),
    # inert in Q(sqrt 5): (10^15 + 37)^2 is a perfect power past Miller-Rabin
    ("Q(sqrt 5)", "p1000000000000037:1", 0, '[1000000000000037, "-2"]'),
    ("Q", "p1000000000000003:1", 2, "1000000000000003 is not a prime"),
], ids=["Qi-inert", "F2-reducible", "F2-irreducible", "Qsqrt5-inert", "Q-composite"])
def test_large_place_codes(capsys, field, idele, code, needle):
    t = time.perf_counter()
    got, out, err = run(capsys, "chi", "--field", field, "--idele", idele,
                        "--output", "json")
    assert time.perf_counter() - t < 0.2
    assert got == code
    assert needle in (out if code == 0 else err)
    assert len((out if code == 0 else err).strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["chi", "--field", "Q", "--idele", "p10000000000000000000000000331:1"],
    ["verify", "lemmas", "--p", "10000000000000000000000000331"],
], ids=["chi", "verify-lemmas"])
def test_unproven_primes_exit_cleanly(argv):
    # a probable prime past 3.3e24 cannot be proven prime; the command runs in
    # a separate process with a timeout, so a hang fails instead of stalling
    src = pathlib.Path(adelic.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "adelic.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "proves primality only below" in proc.stderr


# -- grammar fuzz -------------------------------------------------------------------

FUZZ_FIELDS = (["Q", "Q(i)", "Q(sqrt 5)", "Q(sqrt-3)", "Q(sqrt 2)", "Fq(t) q=2",
                "Fq(t) q=3", "Fq(t) q=4", "hyperelliptic q=3 f=0,-1,0,1",
                # radicands near 10^12-10^15: prime, prime, 14902357 * 67103479
                "Q(sqrt 1000000000039)", "Q(sqrt -10000000000037)",
                "Q(sqrt 1000000000000003)"],
               ["Z", "", "Q(sqrt 12)", "Q(sqrt 1)", "Q(sqrt 0)", "Q(sqrt x)", "Fq(t)",
                "Fq(t) q=6", "Fq(t) q=0", "hyperelliptic q=3", "hyperelliptic q=0 f=1",
                "Q(sqrt 1000000000000004)"])
# place codes past trial division: degree-49 polynomials over F_2 (10^15 is
# reducible, x^49 + x^9 + 1 is not), an inert prime of Q(i), and a prime and
# a composite near 10^15
FUZZ_BIG_CODES = [10 ** 15, 1000000007, 562949953421825, 1000000000000037,
                  1000000000000003]
FUZZ_VALUES = ["-2", "-1", "0", "1", "2", "0.5", "2.5", "1e-3", "abc", "nan", "", "inf",
               "300", "-300", "1e-200", "1e200"]


def pick(draw, choices):
    """One of (valid, invalid), the invalid ones a fifth of the time."""
    valid, invalid = choices
    return draw(st.sampled_from(invalid if draw(st.integers(0, 4)) == 0 else valid))


@st.composite
def idele_literals(draw):
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        sel = draw(st.sampled_from(["p", "inf"]))
        if sel == "p":
            big = draw(st.booleans())
            sel += str(draw(st.sampled_from(FUZZ_BIG_CODES) if big else st.integers(-30, 30)))
        if draw(st.booleans()):
            sel += f"#{draw(st.integers(-1, 2))}"
        parts.append(f"{sel}:{draw(st.sampled_from(FUZZ_VALUES))}")
    return ",".join(parts) or draw(st.sampled_from(["trivial", ""]))


FUZZ_OPTIONS = {
    "--field": lambda draw: pick(draw, FUZZ_FIELDS),
    "--base": lambda draw: pick(draw, FUZZ_FIELDS),
    "--idele": lambda draw: draw(idele_literals()),
    "--tol": lambda draw: pick(draw, (["1e-10", "1e-3"], ["0", "-1", "nan"])),
    "--count": lambda draw: str(draw(st.integers(-1, 2))),
    "--p": lambda draw: str(draw(st.integers(-1, 5))),
    "--range": lambda draw: pick(draw, (["-1..1", "2..2"], ["1..-1", "abc"])),
}
# the fuzzed options each command reads; --count always, as its default of 20
# is slow on inversion and theta kinds
FUZZ_READS = {
    "describe": ["--field"],
    "chi": ["--field", "--idele"],
    "h0": ["--field", "--idele", "--tol"],
    "h1": ["--field", "--idele", "--tol"],
    "chi-rel": ["--field", "--idele", "--base"],
    "verify lemmas": ["--p", "--range"],
    "verify inversion": ["--count", "--p"],
    "verify rr": ["--count", "--field", "--idele"],
    "verify rr-rel": ["--count", "--field", "--idele", "--base"],
    "verify serre": ["--count", "--field", "--idele", "--tol"],
    "verify poisson": ["--count", "--field", "--idele", "--tol"],
}


@st.composite
def cli_argvs(draw):
    cmd = pick(draw, ([*FUZZ_READS, "transform"], ["bogus", "suites", "verify bogus"]))
    argv = cmd.split()
    if cmd == "transform":
        argv += ["--p", str(draw(st.integers(-1, 7)))]
        if draw(st.booleans()):
            argv += ["--base-kind", pick(draw, (["p-adic", "laurent"], ["bogus"]))]
        if draw(st.booleans()):
            argv += ["--quad-index", str(draw(st.integers(-1, 4)))]
        argv += ["--m", str(draw(st.integers(-2, 2)))]
        return argv
    reads = FUZZ_READS.get(cmd, ["--field"])
    for opt in reads:
        if opt in ("--count", "--field") or draw(st.booleans()):
            argv += [opt, FUZZ_OPTIONS[opt](draw)]
    if draw(st.booleans()):
        argv += ["--output", pick(draw, (["text", "json"], ["xml"]))]
    if draw(st.integers(0, 4)) == 0:  # an option the command does not read
        opt = draw(st.sampled_from(sorted(set(FUZZ_OPTIONS) - set(reads))))
        argv += [opt, FUZZ_OPTIONS[opt](draw)]
    return argv


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(cli_argvs())
def test_cli_grammar_fuzz(argv):
    # every argv ends in 0, 1 or 2; exit 2 says why on exactly one line;
    # an uncaught exception propagates out of main and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
