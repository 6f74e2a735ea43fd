"""A seeded fuzzer for the command line: a few hundred argv drawn from a token
grammar of flags and edge values, each run through `cli.main` in-process.

Bad input must give a structured answer, never a traceback: argparse's own
exit 2 on stderr, or a JSON error document.  Ideals are tiny and corpora have
at most two instances, so every op is quick; the huge values are the ones
whose size is not itself a request for work (exponents, seeds and window
offsets past 64 bits, narrow windows far from 0), since a wide window, a long
corpus or an exponent of 10^8 asks for that much work.
"""

import io
import json
import random
import signal
import sys
import time

import pytest

from monograded import cli
from test_cli import parse_outcome

SEED = 20
ARGVS = 400
CAP_S = 5.0  # per op; the slowest here take about 0.2 s
HUGE = "99999999999999999999"

# Each flag draws a plain value or, less often, an edge value.
RINGS = (["x,y,z", "x,y,z", "x,y", "y,x,z", "x,y,z,w"],
         ["x", "a_1,b2", "x,x", "", ",", "x y", "1", "x,y,", "x^2"])
IDEALS = (["x^2, y^3", "x*y", "x^2, x*y, y^2", "x^3, x^2*y, y^4", "x^2, y^2, z^2",
           "x^2, y^2, z^2, x*y*z", "x", "x^2 * y, y^3, x^4", f"x^{HUGE}, y^2"],
          ["1", "0", "", "x^-1", f"x^{HUGE}", "q", "x^2,,y", "x^", "x*y*x, y^2",
           "x^0", "^2", "x**2", "x^2, x^2"])
WINDOWS = (["0:3", "-2:2", "0:0", "-6:3"],
           ["3:1", "", "abc", "5", "-1", ":", "1:2:3", "0:x", f"-{HUGE}:-{HUGE}",
            f"{HUGE}0:{HUGE}2", "-1000000000000:-999999999998"])
SEEDS = (["0", "1", "7"], ["-1", "-7", "", "x", "1.5", HUGE, f"-{HUGE}", "0x10", " 2"])
SEMIGROUPS = (["4,5,6,7", "3,5", "5,7,9", "2,3"], ["4,6", "", "0", "-3,5", "1", "4,,5", "a,b"])
SG_IDEALS = (["4,5,6", "5", "3", "9,10"], ["", "0", "-4", "x", "4,4", "4 ,5"])
FORMATS = (["json", "table"], ["csv", "xml", ""])

FLAGS = {
    "hilbert": {"--ring": RINGS, "--ideal": IDEALS, "--window": WINDOWS, "--format": FORMATS},
    "cohomology": {"--ring": RINGS, "--ideal": IDEALS, "--window": WINDOWS,
                   "--format": FORMATS},
    "reduction": {"--ring": RINGS, "--ideal": IDEALS, "--format": FORMATS, "--seed": SEEDS,
                  "--trials": (["1", "2"], ["0", "-1", "x"]),
                  "--coeff-bound": (["1", "100"], ["0", "-1", HUGE, "x"]),
                  "--n-bound": (["1", "2", "3"], ["0", "-1", "", "x"]),
                  "--powers": (["0", "1", "2"], ["-1", "x", ""])},
    "verify": {"--ring": RINGS, "--ideal": IDEALS, "--semigroup": SEMIGROUPS,
               "--bound": (["all", "thm2.1", "eg-lower", "prop3.1", "prop3.3", "prop3.4"],
                           ["nope", "", "ALL"]),
               "--format": (["json", "table", "csv"], ["xml", ""]), "--corpus-seed": SEEDS,
               "--count": (["1", "2"], ["0", "-1", "x", ""]),
               "--vars": (["2", "3"], ["1", "0", "-1", "x"]),
               "--degree-bound": (["2", "3"], ["1", "0", "-5", "x"])},
    "reproduce": {"--format": (["json", "table", "csv"], ["xml", ""])},
}
EXAMPLES = (["example-2.2", "example-3.2"], ["nope", ""])
# Words put anywhere: unknown, stray and abbreviated flags (some ambiguous), and --.
STRAYS = ["--bogus", "-x", "---", "-1", "--", "extra", "--ri", "--id", "--win", "--fo",
          "--co", "--se", "--tr", "--bo", "--ringo", "--"]


def draw(rng, values):
    plain, edge = values
    return rng.choice(plain if rng.random() < 0.7 else edge)


def flag_words(rng, flag, values):
    value = draw(rng, values)
    spelling = flag if rng.random() < 0.85 else flag[:rng.randint(3, len(flag) - 1)]
    return [f"{spelling}={value}"] if rng.random() < 0.25 else [spelling, value]


def draw_argv(rng):
    command = rng.choice([*FLAGS, *FLAGS, *FLAGS, "nope", ""])
    words = [command] if command else []
    flags = FLAGS.get(command, FLAGS["verify"])
    if command == "reproduce" and rng.random() < 0.95:
        words.append(draw(rng, EXAMPLES))
    if command == "verify" and rng.random() < 0.4:  # a semigroup instance
        picked = ["--semigroup", "--ideal"]
        flags = {**flags, "--ideal": SG_IDEALS}
    else:
        picked = [flag for flag in ("--ring", "--ideal") if flag in flags and rng.random() < 0.9]
    picked += [flag for flag in sorted(flags) if flag not in picked and rng.random() < 0.25]
    rng.shuffle(picked)
    if rng.random() < 0.1 and picked:
        picked.append(rng.choice(picked))  # a repeated flag: the last one counts
    for flag in picked:
        words += flag_words(rng, flag, flags[flag])
    if command == "verify" and "--ideal" not in picked:
        words += ["--count", rng.choice(["0", "1", "2"])]  # a corpus stays tiny
    for _ in range(rng.choice([0] * 6 + [1, 2])):
        words.insert(rng.randint(0, len(words)), rng.choice(STRAYS))
    return words


class OpTimeout(BaseException):
    """Raised by the alarm when an op passes its time cap (not caught by main)."""


def on_alarm(signum, frame):
    raise OpTimeout


def run_capped(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@pytest.fixture
def alarm():
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_seeded_argv_give_a_document_or_argparse_exit_2(alarm):
    rng = random.Random(SEED)
    parser = cli.build_parser()
    codes = {}
    for _ in range(ARGVS):
        argv = draw_argv(rng)
        parsed = parse_outcome(lambda words: parser.parse_args(cli.attach_windows(words)), argv)
        # the subcommand dispatch agrees with the top-level parser
        assert parse_outcome(lambda words: cli._parse_argv(parser, words), argv) == parsed, argv
        code, out, err, seconds = run_capped(argv)
        assert seconds < CAP_S, argv
        codes[code] = codes.get(code, 0) + 1
        if parsed[0] == "exit":  # argparse: usage and message on stderr only
            assert parsed[1] == 2 and code == ("SystemExit", 2), argv
            assert out == "" and "error: " in err, argv
            continue
        assert code in (0, 1, 2, 3) and err == "" and out.endswith("\n"), argv
        if code in (1, 2) or parsed[1].format == "json":
            doc = json.loads(out)
            assert doc["schema"] == cli.SCHEMA, argv
            assert ("error" in doc) == (code in (1, 2)), argv
    # the grammar reaches every outcome
    assert {0, 1, 2, ("SystemExit", 2)} <= codes.keys(), codes
