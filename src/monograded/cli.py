"""Command-line front end.

JSON is the canonical output; table renderings, and the csv rows of the bound
reports of `verify` and `reproduce`, are derived from the same document.
Every document embeds the resolved run configuration and a schema version, so
identical configurations produce byte-identical output.

Exit codes: 0 success, 1 computation failure (also exhausted memory or
recursion depth, or an integer too large to compute with), 2 usage error (a
missing or malformed ring, ideal, window or semigroup input, a `hilbert`
window wider than MAX_WINDOW degrees, an explicit `cohomology` window wider
than that once clipped at the top degree of the cohomology, out-of-range
numeric options and a `verify` instance flag without --ideal), 3
reproduction mismatch.  Every failure but argparse's own is a JSON error
document.

`build_parser` compiles each subcommand's argparse actions into a flag table,
and `main` reads an argv that starts with a subcommand name with that table
when each word is an exact option string and its value, an `--option=value`
or the next positional.  argparse reads any other argv, so help,
abbreviations and usage errors read as argparse writes them.
JSON output has the bytes of `json.dumps(doc, indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

from . import bounds, cohomology, filtration, hilbert, semigroup
from .errors import ComputationError
from .monomials import MonomialIdeal, parse_ideal

SCHEMA = "monograded/1"
# csv renders bound reports, which only `verify` and `reproduce` make.
REPORT_FORMATS = ("json", "csv", "table")
# The widest `hilbert --window`, and the widest explicit `cohomology --window`
# clipped at the top degree of the cohomology, in degrees: a value per degree
# is built.
MAX_WINDOW = 100_001


class UsageError(Exception):
    """Malformed command-line input: reported as a JSON error document, exit 2."""


@contextmanager
def _parsing_input():
    """Turn a ValueError raised while parsing command-line input into a UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monograded",
        description="Exact invariants of monomial quotients and semigroup rings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # dest -> the least value the integer option accepts; main checks it.
    parser.option_minimum = {}
    commands = {}

    def add_command(name, summary):
        commands[name] = p = sub.add_parser(name, help=summary)
        return p

    def add_int(p, flag, default, least, **kwargs):
        action = p.add_argument(flag, type=int, default=default, **kwargs)
        parser.option_minimum[action.dest] = least

    def add_common(p, formats=("json", "table")):
        p.add_argument("--ring", help="comma-separated variable names, e.g. x,y")
        p.add_argument("--ideal", help="generators, e.g. 'x^3, x^2*y^4'")
        p.add_argument("--format", choices=formats, default="json")

    p = add_command("hilbert", "Hilbert series, dimension, multiplicity")
    add_common(p)
    p.add_argument("--window",
                   help=f"n-range lo:hi for the H(n)/P(n) table, at most {MAX_WINDOW} degrees")

    p = add_command("cohomology", "graded local cohomology table")
    add_common(p)
    p.add_argument("--window",
                   help="degree range lo:hi (default: the support box); clipped at the top degree"
                   f" of the cohomology, an explicit window spans at most {MAX_WINDOW} degrees,"
                   " checked once the table is computed")

    p = add_command("reduction", "filtration report: e, Ratliff-Rush, mu, r")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    add_int(p, "--trials", 3, 1)
    add_int(p, "--coeff-bound", 100, 1)
    add_int(p, "--n-bound", None, 0)
    add_int(p, "--powers", 4, 0, help="table depth for powers of I")

    p = add_command("verify", "check the a-invariant and reduction-number bounds on instances or corpora")
    add_common(p, REPORT_FORMATS)
    p.add_argument("--semigroup", help="semigroup generators, e.g. 4,5,6,7")
    p.add_argument("--bound", default="all", choices=(*bounds.BOUNDS, "all"))
    p.add_argument("--corpus-seed", type=int, default=None, help="corpus RNG seed (default 0)")
    add_int(p, "--count", 25, 0)
    add_int(p, "--vars", 2, 1, help="variables for the thm2.1 and eg-lower corpora;"
            " prop3.3 always uses 2, prop3.4 at least 3, prop3.1 ignores it")
    add_int(p, "--degree-bound", 6, 1, help="largest pure-power exponent in monomial"
            " corpora; prop3.4 uses at most 3, prop3.1 ignores it")

    p = add_command("reproduce", "re-run a worked example and compare values")
    p.add_argument("example", choices=EXAMPLES)
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    # subcommand name -> the flag table `_read` reads its words with.
    parser.tables = {name: _compile(p) for name, p in commands.items()}
    return parser


def _compile(parser: argparse.ArgumentParser):
    """(options, positionals, defaults) of a subcommand's parser: each option
    string -> its store action (None for help, which argparse answers), the
    positional actions in order, and each dest -> its default, a string
    default converted through the action's type as argparse converts it.
    None when the parser has an action that `_read` cannot read as argparse
    does, so that every argv of the subcommand goes to argparse."""
    options, positionals, defaults = {}, [], dict(parser._defaults)
    for action in parser._actions:
        if action.default is argparse.SUPPRESS and not action.required:
            options.update(dict.fromkeys(action.option_strings))  # -h, --help
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None or (
                action.option_strings and action.required):
            return None
        default = action.default
        if isinstance(default, str) and action.type is not None:
            default = action.type(default)
        defaults[action.dest] = default
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
    return options, positionals, defaults


def _read(table, words: list[str]) -> argparse.Namespace | None:
    """The namespace the subcommand's parser gives for `words` when every
    word is an exact option string followed by a value that does not start
    with '-', an `--option=value`, or the next positional; a repeated option
    keeps its last value.  None, for argparse to answer, on anything else:
    help, `--`, an abbreviated or unknown option, a missing value, a value
    its type or choices refuse, a leftover word or an unfilled positional."""
    options, positionals, values = table[0], iter(table[1]), dict(table[2])
    words = iter(words)
    for word in words:
        if word in options:
            action, value = options[word], next(words, "-")
            if value[:1] == "-":
                return None
        elif word[:1] == "-":
            flag, equals, value = word.partition("=")
            # argparse versions differ on `--option=--`
            action = options.get(flag) if equals and value != "--" else None
        else:
            action, value = next(positionals, None), word
        if action is None:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if next(positionals, None) is not None:
        return None
    return argparse.Namespace(**values)


def check_option_ranges(args, option_minimum: dict[str, int]) -> None:
    # Each subcommand defines only some of the options.
    for key, least in option_minimum.items():
        value = getattr(args, key, None)
        if value is not None and value < least:
            option = "--" + key.replace("_", "-")
            raise UsageError(f"{option} must be at least {least}, got {value}")


def parse_window(text: str | None, max_width: int | None = None) -> tuple[int, int] | None:
    """(lo, hi) from `--window lo:hi`, or None without the flag; a window of
    more than `max_width` degrees is refused."""
    if text is None:
        return None
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise UsageError(f"--window must be lo:hi with integer bounds, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"--window lo:hi needs lo <= hi, got {text!r}")
    if max_width is not None and hi - lo >= max_width:
        raise UsageError(f"--window lo:hi spans at most {max_width} degrees, got {text!r}")
    return lo, hi


def attach_windows(argv: list[str]) -> list[str]:
    """argv with `--window lo:hi` spelled `--window=lo:hi` where lo is
    negative, also for an abbreviated flag such as `--win`.  argparse reads a
    word that starts with '-' and is not a plain number as an option, so
    `--window -6:3` would lack its value; attached, it is the value.  Any
    other `--window`, such as a last word, stays for argparse to judge, and
    so does every word after `--`."""
    words = list(argv)
    end = words.index("--") if "--" in words else len(words)
    for at in reversed(range(end - 1)):
        flag, value = words[at], words[at + 1]
        if len(flag) > 2 and "--window".startswith(flag) and value[:1] == "-" and value[1:2].isdigit():
            words[at:at + 2] = [f"{flag}={value}"]
    return words


def parse_integers(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of a semigroup flag; a bad piece raises
    ValueError naming the flag, its whole input and the piece."""
    values = []
    for piece in text.split(","):
        try:
            values.append(int(piece))
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {piece!r} is not an integer") from None
    return tuple(values)


def require_ring_ideal(args) -> tuple[tuple[str, ...], MonomialIdeal]:
    """(names, ideal) from --ring and --ideal; every --ring piece must be a
    variable name."""
    if args.ring is None or args.ideal is None:
        raise UsageError("this subcommand needs --ring and --ideal")
    names = tuple(s.strip() for s in args.ring.split(","))
    if not any(names):
        raise UsageError("the ring needs at least one variable")
    with _parsing_input():
        return names, parse_ideal(args.ideal, names)


# -- subcommand handlers: each returns the document's entries ---------------


def run_hilbert(args) -> dict:
    names, ideal = require_ring_ideal(args)
    window = parse_window(args.window, MAX_WINDOW)
    series = hilbert.hilbert_series(ideal)
    result: dict = {
        "ring": list(names),
        "ideal": ideal.format(names),
        "numerator": series.numerator,
        "zero_ring": series.is_zero_ring,
    }
    if not series.is_zero_ring:
        result.update(
            reduced_numerator=series.reduced_numerator,
            dim=series.dim,
            multiplicity=series.multiplicity,
            codim=ideal.k - series.dim,
        )
        if window:
            result["table"] = [{"n": n, "H": h, "P": p} for n, h, p in series.window(*window)]
    return {"result": result}


def run_cohomology(args) -> dict:
    names, ideal = require_ring_ideal(args)
    window = parse_window(args.window)
    table = cohomology.cohomology_table(ideal)
    rho_sum = sum(table.rho)
    lo, hi = window or (-rho_sum, rho_sum)
    if window and min(hi, table.reach) - lo >= MAX_WINDOW:
        raise UsageError(f"--window lo:hi spans at most {MAX_WINDOW} degrees up to the top degree"
                         f" {table.reach} of the cohomology, got {args.window!r}")
    return {"result": {
        "ring": list(names),
        "ideal": ideal.format(names),
        "window": [lo, hi],
        "h": table.rows(lo, hi),
        "a": table.a_invariant,
        "depth": table.depth,
        "eg": table.eg_invariant,
        "dim": table.dim,
        "multiplicity": hilbert.hilbert_series(ideal).multiplicity,
    }}


def run_reduction(args) -> dict:
    names, ideal = require_ring_ideal(args)
    return {"result": filtration.filtration_report(
        ideal,
        names,
        trials=args.trials,
        seed=args.seed or 0,
        coeff_bound=args.coeff_bound,
        n_bound=args.n_bound,
        powers=args.powers,
    )}


def run_verify(args) -> dict:
    seed = args.corpus_seed or 0
    names = list(bounds.BOUNDS) if args.bound == "all" else [args.bound]
    if args.ideal is None:
        for flag, value in (("--ring", args.ring), ("--semigroup", args.semigroup)):
            if value is not None:
                raise UsageError(f"{flag} describes a single instance and needs --ideal")
    else:
        if args.semigroup is not None:
            with _parsing_input():
                S = semigroup.NumericalSemigroup(parse_integers("--semigroup", args.semigroup))
                instance = semigroup.SemigroupIdeal(S, parse_integers("--ideal", args.ideal))
        else:
            _, instance = require_ring_ideal(args)
        reports = [
            bounds.BOUNDS[name].check(instance, "cli-instance", seed)
            for name in names
            if bounds.BOUNDS[name].applies(instance)
        ]
        return {"result": {
            "reports": [r.to_dict() for r in reports],
            "aggregate": bounds.aggregate(reports),
        }}
    out: dict = {"corpora": {}}
    all_reports = []
    for name in names:
        reports, agg = bounds.run_corpus(
            name, seed=seed, count=args.count, k=args.vars, deg_bound=args.degree_bound
        )
        all_reports.extend(reports)
        out["corpora"][name] = {
            "reports": [r.to_dict() for r in reports],
            "aggregate": agg,
        }
    out["aggregate"] = bounds.aggregate(all_reports)
    return {"result": out}


# -- reproduction of the two worked examples --------------------------------


class Expectations:
    """Calling it compares a value with the paper's and passes the value on."""

    def __init__(self):
        self.mismatches: list[str] = []

    def __call__(self, name: str, got, wanted):
        if got != wanted:
            self.mismatches.append(f"{name}: got {got!r}, expected {wanted!r}")
        return got


def reproduce_example_22() -> tuple[dict, list[str]]:
    expect = Expectations()
    plane = ("x", "y")
    ideal = parse_ideal("x^3, x^2*y^4, x*y^5, y^7", plane)
    mu_table = [filtration.mu(ideal, n) for n in range(1, 7)]
    expect("mu table", mu_table, [3 * n + 1 for n in range(1, 7)])
    fiber = filtration.fiber_cone_series(ideal)
    expect("fiber numerator", fiber.reduced_numerator, [1, 2])
    expect("fiber dim", fiber.dim, 2)

    names4 = ("a", "b", "c", "d")
    n_ideal = parse_ideal("b*d, b*c, b^2, c^3", names4)
    j_ideal = parse_ideal("b, c^3", names4)
    k_ideal = parse_ideal("c, d, b^2", names4)
    intersection_ok = j_ideal.intersection(k_ideal) == n_ideal
    expect("intersection (b,c^3) cap (c,d,b^2)", intersection_ok, True)

    series = hilbert.hilbert_series(n_ideal)
    expect("reduced numerator", series.reduced_numerator, [1, 2])
    expect("dim", series.dim, 2)
    expect("multiplicity", series.multiplicity, 3)

    table = cohomology.cohomology_table(n_ideal)
    expect("depth", table.depth, 1)
    a_value = expect("a-invariant", table.a_invariant, 0)
    h1_0 = expect("h^1 at degree 0", table.h(1, 0), 1)
    eg = expect("EG", table.eg_invariant, 1)

    aux = {
        "R/J": cohomology.cohomology_table(j_ideal).a_invariant,
        "R/K": cohomology.cohomology_table(k_ideal).a_invariant,
        "R/(J+K)": cohomology.cohomology_table(j_ideal + k_ideal).a_invariant,
    }
    expect("aux a-invariants", aux, {"R/J": 0, "R/K": 0, "R/(J+K)": -1})

    bound = bounds.verify_main_bound(n_ideal, "example-2.2")
    expect("main bound status", bound.status, "sharp")

    result = {
        "ideal": ideal.format(plane),
        "fiber_presentation": n_ideal.format(names4),
        "mu": mu_table,
        "fiber_reduced_numerator": fiber.reduced_numerator,
        "hilbert_reduced_numerator": series.reduced_numerator,
        "dim": series.dim,
        "e": series.multiplicity,
        "depth": table.depth,
        "a": a_value,
        "h1_0": h1_0,
        "eg": eg,
        "aux_a_invariants": aux,
        "intersection_matches": intersection_ok,
        "bound": bound.to_dict(),
        "sharp": bound.status == "sharp",
    }
    return result, expect.mismatches


def reproduce_example_32() -> tuple[dict, list[str]]:
    expect = Expectations()
    S = semigroup.NumericalSemigroup((4, 5, 6, 7))
    ideal = semigroup.SemigroupIdeal(S, (4, 5, 6))
    maximal = semigroup.SemigroupIdeal(S, (4, 5, 6, 7))
    i2 = semigroup.ideal_power_sg(ideal, 2)
    i2_eq_m2 = expect("I^2 = m^2", i2 == semigroup.ideal_power_sg(maximal, 2), True)
    rr_ok = expect("rr(I^2) = I^2", semigroup.rr_sg(ideal, 2) == i2, True)
    e = expect("e(I)", semigroup.multiplicity_sg(ideal), 4)
    l_r_i = expect("l(R/I)", semigroup.length_sg(ideal), 2)
    l_i_i2 = expect("l(I/I^2)", semigroup.length_between_sg(ideal, i2), 3)
    r, j = semigroup.reduction_number_sg(ideal)
    expect("r w.r.t. (t^4)", (r, j), (2, 4))
    report = bounds.verify_prop_3_1(ideal, "example-3.2")
    expect("prop 3.1 status", report.status, "sharp")

    result = {
        "semigroup": [4, 5, 6, 7],
        "ideal": [4, 5, 6],
        "I2_equals_m2": i2_eq_m2,
        "rr_I2_equals_I2": rr_ok,
        "e": e,
        "l_R_I": l_r_i,
        "l_I_I2": l_i_i2,
        "r": r,
        "principal_reduction": j,
        "bound": report.to_dict(),
        "sharp": report.status == "sharp",
    }
    return result, expect.mismatches


EXAMPLES = {"example-2.2": reproduce_example_22, "example-3.2": reproduce_example_32}


def run_reproduce(args) -> dict:
    result, mismatches = EXAMPLES[args.example]()
    return {"result": result, "mismatches": mismatches}


# -- rendering --------------------------------------------------------------


def render_csv(doc: dict) -> str:
    rows = _collect_reports(doc)
    lines = ["instance,bound,lhs,rhs,status,gap"]
    for r in rows:
        lines.append(
            ",".join(
                "" if r.get(key) is None else str(r.get(key))
                for key in ("instance", "bound", "lhs", "rhs", "status", "gap")
            )
        )
    return "\n".join(lines) + "\n"


def _collect_reports(doc) -> list[dict]:
    found: list[dict] = []
    if isinstance(doc, dict):
        if {"instance", "bound", "status"} <= doc.keys():
            found.append(doc)
        for value in doc.values():
            found.extend(_collect_reports(value))
    elif isinstance(doc, list):
        for value in doc:
            found.extend(_collect_reports(value))
    return found


def render_table(doc, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key in doc:
            value = doc[key]
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(render_table(value, indent + 1))
            else:
                lines.append(f"{pad}{key} = {_fmt_scalar(value)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, dict) or (isinstance(item, list) and not _is_scalar_list(item)):
                lines.append(render_table(item, indent))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}{_fmt_scalar(item)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(doc)}")
    return "\n".join(line for line in lines if line)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _fmt_scalar(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def _json_pieces(value, head: str, pieces: list[str], level: int) -> None:
    """Append `head` and then the JSON text of `value`, whose nested lines
    are indented by `level` + 1 steps, to `pieces`: one piece per scalar,
    with the separator and key that go in front of it.  Dispatch is on the
    exact type, so a bool is never taken for an int."""
    kind = type(value)
    if kind is str:
        pieces.append(head + encode_basestring_ascii(value))
    elif kind is int:
        pieces.append(head + int.__repr__(value))
    elif kind is dict:
        if not value:
            pieces.append(head + "{}")
            return
        inner = "\n" + "  " * (level + 1)
        head += "{" + inner
        for key in sorted(value):
            _json_pieces(value[key], head + encode_basestring_ascii(key) + ": ", pieces, level + 1)
            head = "," + inner
        pieces.append("\n" + "  " * level + "}")
    elif kind is list:
        if not value:
            pieces.append(head + "[]")
            return
        inner = "\n" + "  " * (level + 1)
        head += "[" + inner
        for item in value:
            _json_pieces(item, head, pieces, level + 1)
            head = "," + inner
        pieces.append("\n" + "  " * level + "]")
    elif value is None:
        pieces.append(head + "null")
    elif value is True:
        pieces.append(head + "true")
    elif value is False:
        pieces.append(head + "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render(doc: dict, fmt: str) -> str:
    """The document as csv rows, a table, or JSON with the bytes of
    `json.dumps(doc, indent=2, sort_keys=True)`, each ending in a newline.
    A document holds dicts with str keys, lists, strs, ints, bools and None;
    any other value raises TypeError."""
    if fmt == "csv":
        return render_csv(doc)
    if fmt == "table":
        return render_table(doc) + "\n"
    pieces: list[str] = []
    _json_pieces(doc, "", pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


# -- entry point -------------------------------------------------------------


def config_dict(args) -> dict:
    return {"subcommand": args.subcommand, **dict(sorted(vars(args).items()))}


COMMANDS = {"hilbert": run_hilbert, "cohomology": run_cohomology, "reduction": run_reduction,
            "verify": run_verify, "reproduce": run_reproduce}

_parser: argparse.ArgumentParser | None = None


def _parse_argv(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """The namespace `parser.parse_args(attach_windows(argv))` gives, read
    with the named subcommand's flag table (`_read`) when that table takes
    the whole argv.  argparse reads any other argv, and so answers help,
    abbreviations and usage errors itself."""
    table = parser.tables.get(argv[0]) if argv else None
    args = _read(table, argv[1:]) if table else None
    if args is None:
        return parser.parse_args(attach_windows(argv))
    args.subcommand = argv[0]
    return args


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # one parser per process
        _parser = build_parser()
    args = _parse_argv(_parser, sys.argv[1:] if argv is None else argv)
    doc = {"schema": SCHEMA, "config": config_dict(args)}
    try:
        check_option_ranges(args, _parser.option_minimum)
        doc.update(COMMANDS[args.subcommand](args))
    except (UsageError, ComputationError, MemoryError, RecursionError, OverflowError) as exc:
        # A MemoryError carries no text; a RecursionError names the depth, an
        # OverflowError the integer operation (an exponent of 20 digits).
        doc["error"] = {"type": type(exc).__name__, "message": str(exc) or "out of memory"}
    error = doc.get("error")
    sys.stdout.write(render(doc, "json" if error else args.format))  # errors are always JSON
    if error:
        return 2 if error["type"] == "UsageError" else 1
    return 3 if doc.get("mismatches") else 0


if __name__ == "__main__":
    sys.exit(main())
