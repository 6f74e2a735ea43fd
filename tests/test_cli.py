import argparse
import hashlib
import io
import json
import sys
from operator import sub

import pytest

from monograded import cli, filtration
from monograded.hilbert import HilbertSeries


def run_cli(argv):
    buffer = io.StringIO()
    old = sys.stdout
    sys.stdout = buffer
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buffer.getvalue()


def test_reproduce_example_22():
    code, out = run_cli(["reproduce", "example-2.2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    result = doc["result"]
    assert result["a"] == 0
    assert result["h1_0"] == 1
    assert result["sharp"] is True
    assert result["mu"] == [4, 7, 10, 13, 16, 19]
    assert result["aux_a_invariants"] == {"R/J": 0, "R/K": 0, "R/(J+K)": -1}


def test_reproduce_example_32():
    code, out = run_cli(["reproduce", "example-3.2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    result = doc["result"]
    assert result["r"] == 2
    assert result["e"] == 4
    assert result["sharp"] is True


def test_hilbert_subcommand():
    code, out = run_cli(
        ["hilbert", "--ring", "a,b,c,d", "--ideal", "b*d, b*c, b^2, c^3"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["reduced_numerator"] == [1, 2]
    assert result["dim"] == 2
    assert result["multiplicity"] == 3


def test_hilbert_window_table():
    code, out = run_cli(
        ["hilbert", "--ring", "x", "--ideal", "x^3", "--window", "0:4"]
    )
    result = json.loads(out)["result"]
    table = {row["n"]: (row["H"], row["P"]) for row in result["table"]}
    assert table[0] == (1, 0) and table[2] == (1, 0) and table[3] == (0, 0)


def test_hilbert_unit_ideal_flagged():
    code, out = run_cli(["hilbert", "--ring", "x,y", "--ideal", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["zero_ring"] is True
    assert result["numerator"] == []


def test_cohomology_subcommand():
    code, out = run_cli(
        ["cohomology", "--ring", "a,b,c,d", "--ideal", "b*d, b*c, b^2, c^3"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["a"] == 0 and result["depth"] == 1 and result["eg"] == 1
    assert [1, 0, 1] in result["h"]


def test_reduction_subcommand():
    code, out = run_cli(
        ["reduction", "--ring", "x,y", "--ideal", "x^2, x*y, y^2", "--trials", "2"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["r"] == 1 and result["e"] == 4
    assert result["mu"][:2] == [3, 5]


def test_verify_single_instance_and_csv():
    code, out = run_cli(
        ["verify", "--semigroup", "4,5,6,7", "--ideal", "4,5,6", "--bound", "prop3.1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reports"][0]["status"] == "sharp"
    code, out = run_cli(
        ["verify", "--semigroup", "4,5,6,7", "--ideal", "4,5,6", "--format", "csv"]
    )
    lines = out.strip().splitlines()
    assert lines[0] == "instance,bound,lhs,rhs,status,gap"
    assert lines[1].startswith("cli-instance,prop3.1,2,2,sharp")


@pytest.mark.parametrize("argv", [
    ["hilbert", "--ring", "x,y", "--ideal", "x^2, y^3"],
    ["cohomology", "--ring", "x,y", "--ideal", "x*y"],
    ["reduction", "--ring", "x,y", "--ideal", "x^2, y^3"],
], ids=lambda argv: argv[0])
def test_csv_is_offered_only_where_there_are_bound_reports(capsys, argv):
    # csv renders bound reports; these documents hold none, so argparse refuses it
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--format", "csv"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, digest, lines", [
    (["reproduce", "example-2.2"], "5aef75078632b0f141f261aaf3237e3d0306154364942da42770725932c39589", 2),
    (["reproduce", "example-3.2"], "a87302570a3f3bd879aa7ebf988a03175eeb81c55de5792b8dbd77c0c72cc1cd", 2),
    (["verify", "--bound", "all", "--count", "4", "--corpus-seed", "2"],
     "cf84bbdb09aa3c4f647b8b416574bb2f03043d2ebba20c45d2854bf1666e37c2", 21),
    (["verify", "--bound", "prop3.4", "--vars", "3", "--count", "6"],
     "61fb237b6cf8f327e45c8734ec39fbb5e2ce15114232643ec0450d28a4febd53", 7),
], ids=["example-2.2", "example-3.2", "verify-all", "verify-prop3.4"])
def test_csv_of_verify_and_reproduce_is_pinned(argv, digest, lines):
    code, out = run_cli([*argv, "--format", "csv"])
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cohomology_of_a_long_interval():
    # R/(x^5000, y) = k[x]/(x^5000) has h^0_n = 1 for 0 <= n <= 4999 and nothing else
    code, out = run_cli(["cohomology", "--ring", "x,y", "--ideal", "x^5000, y", "--window=4990:5005"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h"] == [[0, n, 1] for n in range(4990, 5000)]
    assert (result["a"], result["depth"], result["dim"], result["multiplicity"]) == (4999, 0, 0, 5000)


def test_cohomology_window_above_the_support_is_clipped():
    # h^i(R)_n vanishes above the support, so a wide window answers as the
    # clipped one does, without laying out the degrees between
    argv = ["cohomology", "--ring", "x,y", "--ideal", "x*y", "--window"]
    results = []
    for window in ("0:5", "0:5000000", "0:1000000000000"):
        code, out = run_cli([*argv, window])
        assert code == 0
        results.append(json.loads(out)["result"])
    assert results[0]["h"] == [[1, 0, 1]]
    assert all(result["h"] == results[0]["h"] for result in results)
    assert results[2]["window"] == [0, 10**12]


def test_verify_corpus_deterministic_bytes():
    argv = ["verify", "--bound", "thm2.1", "--count", "6", "--corpus-seed", "5"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3 = run_cli(["verify", "--bound", "thm2.1", "--count", "6", "--corpus-seed", "6"])
    assert out1 != out3


def test_verify_single_monomial_instance_runs_reduction_bounds():
    code, out = run_cli(
        ["verify", "--ring", "x,y", "--ideal", "x^2, x*y, y^2", "--bound", "prop3.3"]
    )
    assert code == 0
    reports = json.loads(out)["result"]["reports"]
    assert [r["bound"] for r in reports] == ["prop3.3"]
    assert reports[0]["status"] == "sharp"


def test_verify_instance_computes_only_the_requested_bound(monkeypatch):
    from monograded import cohomology, hilbert

    def untouched(*args):
        raise AssertionError("computed for a bound that is not printed")

    monkeypatch.setattr(cohomology, "cohomology_table", untouched)
    monkeypatch.setattr(hilbert, "hilbert_series", untouched)
    code, out = run_cli(
        ["verify", "--ring", "x,y,z", "--ideal", "x^2, y^2, z^2, x*y", "--bound", "prop3.4"]
    )
    assert code == 0
    assert [r["bound"] for r in json.loads(out)["result"]["reports"]] == ["prop3.4"]


def test_verify_unit_ideal_with_a_reduction_bound_has_no_reports():
    # prop3.3 needs an m-primary ideal; the zero ring's invariants are not computed
    code, out = run_cli(["verify", "--ring", "x,y", "--ideal", "1", "--bound", "prop3.3"])
    assert code == 0
    assert json.loads(out)["result"]["reports"] == []
    # the Hilbert invariants are read, and fail, before the cohomology table
    for bound in ("all", "thm2.1", "eg-lower"):
        code, out = run_cli(["verify", "--ring", "x,y", "--ideal", "1", "--bound", bound])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ZeroRing", "message": "invariants of the zero ring are undefined",
        }


def test_hilbert_series_is_computed_once_per_ideal():
    from monograded import hilbert

    hilbert.hilbert_series.cache_clear()
    plane = ["--ring", "x,y", "--ideal", "x^3, x^2*y^4, x*y^5, y^7"]
    assert run_cli(["cohomology", *plane])[0] == 0
    assert run_cli(["verify", *plane, "--bound", "all"])[0] == 0
    assert hilbert.hilbert_series.cache_info().misses == 1


def test_verify_semigroup_instance_honours_bound():
    argv = ["verify", "--semigroup", "4,5,6,7", "--ideal", "4,5,6", "--bound"]
    code, out = run_cli(argv + ["thm2.1"])
    assert code == 0
    assert json.loads(out)["result"]["reports"] == []
    code, out = run_cli(argv + ["all"])
    assert [r["bound"] for r in json.loads(out)["result"]["reports"]] == ["prop3.1"]
    # the ideal generated by 0 is the whole ring: no bound applies
    code, out = run_cli(["verify", "--semigroup", "4,5,6,7", "--ideal", "0"])
    assert code == 0
    assert json.loads(out)["result"]["reports"] == []


def test_seed_environment_variable_is_ignored(monkeypatch):
    # the document is a function of its arguments: `"corpus_seed": null` means seed 0
    argv = ["verify", "--bound", "prop3.1", "--count", "2"]
    monkeypatch.delenv("MONOGRADED_SEED", raising=False)
    unset = run_cli(argv)
    assert unset[0] == 0
    assert '"instance": "sg-s0-0"' in unset[1]
    for value in ("17", "abc", ""):
        monkeypatch.setenv("MONOGRADED_SEED", value)
        assert run_cli(argv) == unset


def test_table_format_renders():
    code, out = run_cli(
        ["hilbert", "--ring", "x,y", "--ideal", "x^2, y^2", "--format", "table"]
    )
    assert code == 0
    assert "multiplicity = 4" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["hilbert", "--window"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("subcommand", ["hilbert", "cohomology"])
def test_negative_window_after_a_space_is_its_value(subcommand, monkeypatch):
    # argparse alone reads `-2:2` as an option and refuses `--window -2:2`
    argv = [subcommand, "--ring", "x,y", "--ideal", "x*y"]
    attached = run_cli([*argv, "--window=-2:2"])
    assert attached[0] == 0 and json.loads(attached[1])["config"]["window"] == "-2:2"
    assert run_cli([*argv, "--window", "-2:2"]) == attached
    assert run_cli([subcommand, "--window", "-2:2", *argv[1:]]) == attached
    assert run_cli([*argv, "--win", "-2:2"]) == attached
    # main() with no arguments reads sys.argv the same way
    monkeypatch.setattr(sys, "argv", ["monograded", *argv, "--window", "-2:2"])
    assert run_cli(None) == attached
    # a lone negative bound is a malformed window, not a missing one
    assert_usage_error([*argv, "--window", "-2"], "lo:hi")


@pytest.mark.parametrize("argv", [
    ["cohomology", "--ring", "x,y", "--ideal", "x*y", "--window"],
    ["cohomology", "--window", "--ring", "x,y", "--ideal", "x*y"],
    ["hilbert", "--ring", "x,y", "--ideal", "x*y", "--", "--window", "-2:2"],
], ids=["trailing", "followed-by-a-flag", "after-double-dash"])
def test_window_without_a_value_still_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_computation_error_exit_1():
    # reduction on a non-m-primary ideal cannot compute colengths
    code, out = run_cli(["reduction", "--ring", "x,y", "--ideal", "x"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "InfiniteLength"


def assert_usage_error(argv, message):
    code, out = run_cli(argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError"
    assert message in error["message"]


def test_malformed_window_is_usage_error():
    assert_usage_error(["hilbert", "--ring", "x,y", "--ideal", "x^2, y", "--window", "3"], "lo:hi")


@pytest.mark.parametrize("argv, message", [
    (["hilbert", "--ring", "x,y", "--ideal", "x^2, y^3", "--window", "5:1"], "lo <= hi"),
    (["cohomology", "--ring", "x,y", "--ideal", "x^2, x*y", "--window", "5:-5"], "lo <= hi"),
    (["hilbert", "--ring", "x,y", "--ideal", "1", "--window", "abc"], "lo:hi"),
    (["cohomology", "--ring", "x,y", "--ideal", "1", "--window", "abc"], "lo:hi"),
    (["hilbert", "--ring", "x,y", "--ideal", "x^2, y", "--window="], "--window must be lo:hi"),
    (["cohomology", "--ring", "x,y", "--ideal", "x^2, y", "--window="], "--window must be lo:hi"),
    (["verify", "--semigroup=", "--ideal", "4"], "--semigroup ''"),
], ids=["hilbert-reversed", "cohomology-reversed", "hilbert-zero-ring", "cohomology-zero-ring",
        "hilbert-empty", "cohomology-empty", "semigroup-empty"])
def test_window_is_checked_before_any_computation(argv, message):
    assert_usage_error(argv, message)


def test_hilbert_window_at_the_width_cap_answers():
    lo = -(cli.MAX_WINDOW // 2)
    hi = lo + cli.MAX_WINDOW - 1
    code, out = run_cli(["hilbert", "--ring", "x,y", "--ideal", "x^2*y, y^3", "--window", f"{lo}:{hi}"])
    assert code == 0
    table = json.loads(out)["result"]["table"]
    assert len(table) == cli.MAX_WINDOW
    # R/(x^2*y, y^3) has H = 1, 2, 3, 2 on n = 0..3, then H(n) = P(n) = 1
    assert table[0] == {"n": lo, "H": 0, "P": 1}
    assert [row["H"] for row in table[-lo:-lo + 5]] == [1, 2, 3, 2, 1]
    assert table[-1] == {"n": hi, "H": 1, "P": 1}


@pytest.mark.parametrize("window", ["0:100001", "-50001:50000", "100000000000000000000:1000000000000000000000"])
def test_hilbert_window_over_the_width_cap_is_usage_error(window, monkeypatch):
    def refuse(ideal):
        raise AssertionError("the window is checked before the series is computed")

    monkeypatch.setattr(cli.hilbert, "hilbert_series", refuse)
    assert_usage_error(["hilbert", "--ring", "x,y", "--ideal", "x^2*y, y^3", "--window", window],
                       f"--window lo:hi spans at most {cli.MAX_WINDOW} degrees")


def test_cohomology_window_at_the_width_cap_answers():
    # R/(x*y) has h^1(R)_n = 2 for n < 0 and h^1(R)_0 = 1, and nothing above 0
    lo = -(cli.MAX_WINDOW - 1)
    code, out = run_cli(["cohomology", "--ring", "x,y", "--ideal", "x*y", f"--window={lo}:0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h"] == [[1, n, 2] for n in range(lo, 0)] + [[1, 0, 1]]
    assert result["window"] == [lo, 0]


@pytest.mark.parametrize("window", ["-200000:0", "-100001:0", "-100001:10000000"])
def test_cohomology_window_over_the_width_cap_is_usage_error(window):
    # the width is counted up to the top degree 0 of the cohomology of R/(x*y)
    assert_usage_error(["cohomology", "--ring", "x,y", "--ideal", "x*y", f"--window={window}"],
                       f"--window lo:hi spans at most {cli.MAX_WINDOW} degrees up to the top degree 0")


def test_unknown_variable_is_usage_error():
    assert_usage_error(["cohomology", "--ring", "x,y", "--ideal", "x^2, q"], "unknown variable 'q'")
    # a --ring piece that the ideal grammar cannot write is no variable name
    for name in ("x y", "1", "x^2"):
        assert_usage_error(["hilbert", "--ring", f"{name},z", "--ideal", "z"],
                           f"{name!r} is not a variable name")


def test_non_coprime_semigroup_is_usage_error():
    assert_usage_error(
        ["verify", "--semigroup", "4,6", "--ideal", "4,6", "--bound", "prop3.1"], "gcd 2"
    )


@pytest.mark.parametrize("argv, message, flag", [
    (["hilbert", "--ring", "x,y", "--ideal", "x^2,,y"], "empty monomial", None),
    (["hilbert", "--ring", "x,y", "--ideal", "x^2, y,"], "empty monomial", None),
    (["verify", "--semigroup", "4,,6,7", "--ideal", "4,6", "--bound", "prop3.1"], "''",
     "--semigroup"),
    (["verify", "--semigroup", "4,5,6,7", "--ideal", "4,,5", "--bound", "prop3.1"], "''",
     "--ideal"),
    (["hilbert", "--ring", "x,,y", "--ideal", "x^2, y"], "''", None),
    (["cohomology", "--ring", "x,y,", "--ideal", "x^2, y"], "''", None),
], ids=["ideal", "ideal-trailing", "semigroup", "semigroup-ideal", "ring", "ring-trailing"])
def test_empty_generator_is_usage_error(argv, message, flag):
    # an empty piece is neither the unit monomial nor skipped
    assert_usage_error(argv, message)
    if flag:  # a semigroup flag names itself and its whole input
        assert_usage_error(argv, f"{flag} {argv[argv.index(flag) + 1]!r}")


def test_non_integer_semigroup_generator_is_usage_error():
    assert_usage_error(
        ["verify", "--semigroup", "4,5,6,7", "--ideal", "4,x"], "--ideal '4,x': 'x' is not an integer"
    )


def test_negative_exponent_is_usage_error():
    assert_usage_error(["hilbert", "--ring", "x,y", "--ideal", "x^-1, y"], "x^-1")


PLANE = ["--ring", "x,y", "--ideal", "x^2, x*y, y^2"]


@pytest.mark.parametrize("argv", [
    ["reduction", *PLANE, "--trials", "0"],
    ["reduction", *PLANE, "--coeff-bound", "0"],
    ["reduction", *PLANE, "--n-bound", "-1"],
    ["reduction", *PLANE, "--powers", "-1"],
    ["verify", "--bound", "thm2.1", "--count", "-1"],
    ["verify", "--bound", "thm2.1", "--vars", "0"],
    ["verify", "--bound", "thm2.1", "--degree-bound", "0"],
], ids=lambda argv: argv[-2])
def test_out_of_range_option_is_usage_error(argv):
    assert_usage_error(argv, f"{argv[-2]} must be at least")


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--semigroup", "4,5,6,7", "--bound", "prop3.1", "--count", "1"], "--semigroup"),
    (["verify", "--ring", "x,y,z", "--bound", "thm2.1", "--count", "1"], "--ring"),
], ids=["semigroup", "ring"])
def test_instance_flag_without_ideal_is_usage_error(argv, flag):
    # an instance flag must not fall through to a random corpus
    assert_usage_error(argv, f"{flag} describes a single instance and needs --ideal")


def test_missing_ring_or_ideal_is_usage_error():
    assert_usage_error(["hilbert"], "needs --ring and --ideal")
    assert_usage_error(["hilbert", "--ring", " , ", "--ideal", "1"], "at least one variable")
    assert_usage_error(["hilbert", "--ring=", "--ideal", "x"], "at least one variable")
    assert_usage_error(["verify", "--ideal", "x"], "needs --ring and --ideal")


@pytest.mark.parametrize("exc, resource", [
    (MemoryError, "memory"), (RecursionError, "recursion"),
], ids=["memory", "recursion"])
def test_exhausted_resource_is_computation_failure(monkeypatch, exc, resource):
    def exhaust(ideal):
        if exc is RecursionError:
            return exhaust(ideal)
        raise MemoryError  # as the interpreter raises it: no text

    monkeypatch.setattr(cli.hilbert, "hilbert_series", exhaust)
    code, out = run_cli(["hilbert", "--ring", "x,y", "--ideal", "x^2, y"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == exc.__name__
    assert resource in error["message"]


@pytest.mark.parametrize("argv", [
    ["hilbert", "--ring", "x,y", "--ideal", "x^99999999999999999999"],
    ["verify", "--bound", "thm2.1", "--ring", "x,y", "--ideal", "x^99999999999999999999"],
    ["cohomology", "--ring", "x,y", "--ideal", "x^99999999999999999999"],
], ids=["hilbert", "verify-thm2.1", "cohomology"])
def test_an_exponent_too_large_to_compute_with_is_computation_failure(argv):
    # a 20-digit exponent overflows an index or an int's size: an error
    # document and exit 1, as for exhausted memory, not a traceback
    code, out = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "OverflowError" and error["message"]


def test_prop31_on_a_semigroup_too_large_to_hold_its_powers_is_computation_error():
    # E = (9973, 10007) has e = 9973 and S a conductor of 9972 * 10006, so
    # E^0..E^9977 could hold about 1.5 * 10^12 bits: refused once S and E
    # are built, before any power is
    code, out = run_cli(["verify", "--bound", "prop3.1", "--semigroup", "9973,10007",
                         "--ideal", "9973,10007"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ComputationError",
        "message": "prop3.1 reads the powers E^0..E^9977, which can hold 1492011761865 bits,"
                   " more than 4294967296"}


@pytest.mark.parametrize("extra", [[], ["--n-bound", "2"]], ids=["default", "n-bound"])
def test_reduction_of_the_zero_ideal_in_one_variable_is_computation_error(extra):
    # with a given --n-bound no multiplicity is read, but the powers are
    # bitsets of an m-primary ideal, checked before the first trial
    code, out = run_cli(["reduction", "--ring", "x", "--ideal", "0", *extra])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InfiniteLength"


def test_reduction_whose_box_is_too_large_is_computation_error():
    # the powers are bitsets over a box of (b_1 + 1)(b_2 + 1) bits at I^1,
    # whose bitsets could hold more than MAX_ENTRY_BITS: refused before
    # anything is allocated
    code, out = run_cli(["reduction", "--ring", "x,y", "--ideal", "x^100000, y^100000"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ComputationError" and "box of 10000200001 bits" in error["message"]


@pytest.mark.parametrize("ideal, refused", [
    ("x^5000, y^5000", "I^4 need a box of 400040001 bits, whose bitsets can hold 4800480012"),
    ("x^20000, y^20000", "I^2 need a box of 1600080001 bits, whose bitsets can hold 12800640008"),
], ids=["x5000", "x20000"])
def test_refused_powers_are_refused_before_the_first_trial(monkeypatch, ideal, refused):
    # the report reads I^4, so that box is asked for first: it is laid out
    # twice (I^1, then the refused one), not once per power on the way, and
    # the document names the least power refused, as it did when reached there
    layouts = []
    real = filtration.PowerCache._layout

    def counting(self, n):
        layouts.append(n)
        return real(self, n)

    monkeypatch.setattr(filtration.PowerCache, "_layout", counting)
    filtration.power_cache.cache_clear()
    code, out = run_cli(["reduction", "--ring", "x,y", "--ideal", ideal])
    assert code == 1 and layouts == [1, 4]
    assert json.loads(out)["error"] == {
        "type": "ComputationError",
        "message": f"the powers up to {refused} bits, more than 4294967296"}


def test_series_box_is_refused_before_the_ratliff_rush_chains(monkeypatch):
    # G is not Cohen-Macaulay, so the report reconstructs the G-series, which
    # reads ell(R/I^16) at least in five variables; that box is refused (I^14
    # is the least power refused) before any Ratliff-Rush chain runs, with the
    # same document as when the chains ran first and the series met the box
    closures = []
    real = filtration.PowerCache._closure

    def counting(self, p):
        closures.append(p)
        return real(self, p)

    monkeypatch.setattr(filtration.PowerCache, "_closure", counting)
    filtration.power_cache.cache_clear()
    ideal = "x^3, y^3, z^3, w^3, v^3, x*y*z, z*w*v"
    code, out = run_cli(["reduction", "--ring", "x,y,z,w,v", "--ideal", ideal])
    assert code == 1 and closures == []
    assert json.loads(out)["error"]["message"].startswith(
        "the powers up to I^14 need a box of 147008443 bits")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ad514c0fe53a82555cd5ac8d6e085d1d05a2327e287d2c42adc9952b6ad4226c")


@pytest.fixture
def cold_power_caches():
    """Empty `power_cache` before and after the test: a wrong verdict that a
    test keeps must not reach a later one."""
    filtration.power_cache.cache_clear()
    yield
    filtration.power_cache.cache_clear()


# (x^2, y^2, z^2, x*y*z)^2: r = 2 and G is Cohen-Macaulay
SQUARE = "x^4, y^4, z^4, x^2*y^2, x^2*z^2, y^2*z^2, x^3*y*z, x*y^3*z, x*y*z^3"
CM_PLANE = ["--ring", "x,y", "--ideal", "x^5, x^2*y^2, y^5"]  # r = 1
CM_SPACE = ["--ring", "x,y,z", "--ideal", SQUARE]


@pytest.mark.parametrize("shortened, session", [
    # no plane monomial ideal was found with r >= 2 and G Cohen-Macaulay, so
    # prop3.3's checker keeps the colength verdict, and the trials of a later
    # `reduction` in the session check it
    ("_short_h", [["verify", *CM_PLANE, "--bound", "prop3.3"], ["reduction", *CM_PLANE]]),
    ("cm_h_vector", [["verify", *CM_SPACE, "--bound", "prop3.4"]]),
    ("cm_h_vector", [["reduction", *CM_PLANE]]),
], ids=["prop3.3", "prop3.4", "reduction"])
@pytest.mark.usefixtures("cold_power_caches")
def test_self_check_of_a_cohen_macaulay_g_fails_with_exit_1(monkeypatch, shortened, session):
    # an h-vector one entry short no longer gives r_J = deg h
    real = getattr(filtration, shortened)

    def short(*args):
        h = real(*args)
        return (h[0], h[1][:-1]) if shortened == "cm_h_vector" else h[:-1]

    monkeypatch.setattr(filtration, shortened, short)
    *before, argv = session
    assert all(run_cli(earlier)[0] == 0 for earlier in before)
    code, out = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ComputationError"
    assert error["message"].startswith("self-check failed: r_J = ")
    if not before:  # a verdict that failed its check is not kept for later runs
        assert all(cache.verdict is None for cache in filtration._CACHES.values())


@pytest.mark.parametrize("bound, instance", [("prop3.3", CM_PLANE), ("prop3.4", CM_SPACE)],
                         ids=["prop3.3", "prop3.4"])
@pytest.mark.usefixtures("cold_power_caches")
def test_the_trials_of_reduction_check_a_kept_colength_verdict(monkeypatch, bound, instance):
    # a colength rule that under-reports min(r(I), 2) by one keeps a wrong
    # Cohen-Macaulay verdict with no trial; `reduction` runs its trials and
    # checks each r_J against it
    real = filtration._capped_r
    monkeypatch.setattr(filtration, "_capped_r", lambda cache: max(real(cache) - 1, 0))
    assert run_cli(["verify", *instance, "--bound", bound])[0] == 0
    code, out = run_cli(["reduction", *instance])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ComputationError"
    assert error["message"].startswith("self-check failed: r_J = ")


HARD_A = ["--ring", "x,y,z", "--ideal", "x^5, y^5, z^5, x^2*y^2, y^2*z^2, x*z^3"]


@pytest.mark.parametrize("argv, name, mutate, message", [
    # one coefficient of G's numerator shifted by 1: the multiplicity is off by one
    (["reduction", *HARD_A], "G", lambda n: [n[0] + 1, *n[1:]],
     "dim 3, multiplicity 77; expected dim 3, multiplicity 76"),
    # a fiber-cone numerator times (1 - lambda): the dimension drops by one
    (["reproduce", "example-2.2"], "fiber cone", lambda n: [*map(sub, [*n, 0], [0, *n])],
     "dim 1, multiplicity 3; expected dim 2"),
], ids=["G", "fiber-cone"])
@pytest.mark.usefixtures("cold_power_caches")
def test_self_check_of_a_reconstructed_series_fails_with_exit_1(monkeypatch, argv, name,
                                                                 mutate, message):
    real = filtration.reconstruct_series

    def shifted(value_fn, k):
        numerator = mutate(real(value_fn, k).numerator)
        return HilbertSeries(k, {e: a for e, a in enumerate(numerator) if a})

    monkeypatch.setattr(filtration, "reconstruct_series", shifted)
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ComputationError",
        "message": f"self-check failed: the reconstructed {name} series has {message}"}


def test_cohomology_with_many_variables_not_in_the_ideal():
    # x1 in 1,100 variables: one class per coordinate choice, without recursing
    # through the 1,099 coordinates that no generator involves
    ring = ",".join(f"x{i}" for i in range(1, 1101))
    code, out = run_cli(["cohomology", "--ring", ring, "--ideal", "x1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["a"], result["depth"], result["dim"]) == (-1099, 1099, 1099)


def test_hilbert_of_a_high_power_of_the_plane_maximal_ideal():
    # (x, y)^1200 has 1201 generators; R/I has length 1200 * 1201 / 2
    n = 1200
    gens = ", ".join(f"x^{i}*y^{n - i}" for i in range(n + 1))
    code, out = run_cli(["hilbert", "--ring", "x,y", "--ideal", gens])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["dim"], result["multiplicity"]) == (0, 720600)


def test_reproduce_mismatch_exit_3(monkeypatch):
    # force a mismatch by pointing one expectation at a wrong constant
    import monograded.filtration as filtration

    real_mu = filtration.mu
    monkeypatch.setattr(filtration, "mu", lambda ideal, n: real_mu(ideal, n) + (n == 3))
    code, out = run_cli(["reproduce", "example-2.2"])
    assert code == 3
    doc = json.loads(out)
    assert any("mu table" in m for m in doc["mismatches"])


def test_subprocess_byte_determinism():
    import subprocess

    argv = [
        sys.executable, "-m", "monograded.cli",
        "verify", "--bound", "prop3.1", "--count", "4", "--corpus-seed", "3",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    json.loads(first.stdout)


def test_config_embedded_in_output():
    code, out = run_cli(["hilbert", "--ring", "x,y", "--ideal", "x^2, y^3"])
    doc = json.loads(out)
    assert doc["schema"] == "monograded/1"
    assert doc["config"]["subcommand"] == "hilbert"
    assert doc["config"]["ideal"] == "x^2, y^3"


HARD = "x^5, y^5, z^5, x^2*y^2, y^2*z^2, x*z^3"
HARD_B = "x^6, y^6, z^6, x^2*y^3, y^2*z^3, x^3*z^2"
HARD_C = "x^7, y^7, z^7, x^3*y^2, y^3*z^2, x^2*z^4, x*y*z^3"
# five variables, not m-primary, with variable maxima 4, 2, 6, 3, 5
WIDE = "y^2*z^4*u^3, x*y^2*z^6, x^4*z^3*w^3, x^4*y*z^4*w^2*u^4, x^2*y*z^6*w^3*u^5"

# sha256 of the JSON output of each command.  The prop3.4 corpus has r_J = 2
# instances whose G is not Cohen-Macaulay; (x^2, y^2, z^2, xyz)^2 has r_J = 2
# with G Cohen-Macaulay; the hard ideal has r_J = 3; the worked plane ideal of
# example 2.2 runs thm2.1, eg-lower and prop3.3 as one instance; the two
# `cohomology` commands are README's window and a breakpoint-class table in
# five variables; (x^5, x^2*y^2, y^5) has a certified Cohen-Macaulay G, so its
# `reduction` reports proved Ratliff-Rush closures; the prop3.1 corpus and the
# plateau example pin the semigroup engine.
GOLDEN = [
    pytest.param(["reproduce", "example-2.2"],
                 "f65135823b96f9d67dd8959ab2a61475d4774acf4347f07c01836f41aeecbf35",
                 id="example-2.2"),
    pytest.param(["reproduce", "example-3.2"],
                 "e574d44db2b84d8e1f2c9b63ecd3e13b0f212d95f65744f5fb217a2fc80fe7c1",
                 id="example-3.2"),
    pytest.param(["verify", "--bound", "all", "--count", "5", "--corpus-seed", "0"],
                 "e37ce84a25ee443beba3770b15751a4159415cddb9eacfcc216e6da3a316be81",
                 id="verify-all"),
    pytest.param(["verify", "--bound", "prop3.4", "--vars", "3", "--degree-bound", "3",
                  "--corpus-seed", "0", "--count", "40"],
                 "50c77d516e98f0022815fa1b53f3fdcbdabd29efe57333aceb6d328989a6ee73",
                 id="prop3.4-corpus"),
    pytest.param(["verify", "--ring", "x,y,z", "--ideal", SQUARE, "--bound", "prop3.4"],
                 "182b94c1010d658c39d898599ce3a01181412cc953a39190bc40cb4a779ba9bd",
                 id="prop3.4-square"),
    pytest.param(["hilbert", "--ring", "a,b,c,d", "--ideal", "b*d, b*c, b^2, c^3",
                  "--window=0:12"],
                 "f92218b7911d043196a29b0e2264b3fab654c2c40bd61c823b401ec4d45aba34",
                 id="hilbert-window"),
    pytest.param(["reduction", "--ring", "x,y,z", "--ideal", HARD],
                 "2e2777840e15284b68f2293f77574563997baabb3d276a880f936f7d4196d060",
                 id="reduction-hard"),
    pytest.param(["verify", "--ring", "x,y", "--ideal", "x^3, x^2*y^4, x*y^5, y^7",
                  "--bound", "all"],
                 "f9b8c57a844a976ff0e2d93bb42e2e8ed7270fcaae68cc9f91d5f49f10c99ff0",
                 id="verify-instance-all"),
    pytest.param(["cohomology", "--ring", "a,b,c,d", "--ideal", "b*d, b*c, b^2, c^3",
                  "--window=-6:3"],
                 "56217b1dba30e6c17f9f469fa09583cc4093d50807f70c19d15d56b276af9d8b",
                 id="cohomology-window"),
    pytest.param(["cohomology", "--ring", "x,y,z,w,u", "--ideal", WIDE],
                 "ba858836427ed60c78e7f612a3ae6f059640e9fcb78fdd0e6f38a8af2bd1a0fc",
                 id="cohomology-wide"),
    pytest.param(["reduction", "--ring", "x,y", "--ideal", "x^5, x^2*y^2, y^5"],
                 "8b0dca01eec6bc71e474e939df8c5921be7e9b9241dffc8802fc38854702c929",
                 id="reduction-cm"),
    pytest.param(["verify", "--bound", "prop3.1", "--corpus-seed", "0", "--count", "200"],
                 "a1b9bf073c54b46e9c926fa3b12989629908f2bdf500b7df0e9c67892b3bb8e7",
                 id="prop3.1-corpus"),
    pytest.param(["verify", "--semigroup", "10,13,15", "--ideal", "38,39", "--bound", "prop3.1"],
                 "b24ed4ae454b72414caba1bf7dd5d887f44916e4bb94f201364b06d62373f1f1",
                 id="prop3.1-plateau"),
    pytest.param(["reduction", "--ring", "x,y,z", "--ideal", HARD_B],
                 "b28890a8629fda5d0b44beb3b1ceda1e70f9c58a1003eb63f0d2f0907da022aa",
                 id="reduction-hard-b"),
    pytest.param(["reduction", "--ring", "x,y,z", "--ideal", HARD_C],
                 "34d090ee2b4f27bb9286d08f5ee0e2ec7979d9d1f4e19bb3182c21e71ab25f5e",
                 id="reduction-hard-c"),
    # four variables, G not Cohen-Macaulay: the G-series reads ell(R/I^14),
    # whose box (99^4 bits) is the largest that MAX_ENTRY_BITS allows here
    pytest.param(["reduction", "--ring", "x,y,z,w", "--ideal", "x^7, y^7, z^7, w^7, x^2*y^2*z^2"],
                 "fd87b3872df1622cb32473e89776c2341e5ecf9932abe50dd7e856e018ad7b36",
                 id="reduction-4var-x7"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_golden_output_digest(argv, digest):
    code, out = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_renamed_ring_gives_its_own_names():
    # the engine caches are keyed by the ideal alone, so a document must not
    # take its spelling from an earlier run on the same ideal in other names
    run_cli(["reduction", "--ring", "a,b", "--ideal", "a^5, a^2*b^2, b^5"])
    [(argv, digest)] = [p.values for p in GOLDEN if p.id == "reduction-cm"]
    test_golden_output_digest(argv, digest)
    plane = "x^3, x^2*y^4, x*y^5, y^7"  # README's: G is not Cohen-Macaulay
    assert run_cli(["reduction", "--ring", "x,y", "--ideal", plane])[0] == 0
    code, out = run_cli(["reduction", "--ring", "u,v", "--ideal",
                         plane.replace("x", "u").replace("y", "v")])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vv_certificate"] is False  # the closures come from the colon chain
    assert result["ideal"] == "(u^3, u*v^5, u^2*v^4, v^7)"
    for closure in result["ratliff_rush"]:
        assert "u" in closure and "v" in closure and not set("xy") & set(closure)


def parse_outcome(parse, argv):
    """What parsing argv gives: ("args", namespace), or ("exit", code, stdout,
    stderr) when argparse exits (help, or a usage error)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        return "args", parse(argv)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    finally:
        sys.stdout, sys.stderr = old


XY = ["--ring", "x,y", "--ideal", "x^2, y^3"]


@pytest.mark.parametrize("argv", [
    ["verify", "-h"], ["-h"], [], ["no-such-command"], ["verify", "--bogus"],
    ["verify", "--bound", "nope"], ["reproduce"], ["reproduce", "example-2.2", "extra"],
    ["reproduce", "example-3.2", "--format", "csv"],
    ["hilbert", *XY, "--window"], ["hilbert", *XY, "--window", "0:3"],
    ["cohomology", *XY, "--win", "-3:2"], ["cohomology", "--window=-3:2", *XY],
    ["hilbert", "--ri", "x,y", "--id", "x*y"], ["verify", "--co", "2"],
    ["verify", "--", "--ring"], ["reproduce", "--", "example-2.2"], ["hilbert", *XY, "--", "x"],
    ["reduction", *XY, "--trials", "2", "--seed", "-4", "--n-bound", "3", "--powers", "1"],
    ["reduction", *XY, "--trials", "x"],
    ["verify", "--bound", "prop3.4", "--vars", "3", "--count", "2", "--corpus-seed", "1"],
    ["verify", "--semigroup", "4,5,6,7", "--ideal", "4,5,6", "--format", "table"],
    ["--ring", "x", "hilbert"], ["hilbert", "hilbert"],
    ["reduction", *XY, "--seed=-4"], ["hilbert", "--ring=", "--ideal", "x"],
    ["reduction", *XY, "--trials", " 2"], ["reduction", *XY, "--trials", "2", "--trials", "3"],
    ["hilbert", "--ring", "--ideal", "x"], ["hilbert", *XY, "-"], ["verify", "--format", ""],
    ["reproduce", "example-2.2", "--format=csv"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_subcommand_dispatch_parses_as_the_top_level_parser(argv):
    # the subcommand's own parser must give the namespace, or the exit code,
    # help text and usage error, that the top-level parser gives
    parser = cli.build_parser()
    expected = parse_outcome(lambda words: parser.parse_args(cli.attach_windows(words)), argv)
    assert parse_outcome(lambda words: cli._parse_argv(parser, words), argv) == expected
    if expected[0] == "args":
        assert expected[1].subcommand == argv[0]


# Every option of each subcommand, with a value its flag table reads.
WELL_FORMED = {
    "hilbert": {"--ring": "x,y", "--ideal": "x^2, y^3", "--window": "0:3", "--format": "table"},
    "cohomology": {"--ring": "x,y,z", "--ideal": "x*y, z^2", "--window": "2:5",
                   "--format": "json"},
    "reduction": {"--ring": "x,y", "--ideal": "x^3, y^2", "--format": "table", "--seed": "4",
                  "--trials": "2", "--coeff-bound": "50", "--n-bound": "3", "--powers": "1"},
    "verify": {"--ring": "x,y", "--ideal": "4,5,6", "--format": "csv", "--semigroup": "4,5,6,7",
               "--bound": "prop3.1", "--corpus-seed": "1", "--count": "2", "--vars": "3",
               "--degree-bound": "3"},
    "reproduce": {"--format": "csv"},
}


@pytest.mark.parametrize("spelling", ["spaced", "attached"])
@pytest.mark.parametrize("command", sorted(WELL_FORMED))
def test_well_formed_argv_are_read_without_argparse(monkeypatch, command, spelling):
    # the flag table reads these alone; a silent fall back to argparse would
    # give the same namespace, so argparse is made to raise
    flags = WELL_FORMED[command]
    words = [word for flag, value in flags.items()
             for word in ([flag, value] if spelling == "spaced" else [f"{flag}={value}"])]
    argv = [command, *(["example-3.2"] if command == "reproduce" else []), *words]
    expected = cli.build_parser().parse_args(argv)
    parser = cli.build_parser()
    assert set(flags) == {flag for flag, action in parser.tables[command][0].items() if action}

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert cli._parse_argv(parser, argv) == expected


@pytest.mark.parametrize("flag", ["--window", "--win"])
def test_negative_window_after_a_space_is_attached_before_argparse(flag):
    # the flag table refuses a value that starts with '-'; argparse then
    # reads the argv with its window attached
    parser = cli.build_parser()
    argv = ["cohomology", *XY, flag, "-6:3"]
    assert cli._read(parser.tables["cohomology"], argv[1:]) is None
    args = cli._parse_argv(parser, argv)
    assert args == parser.parse_args(cli.attach_windows(argv)) and args.window == "-6:3"


def test_flag_table_converts_string_defaults_and_refuses_other_actions():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default="3")
    parser.add_argument("--m", type=int, default="4", choices=[4, 5])
    table = cli._compile(parser)
    for words in ([], ["--n", "5"], ["--m=5"], ["--m", "5", "--n=0"]):
        assert cli._read(table, words) == parser.parse_args(words)
    assert cli._read(table, ["--m", "6"]) is None
    # an action that takes no value, or several, leaves the parser to argparse
    parser.add_argument("--on", action="store_true")
    assert cli._compile(parser) is None


def test_unrecognized_arguments_are_reported_by_the_top_level_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", *XY, "--bogus"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: monograded [-h]")
    assert captured.err.endswith("monograded: error: unrecognized arguments: --bogus\n")


def test_json_renderer_matches_json_dumps_on_edge_documents():
    text = 'q"b\\s/\x00\x1f\x7f\n\t é ☃ 𝄞'
    docs = [
        {}, [], {"a": {}, "b": [], "c": [[], {}]}, [[]], [{}], [[1, [2, []]], [[-3]]],
        {text: text, "keys": {"": "", "b": 1, "a": 2, "A": 3, "é": 4, "\x00": 5}},
        {"ints": [0, -1, 10 ** 40, -(10 ** 40) + 1], "flags": [True, False, None]},
        {"nested": {"deeper": {"list": [{"x": None}, True, "s", [False]]}}},
        "top", 7, -7, True, False, None,
    ]
    for doc in docs:
        assert cli.render(doc, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for bad in (1.5, {"a": [0.0]}, {"t": (1, 2)}, {1: 2}):
        with pytest.raises(TypeError):
            cli.render(bad, "json")


def str_keys_only(doc) -> bool:
    if isinstance(doc, dict):
        return all(isinstance(key, str) and str_keys_only(value) for key, value in doc.items())
    if isinstance(doc, list):
        return all(str_keys_only(value) for value in doc)
    return True


def test_json_renderer_matches_json_dumps_on_the_golden_documents(monkeypatch):
    docs = []
    real_render = cli.render

    def recording_render(doc, fmt):
        docs.append(doc)
        return real_render(doc, fmt)

    monkeypatch.setattr(cli, "render", recording_render)
    for param in GOLDEN:
        argv, digest = param.values
        assert run_cli(argv)[0] == 0
    assert len(docs) == len(GOLDEN)
    for doc in docs:
        assert str_keys_only(doc)
        assert real_render(doc, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
