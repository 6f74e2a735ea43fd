import hashlib
import io
import json
import sys

import pytest

from monograded import cli


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
], ids=["hilbert-reversed", "cohomology-reversed", "hilbert-zero-ring", "cohomology-zero-ring"])
def test_window_is_checked_before_any_computation(argv, message):
    assert_usage_error(argv, message)


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
SQUARE = "x^4, y^4, z^4, x^2*y^2, x^2*z^2, y^2*z^2, x^3*y*z, x*y^3*z, x*y*z^3"
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
