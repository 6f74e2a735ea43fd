"""Per-op correctness checks.

Every check is an invariant that the op's output must satisfy; none compares
against a stored output of the package.  Checks run outside the timed
interval.  `check_op` returns a list of failures, each a (message, known)
pair: `known` names a documented defect of the package, which the benchmark
counts as a failed op without calling the run incorrect.
"""

from __future__ import annotations

import json
from math import comb

# Ratliff-Rush closures (semigroup.rr_sg, and the same rule in
# filtration.ratliff_rush) stop at the first repeat of (I^(2+n) : I^n), but the
# chain can plateau before it grows again, e.g. S = <10,13,15>, I = (t^38, t^39).
RR_PLATEAU = "rr-plateau"


def load(out: str) -> dict | None:
    try:
        doc = json.loads(out)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def series_coefficient(numerator: list[int], k: int, n: int) -> int:
    """Coefficient of l^n in numerator / (1 - l)^k."""
    if n < 0:
        return 0
    if k == 0:
        return numerator[n] if n < len(numerator) else 0
    return sum(c * comb(n - i + k - 1, k - 1) for i, c in enumerate(numerator) if i <= n)


def violated_reports(doc) -> list[str]:
    found = []
    if isinstance(doc, dict):
        if doc.get("status") == "violated" and "bound" in doc:
            found.append(f"{doc.get('bound')} violated on {doc.get('instance')}")
        for value in doc.values():
            found.extend(violated_reports(value))
    elif isinstance(doc, list):
        for value in doc:
            found.extend(violated_reports(value))
    return found


def check_grothendieck_serre(op, result: dict, pkg) -> list[str]:
    """sum_i (-1)^i h^i(R)_n = H(n) - P(n) on the op's whole window, with H and
    P taken from the Hilbert-series engine, not from the cohomology engine."""
    ideal = pkg.monomials.MonomialIdeal(op.data["k"], op.data["gens"])
    series = pkg.hilbert.hilbert_series(ideal)
    data = pkg.hilbert.hilbert_data_from_series(series)
    alternating: dict[int, int] = {}
    for i, n, value in result["h"]:
        alternating[n] = alternating.get(n, 0) + (-1) ** i * value
    lo, hi = result["window"]
    bad = [
        n
        for n in range(lo, hi + 1)
        if alternating.get(n, 0) != series.coefficient(n) - data.polynomial_value(n)
    ]
    problems = []
    if bad:
        problems.append(f"Grothendieck-Serre identity fails at n = {bad[:5]}")
    if result["dim"] != data.dim:
        problems.append(f"dim {result['dim']} but the Hilbert series has dim {data.dim}")
    return problems


def check_hilbert_table(op, result: dict) -> list[str]:
    """H(n) in the window table equals the n-th coefficient of the reported series."""
    k = op.data["k"]
    bad = [
        row["n"]
        for row in result.get("table", [])
        if row["H"] != series_coefficient(result["numerator"], k, row["n"])
    ]
    return [f"H(n) disagrees with the series at n = {bad[:5]}"] if bad else []


def true_prop31_middle(op, pkg, r: int) -> int | None:
    """e - (l(I / (I cap rr(I^2))) - 1) with rr(I^2) = I^(2+n) : I^n at n = max(r, 1),
    or None when I^(n+1) != a + I^n for the least valuation a.

    With I^(m+1) = a + I^m for m >= n, translation by a gives
    I^(2+m+1) : I^(m+1) = I^(2+m) : I^m, so the increasing chain is constant
    from n on and its value there is the closure.
    """
    sg = pkg.semigroup
    S = sg.NumericalSemigroup(op.data["semigroup"])
    ideal = sg.SemigroupIdeal(S, op.data["ideal"])
    a = min(op.data["ideal"])
    n = max(r, 1)
    powers = [sg.ideal_power_sg(ideal, n)]
    for _ in range(2):
        powers.append(sg.ideal_product_sg(powers[-1], ideal))
    if powers[1] != sg.translate_sg(powers[0], a):
        return None
    closure = sg.colon_sg(powers[2], powers[0])
    inner = sg.intersection_sg(ideal, closure)
    return a - (sg.length_between_sg(ideal, inner) - 1)


def check_prop31(op, result: dict, pkg) -> list[tuple[str, str | None]]:
    (report,) = result["reports"]
    middle = true_prop31_middle(op, pkg, report["lhs"])
    if middle is None:
        return [(f"prop3.1 reduction number {report['lhs']} is not a reduction exponent", None)]
    reported = report["witness"]["middle"]
    failures: list[tuple[str, str | None]] = []
    if reported != middle:
        failures.append((f"prop3.1 middle term {reported}, true value {middle} "
                         f"(status {report['status']})", RR_PLATEAU))
    if not report["lhs"] <= middle <= min(op.data["ideal"]):
        failures.append((f"prop3.1 fails with the true closure: r = {report['lhs']}, "
                         f"middle {middle}", None))
    return failures


def check_op(op, code, out: str, error: str | None, pkg) -> list[tuple[str, str | None]]:
    """Failures of one op: non-zero exit, exception, error document or failed check."""
    if error is not None:
        return [(f"exception {error}", None)]
    if code != 0:
        return [(f"exit code {code}, expected 0", None)]
    doc = load(out)
    if doc is None or "result" not in doc:
        return [("output is not a JSON result document", None)]
    if "error" in doc:
        return [(f"error document: {doc['error']}", None)]
    failures: list[tuple[str, str | None]] = []
    result = doc["result"]
    if op.kind == "prop3.1":
        failures.extend(check_prop31(op, result, pkg))
    else:
        failures.extend((v, None) for v in violated_reports(result))
    if doc.get("mismatches"):
        failures.append((f"reproduction mismatches: {doc['mismatches']}", None))
    if op.kind == "cohomology":
        failures.extend((p, None) for p in check_grothendieck_serre(op, result, pkg))
    elif op.kind == "hilbert":
        failures.extend((p, None) for p in check_hilbert_table(op, result))
    elif op.kind == "reduction":
        if sum(result["G_numerator"]) != result["e"]:
            failures.append(
                (f"sum of G numerator {sum(result['G_numerator'])} != e = {result['e']}", None)
            )
    return failures
