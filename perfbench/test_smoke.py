"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size, traced and untraced, and checks that the
result names exactly the metrics BENCHMARK.json lists; then feeds the checker
crafted outputs that it must flag.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Package  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PKG = Package()


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = PKG.cli.main(argv)
    return code, out.getvalue()


def test_checker_flags_a_violated_report():
    op = workloads.monomial_op("prop3.4", ["verify"], [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    code, out = cli(op.argv)
    doc = json.loads(out)
    assert checks.check_op(op, code, out, None, PKG) == []
    doc["result"]["reports"][0]["status"] = "violated"
    failures = checks.check_op(op, code, json.dumps(doc), None, PKG)
    assert [known for _, known in failures] == [None]


def test_checker_flags_a_mismatch():
    op = workloads.Op("reproduce-3.2", ["reproduce", "example-3.2"], "reproduce-3.2")
    code, out = cli(op.argv)
    doc = json.loads(out)
    assert checks.check_op(op, code, out, None, PKG) == []
    doc["mismatches"] = ["e(I): got 5, expected 4"]
    failures = checks.check_op(op, code, json.dumps(doc), None, PKG)
    assert [known for _, known in failures] == [None]
    assert checks.check_op(op, 3, json.dumps(doc), None, PKG)


def test_checker_flags_a_wrong_cohomology_table():
    op = workloads.monomial_op("cohomology", ["cohomology"], [(1, 1, 0), (0, 2, 1)])
    code, out = cli(op.argv)
    assert checks.check_op(op, code, out, None, PKG) == []
    doc = json.loads(out)
    doc["result"]["h"][0][2] += 1
    assert checks.check_op(op, code, json.dumps(doc), None, PKG)


def test_checker_counts_the_ratliff_rush_plateau_as_a_known_defect():
    # S = <10,13,15>, I = (t^38, t^39): (I^(2+n) : I^n) is equal for n = 2..6 and
    # grows at n = 7; stopping at the first repeat gives the middle term 8.
    op = workloads.Op("prop3.1", [], "", data={"semigroup": [10, 13, 15], "ideal": [38, 39]})
    report = {"instance": "cli-instance", "bound": "prop3.1", "lhs": 9, "rhs": 8,
              "status": "violated", "witness": {"middle": 8}}
    out = json.dumps({"result": {"reports": [report]}})
    assert [known for _, known in checks.check_op(op, 0, out, None, PKG)] == [checks.RR_PLATEAU]
    report.update(rhs=15, status="holds", witness={"middle": 15})
    assert checks.check_op(op, 0, json.dumps({"result": {"reports": [report]}}), None, PKG) == []


def test_generators_replicate_the_package_corpus():
    corpus = [sorted(g.exps for g in ideal.gens)
              for _, ideal in PKG.bounds.corpus_monomial(0, workloads.VERIFY_BLOCK, 3, 3)]
    assert corpus == [sorted(g) for g in workloads.prop34_corpus(0, workloads.VERIFY_BLOCK)]
    for seed in range(50):
        ideal = PKG.bounds.random_m_primary_ideal(random.Random(seed), 2, 6)
        ours = workloads.random_m_primary(random.Random(seed), 2, 6)
        assert sorted(g.exps for g in ideal.gens) == sorted(ours)


def test_blocks_are_seeded():
    def first(seed):
        return [op.argv for op in next(workloads.blocks("cli-mix", seed))]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_cli_mix_blocks_have_one_order_and_the_same_fixed_ops():
    left, right = next(workloads.blocks("cli-mix", 3)), next(workloads.blocks("cli-mix", 4))
    assert [op.kind for op in left] == [op.kind for op in right]
    fixed = [x.argv for x, y in zip(left, right) if x.argv == y.argv]
    sg, ideal = workloads.PLATEAU_EXAMPLE
    assert ["verify", "--semigroup", ",".join(map(str, sg)), "--ideal",
            ",".join(map(str, ideal)), "--bound", "prop3.1"] in fixed
