"""monograded benchmark: closed-loop CLI workloads with one client.

    python3 perfbench/run.py --workload cohomology-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each run is one process that imports the package from `src/` next to this
directory and calls `monograded.cli.main(argv)` in-process, one op after the
other, with stdout captured.  Ops come in blocks (see workloads.py); the
package's caches are cleared before each block, and the run takes as many
blocks as fill about --seconds of op time on the reference machine (BLOCK_S).
Checks run between blocks, outside the timed interval.

With --trace 0 the last line of stdout is the JSON result with the end-to-end
metrics; with --trace 1 the run times a fixed number of blocks, each untraced
and then traced, and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shlex
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up probes per run, spread evenly over its blocks, so that setup_s samples
# the machine over the same minutes as the timed ops: a 2-vCPU VM on a shared
# host was seen to change speed by up to 1.8x for a minute or more at a time.
SETUP_PROBES = 9
# Op time of one block on a 2-vCPU x86-64 VM at 2.1 GHz.  A run takes a fixed
# number of blocks, --seconds / BLOCK_S rounded, so that the ops it attempts,
# and those that fail, depend only on the workload, the seed and --seconds, not
# on how fast the machine happened to be during the run.
BLOCK_S = {"cohomology-wide": 1.45, "verify-3var": 9.0, "cli-mix": 0.85}
# Blocks in a traced run: about 5 s of ops untraced, then the same blocks traced.
TRACE_BLOCKS = {"cohomology-wide": 4, "verify-3var": 1, "cli-mix": 8}
# The re-run of block 0 that checks determinism stops after this share of --seconds.
RERUN_SHARE = 0.1
# Stop taking blocks after this much wall time, to stay inside 180 s per run.
WALL_CAP_S = 110.0
P90_MIN_BEYOND = 10
SAMPLED = ("ops_per_s", "op_p50_ms", "op_p90_ms")


class Package:
    """The package under test, imported from the checkout's src/."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            monograded = importlib.import_module("monograded")
            for name in layertrace.LAYERS + ("errors",):
                setattr(self, name, importlib.import_module(f"monograded.{name}"))
        except ImportError as exc:
            raise SystemExit(f"perfbench: cannot import monograded from {src}: {exc}")
        if Path(monograded.__file__).resolve().parent.parent != src.resolve():
            raise SystemExit(f"perfbench: monograded was imported from {monograded.__file__}, "
                             f"not from {src}")
        self.module = monograded
        self.power_cache = monograded.filtration.power_cache
        caches = {}
        for name in layertrace.LAYERS:
            for obj in vars(getattr(monograded, name)).values():
                if hasattr(obj, "cache_clear"):
                    caches[id(obj)] = obj
        self.caches = list(caches.values())

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


def run_op(pkg: Package, argv: list[str]):
    """One op: (seconds, exit code, stdout, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        code = None
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), error


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


class Run:
    """Timings, digests, failures and descriptors of the ops of one run."""

    def __init__(self, pkg: Package, tracer=None):
        self.pkg = pkg
        self.tracer = tracer
        self.durations: list[float] = []
        self.kind_ops: dict[str, int] = {}
        self.kind_time: dict[str, float] = {}
        self.digests: list[list[str]] = []
        self.failures: list[dict] = []
        self.repeats = 0
        self.ops: list[workloads.Op] = []

    def block(self, b: int, block: list[workloads.Op]) -> float:
        """Run one block from cold caches and check it unless traced; returns
        its op time."""
        self.pkg.clear_caches()
        results = []
        elapsed = 0.0
        for op in block:
            if self.tracer is not None:
                self.tracer.op = len(self.durations)
            seconds, code, out, error = run_op(self.pkg, op.argv)
            elapsed += seconds
            self.durations.append(seconds)
            self.kind_ops[op.kind] = self.kind_ops.get(op.kind, 0) + 1
            self.kind_time[op.kind] = self.kind_time.get(op.kind, 0.0) + seconds
            if self.tracer is not None:
                self.tracer.counts["cli.output_bytes"] += len(out.encode())
            results.append((code, out, error))
        if self.tracer is not None:
            self.tracer.power_cache_size = max(
                self.tracer.power_cache_size, self.pkg.power_cache.cache_info().currsize)
        self.repeats += len(block) - len({op.key for op in block})
        self.ops.extend(block)
        self.digests.append([digest(code, out) for code, out, _ in results])
        if self.tracer is None:  # checks call the package: never under the tracer
            for i, (op, (code, out, error)) in enumerate(zip(block, results)):
                for message, known in checks.check_op(op, code, out, error, self.pkg):
                    self.fail(b, i, op, message, known)
        return elapsed

    def fail(self, b: int, i: int, op, message: str, known: str | None) -> None:
        self.failures.append({"block": b, "index": i, "kind": op.kind,
                              "argv": shlex.join(op.argv), "message": message,
                              "known_defect": known})

    def rerun(self, b: int, block, budget: float) -> int:
        """Run ops of an earlier block again from cold caches until `budget`
        seconds of op time are spent; a differing output is a failure."""
        self.pkg.clear_caches()
        spent = 0.0
        done = 0
        for i, op in enumerate(block):
            seconds, code, out, _ = run_op(self.pkg, op.argv)
            spent += seconds
            done += 1
            if digest(code, out) != self.digests[b][i]:
                self.fail(b, i, op, "output differs between two runs of the same input", None)
            if spent >= budget:
                break
        return done

    @property
    def failed_ops(self) -> int:
        return len({(f["block"], f["index"]) for f in self.failures})

    @property
    def correct(self) -> bool:
        """No failure except those of a documented defect of the package."""
        return all(f["known_defect"] for f in self.failures)

    def descriptors(self) -> dict:
        total = sum(self.kind_time.values()) or 1.0

        def spread(values):
            return {"min": min(values), "mean": round(statistics.fmean(values), 2),
                    "max": max(values)} if values else None

        return {
            "ops_per_kind": dict(sorted(self.kind_ops.items())),
            "time_share_per_kind": {k: round(v / total, 4) for k, v in sorted(self.kind_time.items())},
            "repeat_share": round(self.repeats / len(self.ops), 4) if self.ops else 0.0,
            "blocks": len(self.digests),
            "variables": spread([op.variables for op in self.ops if op.variables]),
            "generators": spread([op.generators for op in self.ops if op.generators]),
            "classes_enumerated": spread([op.classes for op in self.ops if op.classes]),
        }


def setup_probe(args) -> float:
    """Wall time of a fresh process that starts the interpreter, imports the
    package and generates the first block of inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed(args, pkg: Package):
    run = Run(pkg)
    blocks = workloads.blocks(args.workload, args.seed, args.tiny)
    first = next(blocks)
    min_ops = 0 if args.tiny else 10 * P90_MIN_BEYOND
    count = max(2, round(args.seconds / BLOCK_S[args.workload]), -(-min_ops // len(first)))
    probes = [i * count // SETUP_PROBES for i in range(SETUP_PROBES)]
    setup = []
    op_time = 0.0
    wall_start = time.perf_counter()
    for b in range(count):
        setup.extend(setup_probe(args) for _ in range(probes.count(b)))
        op_time += run.block(b, first if b == 0 else next(blocks))
        if time.perf_counter() - wall_start > WALL_CAP_S:
            break
    setup.extend(setup_probe(args) for _ in range(SETUP_PROBES - len(setup)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rerun = run.rerun(0, first, RERUN_SHARE * args.seconds)
    d = run.durations
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(d) / op_time, "1/s"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "op_p90_ms": (percentile(d, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"timed_s": op_time, "samples": len(d), "rerun_ops": rerun, "setup_samples": setup}
    return run, metrics, notes


def traced(args, pkg: Package):
    gen = workloads.blocks(args.workload, args.seed, args.tiny)
    blocks = [next(gen) for _ in range(1 if args.tiny else TRACE_BLOCKS[args.workload])]
    plain = Run(pkg)
    tracer = layertrace.Tracer(pkg)
    run = Run(pkg, tracer)
    plain_s = traced_s = 0.0
    for b, block in enumerate(blocks):  # alternate, so both see the same machine
        plain_s += plain.block(b, block)
        tracer.install()
        try:
            traced_s += run.block(b, block)
        finally:
            tracer.uninstall()
    for b, (left, right) in enumerate(zip(plain.digests, run.digests)):
        for i, (x, y) in enumerate(zip(left, right)):
            if x != y:
                plain.fail(b, i, blocks[b][i], "output differs between the untraced and traced run", None)
    metrics = tracer.metrics(traced_s / plain_s)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    notes = {"timed_s": traced_s, "untraced_s": plain_s, "samples": len(run.durations),
             "spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT))}
    return plain, metrics, notes


def report(args, run: Run, metrics: dict, notes: dict) -> None:
    n = len(run.durations)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n}  timed {notes['timed_s']:.2f} s")
    for name, (value, unit) in metrics.items():
        count = f"n={notes['samples']}" if name in SAMPLED else ""
        print(f"{name:34s} {value:14.6g} {unit:6s} {count}")
    if not args.trace and n < 10 * P90_MIN_BEYOND:
        print(f"# op_p90_ms has {n} samples, fewer than {P90_MIN_BEYOND} beyond the p90")
    print(f"{'failed_frac':34s} {run.failed_ops / n:14.6g} ratio  ({run.failed_ops} of {n} ops)")
    for f in run.failures:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"#   failed op {f['block']}.{f['index']} ({f['kind']}): {f['argv']}\n"
              f"#     {f['message']}{tag}")
    if args.trace:
        print("# layer: should move | on workload | bypassed by (no change)")
        for layer, row in layertrace.LAYER_TABLE.items():
            print(f"#   {layer:11s} {row[0]:24s} | {row[1]:26s} | {row[2]}")
    print("# descriptors " + json.dumps(run.descriptors()))
    print("# notes " + json.dumps(notes))


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--tiny"] if args.tiny else []),
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
    print("# summary")
    for workload, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"{workload:16s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={frac:.4g}")
        for name, metric in result["metrics"].items():
            count = f"n={result['attempted']}" if name in SAMPLED else ""
            print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s} {count}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few small ops (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pkg = Package()
    if args.setup_probe:
        next(workloads.blocks(args.workload, args.seed, args.tiny))
        return 0
    if args.trace:
        run, metrics, notes = traced(args, pkg)
    else:
        run, metrics, notes = timed(args, pkg)
    report(args, run, metrics, notes)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "notes": notes,
              "descriptors": run.descriptors(), "failures": run.failures}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.durations),
        "failed": run.failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
