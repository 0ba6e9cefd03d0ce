"""Closed-loop benchmark of the cachepir toolkit.

    python3 bench/run.py --workload retrieve-large --seed 1 --seconds 20 --trace 0

One client runs whole cycles of checked ops back to back (see workloads.py)
for at least `--seconds` seconds, then one untimed tracemalloc pass measures
peak memory.  There is one client and no queue, so time spent waiting is zero
by construction and is not recorded.  `--trace 0` reports the end-to-end
metrics; `--trace 1` repeats the same ops with spans attached from outside the
library and reports per-layer metrics, writing the spans to `bench/out/`.
Human-readable lines come first; the last line of standard output is one JSON
object.  The exit code is 1 when any op failed its output check, 2 when the
library cannot be imported from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import math
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

from spans import Patcher, PeakMeter, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, check  # noqa: E402

MODULES = ("bounds", "scheme", "rng", "protocol", "audit", "cli")
SETUP_REPS = 5
MIB = 1 << 20


# Per-layer boundary counters, taken from the arguments and results of the
# wrapped call.
def _on_prefetch(tr, args, _):
    tr.count("prefetch.cached_bits", args[0].count * args[1])


def _on_answer(tr, args, _):
    tr.count("answer.refs", sum(len(eq) for eq in args[1]))


def _on_decode(tr, args, _):
    tr.count("decode.bits", args[0].length)


def _on_equations(tr, _, per_db):
    refs = sum(len(eq) for eqs in per_db for eq in eqs)
    tr.count("equations", sum(len(eqs) for eqs in per_db))
    tr.count("refs", refs)
    if tr.open["scheme.compose_plans"]:
        tr.count("compose.refs", refs)


def _on_build(tr, *_):
    if tr.open["audit.montecarlo_privacy"]:
        tr.count("mc_plans")


def _on_rank(tr, args, _):
    t = args[0]
    rows = sum(len(eqs) for eqs in t.plan.per_db) + sum(len(i) for i in t.cache.indices)
    tr.count("rank_rows", rows)
    tr.count("rank_bits", rows * t.params.k * t.length)


TRACED = {
    "protocol.retrieve": None,
    "protocol.random_store": None,
    "protocol.prefetch": _on_prefetch,
    "protocol.answer": _on_answer,
    "protocol.decode": _on_decode,
    "scheme.split_for_ratio": None,
    "scheme.compose_plans": None,
    "scheme.build_corner_plan": _on_build,
    "scheme.corner_equations": _on_equations,
    "rng.derive_rng": None,
    "bounds.outer_bound": None,
    "audit.verify_decodability": _on_rank,
    "audit.verify_cost": None,
    "audit.structural_symmetry": None,
    "audit.montecarlo_privacy": None,
    "audit.enumerate_privacy": None,
    "audit.plan_signature": None,
    "cli.transcript_to_dict": None,
    "cli.transcript_from_dict": None,
}
MEMORY_LAYERS = ("protocol.retrieve", "scheme.compose_plans", "audit.verify_decodability")
SCALING_LAYERS = (
    "protocol.answer",
    "protocol.decode",
    "protocol.prefetch",
    "scheme.compose_plans",
    "audit.verify_decodability",
)
# ROADMAP baseline for retrieve at k=4, n=2, r=1/1000 (L=16 000), seconds.
XCHECK_BASELINE = {"scheme.compose_plans": 0.15, "protocol.answer": 0.07, "protocol.decode": 0.08}


def load_library() -> SimpleNamespace:
    """Fresh import of the checkout's `cachepir`, one attribute per module."""
    for name in [m for m in sys.modules if m == "cachepir" or m.startswith("cachepir.")]:
        del sys.modules[name]
    package = importlib.import_module("cachepir")
    if Path(package.__file__).resolve().parent != SRC / "cachepir":
        raise ImportError(f"cachepir imported from {package.__file__}, not from {SRC}")
    lib = SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"cachepir.{name}"))
    return lib


def resolve(lib, dotted: str):
    module, attr = dotted.split(".")
    return getattr(getattr(lib, module), attr)


def patcher(lib) -> Patcher:
    return Patcher([lib.package] + [getattr(lib, m) for m in MODULES])


class Run:
    """Latencies and outcome counts of one pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.counts = Counter()

    def do(self, op: Op, lib, call=Op.__call__) -> None:
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = call(op, lib)
        except Exception as err:  # any exception is a failed op, reported at the end
            self.failures.append(f"{op.label}: {type(err).__name__}: {err}")
            return
        self.latencies.append(perf_counter() - start)
        self.counts.update(outcome)


def set_up(workload, seed: int):
    """Import, input generation and one warm-up op, repeated; median seconds."""
    warm = Run()
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        lib = load_library()
        pool = workload.cycles(lib, seed)
        warm.do(pool[0][0], lib)
        times.append(perf_counter() - start)
    return lib, pool, statistics.median(times), warm


def timed_pass(lib, pool, workload, seconds: float) -> Run:
    """Whole cycles until `seconds` have passed and `min_ops` ops were attempted."""
    run = Run()
    start = perf_counter()
    cycle = 0
    while True:
        for op in pool[cycle % len(pool)]:
            run.do(op, lib)
        cycle += 1
        if perf_counter() - start >= seconds and run.attempted >= workload.min_ops:
            return run
        gc.collect()  # between cycles, never inside a timed op


def traced(lib, tracer: Tracer, names=TRACED):
    """Patcher with every named layer wrapped in the tracer's spans."""
    patch = patcher(lib)
    for name in names:
        patch.wrap(resolve(lib, name), tracer.wrapper(name, TRACED[name]))
    return patch


def traced_pass(lib, pool, n_ops: int, tracer: Tracer) -> Run:
    """The timed pass's ops again, with every layer wrapped in spans."""
    root = tracer.wrapper("bench.op")(Op.__call__)
    run = Run()
    patch = traced(lib, tracer)
    try:
        cycle = 0
        while run.attempted < n_ops:
            for op in pool[cycle % len(pool)][: n_ops - run.attempted]:
                tracer.begin_op(run.attempted, op.shape)
                run.do(op, lib, root)
                tracer.end_op()
            cycle += 1
            gc.collect()
    finally:
        patch.restore()
    return run


def _xcheck_op(lib, seed) -> Counter:
    t = lib.protocol.retrieve(lib.bounds.Params(4, 2), 0, Fraction(1, 1000), seed)
    check(t.decoded == t.store.bits[0], "decoded message differs from stored one")
    return Counter()


def xcheck(lib, seed: int) -> Run:
    """One traced retrieve at the ROADMAP baseline point, printed beside it.

    Layer times here are inclusive (children counted), as the baseline was.
    """
    tracer = Tracer()
    run = Run()
    patch = traced(lib, tracer, XCHECK_BASELINE)
    try:
        run.do(Op(_xcheck_op, dict(seed=seed), "xcheck retrieve k=4 n=2 r=1/1000"), lib)
    finally:
        patch.restore()
    parts = []
    for name, baseline in XCHECK_BASELINE.items():
        took = sum(s[3] - s[2] for s in tracer.spans if s[1] == name)
        flag = " (off by more than 2x)" if not 0.5 <= took / baseline <= 2 else ""
        parts.append(f"{name} {took:.3f} s vs {baseline} s{flag}")
    print("xcheck k=4 n=2 r=1/1000 L=16000: " + "; ".join(parts))
    return run


def memory_pass(lib, pool, workload) -> tuple[Run, int, dict]:
    """Untimed tracemalloc pass: largest per-op peak and per-layer peaks, bytes."""
    run = Run()
    meter = PeakMeter()
    patch = patcher(lib)
    for name in MEMORY_LAYERS:
        patch.wrap(resolve(lib, name), meter.wrapper(name))
    op_peak = 0
    gc.collect()
    tracemalloc.start()
    try:
        for op in workload.memory_ops(pool[0]):
            meter.enter()
            try:
                run.do(op, lib)
            finally:
                op_peak = max(op_peak, meter.exit())
    finally:
        tracemalloc.stop()
        patch.restore()
    return run, op_peak, meter.peaks


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percent(workload) -> int:
    # the highest whole percentile with at least ten samples beyond it at the
    # run's guaranteed sample count
    return math.floor(100 * (1 - 10 / workload.min_ops))


def slope(points: list[tuple[tuple, float, float]]) -> float:
    """Least-squares slope of log(y) against log(x) within groups of one shape.

    Each (shape, x, y) group gets its own intercept, so the slope measures how
    time grows with size at a fixed plan structure; 0 when no shape varies in x.
    """
    groups = defaultdict(list)
    for shape, x, y in points:
        if x > 0 and y > 0:
            groups[shape].append((math.log(x), math.log(y)))
    sxy = sxx = 0.0
    for logs in groups.values():
        mx = statistics.fmean(x for x, _ in logs)
        my = statistics.fmean(y for _, y in logs)
        sxy += sum((x - mx) * (y - my) for x, y in logs)
        sxx += sum((x - mx) ** 2 for x, _ in logs)
    return sxy / sxx if sxx > 1e-12 else 0.0


def end_to_end(run: Run, workload, setup_s: float, op_peak: int) -> dict:
    busy = sum(run.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(run.latencies) / busy, "1/s"),
        "op_s.p50": (statistics.median(run.latencies), "s"),
        "op_s.tail": (percentile(run.latencies, tail_percent(workload) / 100), "s"),
        "peak_mem_mib": (op_peak / MIB, "MiB"),
    }


def per_layer(plain: Run, traced: Run, tracer: Tracer, peaks) -> dict:
    ops = traced.attempted
    own = tracer.self_s
    got = tracer.counters

    def each(value):
        return value / ops

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    metrics = {
        "protocol.answer.s": (each(own["protocol.answer"]), "s"),
        "protocol.answer.ns_per_ref": (ratio(own["protocol.answer"], got["answer.refs"], 1e9), "ns"),
        "protocol.decode.s": (each(own["protocol.decode"]), "s"),
        "protocol.decode.ns_per_bit": (ratio(own["protocol.decode"], got["decode.bits"], 1e9), "ns"),
        "protocol.prefetch.s": (each(own["protocol.prefetch"]), "s"),
        "protocol.prefetch.cached_bits": (each(got["prefetch.cached_bits"]), "count"),
        "audit.verify_decodability.s": (each(own["audit.verify_decodability"]), "s"),
        "audit.rank_rows": (each(got["rank_rows"]), "count"),
        "audit.rank_bits_computed": (each(got["rank_bits"]), "count"),
        "scheme.compose_plans.s": (each(own["scheme.compose_plans"]), "s"),
        "scheme.build_corner_plan.s": (each(own["scheme.build_corner_plan"]), "s"),
        "scheme.corner_equations.s": (each(own["scheme.corner_equations"]), "s"),
        "scheme.equations": (each(got["equations"]), "count"),
        "scheme.refs": (each(got["refs"]), "count"),
        "scheme.compose_plans.ns_per_ref": (ratio(own["scheme.compose_plans"], got["compose.refs"], 1e9), "ns"),
        "rng.derive_rng.calls": (each(tracer.calls["rng.derive_rng"]), "count"),
        "rng.derive_rng.s": (each(own["rng.derive_rng"]), "s"),
        "audit.montecarlo_privacy.s": (each(own["audit.montecarlo_privacy"]), "s"),
        "audit.plan_signature.s": (each(own["audit.plan_signature"]), "s"),
        "audit.plan_signature.calls": (each(tracer.calls["audit.plan_signature"]), "count"),
        "audit.mc_plans": (each(got["mc_plans"]), "count"),
        "audit.enumerate_privacy.s": (each(own["audit.enumerate_privacy"]), "s"),
        "audit.controls_caught": (each(traced.counts["controls_caught"]), "count"),
        "audit.controls_run": (each(traced.counts["controls_run"]), "count"),
        "audit.verify_cost.s": (each(own["audit.verify_cost"]), "s"),
        "audit.structural_symmetry.s": (each(own["audit.structural_symmetry"]), "s"),
        "bounds.outer_bound.s": (each(own["bounds.outer_bound"]), "s"),
        "cli.transcript_to_dict.s": (each(own["cli.transcript_to_dict"]), "s"),
        "cli.transcript_from_dict.s": (each(own["cli.transcript_from_dict"]), "s"),
        "cli.json_bytes": (each(traced.counts["json_bytes"]), "B"),
    }
    for name in MEMORY_LAYERS:
        metrics[f"{name}.peak_mib"] = (peaks[name] / MIB, "MiB")
    for name in SCALING_LAYERS:
        points = [
            (shape, counts.get("refs", 0), selfs.get(name, 0.0))
            for shape, selfs, counts in tracer.per_op
        ]
        metrics[f"{name}.scaling_exp"] = (slope(points), "slope")
    plain_p50 = statistics.median(plain.latencies)
    metrics["trace.overhead_s"] = (statistics.median(traced.latencies) - plain_p50, "s")
    metrics["desired_bits_per_s"] = (plain.counts["desired_bits"] / sum(plain.latencies), "bit/s")
    metrics["op_s.samples"] = (len(plain.latencies), "count")
    return metrics


def write_spans(tracer: Tracer, workload, seed: int) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload.name}-{seed}.json.gz"
    doc = {
        "workload": workload.name,
        "seed": seed,
        "columns": ["id", "name", "start", "end", "parent", "op", "calls"],
        "spans": tracer.spans,
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        lib, pool, setup_s, warm = set_up(workload, args.seed)
    except ImportError as err:
        print(f"cannot import cachepir from {SRC}: {err}", file=sys.stderr)
        return 2

    plain = timed_pass(lib, pool, workload, args.seconds)
    runs = [warm, plain]
    if args.trace:
        tracer = Tracer()
        traced_run = traced_pass(lib, pool, plain.attempted, tracer)
        runs += [traced_run, xcheck(lib, args.seed)]
    memory, op_peak, peaks = memory_pass(lib, pool, workload)
    runs.append(memory)
    failures = [line for run in runs for line in run.failures]
    attempted = sum(run.attempted for run in runs)
    if not plain.latencies or (args.trace and not traced_run.latencies):
        print("no op completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(plain, traced_run, tracer, peaks)
        print(f"spans written to {write_spans(tracer, workload, args.seed).relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain, workload, setup_s, op_peak)

    print(f"workload {workload.name}, seed {args.seed}: one closed-loop client, "
          f"{len(plain.latencies)} timed ops, tail is p{tail_percent(workload)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} (failed/attempted)")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
