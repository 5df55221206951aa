"""equifit benchmark: certified fits end to end, and per module when traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_smooth --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single client: each
op starts after the previous one returned.  The output of every op is
checked, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
public functions of every equifit module are wrapped in spans and the
metrics are per layer.  Details (environment, sample counts, failures by
class, deterministic counts) go to the line before it and to
``.perfbench_out/``; the spans of a traced run go there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Set-up is timed in this process and in this many fresh interpreters; the
# median is reported.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

# name -> unit.  BENCHMARK.json lists the same names.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "basis.design_s": "s",
    "basis.design_calls_per_op": "count",
    "basis.rank_s": "s",
    "basis.rank_calls_per_op": "count",
    "fitting.assemble_s": "s",
    "fitting.fit_self_s": "s",
    "fitting.lp_rows": "count",
    "lp.solve_s": "s",
    "lp.pivots_per_op": "count",
    "lp.s_per_pivot": "s",
    "lp.tableau_mb": "MB",
    "lp.peak_mb": "MB",
    "certificates.extract_s": "s",
    "certificates.verify_s": "s",
    "certificates.ok_ratio": "ratio",
    "certificates.worst_margin": "ratio",
    "equioscillation.alternation_s": "s",
    "equioscillation.strict_ratio": "ratio",
    "oracle.systems_per_op": "count",
    "oracle.agree_ratio": "ratio",
    "share.bench": "%",
    "share.basis": "%",
    "share.fitting": "%",
    "share.lp": "%",
    "share.certificates": "%",
    "share.equioscillation": "%",
    "share.oracle": "%",
    "share.cli": "%",
    "trace.overhead_frac": "ratio",
    "failed.count": "count",
}
# Per-layer times that are zero by construction on some workloads, where
# the layer is not reached, are reported with the details only:
# basis.parse_s, oracle.brute_force_s, cli.main_s and cli.self_s (seconds
# per op).


class Record:
    """One op: its block, latency, check outcome and input label."""

    __slots__ = ("block", "latency", "outcome", "label")

    def __init__(self, block, latency, outcome, label):
        self.block = block
        self.latency = latency
        self.outcome = outcome
        self.label = label


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup():
    """Set-up seconds of equifit in fresh interpreters."""
    samples = []
    script = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, script, SRC],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_block(workload, index, records, tracer=None):
    """Run the ops of one block, appending a Record per op.  Input
    generation and output checks happen between ops, outside the timed op."""
    from workloads import raised

    clock = time.perf_counter
    for inp in workload.block(index):
        if tracer is not None:
            tracer.begin_op(len(records))
        began = clock()
        out, exc = workload.execute(inp)
        latency = clock() - began
        if tracer is not None:
            tracer.end_op()
        outcome = raised(exc) if exc is not None else workload.check(inp, out)
        records.append(Record(index, latency, outcome, inp.label))


def run_blocks(workload, seconds, min_blocks):
    """Closed loop over whole blocks until ``seconds`` have passed and at
    least ``min_blocks`` blocks ran."""
    records = []
    start = time.perf_counter()
    index = 0
    while index < min_blocks or time.perf_counter() - start < seconds:
        run_block(workload, index, records)
        index += 1
    return records


def run_traced(workload, seconds, window):
    """Traced closed loop.  Each block of the count window also runs
    untraced, alternately before and after its traced copy, so that the
    tracing overhead is measured on the same ops without an order bias.
    Returns the tracer, the traced records and the untraced ones."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while index < window or time.perf_counter() - start < seconds:
        in_window = index < window
        if in_window and index % 2 == 0:
            run_block(workload, index, plain)
        tracer.keep_programs = in_window
        tracer.install()
        try:
            run_block(workload, index, traced, tracer)
        finally:
            tracer.uninstall()
        if in_window and index % 2 == 1:
            run_block(workload, index, plain)
        index += 1
    return tracer, traced, plain


def percentile(values, q):
    """Nearest-rank percentile of a sorted list."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def ratio(part, whole):
    return part / whole if whole else 0.0


def outcome_counts(records):
    """Deterministic figures of a fixed prefix of the op stream."""
    statuses = {}
    errors = {}
    for r in records:
        statuses[r.outcome.status] = statuses.get(r.outcome.status, 0) + 1
        if r.outcome.error:
            errors[r.outcome.error] = errors.get(r.outcome.error, 0) + 1
    outcomes = [r.outcome for r in records]
    strict = [o.strict for o in outcomes if o.strict is not None]
    oracle = [o.oracle_agrees for o in outcomes if o.oracle_agrees is not None]
    margins = [o.margin for o in outcomes if o.margin is not None]
    return {
        "ops": len(records),
        "statuses": dict(sorted(statuses.items())),
        "failures_by_class": dict(sorted(errors.items())),
        "certified": sum(o.certified for o in outcomes),
        "ok_ratio": ratio(sum(o.certified for o in outcomes), len(records)),
        "strict_patterns": len(strict),
        "strict_ratio": ratio(sum(strict), len(strict)),
        "oracle_checks": len(oracle),
        "agree_ratio": ratio(sum(oracle), len(oracle)),
        "worst_margin": max(margins, default=0.0),
    }


def end_to_end(records, setup_samples):
    attempted = len(records)
    # Latency is taken over completed ops; failed ones show in
    # completed_frac, whose bound is tight.
    completed = sorted(r.latency for r in records if r.outcome.status != "error")
    if not completed:
        fail("every op failed")
    p50, p90 = percentile(completed, 0.5), percentile(completed, 0.9)
    per_block = {}
    for r in records:
        done, wall = per_block.get(r.block, (0, 0.0))
        per_block[r.block] = (done + (r.outcome.status != "error"), wall + r.latency)
    metrics = {
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "ops_per_s": statistics.median(d / w for d, w in per_block.values()),
        "completed_frac": len(completed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    samples = {
        "latency_samples": len(completed),
        "beyond_p90": sum(1 for v in completed if v > p90),
        "blocks": len(per_block),
        "setup_samples": setup_samples,
    }
    return metrics, samples


def per_layer(tracer, records, plain, window_blocks):
    from tracing import LAYER_ORDER, solve_peak_bytes

    window_ids = {i for i, r in enumerate(records) if r.block < window_blocks}
    n_ops = len(records)
    n_window = len(window_ids)
    self_time, _ = tracer.self_times()
    _, window_calls = tracer.self_times(window_ids)
    walls = tracer.op_walls()
    total_wall = sum(walls.values())

    def per_op(*labels):
        return sum(self_time.get(label, 0.0) for label in labels) / n_ops

    def calls_per_op(label):
        return window_calls.get(label, 0) / n_window

    layer_self = dict.fromkeys(LAYER_ORDER, 0.0)
    for label, seconds in self_time.items():
        layer_self[tracer.layer_of[label]] += seconds

    solves = tracer.solves
    window_solves = [s for s in solves if s[0] in window_ids]
    # Memory depends on the program's size, not on its data: measure the
    # largest program of the count window once, after the timed ops.
    largest = max(tracer.programs, key=lambda lp: lp.constraint_matrix.size, default=None)
    peak = 0 if largest is None else solve_peak_bytes(largest)
    total_pivots = sum(s[1] for s in solves)
    main_spans = [s for s in tracer.spans if s[0] == "cli.main"]
    counts = outcome_counts([records[i] for i in sorted(window_ids)])
    # Each untraced op is paired with its traced copy: same input, same
    # position in the stream.  The median of the pairs ignores the few ops
    # that a cold cache or a busy host slowed in one copy only.
    pairs = [(walls[i], r.latency) for i, r in enumerate(plain)]
    overhead_s = statistics.median(t - u for t, u in pairs)
    overhead_frac = statistics.median(t / u - 1.0 for t, u in pairs)

    metrics = {
        "basis.design_s": per_op("basis.design_matrix"),
        "basis.design_calls_per_op": calls_per_op("basis.design_matrix"),
        "basis.rank_s": per_op("basis.matrix_rank_estimate"),
        "basis.rank_calls_per_op": calls_per_op("basis.matrix_rank_estimate"),
        "fitting.assemble_s": per_op("fitting.assemble_primal"),
        "fitting.fit_self_s": per_op("fitting.fit"),
        "fitting.lp_rows": ratio(sum(s[2] for s in window_solves), n_window),
        "lp.solve_s": per_op("lp.solve_lp"),
        "lp.pivots_per_op": ratio(sum(s[1] for s in window_solves), n_window),
        "lp.s_per_pivot": ratio(self_time.get("lp.solve_lp", 0.0), total_pivots),
        "lp.tableau_mb": max((s[3] for s in window_solves), default=0) / 1e6,
        "lp.peak_mb": peak / 1e6,
        "certificates.extract_s": per_op("certificates.extract_certificate"),
        "certificates.verify_s": per_op(
            "certificates.verify_identities",
            "certificates.check_active_point_count",
            "certificates.check_two_sided",
        ),
        "certificates.ok_ratio": counts["ok_ratio"],
        "certificates.worst_margin": counts["worst_margin"],
        "equioscillation.alternation_s": per_op("equioscillation.alternation_pattern"),
        "equioscillation.strict_ratio": counts["strict_ratio"],
        "oracle.systems_per_op": ratio(
            sum(c for op, c in tracer.oracle_calls if op in window_ids), n_window
        ),
        "oracle.agree_ratio": counts["agree_ratio"],
    }
    for layer in LAYER_ORDER:
        metrics[f"share.{layer}"] = 100.0 * ratio(layer_self[layer], total_wall)
    metrics["trace.overhead_frac"] = overhead_frac
    metrics["failed.count"] = sum(counts["failures_by_class"].values())

    details = {
        "layer_details": {
            "basis.parse_s": per_op("basis.parse_basis_spec"),
            "oracle.brute_force_s": per_op("oracle.brute_force_fit"),
            "cli.main_s": sum(s[2] - s[1] for s in main_spans) / n_ops,
            "cli.self_s": per_op("cli.main"),
        },
        "trace.overhead_s_per_op": overhead_s,
        "traced_ops": n_ops,
        "count_window": counts,
        "window_solves": len(window_solves),
        "window_pivots": sum(s[1] for s in window_solves),
        "calls_per_op": {k: v / n_window for k, v in sorted(window_calls.items())},
    }
    return metrics, details


def dump_ops(records, path):
    """Write every op as one CSV row."""
    with open(path, "w") as handle:
        handle.write("block,label,latency_s,status,error\n")
        for r in records:
            handle.write(
                f"{r.block},{r.label},{r.latency!r},{r.outcome.status},{r.outcome.error or ''}\n"
            )


def report(result_metrics, units, summary, details, path):
    for name, value in result_metrics.items():
        print(f"{name:32s} {value!r} {units[name]}")
    for key, value in summary.items():
        print(f"{key:32s} {value}")
    with open(path, "w") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
    print(json.dumps(details, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equifit", "__init__.py")):
        fail(f"no equifit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, HERE)
    from setup_probe import timed_setup

    setup_seconds, equifit = timed_setup(SRC)
    if not os.path.abspath(equifit.__file__).startswith(SRC + os.sep):
        fail(f"imported equifit from {equifit.__file__}, not from {SRC}")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        window = workload.count_blocks
        if args.trace == 0:
            setup_samples = [setup_seconds] + probe_setup()
            records = run_blocks(workload, args.seconds, window)
            metrics, samples = end_to_end(records, setup_samples)
            units = END_TO_END
            counts = outcome_counts([r for r in records if r.block < window])
            details = {"environment": env, "samples": samples, "count_window": counts}
        else:
            tracer, traced, plain = run_traced(workload, args.seconds, window)
            metrics, layer_details = per_layer(tracer, traced, plain, window)
            units = PER_LAYER
            records = traced + plain
            tracer.dump(stem + "-spans.csv")
            details = {"environment": env, **layer_details}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    dump_ops(records, stem + "-ops.csv")
    wrong = [r for r in records if r.outcome.status == "wrong"]
    for r in wrong[:10]:
        print(f"perfbench: wrong output on {r.label}: {r.outcome.note}", file=sys.stderr)
    failed = sum(r.outcome.status == "error" for r in records)
    details["all_failures_by_class"] = outcome_counts(records)["failures_by_class"]
    summary = {
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "failures_by_class": details["all_failures_by_class"],
    }
    report(metrics, units, summary, details, stem + ".json")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
