#!/usr/bin/env python3
"""Digest the benchmark's fits, so that two versions of equifit compare in
one command.

Imports ``equifit`` from SRC (default: this checkout's ``src``) and the
seeded workloads from this checkout's ``perfbench/workloads.py``, runs a
fixed slice of each workload's ops, and prints one line per slice: the
workload, the seed, the op count, the count of ops that raised, a SHA-256
of every op's full outcome, and a second SHA-256, after "fits", of its
fits and verdicts alone.

* The fit workloads (``many_small``, ``grid_smooth``, ``large_1d``) run
  through ``workloads.certified_fit``.  An op's outcome is d's repr; the
  bytes of the coefficients, residuals and scaled residuals; the active
  set; the exchange count; the flags; ``active_tol``; the certificate
  report as sorted JSON; the alternation pattern; or the raised
  exception's class and message.
* ``verify_cli`` runs ``equifit fit --certify --verify`` in process; an
  op's outcome is its exit code, its JSON report without ``timing``, and
  its stderr.

The fits-alone digest leaves out what moves with a rounding of a sum and
not with the fit: ``active_tol``, the certificate's residual magnitudes
(the gaps, sum and orthogonality residuals of its report) and, in the
CLI's report, the certificate's masses and dual objective.  It keeps d,
the coefficients, the residuals, the active set, the exchange count, the
flags, the certificate's verdicts and counts (``VERDICTS``), the
alternation pattern, the oracle block and the exit code.

A last line digests the printed output of the selftest battery,
``equifit selftest --seed 42 --instances 200``.

Equal full digests mean byte-identical fits, reports, verdicts and
selftest output; equal fits-alone digests, byte-identical fits and
verdicts:

    python scripts/fit_digest.py > new.txt
    python scripts/fit_digest.py ../parent/src > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (workload, seed, number of blocks): 2696 ops in all.
SLICES = (
    ("many_small", 7, 40),
    ("many_small", 11, 40),
    ("many_small", 23, 40),
    ("grid_smooth", 1, 6),
    ("large_1d", 7, 2),
    ("verify_cli", 7, 25),
    ("verify_cli", 11, 25),
)
# The selftest's seed and instance count.
BATTERY = (42, 200)
# The certificate report's verdicts and counts, all that the fits-alone
# digest keeps of it.
VERDICTS = (
    "complementarity_violations",
    "active_point_count",
    "active_count_ok",
    "two_sided_ok",
    "identities_ok",
)


def _load(src):
    """Import equifit from src, then the checkout's workloads module."""
    src = pathlib.Path(src).resolve()
    sys.path.insert(0, str(src))
    import equifit

    if not pathlib.Path(equifit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"equifit is already imported from {equifit.__file__}")
    spec = importlib.util.spec_from_file_location(
        "fit_digest_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def _verdicts(block):
    """The certificate block's verdicts and counts, or its skip reason."""
    return {key: block[key] for key in (*VERDICTS, "skipped") if key in block}


def _join(parts):
    return b"|".join(p if isinstance(p, bytes) else p.encode() for p in parts)


def _fit_records(out):
    """(full, fits-alone) records of a certified fit."""
    result, report, pattern = out
    block = None if report is None else report.to_dict()
    fits = [
        repr(result.discrepancy),
        result.coefficients.tobytes(),
        result.residuals.tobytes(),
        result.scaled_residuals.tobytes(),
        repr(result.active_points),
        repr(result.lp_solution.iterations),
        repr((result.exact_interpolation, result.low_rank)),
    ]
    full = [
        repr(result.active_tol),
        "" if block is None else json.dumps(block, sort_keys=True),
        repr(pattern),
    ]
    alone = [
        "" if block is None else json.dumps(_verdicts(block), sort_keys=True),
        repr(pattern),
    ]
    return _join(fits + full), _join(fits + alone)


def _cli_records(code, report_path, stderr):
    """(full, fits-alone) records of one CLI run."""
    report = alone = ""
    if os.path.exists(report_path):
        with open(report_path) as handle:
            data = json.load(handle)
        os.remove(report_path)
        data.pop("timing", None)
        report = json.dumps(data, sort_keys=True)
        if "certificate" in data:
            data["certificate"] = _verdicts(data["certificate"])
        alone = json.dumps(data, sort_keys=True)
    return f"{code}|{report}|{stderr}".encode(), f"{code}|{alone}|{stderr}".encode()


def digest(workloads, name, seed, blocks, workdir):
    """(op count, raise count, full SHA-256, fits-alone SHA-256) of the
    first ``blocks`` blocks."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    shas = hashlib.sha256(), hashlib.sha256()
    ops = raises = 0
    for index in range(blocks):
        for inp in workload.block(index):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                out, exc = workload.execute(inp)
            ops += 1
            if exc is not None:
                raises += 1
                records = (f"{type(exc).__name__}: {exc}".encode(),) * 2
            elif name == "verify_cli":
                records = _cli_records(out, inp.report_path, stderr.getvalue())
            else:
                records = _fit_records(out)
            for sha, record in zip(shas, records):
                sha.update(len(record).to_bytes(8, "little") + record)
    return ops, raises, shas[0].hexdigest(), shas[1].hexdigest()


def battery_digest(seed, instances):
    """SHA-256 of the selftest battery's printed lines."""
    from equifit.selftest import run_battery

    lines = []
    run_battery(seed, instances, lines.append)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run(src=ROOT / "src", blocks=None):
    """Print and return one line per slice, then the selftest's line;
    ``blocks`` caps each slice's block count and runs the selftest on 5
    instances."""
    workloads = _load(src)
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, seed, count in SLICES:
            count = count if blocks is None else min(count, blocks)
            ops, raises, full, alone = digest(workloads, name, seed, count, workdir)
            lines.append(
                f"{name} seed {seed}: {ops} ops, {raises} raised, {full}, fits {alone}"
            )
            print(lines[-1])
    seed, instances = BATTERY if blocks is None else (BATTERY[0], 5)
    sha = battery_digest(seed, instances)
    lines.append(f"selftest seed {seed}: {instances} instances, {sha}")
    print(lines[-1])
    return lines


if __name__ == "__main__":
    run(*sys.argv[1:2])
