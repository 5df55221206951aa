"""Command-line front end.

``equifit fit`` ingests a UTF-8 CSV (an optional byte-order mark, then a
header row that names each column once: coordinate columns ``x1..xp`` or
``x``, a ``y`` column, optionally a weight column; then rows of one cell
per column), fits the requested basis, and writes a JSON or text report.
``equifit selftest`` runs the randomized property battery.

Exit codes: 0 success, 2 parse/validation error (a basis function that is
not finite at a data point included), 3 solver failure, 4 brute-force
verification disagreed.  Errors appear on stderr as a single
line ``E<code>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from .basis import design_matrix, parse_basis_spec
from .certificates import extract_certificate, verify_identities
from .equioscillation import alternation_pattern
from .errors import (
    DegenerateCase,
    DimensionError,
    EquifitError,
    EvaluationError,
    PreconditionError,
)
from .fitting import ProblemInstance, fit
from .oracle import compare_with_oracle
from .selftest import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise _CliError(code, message)


def _cell(path, line, name, raw):
    """The finite float in one CSV cell; E2 names the cell otherwise."""
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        _fail(
            EXIT_VALIDATION,
            f"{path} line {line}: column {name!r} has non-numeric value {raw!r}",
        )
    if not math.isfinite(value):
        _fail(
            EXIT_VALIDATION,
            f"{path} line {line}: column {name!r} is not finite ({raw})",
        )
    return value


def _read_csv(path, dim, weight_column):
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            fieldnames = next(reader, None)
            if fieldnames is None:
                _fail(EXIT_VALIDATION, f"{path}: empty file, header row required")
            if not fieldnames:
                _fail(EXIT_VALIDATION, f"{path} line 1: blank, header row required")
            header = [name.strip() for name in fieldnames]
            # (line, cells) pairs; blank lines are skipped, so a row's line is
            # the reader's count, not its position among the rows.
            rows = []
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    _fail(
                        EXIT_VALIDATION,
                        f"{path} line {reader.line_num}: {len(cells)} cells, but "
                        f"the header names {len(header)} columns",
                    )
                rows.append((reader.line_num, cells))
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _fail(EXIT_VALIDATION, f"{path}: not UTF-8 text: {exc}")
    except csv.Error as exc:
        _fail(EXIT_VALIDATION, f"{path}: malformed CSV: {exc}")
    for k, name in enumerate(header):
        if name and name in header[:k]:
            _fail(
                EXIT_VALIDATION, f"{path}: column {name!r} appears twice in the header"
            )

    if dim is None:
        if "x" in header:
            dim = 1
        else:
            dim = 0
            while f"x{dim + 1}" in header:
                dim += 1
            if dim == 0:
                _fail(
                    EXIT_VALIDATION,
                    f"{path}: no coordinate columns (expected x or x1..xp)",
                )
    if dim == 1 and "x" in header:
        coord_names = ["x"]
    else:
        # A header of k names lacks one of x1..x<k + 1>: check no further.
        coord_names = [f"x{k + 1}" for k in range(min(dim, len(header) + 1))]
    for name in coord_names + ["y"]:
        if name not in header:
            _fail(EXIT_VALIDATION, f"{path}: missing column {name!r}")
    if weight_column is not None and weight_column not in header:
        _fail(EXIT_VALIDATION, f"{path}: missing weight column {weight_column!r}")
    if not rows:
        _fail(EXIT_VALIDATION, f"{path}: no data rows")

    # One row per data row: the coordinates, the value, then the weight.
    names = coord_names + ["y"] + ([weight_column] if weight_column else [])
    columns = [(name, header.index(name)) for name in names]
    table = np.array(
        [[_cell(path, line, name, row[k]) for name, k in columns] for line, row in rows]
    )
    p = len(coord_names)
    return table[:, :p], table[:, p], table[:, p + 1] if weight_column else None, dim


def _certificate_block(result, instance):
    try:
        cert = extract_certificate(result.lp_solution, instance)
    except DegenerateCase as exc:
        return {"skipped": str(exc)}
    report = verify_identities(cert, result, instance)
    block = report.to_dict()
    block["overshoot_mass"] = cert.overshoot_sum
    block["undershoot_mass"] = cert.undershoot_sum
    block["dual_objective"] = cert.dual_objective
    return block


def _alternation_block(result, instance):
    try:
        pattern = alternation_pattern(result, instance)
    except (DimensionError, DegenerateCase, PreconditionError) as exc:
        return {"skipped": str(exc)}
    return {
        "indices": list(pattern.indices),
        "signs": list(pattern.signs),
        "equioscillates": pattern.equioscillates,
    }


def _oracle_block(result):
    try:
        comparison = compare_with_oracle(result)
    except EquifitError as exc:
        return {"skipped": str(exc)}, True
    oracle = comparison.oracle
    block = {
        "discrepancy": oracle.discrepancy,
        "coefficients": [float(v) for v in oracle.coefficients],
        "witness_subset": list(oracle.witness_subset),
        "witness_signs": list(oracle.witness_signs),
        "discrepancy_gap": comparison.discrepancy_gap,
        "coefficient_gap": comparison.coefficient_gap,
        "agrees": comparison.agrees,
    }
    return block, comparison.agrees


def _emit_curve(path, grid, result, instance):
    if instance.dimension != 1:
        _fail(EXIT_VALIDATION, "curve emission is only available for 1-D data")
    if grid < 1:
        _fail(EXIT_VALIDATION, f"--grid must be at least 1, got {grid}")
    lo = float(np.min(instance.points[:, 0]))
    hi = float(np.max(instance.points[:, 0]))
    try:
        xs = np.linspace(lo, hi, grid + 1)
        fitted = design_matrix(instance.basis, xs.reshape(-1, 1)) @ result.coefficients
    except EvaluationError as exc:
        _fail(
            EXIT_VALIDATION,
            f"cannot emit the curve: basis function {exc.label!r} is not finite "
            f"at curve grid x = {float(xs[exc.point_index])!r}",
        )
    except (ValueError, MemoryError) as exc:
        _fail(EXIT_VALIDATION, f"cannot emit the curve on {grid + 1} points: {exc}")
    try:
        with open(path, "w") as handle:
            for x, value in zip(xs, fitted):
                handle.write(f"{float(x)!r},{float(value)!r}\n")
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot write {path}: {exc}")


def _text_report(report):
    lines = []
    inst = report["instance"]
    lines.append(
        f"fit: {inst['n']} points, dimension {inst['dimension']}, "
        f"{inst['m']} basis functions"
        + (", weighted" if inst["weighted"] else "")
    )
    lines.append(f"discrepancy: {report['discrepancy']!r}")
    lines.append("coefficients:")
    for entry in report["coefficients"]:
        lines.append(f"  {entry['label']:>16}  {entry['value']!r}")
    lines.append(f"active points: {report['active_points']}")
    if report.get("exact_interpolation"):
        lines.append("exact interpolation: the data is matched with zero error")
    if report.get("low_rank"):
        lines.append("low rank: the design matrix is rank deficient")
    cert = report.get("certificate")
    if cert:
        if "skipped" in cert:
            lines.append(f"certificate: skipped ({cert['skipped']})")
        else:
            lines.append(
                "certificate: duality gap "
                f"{cert['strong_duality_gap']!r}, identities "
                + ("ok" if cert["identities_ok"] else "VIOLATED")
            )
    alternation = report.get("alternation")
    if alternation:
        if "skipped" in alternation:
            lines.append(f"alternation: skipped ({alternation['skipped']})")
        else:
            signs = "".join("+" if s > 0 else "-" for s in alternation["signs"])
            verdict = "yes" if alternation["equioscillates"] else "no"
            lines.append(f"alternation: {signs} (equioscillates: {verdict})")
    oracle = report.get("oracle")
    if oracle:
        if "skipped" in oracle:
            lines.append(f"brute-force check: skipped ({oracle['skipped']})")
        else:
            verdict = "agrees" if oracle["agrees"] else "DISAGREES"
            lines.append(
                f"brute-force check: {verdict} "
                f"(discrepancy gap {oracle['discrepancy_gap']!r}, "
                f"coefficient gap {oracle['coefficient_gap']!r})"
            )
    residuals = report["residuals"]
    lines.append("residuals:")
    for i, value in enumerate(residuals):
        marker = " *" if i in report["active_points"] else ""
        lines.append(f"  [{i:>3}] {value!r}{marker}")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    started = time.perf_counter()
    if args.dim is not None and args.dim < 1:
        _fail(EXIT_VALIDATION, f"--dim must be at least 1, got {args.dim}")
    points, values, weights, dim = _read_csv(args.data, args.dim, args.weights)
    try:
        basis = parse_basis_spec(args.basis, dim)
        instance = ProblemInstance(
            points=points, values=values, basis=basis, weights=weights
        )
    except EquifitError as exc:
        _fail(EXIT_VALIDATION, str(exc))

    solve_started = time.perf_counter()
    result = fit(instance)  # a SolverError exits 3 through main
    solve_seconds = time.perf_counter() - solve_started

    report = {
        "instance": {
            "n": instance.n,
            "m": instance.m,
            "dimension": instance.dimension,
            "weighted": instance.weights is not None,
        },
        "basis": list(instance.basis.labels),
        "coefficients": [
            {"label": label, "value": float(value)}
            for label, value in zip(instance.basis.labels, result.coefficients)
        ],
        "discrepancy": result.discrepancy,
        "residuals": [float(v) for v in result.residuals],
        "active_points": list(result.active_points),
        "exact_interpolation": result.exact_interpolation,
        "low_rank": result.low_rank,
    }
    if instance.weights is not None:
        report["weighted_residuals"] = [float(v) for v in result.scaled_residuals]

    exit_code = EXIT_OK
    if args.certify:
        report["certificate"] = _certificate_block(result, instance)
        report["alternation"] = _alternation_block(result, instance)
    if args.verify:
        block, agrees = _oracle_block(result)
        report["oracle"] = block
        if not agrees:
            exit_code = EXIT_VERIFY
    if args.emit_curve:
        _emit_curve(args.emit_curve, args.grid, result, instance)

    report["timing"] = {
        "solve_seconds": solve_seconds,
        "total_seconds": time.perf_counter() - started,
    }

    if args.format == "json":
        rendered = json.dumps(report, indent=2) + "\n"
    else:
        rendered = _text_report(report)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        except OSError as exc:
            _fail(EXIT_VALIDATION, f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(rendered)

    if exit_code == EXIT_VERIFY:
        print(
            "E4: brute-force verification disagreed with the LP fit",
            file=sys.stderr,
        )
    return exit_code


def cmd_selftest(args) -> int:
    if args.instances < 1:
        _fail(EXIT_VALIDATION, f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        _fail(EXIT_VALIDATION, f"--seed must be non-negative, got {args.seed}")
    ok = run_battery(args.seed, args.instances, out=print)
    return EXIT_OK if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equifit",
        description="Best uniform approximation of finite data sets, with "
        "optimality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_parser = sub.add_parser("fit", help="fit a basis to a CSV data set")
    fit_parser.add_argument("--data", required=True, help="CSV file with header row")
    fit_parser.add_argument(
        "--basis", required=True, help='basis spec, e.g. "1, x, x^2"'
    )
    fit_parser.add_argument(
        "--dim", type=int, default=None, help="point dimension (default: inferred)"
    )
    fit_parser.add_argument(
        "--weights", default=None, metavar="COLUMN", help="weight column name"
    )
    fit_parser.add_argument(
        "--verify", action="store_true", help="cross-check against brute force"
    )
    fit_parser.add_argument(
        "--certify",
        action="store_true",
        help="attach certificate identities and alternation analysis",
    )
    fit_parser.add_argument(
        "--emit-curve", default=None, metavar="PATH", help="write x,fitted samples"
    )
    fit_parser.add_argument(
        "--grid", type=int, default=200, help="curve sample count (writes grid+1 rows)"
    )
    fit_parser.add_argument("--format", choices=("json", "text"), default="json")
    fit_parser.add_argument("--out", default=None, help="write the report to a file")
    fit_parser.set_defaults(handler=cmd_fit)

    selftest_parser = sub.add_parser(
        "selftest", help="run the randomized property battery"
    )
    selftest_parser.add_argument("--seed", type=int, default=0)
    selftest_parser.add_argument("--instances", type=int, default=100)
    selftest_parser.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"E{exc.code}: {exc}", file=sys.stderr)
        return exc.code
    except EquifitError as exc:
        print(f"E{EXIT_SOLVER}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
