"""Seeded inputs, ops and output checks of each benchmark workload.

Inputs come in blocks. A block holds one instance per stratum of the
workload (for example one per function family and basis size), in a seeded
order. The parameters that set an instance's cost (its size, its
frequency or rate) follow a randomly shifted Kronecker sequence per
stratum, so a few blocks already cover their ranges evenly; noise is drawn
at random. Every run of a workload therefore does the same mix of work
whatever its seed, which keeps the figures of two seeds comparable; no
instance is used twice in a run. Block ``b`` of seed ``s`` depends only on
``(s, b)``, so any prefix of the op stream is the same on every run of a
seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import equifit as ef
from equifit import cli as ef_cli

# Certificate tolerances, as equifit.certificates applies them: identity
# residuals against 1e-8 * max(1, discrepancy), the multiplier sum
# against 1e-9.  Used only for the worst-margin figure, never as a gate.
IDENTITY_TOL = 1e-8
SUM_TOL = 1e-9
# A fit flagged exact_interpolation must reproduce the data to this
# (absolute) level: fit accepts a recomputed residual up to
# 100 * FEAS_TOL above a discrepancy of at most FEAS_TOL.
EXACT_RESIDUAL_TOL = 1e-6
# Steps of the Kronecker sequence, one per parameter: fractional parts of
# square roots of primes, which are independent over the rationals.
KRONECKER_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7))


def monomials(m):
    """Spec of the monomial basis 1, x, ..., x^(m-1)."""
    terms = ["1", "x"] + [f"x^{j}" for j in range(2, m)]
    return ", ".join(terms[:m])


@dataclass
class Outcome:
    """What the check of one op found.

    ``status`` is "ok" (returned, check passed), "skipped" (returned a
    degenerate fit that fit itself flagged, so no certificate exists),
    "wrong" (returned, check failed) or "error" (raised; ``error`` names the
    exception class or the CLI exit code).
    """

    status: str
    error: str | None = None
    certified: bool = False
    strict: bool | None = None
    margin: float | None = None
    oracle_agrees: bool | None = None
    note: str = ""


def worst_margin(block, discrepancy):
    """Largest certificate identity residual divided by its tolerance."""
    tol = IDENTITY_TOL * max(1.0, discrepancy)
    return max(
        block["strong_duality_gap"] / tol,
        block["beta_sum_residual"] / SUM_TOL,
        block["value_sum_gap"] / tol,
        max(block["orthogonality_residuals"]) / tol,
        block["combined_orthogonality_residual"] / tol,
        block["residual_pairing_gap"] / tol,
    )


def sign_changes(points, scaled_residuals, active):
    """Sign changes of the scaled residuals at the active points, sorted
    by coordinate.  A degree m - 1 polynomial fit is optimal only if some
    m + 1 of them alternate, i.e. there are at least m changes."""
    order = sorted(active, key=lambda i: points[i, 0])
    signs = [scaled_residuals[i] >= 0 for i in order]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def raised(exc):
    return Outcome("error", error=type(exc).__name__, note=str(exc)[:200])


# ---------------------------------------------------------------------------
# Certified fits through the library API


@dataclass
class FitInput:
    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None
    spec: str
    dimension: int
    basis: object  # BasisSet parsed at set-up, or None to parse in the op
    label: str


def certified_fit(inp):
    """The sequence ``equifit fit --certify`` runs, through the library."""
    basis = inp.basis
    if basis is None:
        basis = ef.parse_basis_spec(inp.spec, inp.dimension)
    instance = ef.ProblemInstance(
        points=inp.points, values=inp.values, basis=basis, weights=inp.weights
    )
    result = ef.fit(instance)
    try:
        cert = ef.extract_certificate(result.lp_solution, instance)
    except ef.DegenerateCase:
        if result.exact_interpolation or result.low_rank:
            return result, None, None
        raise
    report = ef.verify_identities(cert, result, instance)
    pattern = None
    if inp.dimension == 1 and inp.weights is None:
        pattern = ef.alternation_pattern(result, instance)
    return result, report, pattern


def check_fit(inp, out):
    result, report, pattern = out
    m = result.instance.m
    if report is None:
        if result.exact_interpolation:
            worst = float(np.max(np.abs(result.scaled_residuals)))
            if worst > EXACT_RESIDUAL_TOL:
                return Outcome("wrong", note=f"exact interpolation misses by {worst!r}")
        return Outcome("skipped", note="degenerate fit, no certificate")
    outcome = Outcome(
        "ok",
        certified=report.identities_ok and report.active_count_ok,
        strict=None if pattern is None else bool(pattern.equioscillates),
        margin=worst_margin(report.to_dict(), result.discrepancy),
    )
    if not outcome.certified:
        outcome.status = "wrong"
        outcome.note = (
            f"identities_ok={report.identities_ok} "
            f"active_count_ok={report.active_count_ok}"
        )
    elif inp.dimension == 1:
        changes = sign_changes(
            inp.points, result.scaled_residuals, result.active_points
        )
        if changes < m:
            outcome.status = "wrong"
            outcome.note = f"{changes} sign changes at the active points, need {m}"
    return outcome


class Workload:
    """One workload: its blocks of seeded inputs, its op and its check."""

    name = ""
    tag = 0
    # Leading blocks over which every run reports deterministic counts.
    count_blocks = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, block):
        return np.random.default_rng([self.seed, block, self.tag])

    def spread(self, block, stratum, dims):
        """Point ``block`` of this seed's shifted Kronecker sequence for a
        stratum: ``dims`` numbers in [0, 1)."""
        shift = np.random.default_rng([self.seed, self.tag, 2**20 + stratum]).uniform(size=dims)
        return (shift + block * np.array(KRONECKER_STEPS[:dims])) % 1.0

    def block(self, index):
        raise NotImplementedError

    def execute(self, inp):
        """Run one op; returns (output, None) or (None, raised exception)."""
        try:
            return self.op(inp), None
        except Exception as exc:  # every raised error is counted by class
            return None, exc

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError


class FitWorkload(Workload):
    """Workloads whose op is one certified fit through the library API."""

    def op(self, inp):
        return certified_fit(inp)

    def check(self, inp, out):
        return check_fit(inp, out)


class Large1D(FitWorkload):
    """n = 2000 evenly spaced points, cubic basis, smooth values plus
    N(0, 0.05^2) noise: the reference size, where the dense tableau sets
    both time and peak memory."""

    name = "large_1d"
    tag = 1
    count_blocks = 1
    basis_spec = "1, x, x^2, x^3"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.basis = ef.parse_basis_spec(self.basis_spec, 1)

    def block(self, index):
        n = 2000
        x = np.linspace(0.0, 1.0, n)
        u = self.spread(index, 0, 2)
        freq, phase = 1.0 + 3.0 * u[0], np.pi * u[1]
        y = np.sin(freq * np.pi * x + phase) + 0.3 * np.exp(x)
        y = y + self.rng(index).normal(0.0, 0.05, n)
        return [FitInput(x[:, None], y, None, self.basis_spec, 1, self.basis, "cubic")]


class GridSmooth(FitWorkload):
    """Noiseless sin, exp and Runge functions on an even grid of [-1, 1]:
    the classical discrete Chebyshev problem, small tableau, long Bland
    pivot sequences, and the instances where the solver raises."""

    name = "grid_smooth"
    tag = 2
    count_blocks = 3
    families = ("sin", "exp", "runge")
    sizes = (4, 5, 6)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bases = {m: ef.parse_basis_spec(monomials(m), 1) for m in self.sizes}

    def block(self, index):
        strata = [(f, m) for f in self.families for m in self.sizes]
        inputs = []
        for k in self.rng(index).permutation(len(strata)):
            family, m = strata[k]
            u = self.spread(index, k, 3)
            n = 200 + int(201 * u[0])
            x = np.linspace(-1.0, 1.0, n)
            if family == "sin":
                y = np.sin((1.0 + 5.0 * u[1]) * x + np.pi * u[2])
            elif family == "exp":
                y = np.exp((0.1 + 2.9 * u[1]) * x)
            else:
                y = 1.0 / (1.0 + (5.0 + 20.0 * u[1]) * x**2)
            inputs.append(
                FitInput(x[:, None], y, None, monomials(m), 1, self.bases[m], f"{family}/m{m}")
            )
        return inputs


class ManySmall(FitWorkload):
    """Thousands of tiny instances (n in [10, 64], uniform random points):
    1-D monomials, the same weighted, and 2-D bases.  Per-instance set-up
    (basis parse, design evaluation, rank estimates) weighs most here."""

    name = "many_small"
    tag = 3
    count_blocks = 40
    planar = (
        "1, x, y, cos(y - x)",
        "1, x, y, x*y",
        "1, x, y, exp(x*y)",
        "1, x, y, x^2, x*y, y^2",
    )

    def block(self, index):
        rng = self.rng(index)
        strata = [("line", m) for m in (3, 4, 5, 6)]
        strata += [("weighted", m) for m in (3, 4, 5, 6)]
        strata += [("plane", spec) for spec in self.planar]
        inputs = []
        for k in rng.permutation(len(strata)):
            kind, which = strata[k]
            n = 10 + int(55 * self.spread(index, k, 1)[0])
            if kind == "plane":
                pts = rng.uniform(-1.0, 1.0, (n, 2))
                y = np.sin(rng.uniform(1.0, 3.0) * pts[:, 0] + 2.0 * pts[:, 1])
                y = y + rng.normal(0.0, 0.05, n)
                inputs.append(FitInput(pts, y, None, which, 2, None, f"plane/{which}"))
                continue
            pts = rng.uniform(-1.0, 1.0, (n, 1))
            y = np.sin(rng.uniform(1.0, 6.0) * pts[:, 0] + rng.uniform(0.0, np.pi))
            y = y + rng.normal(0.0, 0.05, n)
            weights = rng.uniform(0.1, 10.0, n) if kind == "weighted" else None
            inputs.append(FitInput(pts, y, weights, monomials(which), 1, None, f"{kind}/m{which}"))
        return inputs


# ---------------------------------------------------------------------------
# The command line, in process


@dataclass
class CliInput:
    argv: list
    report_path: str
    label: str


class VerifyCli(Workload):
    """``equifit fit --certify --verify`` on small CSV files, about 30%
    weighted: the only workload that reaches the brute-force oracle and the
    CLI layer."""

    name = "verify_cli"
    tag = 4
    count_blocks = 2
    sizes = (2, 3, 4)
    counts = tuple(range(8, 16))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.report_path = os.path.join(workdir, "report.json")

    def block(self, index):
        rng = self.rng(index)
        strata = [(n, m) for n in self.counts for m in self.sizes]
        inputs = []
        for position, k in enumerate(rng.permutation(len(strata))):
            n, m = strata[k]
            x = rng.uniform(0.0, 1.0, n)
            y = np.sin(rng.uniform(1.0, 6.0) * x + rng.uniform(0.0, np.pi))
            y = y + rng.normal(0.0, 0.05, n)
            weighted = rng.uniform() < 0.3
            path = os.path.join(self.workdir, f"{position}.csv")
            with open(path, "w") as handle:
                if weighted:
                    w = rng.uniform(0.1, 10.0, n)
                    handle.write("x,y,w\n")
                    for row in zip(x, y, w):
                        handle.write(",".join(repr(float(v)) for v in row) + "\n")
                else:
                    handle.write("x,y\n")
                    for row in zip(x, y):
                        handle.write(",".join(repr(float(v)) for v in row) + "\n")
            argv = ["fit", "--data", path, "--basis", monomials(m), "--certify", "--verify"]
            if weighted:
                argv += ["--weights", "w"]
            argv += ["--out", self.report_path]
            label = f"n{n}/m{m}" + ("/weighted" if weighted else "")
            inputs.append(CliInput(argv, self.report_path, label))
        return inputs

    def op(self, inp):
        return ef_cli.main(inp.argv)

    def check(self, inp, code):
        # Exit code 4 (the oracle disagreed) is a wrong output, not a
        # raised error: the report is written and fails the check below.
        if code not in (0, ef_cli.EXIT_VERIFY):
            return Outcome("error", error=f"exit{code}")
        with open(inp.report_path) as handle:
            report = json.load(handle)
        # Removed so that an op that writes no report cannot pass on the
        # previous op's.
        os.remove(inp.report_path)
        cert = report.get("certificate", {})
        oracle = report.get("oracle", {})
        alternation = report.get("alternation", {})
        if "skipped" in cert:
            if report["exact_interpolation"] or report["low_rank"]:
                return Outcome("skipped", note=cert["skipped"])
            return Outcome("wrong", note=f"certificate skipped: {cert['skipped']}")
        outcome = Outcome(
            "ok",
            certified=bool(cert["identities_ok"] and cert["active_count_ok"]),
            strict=alternation.get("equioscillates"),
            margin=worst_margin(cert, report["discrepancy"]),
            oracle_agrees=oracle.get("agrees"),
        )
        if code != 0 or not (outcome.oracle_agrees and cert["identities_ok"]):
            outcome.status = "wrong"
            outcome.note = (
                f"exit {code}, oracle agrees={outcome.oracle_agrees}, "
                f"identities_ok={cert['identities_ok']}"
            )
        return outcome


WORKLOADS = {w.name: w for w in (Large1D, GridSmooth, ManySmall, VerifyCli)}
