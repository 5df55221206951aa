"""Randomized property battery behind the ``selftest`` CLI command.

Every property draws seeded instances, so a failing run can be replayed;
on failure the offending instance is serialized alongside the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .certificates import extract_certificate, verify_identities
from .equioscillation import alternation_pattern, perturbation_step, strict_improvement_check
from .fitting import ProblemInstance, fit
from .generators import (
    random_instance,
    random_small_instance,
    random_weighted_instance,
    same_sided_reference_config,
)
from .oracle import AGREE_DISCREPANCY_TOL, compare_with_oracle


@dataclass
class PropertyOutcome:
    name: str
    passed: int
    failed: int
    detail: str = ""
    failing_instance: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def serialize_instance(instance: ProblemInstance) -> dict:
    payload = {
        "points": instance.points.tolist(),
        "values": instance.values.tolist(),
        "basis": ", ".join(instance.basis.labels),
        "dimension": instance.dimension,
    }
    if instance.weights is not None:
        payload["weights"] = instance.weights.tolist()
    return payload


def _run_property(name, count, draw, check) -> PropertyOutcome:
    passed = failed = 0
    detail = ""
    failing = None
    for k in range(count):
        instance, payload = draw(k)
        ok, message = check(instance, payload)
        if ok:
            passed += 1
        else:
            failed += 1
            if failing is None:
                detail = message
                failing = serialize_instance(instance)
    return PropertyOutcome(
        name=name, passed=passed, failed=failed, detail=detail,
        failing_instance=failing,
    )


def _certificate_battery(rng, count):
    """Active-point count, two-sided touch, and all identities on smooth
    random instances with a constant-leading monomial basis."""
    outcomes = [
        PropertyOutcome(name=name, passed=0, failed=0)
        for name in (
            "active point count >= m+1",
            "overshoot/undershoot touch with even dual mass",
            "certificate identities",
        )
    ]
    for _ in range(count):
        instance = random_instance(rng, n=50, m=5)
        result = fit(instance)
        cert = extract_certificate(result.lp_solution, instance)
        report = verify_identities(cert, result, instance)
        checks = (
            (
                report.active_count_ok,
                f"{report.active_point_count} active points, need {instance.m + 1}",
            ),
            (
                report.two_sided_ok,
                f"overshoot mass {cert.overshoot_sum!r}, "
                f"undershoot mass {cert.undershoot_sum!r}",
            ),
            (
                report.identities_ok,
                f"duality gap {report.strong_duality_gap!r}, "
                f"max orthogonality {float(np.max(report.orthogonality_residuals))!r}",
            ),
        )
        for outcome, (ok, message) in zip(outcomes, checks):
            if ok:
                outcome.passed += 1
                continue
            if not outcome.failed:
                outcome.detail = message
                outcome.failing_instance = serialize_instance(instance)
            outcome.failed += 1
    return outcomes


def _oracle_property(rng, count):
    def draw(_):
        return random_small_instance(rng), None

    def check(instance, _):
        result = fit(instance)
        comparison = compare_with_oracle(result)
        if comparison.discrepancy_gap > AGREE_DISCREPANCY_TOL:
            return False, (
                f"LP discrepancy {result.discrepancy!r} vs brute force "
                f"{comparison.oracle.discrepancy!r}"
            )
        return comparison.agrees, "oracle coefficients do not achieve their discrepancy"

    return _run_property("brute-force agreement", count, draw, check)


def _equioscillation_property(rng, count):
    def draw(_):
        t = int(rng.integers(1, 4))
        return random_instance(rng, n=30, m=t + 1, noise=0.2), t

    def check(instance, t):
        pattern = alternation_pattern(fit(instance), instance)
        if not pattern.equioscillates:
            return False, f"signs {pattern.signs} over {len(pattern)} active points"
        if len(pattern) < t + 2:
            return False, f"only {len(pattern)} touch points for degree {t}"
        return True, ""

    return _run_property("polynomial equioscillation", count, draw, check)


def _weighted_property(rng, count):
    def draw(_):
        return random_weighted_instance(rng), None

    def check(instance, _):
        weighted = fit(instance)
        g = instance.design()
        prescaled = fit(
            ProblemInstance(
                points=instance.points,
                values=instance.weights * instance.values,
                basis=instance.basis,
                design_override=instance.weights[:, None] * g,
            )
        )
        if abs(weighted.discrepancy - prescaled.discrepancy) > 1e-9:
            return False, "weighted and pre-scaled discrepancies differ"
        if np.max(np.abs(weighted.coefficients - prescaled.coefficients)) > 1e-8:
            return False, "weighted and pre-scaled coefficients differ"
        return True, ""

    return _run_property("weighted rescale equivalence", count, draw, check)


def _perturbation_property(rng, count):
    def draw(_):
        instance, reference, pair, epsilon = same_sided_reference_config(rng)
        return instance, (reference, pair, epsilon)

    def check(instance, payload):
        reference, pair, epsilon = payload
        step = perturbation_step(reference, instance, pair, epsilon)
        if not step.agrees:
            return False, (
                f"direct difference {step.difference!r} vs product formula "
                f"{step.product_formula_value!r}"
            )
        improvement = strict_improvement_check(reference, instance, pair, epsilon)
        if not improvement.reduced:
            return False, (
                f"second bump left max discrepancy "
                f"{improvement.max_reference_discrepancy!r}"
            )
        return True, ""

    return _run_property("perturbation product formula and improvement", count, draw, check)


def run_battery(seed: int, instances: int, out) -> bool:
    """Run every property, printing one line per property via ``out``.

    Returns True when everything passed.  Output depends only on the seed
    and the instance count.
    """
    rng = np.random.default_rng(seed)
    outcomes: list[PropertyOutcome] = []
    outcomes.extend(_certificate_battery(rng, instances))
    outcomes.append(_oracle_property(rng, instances))
    outcomes.append(_equioscillation_property(rng, instances))
    outcomes.append(_weighted_property(rng, instances))
    outcomes.append(_perturbation_property(rng, instances))

    for outcome in outcomes:
        if outcome.ok:
            out(f"PASS {outcome.name} ({outcome.passed} instances)")
        else:
            out(f"FAIL {outcome.name} ({outcome.failed}/{outcome.passed + outcome.failed}): {outcome.detail}")
            if outcome.failing_instance is not None:
                out("  failing instance: " + json.dumps(outcome.failing_instance))
    good = sum(1 for o in outcomes if o.ok)
    out(f"{good}/{len(outcomes)} properties passed")
    return good == len(outcomes)
