"""Randomized property battery behind the ``selftest`` CLI command.

``PROPERTIES`` lists each property as its names and a check function.  A
check ``check(rng) -> (instance, verdicts)`` draws one instance from the
shared generator, runs it, and returns one ``(ok, message)`` verdict per
name, in order; the message says what went wrong and matters only when
``ok`` is False.  Several names share one check when their verdicts come
from the same fit.  ``run_battery`` draws every property's instances in
table order from one seeded generator, so a failing run can be replayed;
each name's first failing instance is serialized alongside its message.
"""

from __future__ import annotations

import json

import numpy as np

from .basis import format_basis_spec
from .certificates import extract_certificate, verify_identities
from .equioscillation import alternation_pattern, perturbation_step, strict_improvement_check
from .fitting import ProblemInstance, fit
from .generators import (
    random_instance,
    random_small_instance,
    random_weighted_instance,
    same_sided_reference_config,
)
from .oracle import compare_with_oracle


def serialize_instance(instance: ProblemInstance) -> dict:
    payload = {
        "points": instance.points.tolist(),
        "values": instance.values.tolist(),
        "basis": format_basis_spec(instance.basis),
        "dimension": instance.dimension,
    }
    if instance.weights is not None:
        payload["weights"] = instance.weights.tolist()
    return payload


def check_certificate(rng):
    """Active-point count, two-sided touch, and all identities on smooth
    random instances with a constant-leading monomial basis."""
    instance = random_instance(rng, n=50, m=5)
    result = fit(instance)
    cert = extract_certificate(result.lp_solution, instance)
    report = verify_identities(cert, result, instance)
    return instance, (
        (
            report.active_count_ok,
            f"{report.active_point_count} active points, need {instance.rank + 1}",
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


def check_oracle_agreement(rng):
    instance = random_small_instance(rng)
    result = fit(instance)
    comparison = compare_with_oracle(result)
    message = (
        f"LP discrepancy {result.discrepancy!r} vs brute force "
        f"{comparison.oracle.discrepancy!r} (discrepancy gap "
        f"{comparison.discrepancy_gap!r}, coefficient gap "
        f"{comparison.coefficient_gap!r})"
    )
    return instance, ((comparison.agrees, message),)


def check_equioscillation(rng):
    t = int(rng.integers(1, 4))
    instance = random_instance(rng, n=30, m=t + 1, noise=0.2)
    pattern = alternation_pattern(fit(instance), instance)
    if not pattern.equioscillates:
        message = f"signs {pattern.signs} over {len(pattern)} active points"
        return instance, ((False, message),)
    if len(pattern) < t + 2:
        message = f"only {len(pattern)} touch points for degree {t}"
        return instance, ((False, message),)
    return instance, ((True, ""),)


def check_weighted_rescale(rng):
    """Both instances lift to the same arrays, so their fits are identical."""
    instance = random_weighted_instance(rng)
    weighted = fit(instance)
    prescaled = fit(
        ProblemInstance.from_design(
            points=instance.points,
            values=instance.weights * instance.values,
            basis=instance.basis,
            design=instance.weights[:, None] * instance.design(),
        )
    )
    if weighted.discrepancy != prescaled.discrepancy:
        return instance, ((False, "weighted and pre-scaled discrepancies differ"),)
    if not np.array_equal(weighted.coefficients, prescaled.coefficients):
        return instance, ((False, "weighted and pre-scaled coefficients differ"),)
    return instance, ((True, ""),)


def check_perturbation(rng):
    instance, reference, pair, epsilon = same_sided_reference_config(rng)
    step = perturbation_step(reference, instance, pair, epsilon)
    if not step.agrees:
        message = (
            f"direct difference {step.difference!r} vs product formula "
            f"{step.product_formula_value!r}"
        )
        return instance, ((False, message),)
    improvement = strict_improvement_check(reference, instance, pair, epsilon)
    if not improvement.reduced:
        message = (
            f"second bump left max discrepancy "
            f"{improvement.max_reference_discrepancy!r}"
        )
        return instance, ((False, message),)
    return instance, ((True, ""),)


PROPERTIES = (
    (
        (
            "active point count >= m+1",
            "overshoot/undershoot touch with even dual mass",
            "certificate identities",
        ),
        check_certificate,
    ),
    (("brute-force agreement",), check_oracle_agreement),
    (("polynomial equioscillation",), check_equioscillation),
    (("weighted rescale equivalence",), check_weighted_rescale),
    (("perturbation product formula and improvement",), check_perturbation),
)


def run_battery(seed: int, instances: int, out) -> bool:
    """Run every property, printing one line per property via ``out``.

    Returns True when everything passed.  Output depends only on the seed
    and the instance count.
    """
    rng = np.random.default_rng(seed)
    passed = total = 0
    for names, check in PROPERTIES:
        failed = dict.fromkeys(names, 0)
        first_failure = {}
        for _ in range(instances):
            instance, verdicts = check(rng)
            for name, (ok, message) in zip(names, verdicts, strict=True):
                if not ok:
                    failed[name] += 1
                    if name not in first_failure:
                        first_failure[name] = (message, serialize_instance(instance))
        for name in names:
            total += 1
            if name not in first_failure:
                passed += 1
                out(f"PASS {name} ({instances} instances)")
                continue
            message, payload = first_failure[name]
            out(f"FAIL {name} ({failed[name]}/{instances}): {message}")
            out("  failing instance: " + json.dumps(payload))
    out(f"{passed}/{total} properties passed")
    return passed == total
