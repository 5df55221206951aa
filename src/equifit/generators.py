"""Seeded random problem builders shared by the self-test battery and tests.

Instances are one-dimensional with monomial bases (constant first), values
sampled from a smooth function plus noise.  The noise keeps the optimum away
from exact interpolation; distinct, well-separated points keep designs full
rank.
"""

from __future__ import annotations

import functools

import numpy as np

from .basis import parse_basis_spec
from .equioscillation import ReferenceSet
from .fitting import ProblemInstance

@functools.cache
def monomial_basis(m: int):
    """The basis 1, x, ..., x^(m-1)."""
    terms = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, m)]
    return parse_basis_spec(", ".join(terms), 1)


# Rejection rounds before the fallback.  A round succeeds with probability
# about (1 - (n - 1) * _MIN_GAP)^n: at least 0.78 for n <= 50, so those sizes
# keep their seeded streams, and below 1e-7 for n >= 400.
_SEPARATION_ATTEMPTS = 1000
_MIN_GAP = 1e-4


def _separated_points(rng: np.random.Generator, n: int):
    """Sorted uniform points in [0, 1] with gaps above _MIN_GAP; past the bound,
    one point jittered in the middle half of each 1/n cell (gaps >= 1/(2n))."""
    for _ in range(_SEPARATION_ATTEMPTS):
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        if n == 1 or np.min(np.diff(pts)) > _MIN_GAP:
            return pts
    return (np.arange(n) + 0.5 + rng.uniform(-0.25, 0.25, n)) / n


def smooth_values(rng: np.random.Generator, x: np.ndarray, noise: float = 0.05):
    """A random smooth profile plus Gaussian noise."""
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    freq = rng.uniform(1.0, 6.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    base = a * np.sin(freq * x + phase) + b * x + c * x**2
    return base + noise * rng.standard_normal(len(x))


def random_instance(
    rng: np.random.Generator,
    n: int = 50,
    m: int = 5,
    noise: float = 0.05,
    weights: np.ndarray | None = None,
) -> ProblemInstance:
    """A smooth-plus-noise instance on [0, 1] with a monomial basis."""
    x = _separated_points(rng, n)
    values = smooth_values(rng, x, noise=noise)
    return ProblemInstance(
        points=x.reshape(-1, 1),
        values=values,
        basis=monomial_basis(m),
        weights=weights,
    )


def random_small_instance(rng: np.random.Generator) -> ProblemInstance:
    """Within the brute-force bounds: n <= 12, m <= 3."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 2, 13))
    return random_instance(rng, n=n, m=m, noise=0.2)


def random_weighted_instance(rng: np.random.Generator) -> ProblemInstance:
    n = int(rng.integers(8, 21))
    m = int(rng.integers(1, 4))
    weights = rng.uniform(0.1, 10.0, n)
    return random_instance(rng, n=n, m=m, noise=0.1, weights=weights)


def same_sided_reference_config(rng: np.random.Generator):
    """A hypothetical optimal candidate whose touch pattern fails to
    alternate at one adjacent pair.

    Draws a random polynomial candidate of degree t, places t + 2
    well-separated nodes, and fabricates data at signed distance d from the
    candidate with one same-sided adjacent pair.  Returns (instance,
    reference, pair position, epsilon); epsilon is scaled down when the
    node geometry amplifies the bump.
    """
    t = int(rng.integers(1, 4))
    count = t + 2
    while True:
        z = np.sort(rng.uniform(0.0, 1.0, count))
        if np.min(np.diff(z)) > 0.04:
            break
    coeffs = rng.uniform(-1.0, 1.0, t + 1)
    candidate = np.polyval(coeffs[::-1], z)

    pair = int(rng.integers(0, count - 1))
    base = int(rng.choice([-1, 1]))
    signs = []
    for i in range(count):
        flip = i if i <= pair else i - 1
        signs.append(base * (-1) ** flip)
    signs = np.array(signs, dtype=int)

    d = float(rng.uniform(0.2, 1.0))
    values = candidate + d * signs
    instance = ProblemInstance(
        points=z.reshape(-1, 1),
        values=values,
        basis=monomial_basis(t + 1),
    )
    reference = ReferenceSet(
        indices=tuple(range(count)),
        signs=tuple(int(s) for s in signs),
        discrepancy=d,
    )
    others = [i for i in range(count) if i not in (pair, pair + 1)]
    product = float(np.prod((z[pair + 1] - z[others]) / (z[pair] - z[others])))
    epsilon = float(rng.uniform(0.3, 1.0)) * 0.1 * d / max(1.0, product)
    return instance, reference, pair, epsilon
