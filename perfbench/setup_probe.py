"""Set-up cost of equifit in a process: import plus one warm-up op.

Run as a script (``python3 perfbench/setup_probe.py SRC_DIR``) it prints the
seconds taken in a fresh interpreter; ``run.py`` calls ``timed_setup`` for
its own process and starts this script for further samples.
"""

import sys
import time

# The warm-up fit must be large enough to reach OpenBLAS's threaded path:
# the first threaded LAPACK calls of a process can stall for about 0.2 s
# each, and that stall belongs in set-up, not in the first timed op.  An LP
# of 2 * 60 rows is past the threshold (100 rows).
WARMUP_POINTS = 60
WARMUP_FITS = 3


def timed_setup(src_dir):
    """Import equifit from ``src_dir`` and run the warm-up fits; returns
    (seconds, module)."""
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    import numpy as np

    import equifit

    basis = equifit.parse_basis_spec("1, x, x^2, x^3", 1)
    x = np.linspace(0.0, 1.0, WARMUP_POINTS)
    y = np.sin(3.0 * x) + 0.1 * np.cos(17.0 * x)
    for _ in range(WARMUP_FITS):
        instance = equifit.ProblemInstance(points=x[:, None], values=y, basis=basis)
        result = equifit.fit(instance)
        cert = equifit.extract_certificate(result.lp_solution, instance)
        equifit.verify_identities(cert, result, instance)
    return time.perf_counter() - start, equifit


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1])
    print(repr(seconds))
