"""Every tolerance the package applies, one per numerical question.

Modules import the tolerances they apply from here; a rule that two modules
apply is decided once, by a function below, and a rule that one module
applies is written where it is applied.  The rules read the one lifted
problem, ``ProblemInstance.lifted_design_and_values()``: every column's
largest magnitude in [1, 2), and data below one lifted so that max |w y| >= 1.
So each floor of 1 below is in the data's unit, and none has an absolute
regime for small data or small columns.  Each constant is given as its
question; the quantity it is relative to; its readers.
"""

import numpy as np

# A value-sized quantity that counts as zero; max(1, max |lifted values|)
# (``value_slack``), or the lifted optimum itself; LP phase 1, the oracle's
# candidate slack, exact interpolation (``interpolates_exactly``).
FEAS_TOL = 1e-9
# A tableau entry too small to pivot on; absolute; the simplex.
PIVOT_TOL = 1e-10
# Ratios that tie with the minimum in the ratio test; absolute; the simplex.
RATIO_TIE_TOL = 1e-12
# How far below zero a multiplier recomputed from the final basis may round
# (it is then clamped to zero; further below, the solve fails); absolute;
# LP extraction.
DUAL_CLAMP_TOL = 1e-6
# How far rounding may move a recomputed row or residual from its bound;
# max(1, |bound|); the LP's vertex check, fit's residual-bound check and
# active band (``FitResult.active_points``, the touch set that the
# certificate and the alternation analysis read).
BAND_TOL = 100 * FEAS_TOL
# A singular value that does not count to the rank; the largest singular
# value; the rank estimate.
RANK_TOL = 1e-10
# The multipliers' zero level, and how exactly they sum to one and split
# into halves; absolute; the certificate.
MULTIPLIER_TOL = 1e-9
# Agreement of two computations of one number (for the certificate
# identities, sums of n products of order-one quantities); max(1, lifted d)
# (``agreement_tol``), or the larger of the two; the certificate identities,
# the LP-vs-oracle discrepancy, the perturbation product formula.
AGREE_TOL = 1e-8
# A first basis column that counts as the constant; absolute; the two-sided
# check.
CONSTANT_COLUMN_TOL = 1e-12
# Interpolation nodes that are not distinct; their span; Lagrange
# interpolation.
NODE_GAP_TOL = 1e-12
# Coefficients that agree with the oracle's (beyond it, the oracle's must
# achieve their discrepancy too: the optimum need not be unique); absolute,
# on coefficients times value_scale; the oracle comparison.
AGREE_COEFFICIENT_TOL = 1e-7


def interpolates_exactly(discrepancy):
    """A fit of discrepancy at most FEAS_TOL interpolates its data."""
    return discrepancy <= FEAS_TOL


def value_slack(values):
    """FEAS_TOL * max(1, max |values|), for lifted values: the level below
    which a value-sized quantity counts as zero (LP phase 1, the oracle)."""
    return FEAS_TOL * max(1.0, float(np.max(np.abs(values))))


def agreement_tol(lifted_d):
    """AGREE_TOL * max(1, lifted d): how far two computations of a
    discrepancy-sized number may differ (certificate, oracle)."""
    return AGREE_TOL * max(1.0, lifted_d)
