"""Every tolerance the package applies, with the reason for its value.

Modules import the tolerances they apply from here; a rule that two modules
apply is decided once, by a function below.  Rules on values, residuals and
coefficients read them times ``ProblemInstance.value_scale``, which lifts
data below one so that max |w y| >= 1: each floor of 1 below is in the
data's unit, and none has an absolute regime for small data.
"""

import numpy as np

# The phase-1 artificial counts as zero at FEAS_TOL * max(1, max |rhs|), and
# a fit whose optimum is at most FEAS_TOL interpolates its data.
FEAS_TOL = 1e-9
# Entries smaller than this are treated as zero during pivot selection.
PIVOT_TOL = 1e-10
# Ratios within this of the minimum ratio count as tied in the ratio test.
RATIO_TIE_TOL = 1e-12
# A multiplier recomputed from the final basis may round this far below zero,
# and is then clamped to zero; further below, the solve fails.
DUAL_CLAMP_TOL = 1e-6
# How far, relative to max(1, scale), the vertex recomputed from the final
# basis may violate a row, or its residual bound differ from the LP optimum.
VERTEX_SLACK = 100 * FEAS_TOL
# A row is tight when its slack is at most this times max(1, |rhs|).
TIGHT_ROW_TOL = 1e-7
# Singular values at or below this times the largest do not count to the rank.
RANK_TOL = 1e-10
# Active-set membership slack, relative to max(1, discrepancy): residuals
# are recomputed in floating point, so exact tightness is not testable.
ACTIVE_TOL_FACTOR = 1e-7

# Certificates: multipliers below BETA_NONZERO_TOL count as zero; SUM_TOL
# bounds the sum-to-one and half/half checks; identity residuals, sums of n
# products of order-one quantities, pass at IDENTITY_TOL * max(1, d); the
# first basis function is the constant if within CONSTANT_COLUMN_TOL of 1.
BETA_NONZERO_TOL = 1e-9
SUM_TOL = 1e-9
IDENTITY_TOL = 1e-8
CONSTANT_COLUMN_TOL = 1e-12

# The perturbation check's direct difference and closed-form product agree
# to PRODUCT_AGREE_TOL, relatively; interpolation nodes closer than
# NODE_GAP_TOL times their span are not distinct.
PRODUCT_AGREE_TOL = 1e-8
NODE_GAP_TOL = 1e-12

# The oracle's slack for global feasibility of a candidate, relative to the
# scale max(1, max |y|) of the lifted (weighted) values: square solves at
# this scale are accurate to machine precision.
FEASIBILITY_SLACK = 1e-9
# A fit agrees with the oracle when the discrepancies match to
# AGREE_DISCREPANCY_TOL * max(1, d); coefficients that differ are accepted
# if the oracle's achieve their discrepancy too (the optimum need not be
# unique).
AGREE_DISCREPANCY_TOL = 1e-8
AGREE_COEFFICIENT_TOL = 1e-7

# The selftest's absolute agreement of a weighted fit with the same fit whose
# weights are folded into the design and values.
RESCALE_DISCREPANCY_TOL = 1e-9
RESCALE_COEFFICIENT_TOL = 1e-8


def tight_rows(slack, rhs):
    """Mask of the rows whose slack is at most TIGHT_ROW_TOL * max(1, |rhs|):
    an LP vertex's active rows, and where a certificate's multipliers sit."""
    return slack <= TIGHT_ROW_TOL * np.maximum(1.0, np.abs(rhs))


def interpolates_exactly(discrepancy):
    """A fit of discrepancy at most FEAS_TOL interpolates its data."""
    return discrepancy <= FEAS_TOL
