"""Every tolerance the package applies, one per numerical question.

Modules import the tolerances they apply from here; a rule that two modules
apply is decided once, by a function below, and a rule that one module
applies is written where it is applied.  The rules read the one lifted
problem, ``ProblemInstance.lifted_design_and_values()``, and the numbers
computed from it, never their data-unit views: the design is an
orthonormal basis of the span of the weighted columns, each column lifted
first by its own power of two, and data below one are lifted by an
uncapped power of two so that max |w y| >= 1.  So each floor of 1 below is
in the data's unit, and none has an absolute regime for small data or for
a basis function's scale.  Every verdict on a fit reads one rounding rule.
Two computations of one value-sized number agree within ``ROUNDING_UNITS``
roundings of a lifted residual (``rounding_tol``) alone: the exchange's
stop, fit's residual-bound check and touch band, exact interpolation
(``interpolates_exactly``), the certificate identities and the brute-force
oracle's feasibility test and agreement.  A fit's own unit, the rule at
its final coefficients, is decided once, in ``lp``, by the exchange's
stop, which returns it as ``LpSolution.band``; ``fit`` (as
``FitResult.band``), the certificate and the oracle comparison read it
and never compute it again, and the oracle's candidates apply the rule
to their own coefficients.  The exchange's weights sum to one, so every
test of a weight reads their unit, ``WEIGHT_UNIT``: the ratio test, the
exchange's refusal and clamp of a negative weight, and the certificate's
sum, zero level, nonnegativity and halves.  The perturbation
analysis reads the same unit of its own numbers: an interpolant's move
agrees with its closed form within the rounding of the values compared,
and interpolation nodes are distinct when their gaps exceed the rounding
of their magnitude.  Each constant is given as its question; the quantity
it is relative to; its readers.
"""

import numpy as np

# A singular value that does not count to the rank, and a vector of at
# most unit length whose part off a span does not count as a new
# direction; the largest singular value, and 1; the rank
# (``singular_value_rank``), a rank-deficient fit's column choice (the rows
# of V_r, ``ProblemInstance``) and the two-sided check (the all-ones vector
# at unit length, against the span of the lifted design).
RANK_TOL = 1e-10
# How many roundings of one lifted residual a recomputed residual, a
# certificate identity or a brute-force candidate may be off by; the
# rounding of a residual of the coefficients at hand (``rounding_tol``);
# the exchange's stop, fit's residual-bound check, touch band and exact
# interpolation, the certificate identities, and the oracle's feasibility
# test and agreement.  Also how many roundings of one, the sum of the
# exchange's weights, a weight may be off by (``WEIGHT_UNIT``).  Also how
# far an interpolant's move may be from its closed form, in roundings of
# the interpolated value and the two it is compared with
# (``perturbation_step``), and how close two interpolation nodes may come,
# in roundings of their largest magnitude (``lagrange_interpolate``).
ROUNDING_UNITS = 64
# ROUNDING_UNITS roundings of one, derived: the weights' unit; the
# exchange's ratio test (an eligible direction entry, against the largest,
# and a tie with the least ratio), its refusal of a weight below minus it
# and clamp of one above, and the certificate's sum to one, zero level,
# nonnegativity and halves.
WEIGHT_UNIT = ROUNDING_UNITS * float(np.finfo(float).eps)


def interpolates_exactly(discrepancy, band):
    """A fit whose lifted discrepancy is within its band, the rounding of
    one of its residuals (``rounding_tol``), interpolates its data."""
    return discrepancy <= band


def rounding_tol(max_value, max_design, coefficients):
    """ROUNDING_UNITS * u, with u = eps * (max |values| + max |design| *
    ||coefficients||_1) the rounding of one residual: the data's own unit
    (the exchange's stop, fit's band, the certificate, the oracle, the
    perturbation analysis and its interpolation nodes).  ``WEIGHT_UNIT``
    multiplies each term first, so that the rule stays finite at the float
    limit; arrays of maxima, or a stack of coefficient vectors, one per
    row, give one unit each."""
    return WEIGHT_UNIT * max_value + WEIGHT_UNIT * max_design * np.sum(
        np.abs(coefficients), axis=-1
    )
