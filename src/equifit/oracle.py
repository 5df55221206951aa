"""Brute-force reference solver for small instances.

At an optimum of the minimax fit there is a witness subset S of m+1 points
whose residuals all sit at the discrepancy d with definite signs s, so
that [G_S | s][alpha; d] = y_S.  The candidates are every subset with
every sign pattern; the answer is the first globally feasible candidate of
least d in (subset-lexicographic, sign-lexicographic) order, on the
instance's lifted problem, as the fit LP reads it.  This module exists to
check the LP path, not to compete with it.

The systems of one subset share G_S, so each subset is factored once, by
Householder QR, G_S = Q R.  All C(n, m+1) blocks are factored together in
one sweep: laid out (column, row, subset), each of the m reflector steps
is a few elementwise numpy operations across the whole stack, with no
LAPACK call per block, and no operation mixes two blocks.  The reflectors
applied to e_(m+1) give the null vector lam = Q e_(m+1) of G_S^T, and
every sign pattern is read off from it (Stiefel's levelled reference):
d_s = lam^T y_S / lam^T s.  The pseudo-inverse G_S^+ = R^-1 Q_1^T, which
gives alpha_s = G_S^+ (y_S - d_s s), is formed only for the subsets of
the candidates that are scored.

Scoring a candidate (its residuals at all n points) is what costs, and
most candidates need not be scored.  The same lam gives each subset its de
la Vallee Poussin bound h_S = |lam^T y_S| / ||lam||_1: every coefficient
vector has a residual of at least h_S on S, so no candidate of d below the
floor H = max_S h_S is feasible, and at full rank the optimum is H itself
(Stiefel 1959; Cheney, *Introduction to Approximation Theory*, 1966,
ch. 2).  The scan therefore scores only the candidates within rounding of
the floor (the band), in ascending (d, enumeration) order, and stops at the
first feasible one, which is the full scan's first minimum, exactly.  A
candidate above the band would not be optimal, so when the band holds no
feasible candidate (witness blocks too ill-conditioned for any to pass the
feasibility test) the oracle raises NoCandidate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidate, TooLarge
from .fitting import FitResult, ProblemInstance, objective_value
from .tolerances import AGREE_COEFFICIENT_TOL, agreement_tol, value_slack

MAX_POINTS = 15
MAX_BASIS = 4

# Candidates are scored this many at a time, so that memory stays bounded
# when many of them share the floor (data the basis interpolates exactly).
SCORE_CHUNK = 1024

# The smallest normal float: the floor under a reflector's scale, which is
# zero only for a column that is zero from the diagonal down.
TINY = np.finfo(float).tiny


@dataclass
class OracleResult:
    coefficients: np.ndarray
    discrepancy: float
    witness_subset: tuple[int, ...]
    witness_signs: tuple[int, ...]


@dataclass
class OracleComparison:
    """A fit checked against the brute-force optimum of its instance."""

    oracle: OracleResult
    discrepancy_gap: float
    coefficient_gap: float
    agrees: bool


def _householder(a: np.ndarray) -> np.ndarray:
    """Householder QR of a stack of blocks laid out (column, row, block),
    shape (m, m+1, k).  Overwrites a with R above the diagonal (R[i, j] in
    a[j, i]) and, from the diagonal down, each column j with its
    reflector's vector u_j, scaled so that H_j = I - u_j u_j^T and
    Q = H_0 ... H_(m-1); returns the diagonal of R, shape (m, k).

    Every step is elementwise along the block axis, and the sums run along
    the row axis alone, which numpy adds in row order up to 7 rows
    (m <= 6); so a block's factors do not depend on the stack it sits in.
    A column that is exactly zero from the diagonal down gets u = 0
    (H = I) and a zero on R's diagonal.
    """
    m = a.shape[0]
    diagonal = np.empty((m, a.shape[2]))
    for j in range(m):
        column = a[j, j:]
        norm = np.add.reduce(column * column, axis=0)
        np.sqrt(norm, out=norm)
        shift = np.copysign(norm, column[0])
        np.negative(shift, out=diagonal[j])
        column[0] += shift
        # u^T u / 2 = |u_0| ||x|| = u_0 shift, as u_0 and shift share a sign.
        scale = np.multiply(column[0], shift, out=shift)
        np.maximum(scale, TINY, out=scale)
        column /= np.sqrt(scale, out=scale)
        if j + 1 < m:
            rest = a[j + 1 :, j:]
            rest -= column * np.add.reduce(column * rest, axis=1)[:, None]
    return diagonal


def _apply_q(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Overwrite z, laid out (column, row, block), with Q z for the
    reflectors that ``_householder`` left in a; elementwise along the block
    axis, like it."""
    for j in reversed(range(a.shape[0])):
        u = a[j, j:]
        z[:, j:] -= u * np.add.reduce(u * z[:, j:], axis=1)[:, None]
    return z


def _factor(a: np.ndarray):
    """Factor the blocks of a, laid out (column, row, block), in place by
    ``_householder``.  Returns R's diagonal, shape (m, k); the null vectors
    lam = Q e_(m+1) of the G_S^T, shape (k, m+1); and the mask of the
    blocks whose R has no zero on its diagonal."""
    m = a.shape[0]
    with np.errstate(all="ignore"):
        diagonal = _householder(a)
        z = np.zeros((1, m + 1, a.shape[2]))
        z[0, m] = 1.0
        lam = np.ascontiguousarray(_apply_q(a, z)[0].T)
    return diagonal, lam, np.all(diagonal != 0.0, axis=0)


def _pseudo_inverses(a: np.ndarray, diagonal: np.ndarray, index) -> np.ndarray:
    """G_S^+ = R^-1 Q_1^T of the blocks ``a[..., index]``, shape
    (count, m, m+1): Q_1 from the reflectors, laid out (column, row, block)
    so that it reads as Q_1^T, then back-substitution with R.  Not finite
    where R has a zero on its diagonal."""
    a, diagonal = a[:, :, index], diagonal[:, index]
    m = a.shape[0]
    x = np.repeat(np.eye(m, m + 1)[:, :, None], a.shape[2], axis=2)
    _apply_q(a, x)
    for col in reversed(range(m)):
        x[col] /= diagonal[col]
        x[:col] -= a[col, :col, None] * x[col]
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def factor_witness_subsets(blocks: np.ndarray):
    """Factor a stack of witness blocks G_S, shape (k, m+1, m), once each.

    Returns ``(null_vectors, pseudo_inverses, full_rank)``: the unit vectors
    lam, shape (k, m+1), with G_S^T lam = 0; the pseudo-inverses
    G_S^+ = R^-1 Q_1^T, shape (k, m, m+1); and a mask of the blocks whose R
    has no zero on its diagonal (outside it the pseudo-inverse is not
    finite).  For any sign pattern s, [G_S | s][alpha; d] = y_S is singular
    exactly when the block is outside the mask or lam^T s = 0; otherwise
    d = lam^T y_S / lam^T s and alpha = G_S^+ (y_S - d s).  A block's
    factors do not depend on the other blocks of the stack.
    """
    a = np.transpose(np.asarray(blocks, dtype=float), (2, 1, 0)).copy()
    diagonal, lam, full_rank = _factor(a)
    with np.errstate(all="ignore"):
        return lam, _pseudo_inverses(a, diagonal, slice(None)), full_rank


@functools.cache
def _enumeration(n: int, m: int):
    """The (m+1)-point subsets of n points and the 2^(m+1) sign patterns,
    both in lexicographic order; read-only, since every instance of the
    size shares them."""
    subsets = np.array(list(itertools.combinations(range(n), m + 1)))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m + 1)))
    subsets.flags.writeable = False
    signs.flags.writeable = False
    return subsets, signs


def brute_force_fit(instance: ProblemInstance) -> OracleResult:
    """Return the first best feasible (witness subset, sign pattern)
    candidate, scoring only those within rounding of the de la Vallee
    Poussin floor.

    Requires n <= 15 and m <= 4 (raises TooLarge otherwise).  Raises
    NoCandidate when the design's rank is below m (its optimum need not have
    an (m+1)-point witness) or when no candidate at the floor is feasible.
    The scan reads the instance's lifted design and values; like ``fit``, it
    maps its coefficients back by ``instance.basis_coefficients`` and divides
    d by ``value_scale``.
    """
    n, m = instance.n, instance.m
    if n > MAX_POINTS or m > MAX_BASIS:
        raise TooLarge(
            f"brute force accepts n <= {MAX_POINTS}, m <= {MAX_BASIS}; "
            f"got n={n}, m={m}"
        )
    if n < m + 1:
        raise NoCandidate(f"need at least m + 1 = {m + 1} points, got {n}")
    if instance.rank < m:
        raise NoCandidate(
            f"design has rank {instance.rank} < m = {m} (rank-deficient design)"
        )

    g, y = instance.lifted_design_and_values()
    subsets, signs = _enumeration(n, m)
    # Every block G_S, laid out (column, row, subset); the sweep overwrites
    # them with their factors.
    factors = np.take(np.ascontiguousarray(g.T), subsets.T, axis=1)
    y_s = y[subsets]

    diagonal, lam, full_rank = _factor(factors)
    with np.errstate(all="ignore"):
        # One row per subset, one column per sign pattern.  d is not finite
        # where lam^T s = 0 (the system is singular) or the quotient
        # overflows; either way that candidate is never feasible.
        lam_y = np.sum(lam * y_s, axis=1)
        ds = lam @ signs.T
        np.divide(lam_y[:, None], ds, out=ds)
        floor = np.max(
            np.abs(lam_y) / np.sum(np.abs(lam), axis=1), where=full_rank, initial=0.0
        )

    # The band: 2 slack on either side of the floor.  For any alpha and any
    # subset T, G_T^T lam_T = 0 gives lam_T^T (y_T - G_T alpha) = lam_T^T y_T,
    # so the residual r of alpha has max |r| >= h_T, hence max |r| >= H.  A
    # candidate passes the feasibility test only when max |r| <= d_s + slack,
    # so only when d_s >= H - slack.  In floating point lam_T is a null
    # vector of G_T^T only to O(eps |G_T|), as Householder QR is backward
    # stable, and h_T, d_s and max |r| carry a few ulps of |y| + |G| |alpha|;
    # for a feasible alpha, whose G alpha is within max |y| + d of zero, that
    # is some 1e-15 * max(1, max |y|) with a moderate condition number, far
    # below a second slack.  So no candidate with d_s < H - 2 slack can pass,
    # and skipping them changes no answer.
    slack = value_slack(y)
    low, high = floor - 2.0 * slack, floor + 2.0 * slack
    flat_ds = ds.ravel()
    band = np.flatnonzero((flat_ds >= low) & (flat_ds <= high))
    # A stable sort keeps enumeration order among equal d.
    band = band[np.argsort(flat_ds[band], kind="stable")]
    for start in range(0, band.size, SCORE_CHUNK):
        chunk = band[start : start + SCORE_CHUNK]
        si, gi = np.divmod(chunk, signs.shape[0])
        d = flat_ds[chunk]
        # The same matmul shapes as a full scan, so that alpha is
        # bit-identical to it.  The residuals take at least two columns: a
        # one-column product runs through BLAS gemv, which rounds otherwise
        # than the matrix-matrix kernel of a full scan.
        with np.errstate(all="ignore"):
            block_pinv = _pseudo_inverses(factors, diagonal, si)
            base = (block_pinv @ y_s[si][:, :, None])[:, :, 0]
            step = (block_pinv @ signs.T)[np.arange(chunk.size), :, gi]
            alphas = base - d[:, None] * step
            columns = alphas.T
            if chunk.size == 1:
                columns = np.repeat(columns, 2, axis=1)
            residuals = g @ np.ascontiguousarray(columns)
            residuals -= y[:, None]
            max_abs = np.max(np.abs(residuals, out=residuals), axis=0)
        max_abs = max_abs[: chunk.size]
        feasible = (
            full_rank[si]
            & np.isfinite(d)
            & np.isfinite(max_abs)
            & (d >= -slack)
            & (max_abs <= d + slack)
        )
        if np.any(feasible):
            k = int(np.argmax(feasible))
            return OracleResult(
                coefficients=instance.basis_coefficients(alphas[k]),
                discrepancy=float(max(d[k], 0.0)) / instance.value_scale,
                witness_subset=tuple(int(i) for i in subsets[si[k]]),
                witness_signs=tuple(int(s) for s in signs[gi[k]]),
            )
    # At full rank the optimum is the floor: no candidate above it is optimal.
    raise NoCandidate(
        "no witness system at the de la Vallee Poussin floor passes the "
        "feasibility test: the witness blocks are too ill-conditioned"
    )


def compare_with_oracle(result: FitResult) -> OracleComparison:
    """Brute-force the fit's instance and compare the optima on lifted
    values; raises what ``brute_force_fit`` raises (TooLarge, NoCandidate)."""
    oracle = brute_force_fit(result.instance)
    discrepancy_gap = abs(result.discrepancy - oracle.discrepancy)
    coefficient_gap = float(np.max(np.abs(result.coefficients - oracle.coefficients)))
    lift = result.instance.value_scale
    tolerance = agreement_tol(oracle.discrepancy * lift) / lift
    agrees = discrepancy_gap <= tolerance and (
        coefficient_gap * lift <= AGREE_COEFFICIENT_TOL
        or objective_value(result.instance, oracle.coefficients)
        <= oracle.discrepancy + tolerance
    )
    return OracleComparison(oracle, discrepancy_gap, coefficient_gap, bool(agrees))
