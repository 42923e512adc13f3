"""Smallest nonzero generalized eigenpair of a (stiffness, mass) pair.

The stiffness matrix of a closed surface has the constants in its kernel,
so the solver works on the mass-orthogonal complement of the constant
vector: block shift-invert iteration (Ericsson & Ruhe 1980) with one
sparse LU factorization of  stiffness - sigma mass, reused as a block
solve in every iteration, explicit deflation of the constant mode every
iteration, and a Rayleigh-Ritz projection of the block.

The shift sigma is a fixed negative number, or, given trial vectors, a
near shift just below the smallest Ritz value of their deflated span
when that is positive, used only when its factorization certifies that
no nonzero eigenvalue lies at or below it.  That Ritz value lies between
lambda1 and the quotient of every trial column (Courant-Fischer), and
depends on the span alone, not on the frame of R^4.  Both shifts are
factored alike: SuperLU in symmetric mode with diagonal pivots, in Liu's
multiple minimum degree order on the pattern of A + A^T (ACM TOMS 11,
1985), factors  P^T (stiffness - sigma mass) P = L U.  By
Sylvester's law of inertia the negative diagonal entries of U count the
eigenvalues below the shift (Parlett, The Symmetric Eigenvalue Problem).
That count is the only rule: it must be exactly 1, the constant mode.
In every other case -- an empty deflated span, a smallest Ritz value
that is not positive, another count, off-diagonal pivots, or an exactly
singular pivot -- the solver factors at the fixed shift instead, and the
result records which shift it used; `_factorization` owns this choice.
A trial with a non-finite entry or mass norm raises ValueError before
any factorization.

The start block is drawn from a seeded generator.  When the near shift is
used, the lowest Ritz vectors of the trial span replace its first
columns: a warm start, after which the iteration ends in two steps where
the trial spans the lambda1 eigenspace, never after one (_WARM_MIN_ITER).

Everything is deterministic for a fixed seed: the random draw does not
depend on the trial, SuperLU is sequential, and the dense reductions over
the vertices are `np.einsum` loops rather than BLAS calls, whose
summation order can depend on the BLAS thread count.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["DEFAULT_TOL", "DEFAULT_MAX_ITER", "EigenResult",
           "ConvergenceError", "smallest_nonzero_eig", "rayleigh_quotient"]

# Residual tolerance and outer-iteration cap, for every caller.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10000
# Shift of the factorized  stiffness - sigma mass.  The stiffness is positive
# semidefinite and the lumped mass a positive diagonal, so a negative shift
# makes the matrix positive definite; the constant mode (eigenvalue 0) then
# maps to 1/|sigma| and is removed by deflation.
_SHIFT = -1e-2
# SuperLU options of both factorizations.  Symmetric mode with diagonal
# pivots keeps  perm_r == perm_c, which the inertia count needs, and is
# safe at _SHIFT, where the matrix is positive definite.  MMD_AT_PLUS_A
# halves the fill of the default COLAMD (nnz(L+U) 401k -> 210k on
# clifford 64x64, 2.44M -> 1.08M on clifford 128x128), and is fast only
# without relaxed supernodes: at the same fill, equator subdiv 5 factors
# in 1.3-1.9 s with the default relax and in 35-55 ms with relax=1.
# SuperLU requires relax <= panel_size; relax=32 with panel_size=12
# crashed the process.
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                     relax=1, panel_size=1,
                     options={"SymmetricMode": True})
# Columns of the iterated block: the 4-fold lambda1 of the Clifford torus
# and two more.
_BLOCK = 6
# Relative distance of the near shift below the smallest Ritz value of
# the trial span.  Where that value lands on lambda1 (the vertex
# coordinates of a minimal surface), the shift stays clear of lambda1 for
# the inertia count, yet near enough for shift-invert to converge in a
# few iterations: 2 on the generated surfaces with the warm start, 4-7
# from a random start, against 8-16 at _SHIFT.  Where the Ritz value lies
# further above lambda1 than this, the count rejects the shift.
_TRIAL_MARGIN = 0.05
# Fewest outer iterations before a warm-started solve may stop.  After one
# block solve the random columns have not yet resolved the lambda1
# directions the trial does not span, so the 1e-3 `cluster` rule would
# undercount: x0 alone as trial on clifford 64x64 gave a cluster of 1
# instead of 4 at every seed tried when stopping after one iteration.
_WARM_MIN_ITER = 2
# Directions of the deflated trial span whose Gram eigenvalue is at or
# below this fraction of the largest squared mass norm of a trial column
# before deflation are dropped before the Rayleigh-Ritz step: the one
# rule for constant, zero and numerically dependent columns.
_DEPENDENT_CUT = 1e-10


class ConvergenceError(RuntimeError):
    """Eigeniteration did not reach the residual tolerance.

    Carries the best eigenvalue estimate, vector and residual so far.
    """

    def __init__(self, message, best_value, best_vector, residual, iterations):
        super().__init__(message)
        self.best_value = best_value
        self.best_vector = best_vector
        self.residual = residual
        self.iterations = iterations


@dataclass
class EigenResult:
    """Smallest nonzero eigenpair with its convergence record.

    `residual` is the mass-weighted relative residual
    ||L x - lam M x||_{M^-1} / (lam ||x||_M).  `cluster` lists all Ritz
    values within 1e-3 relative of lambda1 (eigenvalue multiplicity as
    seen at the discrete level); `values` holds the whole Ritz block.
    `shift` is the sigma factorized.  `below_shift` is the inertia count
    of the near-shift factorization (eigenvalues below the near shift,
    the constant mode included): 1 when that factorization was used, and
    then `shift` is the near shift; any other count sent the solver to
    the fixed shift.  It is None when no count was taken: no trial, a
    trial span whose smallest Ritz value is not positive (or that is
    empty after deflation), or a near-shift factorization with an
    exactly singular or an off-diagonal pivot.
    """
    lambda1: float
    eigenvector: np.ndarray
    residual: float
    iterations: int
    cluster: list = field(default_factory=list)
    values: list = field(default_factory=list)
    shift: float = _SHIFT
    below_shift: Optional[int] = None

    @property
    def multiplicity(self):
        return len(self.cluster)


def smallest_nonzero_eig(pair, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                         seed=0, trial=None):
    """Smallest nonzero eigenvalue of  stiffness x = lam mass x.

    pair: LaplacePair (or anything with .stiffness CSR and .mass vector).
    trial: optional vector or (n, k) block whose span holds vectors with
    Rayleigh quotients close to lambda1 (on a minimal surface in S^3,
    the vertex coordinates); the smallest Ritz value of its deflated span
    chooses the shift and, when the near shift is used, its Ritz vectors
    seed the start block (`_factorization`, see the module docstring).
    Its entries and mass norms must be finite.
    Returns an EigenResult whose eigenvector is M-orthogonal to constants
    and M-normalized.  Raises ConvergenceError when the residual target
    is not met within max_iter outer iterations.
    """
    if not 1e-12 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 1e-12 (double "
                         f"precision resolves no less), got {tol}")
    stiff = pair.stiffness
    mass = np.asarray(pair.mass, dtype=float)
    n = mass.shape[0]
    block = min(_BLOCK, n - 1)

    m_orth = _deflation(mass)
    lu, shift, below, warm = _factorization(trial, stiff, mass)

    rng = np.random.default_rng(seed)
    x_blk = m_orth(rng.standard_normal((n, block)))
    min_iter = 1
    if warm is not None:
        x_blk[:, :warm.shape[1]] = warm[:, :block]
        min_iter = min(_WARM_MIN_ITER, max_iter)
    best = (np.inf, None, np.inf)

    for it in range(1, max_iter + 1):
        y_blk = m_orth(lu.solve(mass[:, None] * x_blk))
        # Rayleigh-Ritz on the block
        a_small = np.einsum("ij,ik->jk", y_blk, stiff @ y_blk)
        b_small = np.einsum("ij,ik->jk", y_blk, mass[:, None] * y_blk)
        a_small = 0.5 * (a_small + a_small.T)
        b_small = 0.5 * (b_small + b_small.T)
        theta, w_small = scipy.linalg.eigh(a_small, b_small)
        x_blk = np.einsum("ij,jk->ik", y_blk, w_small)
        norms = np.sqrt(np.einsum("ij,ij->j", x_blk, mass[:, None] * x_blk))
        x_blk /= norms[None, :]

        lam = float(theta[0])
        resid = stiff @ x_blk[:, 0] - lam * (mass * x_blk[:, 0])
        res = float(np.sqrt((resid ** 2 / mass).sum())) / max(lam, 1e-300)
        if res < best[2]:
            best = (lam, x_blk[:, 0].copy(), res)
        if res <= tol and it >= min_iter:
            cluster = [float(t) for t in theta
                       if abs(t - lam) <= 1e-3 * max(abs(lam), 1e-300)]
            vec = m_orth(x_blk[:, 0])
            return EigenResult(lambda1=lam, eigenvector=vec, residual=res,
                               iterations=it, cluster=cluster,
                               values=[float(t) for t in theta],
                               shift=shift, below_shift=below)
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iter} iterations "
        f"(best residual {best[2]:.3e})",
        best_value=best[0], best_vector=best[1], residual=best[2],
        iterations=max_iter)


def _deflation(mass):
    """M-orthogonal projection of a vector or a block of columns onto the
    complement of the constants (the kernel of the stiffness)."""
    e_const = np.ones(len(mass)) / np.sqrt(mass.sum())   # M-normalized
    m_const = mass * e_const

    def m_orth(x):
        coeff = np.einsum("i,i...->...", m_const, x)
        return x - np.multiply.outer(e_const, coeff)

    return m_orth


def _trial_ritz(trial, stiff, mass):
    """Rayleigh-Ritz on the deflated span of the trial columns.

    The deflated columns are M-orthonormalized through their Gram matrix;
    directions with a Gram eigenvalue at or below _DEPENDENT_CUT times
    the largest squared mass norm of a column before deflation (constant,
    zero or dependent columns) are dropped.  Returns the Ritz values in
    ascending order and their M-orthonormal Ritz vectors (n, r); r is 0
    when no direction is left.
    """
    x = np.asarray(trial, dtype=float).reshape(len(mass), -1)
    before = np.einsum("ij,ij->j", x, mass[:, None] * x)
    if not np.isfinite(before).all():
        raise ValueError("trial has a non-finite entry or mass norm")
    x = _deflation(mass)(x)
    gram = np.einsum("ij,ik->jk", x, mass[:, None] * x)
    w, v = scipy.linalg.eigh(0.5 * (gram + gram.T))
    keep = w > _DEPENDENT_CUT * before.max(initial=0.0)
    basis = np.einsum("ij,jk->ik", x, v[:, keep] / np.sqrt(w[keep]))
    a_small = np.einsum("ij,ik->jk", basis, stiff @ basis)
    theta, w_small = scipy.linalg.eigh(0.5 * (a_small + a_small.T))
    return theta, np.einsum("ij,jk->ik", basis, w_small)


def _factor(stiff, mass, sigma):
    """SuperLU factorization of  stiffness - sigma mass."""
    return scipy.sparse.linalg.splu(
        (stiff - sigma * scipy.sparse.diags(mass)).tocsc(), **_SPLU_OPTIONS)


def _factorization(trial, stiff, mass):
    """The shift choice: returns (lu, shift, below_shift, start).

    The near shift mu is (1 - _TRIAL_MARGIN) times the smallest Ritz
    value theta of the trial span, when theta is positive; it is used
    when its factorization has diagonal pivots and a count of 1 negative
    pivot, and then `start` holds the Ritz vectors in ascending order.
    Otherwise the factorization is at _SHIFT and `start` is None.
    `below_shift` is the count, None when no valid count was taken.
    """
    below = None
    if trial is not None:
        theta, ritz = _trial_ritz(trial, stiff, mass)
        if theta.size and theta[0] > 0.0:
            mu = (1.0 - _TRIAL_MARGIN) * float(theta[0])
            try:
                lu = _factor(stiff, mass, mu)
            except RuntimeError:            # an exactly singular pivot
                lu = None
            if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
                # reading `lu.U` makes scipy build CSC copies of both L and
                # U and keep them on `lu`; scipy offers no other route to
                # the pivots
                below = int(np.count_nonzero(lu.U.diagonal() < 0))
                if below == 1:
                    return lu, mu, below, ritz
            del lu          # free the rejected factors before refactoring
    return _factor(stiff, mass, _SHIFT), _SHIFT, below, None


def rayleigh_quotient(x, pair):
    """Rayleigh quotient (x L x) / (x M x) after removing the constant mode.

    Raises ValueError when the vector or its mass norm is not finite, or
    when the deflated vector has zero mass norm (e.g. for constant input).
    """
    mass = np.asarray(pair.mass, dtype=float)
    x = np.asarray(x, dtype=float).reshape(len(mass))
    before = np.einsum("i,i->", x, mass * x)
    if not np.isfinite(before):
        raise ValueError("vector has a non-finite entry or mass norm")
    x = _deflation(mass)(x)
    xmx = np.einsum("i,i->", x, mass * x)
    if not xmx > 1e-24 * max(before, 1e-300):
        raise ValueError("vector has zero mass norm after deflation")
    return float(np.einsum("i,i->", x, pair.stiffness @ x) / xmx)
