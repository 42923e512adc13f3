"""Smallest nonzero generalized eigenpair of a (stiffness, mass) pair.

The stiffness matrix of a closed surface has the constants in its kernel,
so the solver works on the mass-orthogonal complement of the constant
vector: block shift-invert iteration (Ericsson & Ruhe 1980) with one
sparse LU factorization of  stiffness - sigma mass  at a fixed negative
shift sigma, reused as a block solve in every iteration, explicit
deflation of the constant mode every iteration, and a Rayleigh-Ritz
projection of the block.

Everything is deterministic for a fixed seed: the start block comes from a
seeded generator, SuperLU is sequential, and the dense reductions over the
vertices are `np.einsum` loops rather than BLAS calls, whose summation
order can depend on the BLAS thread count.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = ["EigenResult", "ConvergenceError",
           "smallest_nonzero_eig", "rayleigh_quotient"]

# Shift of the factorized  stiffness - sigma mass.  The stiffness is positive
# semidefinite and the lumped mass a positive diagonal, so a negative shift
# makes the matrix positive definite; the constant mode (eigenvalue 0) then
# maps to 1/|sigma| and is removed by deflation.
_SHIFT = -1e-2


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
    """
    lambda1: float
    eigenvector: np.ndarray
    residual: float
    iterations: int
    cluster: list = field(default_factory=list)
    values: list = field(default_factory=list)

    @property
    def multiplicity(self):
        return len(self.cluster)


def smallest_nonzero_eig(pair, tol=1e-8, max_iter=10000, block=6, seed=0):
    """Smallest nonzero eigenvalue of  stiffness x = lam mass x.

    pair: LaplacePair (or anything with .stiffness CSR and .mass vector).
    Returns an EigenResult whose eigenvector is M-orthogonal to constants
    and M-normalized.  Raises ConvergenceError when the residual target
    is not met within max_iter outer iterations.
    """
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable in double precision")
    stiff = pair.stiffness
    mass = np.asarray(pair.mass, dtype=float)
    n = mass.shape[0]
    block = min(block, n - 1)

    # M-normalized constant (kernel) vector
    e_const = np.ones(n) / np.sqrt(mass.sum())
    m_const = mass * e_const

    def m_orth(x):
        # x: a vector or a block of columns
        coeff = np.einsum("i,i...->...", m_const, x)
        return x - np.multiply.outer(e_const, coeff)

    lu = scipy.sparse.linalg.splu(
        (stiff - _SHIFT * scipy.sparse.diags(mass)).tocsc())

    rng = np.random.default_rng(seed)
    x_blk = m_orth(rng.standard_normal((n, block)))
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
        if res <= tol:
            cluster = [float(t) for t in theta
                       if abs(t - lam) <= 1e-3 * max(abs(lam), 1e-300)]
            vec = m_orth(x_blk[:, 0])
            return EigenResult(lambda1=lam, eigenvector=vec, residual=res,
                               iterations=it, cluster=cluster,
                               values=[float(t) for t in theta])
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iter} iterations "
        f"(best residual {best[2]:.3e})",
        best_value=best[0], best_vector=best[1], residual=best[2],
        iterations=max_iter)


def rayleigh_quotient(x, pair):
    """Rayleigh quotient (x L x) / (x M x) after removing the constant mode.

    Raises ValueError when the deflated vector has zero mass norm (e.g.
    for constant input).
    """
    x = np.asarray(x, dtype=float)
    mass = np.asarray(pair.mass, dtype=float)
    before = float(np.einsum("i,i->", x, mass * x))
    e_const = np.ones(len(x)) / np.sqrt(mass.sum())
    x = x - e_const * float(np.einsum("i,i->", mass * e_const, x))
    xmx = float(np.einsum("i,i->", x, mass * x))
    if not np.isfinite(xmx) or xmx <= 1e-24 * max(before, 1e-300):
        raise ValueError("vector has zero mass norm after deflation")
    return float(np.einsum("i,i->", x, pair.stiffness @ x)) / xmx
