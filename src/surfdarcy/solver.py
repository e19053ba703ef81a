"""Solution of the assembled system and condition estimation.

The assembled saddle system carries one dense Lagrange-multiplier row/column
c (the zero-mean pressure constraint), which ruins sparse-LU orderings if
factored as-is.  `_BorderedOperator` eliminates the multiplier: the
unbordered block has the constant-pressure vector as its left and right null
vector, so the bordered inverse reduces to a solve with the block grounded
at one pressure DOF plus two rank-one corrections.  Given an exact solve of
the grounded block this is an exact identity; given an approximate one, it
is a preconditioner for the bordered system.

The grounded block is A = H + K.  H = blockdiag(A_u three times, A_p), with
A_u = 1/2 M_u + S_u and A_p = 1/2 K_p + S_p with the ground DOF pinned, is
symmetric positive definite, and K, the +-1/2 gradient couplings G, is skew,
so x^T A x = x^T H x > 0.  Every principal submatrix of A is then
nonsingular, and elimination without pivoting in any symmetric ordering meets
no zero pivot (Golub & Van Loan, Matrix Computations, on LU of nonsymmetric
positive definite systems).  A and its principal blocks are therefore
factored by SuperLU in its symmetric mode: minimum degree on A^T + A,
diagonal pivots only.  On a case-6 level-1 block (21,388 unknowns, 12 coarse
cells) this takes 1.2 s and 10.9 M L+U nonzeros, against 6.4 s and 28.1 M
for the default COLAMD ordering with partial pivoting; the same ordering and
pivot threshold without symmetric mode take 20-22 s (one 2-vCPU host).

The one elimination serves two solves of the grounded block, chosen by how
the solver is used, not by the size of the system:

- A one-shot `solve(system)` runs GMRES (relative residual 1e-12, restart
  RESTART) on the assembled bordered matrix itself, so it stops on the residual
  that `Solution.residual_norm` reports.  Its preconditioner is the
  elimination around the block upper triangle of A,
  P = [[A_u (x) I_3, G/2], [0, A_p]] (`_BlockTriangle`).  The diagonal
  blocks of P are principal blocks of H, hence positive definite and
  nonsingular; each takes one symmetric-mode SuperLU factor, and the one A_u
  factor solves the three velocity components in a single three-column
  solve.  Only A_p is copied grounded.  GMRES converges in 16-19 iterations
  whatever the mesh size and wherever the surface cuts the mesh: the
  paper's independence of positioning, seen in the solver (Benzi, Golub &
  Liesen, Acta Numerica 2005; Elman, Silvester & Wathen, Finite Elements and
  Fast Iterative Solvers, 2014).  On case-6 level-1 systems (21-22 k
  unknowns) the two factors hold 3.3 M L+U nonzeros, against 11.2 M for one
  factor of A, and the solve takes 0.4-0.6 s in 16 iterations.
- A `Factorization` keeps one full symmetric-mode factor of A, for a caller
  that solves with one matrix many times; `solve(factorization)` reuses it.
  The condition estimate solves with the bordered matrix and its transpose
  some 60 times: on six level-0 systems GMRES took 3.60 s for those solves
  (391-997 iterations per estimate), the factor 0.98 s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem

__all__ = [
    "Solution",
    "Factorization",
    "solve",
    "estimate_condition",
    "SingularSystemError",
    "ConvergenceError",
]

log = logging.getLogger(__name__)

# GMRES's Krylov basis: `gmres` allocates RESTART + 1 vectors of the system's
# length up front.  Every measured solve took 16-19 iterations, so 40 ends
# each one within its first cycle; at case 1, level 4 (844,336 unknowns) the
# basis takes 264 MiB, against 651 MiB for a restart of 100.
RESTART = 40
# GMRES iteration cap, 25 restart cycles
MAX_ITERATIONS = 1000


class SingularSystemError(RuntimeError):
    pass


class ConvergenceError(SingularSystemError):
    """GMRES did not reach its tolerance within MAX_ITERATIONS."""


@dataclass(frozen=True)
class Solution:
    u_coeffs: np.ndarray  # (3, n_u)
    p_coeffs: np.ndarray  # (n_p,)
    multiplier: float
    residual_norm: float
    iterations: int = 0  # GMRES iterations; 0 for a direct factor


def _splu(matrix):
    """SuperLU factor of a grounded block, or of a principal block of one,
    in symmetric mode: minimum degree on A^T + A and no pivoting, which the
    positive definite symmetric part makes safe (see the module docstring)."""
    try:
        return spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystemError(f"singular system: {exc}") from exc


def _ground(block, ground):
    """Copy of a square block with row and column `ground` dropped and a
    unit put on their diagonal."""
    coo = block.tocoo()
    keep = (coo.row != ground) & (coo.col != ground)
    return sp.csr_matrix(
        (
            np.append(coo.data[keep], 1.0),
            (np.append(coo.row[keep], ground), np.append(coo.col[keep], ground)),
        ),
        shape=block.shape,
    )


class _BlockTriangle:
    """Solve with the block upper triangle P = [[A_u (x) I_3, G/2], [0, A_p]]
    of the grounded block (see the module docstring); only A_p is copied
    grounded, and G/2 drops the ground column."""

    def __init__(self, matrix: sp.csr_matrix, layout, ground: int):
        self.split = 3 * layout.n_u
        self.p_ground = ground - self.split
        self.lu_u = _splu(matrix[: layout.n_u, : layout.n_u])
        self.lu_p = _splu(_ground(matrix[layout.p_slice, layout.p_slice], self.p_ground))
        self.coupling = matrix[: self.split, layout.p_slice]

    def solve(self, r):
        p = self.lu_p.solve(r[self.split :])
        p_free = p.copy()
        p_free[self.p_ground] = 0.0
        # one factor, three right-hand sides: the velocity components
        u = self.lu_u.solve((r[: self.split] - self.coupling @ p_free).reshape(3, -1).T)
        return np.concatenate([u.T.ravel(), p])


class _BorderedOperator:
    """Exact inverse of the assembled bordered system, given a solver
    `inner(matrix, layout, ground)` of its block grounded at pressure DOF
    `ground`, where `matrix` is the bordered matrix in CSR form; with an
    inexact inner solver it is a preconditioner.

    The block without the multiplier has the constant-pressure vector e as
    left and right null vector; grounding one pressure DOF makes it regular,
    and with the border c, the multiplier row and column, the bordered solve
    reduces to

        lam = (e . r) / (e . c),   K x~ = r - lam c (grounded),
        x = x~ + t e with t from the constraint row.
    """

    def __init__(self, system: AssembledSystem, inner):
        matrix = system.matrix.tocsr()
        lay = system.layout
        n = lay.total - 1
        self.n = n
        self.p_slice = lay.p_slice
        self.c = np.asarray(matrix[n, :n].todense()).ravel()
        c_p = self.c[lay.p_slice]
        self.c_total = float(c_p.sum())
        if self.c_total == 0.0:
            raise SingularSystemError("constraint row has zero surface measure")
        self.ground = lay.p_slice.start + int(np.argmax(c_p))
        self.inner = inner(matrix, lay, self.ground)

    def solve(self, rhs_full, *trans):
        """The bordered solve; `trans`, if given, goes to the inner solve, and
        "T" solves with the transpose, whose border is the same."""
        r, rho = rhs_full[: self.n], rhs_full[self.n]
        lam = float(r[self.p_slice].sum()) / self.c_total
        reduced = r - lam * self.c
        reduced[self.ground] = 0.0
        x = self.inner.solve(reduced, *trans)
        # enforce the constraint row by shifting along the pressure-constant kernel
        t = (rho - self.c @ x) / self.c_total
        x[self.p_slice] += t
        return np.concatenate([x, [lam]])


class Factorization:
    """One factorization of an assembled system, through its grounded block,
    shared by the solve and the condition estimate (`estimate_condition`)."""

    def __init__(self, system: AssembledSystem):
        self.system = system
        self._lu = _BorderedOperator(
            system, lambda matrix, _, ground: _splu(_ground(matrix[:-1, :-1], ground))
        )

    @property
    def nnz(self) -> int:
        """L+U nonzeros of the factor of the grounded block."""
        return self._lu.inner.nnz

    def solution(self) -> Solution:
        """Direct solve; the residual is recomputed against the full system."""
        return _solution(self.system, self._lu.solve(self.system.rhs))


def solve(system) -> Solution:
    """Solve an assembled system once by GMRES, preconditioned by the
    bordered elimination around the block triangle; a Factorization is
    solved with its own factor."""
    if isinstance(system, Factorization):
        return system.solution()
    a, b = system.matrix, system.rhs
    n = a.shape[0]
    preconditioner = _BorderedOperator(system, _BlockTriangle)
    residuals = []  # one per iteration, from the callback
    x, info = spla.gmres(
        a,
        b,
        rtol=1e-12,
        atol=0.0,
        restart=RESTART,
        maxiter=MAX_ITERATIONS,
        M=spla.LinearOperator((n, n), matvec=preconditioner.solve),
        callback=residuals.append,
        # "legacy" makes maxiter count iterations rather than restart cycles
        callback_type="legacy",
    )
    if info:
        rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        raise ConvergenceError(
            f"GMRES did not converge in {len(residuals)} iterations "
            f"(relative residual {rel:.3e})"
        )
    return _solution(system, x, len(residuals))


def _solution(system: AssembledSystem, x, iterations=0) -> Solution:
    """Split the full solution vector; the residual is recomputed against the
    full bordered system."""
    lay = system.layout
    residual = float(np.linalg.norm(system.matrix @ x - system.rhs))
    return Solution(
        u_coeffs=np.stack([x[lay.u_slice(c)] for c in range(3)]),
        p_coeffs=x[lay.p_slice],
        multiplier=float(x[lay.multiplier_index]),
        residual_norm=residual,
        iterations=iterations,
    )


def _power_iteration(apply_op, n, rng, max_iter=30, rtol=1e-3):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    converged = False
    for _ in range(max_iter):
        w = apply_op(v)
        new_estimate = float(np.linalg.norm(w))
        if new_estimate == 0.0:
            return 0.0, True
        v = w / new_estimate
        if estimate > 0.0 and abs(new_estimate - estimate) <= rtol * estimate:
            estimate = new_estimate
            converged = True
            break
        estimate = new_estimate
    return estimate, converged


def estimate_condition(factorization: Factorization, seed: int = 0) -> float:
    """2-norm condition estimate of a factorized system, by power iteration
    on A A^T and on its inverse through the factor (30 iterations, 1e-3
    relative-change stop).  A non-converged estimate is returned as-is and
    logged as approximate."""
    a = factorization.system.matrix
    lu = factorization._lu
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    sigma_max_sq, conv_hi = _power_iteration(lambda v: a @ (a.T @ v), n, rng)
    inv_sigma_min_sq, conv_lo = _power_iteration(lambda v: lu.solve(lu.solve(v), "T"), n, rng)
    if not (conv_hi and conv_lo):
        log.warning("condition estimate did not fully converge; returning best value")
    if inv_sigma_min_sq == 0.0:
        return float("inf")
    return float(np.sqrt(sigma_max_sq * inv_sigma_min_sq))
