"""Solution of the assembled system and condition estimation.

The assembled saddle system carries one dense Lagrange-multiplier row/column
(the zero-mean pressure constraint), which ruins sparse-LU orderings if
factored as-is.  The solver therefore eliminates the multiplier exactly: the
unbordered block has the constant-pressure vector as its left and right null
vector, so the bordered inverse reduces to solves with a grounded copy of the
block (one pressure DOF pinned) plus two rank-one corrections.  This is an
exact identity, not an approximation; the returned residual is always
measured against the full bordered system.

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

The grounded block is solved in one of two ways, chosen by how the solver is
used, not by the size of the system:

- A one-shot `solve(system)` runs GMRES (relative residual 1e-12, restart
  100) preconditioned by the block upper triangle of A,
  P = [[A_u (x) I_3, G/2], [0, A_p]].  Its diagonal blocks are principal
  blocks of H, hence positive definite and nonsingular; each takes one
  symmetric-mode SuperLU factor, and the one A_u factor solves the three
  velocity components in a single three-column solve.  GMRES multiplies by
  A through the bordered matrix itself, with the ground entry and the
  multiplier of the vector zeroed and the ground row replaced by the unit
  row, and the preconditioner's G/2 drops the ground column the same way;
  only A_p is copied grounded, so no grounded copy of the whole block is
  held while the two blocks are factored.  GMRES converges in
  16-19 iterations whatever the mesh size and wherever the surface cuts the
  mesh: the paper's independence of positioning, seen in the solver (Benzi,
  Golub & Liesen, Acta Numerica 2005; Elman, Silvester & Wathen, Finite
  Elements and Fast Iterative Solvers, 2014).  On case-6 level-1 systems
  (21-22 k unknowns) it takes 0.62 s and 3.3 M L+U nonzeros, against 1.64 s
  and 11.2 M for one factor of A; case-1 level 3 (209,777 unknowns) takes
  4.7 s in 17 iterations.
- A `Factorization` keeps one full symmetric-mode factor of A, for a caller
  that solves with one matrix many times; `solve(factorization)` reuses it.
  The condition estimate solves with A and A^T some 60 times: on six level-0
  systems GMRES took 3.60 s for those solves (391-997 iterations per
  estimate), the factor 0.98 s.
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

# GMRES iteration cap, ten restart cycles; every measured solve took 16-19
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


class _BlockGMRES:
    """GMRES on the grounded block A, preconditioned by its block upper
    triangle P = [[A_u (x) I_3, G/2], [0, A_p]] (see the module docstring);
    only A_p is copied grounded."""

    def __init__(self, matrix: sp.csr_matrix, layout, ground: int):
        self.matrix = matrix
        self.ground = ground
        self.split = 3 * layout.n_u
        self.p_ground = ground - self.split
        self.lu_u = _splu(matrix[: layout.n_u, : layout.n_u])
        self.lu_p = _splu(_ground(matrix[layout.p_slice, layout.p_slice], self.p_ground))
        self.coupling = matrix[: self.split, layout.p_slice]
        self.iterations = 0

    def _apply(self, x):
        """A x through the bordered matrix: the ground entry and the
        multiplier are zeroed, and the ground row is the unit row."""
        padded = np.append(x, 0.0)
        padded[self.ground] = 0.0
        y = (self.matrix @ padded)[:-1]
        y[self.ground] = x[self.ground]
        return y

    def _precondition(self, r):
        p = self.lu_p.solve(r[self.split :])
        # G/2 without its ground column
        p_free = p.copy()
        p_free[self.p_ground] = 0.0
        # one factor, three right-hand sides: the velocity components
        u = self.lu_u.solve((r[: self.split] - self.coupling @ p_free).reshape(3, -1).T)
        return np.concatenate([u.T.ravel(), p])

    def _count(self, _):
        self.iterations += 1

    def solve(self, b, trans="N"):
        if trans != "N":
            raise ValueError("the GMRES path solves with A, not with its transpose")
        n = len(b)
        # the operators are built per solve, not stored: operators over bound
        # methods kept on self would make a reference cycle that holds both
        # factors until the cyclic garbage collector runs
        x, info = spla.gmres(
            spla.LinearOperator((n, n), matvec=self._apply),
            b,
            rtol=1e-12,
            atol=0.0,
            restart=100,
            maxiter=MAX_ITERATIONS,
            M=spla.LinearOperator((n, n), matvec=self._precondition),
            callback=self._count,
            # "legacy" makes maxiter count iterations rather than restart cycles
            callback_type="legacy",
        )
        if info:
            rel = np.linalg.norm(self._apply(x) - b) / np.linalg.norm(b)
            raise ConvergenceError(
                f"GMRES did not converge in {self.iterations} iterations "
                f"(relative residual {rel:.3e})"
            )
        return x


class _BorderedOperator:
    """Exact inverse of the assembled bordered system, given a solver
    `inner(matrix, layout, ground)` of its block grounded at pressure DOF
    `ground`, where `matrix` is the bordered matrix in CSR form.

    The block without the multiplier has the constant-pressure vector e as
    left and right null vector; grounding one pressure DOF makes it regular,
    and the bordered solve reduces to

        lam = (e . r) / (e . c),   K x~ = r - lam c (grounded),
        x = x~ + t e with t from the constraint row.
    """

    def __init__(self, system: AssembledSystem, inner):
        matrix = system.matrix.tocsr()
        lay = system.layout
        n = lay.total - 1
        self.n = n
        self.p_slice = lay.p_slice
        self.c = np.asarray(matrix[:n, n].todense()).ravel()
        self.c_row = np.asarray(matrix[n, :n].todense()).ravel()
        c_p = self.c[lay.p_slice]
        self.c_total = float(c_p.sum())
        if self.c_total == 0.0:
            raise SingularSystemError("constraint row has zero surface measure")
        self.ground = lay.p_slice.start + int(np.argmax(c_p))
        self.inner = inner(matrix, lay, self.ground)

    def solve(self, rhs_full, trans="N"):
        r, rho = rhs_full[: self.n], rhs_full[self.n]
        border_col = self.c if trans == "N" else self.c_row
        border_row = self.c_row if trans == "N" else self.c
        lam = float(r[self.p_slice].sum()) / self.c_total
        reduced = r - lam * border_col
        reduced[self.ground] = 0.0
        x = self.inner.solve(reduced, trans=trans)
        # enforce the constraint row by shifting along the pressure-constant kernel
        t = (rho - border_row @ x) / self.c_total
        x[self.p_slice] += t
        return np.concatenate([x, [lam]])


class Factorization:
    """One factorization of an assembled system, through its grounded block,
    shared by the solve and the condition estimate."""

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

    def condition(self, seed: int = 0) -> float:
        """2-norm condition estimate via power iteration on A A^T and its
        inverse (30 iterations, 1e-3 relative-change stop).  A non-converged
        estimate is returned as-is and logged as approximate."""
        a = self.system.matrix
        rng = np.random.default_rng(seed)
        n = a.shape[0]
        sigma_max_sq, conv_hi = _power_iteration(lambda v: a @ (a.T @ v), n, rng)
        inv_sigma_min_sq, conv_lo = _power_iteration(
            lambda v: self._lu.solve(self._lu.solve(v), trans="T"), n, rng
        )
        if not (conv_hi and conv_lo):
            log.warning("condition estimate did not fully converge; returning best value")
        if inv_sigma_min_sq == 0.0:
            return float("inf")
        return float(np.sqrt(sigma_max_sq * inv_sigma_min_sq))


def solve(system) -> Solution:
    """Solve an assembled system once by block-preconditioned GMRES; a
    Factorization is solved with its own factor."""
    if isinstance(system, Factorization):
        return system.solution()
    op = _BorderedOperator(system, _BlockGMRES)
    return _solution(system, op.solve(system.rhs), op.inner.iterations)


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
    """2-norm condition estimate of a factorized system; see
    Factorization.condition."""
    return factorization.condition(seed)
