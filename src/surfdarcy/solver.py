"""Sparse direct solution of the assembled system and condition estimation.

The assembled saddle system carries one dense Lagrange-multiplier row/column
(the zero-mean pressure constraint), which ruins sparse-LU orderings if
factored as-is.  The solver therefore eliminates the multiplier exactly: the
unbordered block has the constant-pressure vector as its left and right null
vector, so the bordered inverse reduces to solves with a grounded copy of the
block (one pressure DOF pinned) plus two rank-one corrections.  This is an
exact identity, not an approximation; the returned residual is always
measured against the full bordered system.

Each system is factorized once (`factorize`); the solve and the condition
estimate both reuse that factor.  The grounded block is factorized by one of
two strategies, chosen by size:

- plain SuperLU on its default COLAMD ordering up to NESTED_THRESHOLD
  unknowns.  A geometric nested-dissection ordering was tried here and
  removed: on the same 21,000-22,500 unknown blocks it took 21-29 s and
  52-59 M L+U nonzeros against 7-11 s and 27-31 M for COLAMD, at equal
  residuals (below 4e-12; timings on one 2-vCPU host);
- above it, a dissection-tree Schur elimination with dense frontal LU
  (partial pivoting); per-node back-substitution data is cached in a scratch
  directory so memory stays bounded by the largest front.  It keeps no factor
  between solves: each solve redoes the elimination.  On a case-1 level-3
  system (212,333 unknowns) plain SuperLU fails under a 6 GB address-space
  cap, while this path solves it in 80 s with a 1.2 GB peak and a relative
  residual of 1.1e-12.

The dissection tree cuts the DOF cloud by coordinate medians, picking per
node the axis with the smallest one-layer vertex separator (computed from the
actual matrix adjacency), which keeps cuts transversal to the surface band.
"""

from __future__ import annotations

import logging
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import AssembledSystem

__all__ = [
    "Solution",
    "Factorization",
    "factorize",
    "solve",
    "estimate_condition",
    "SingularSystemError",
]

log = logging.getLogger(__name__)

# systems past this size use the memory-bounded dissection elimination
NESTED_THRESHOLD = 150_000
LEAF_SIZE = 4_000


class SingularSystemError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solution:
    u_coeffs: np.ndarray  # (3, n_u)
    p_coeffs: np.ndarray  # (n_p,)
    multiplier: float
    residual_norm: float


# ---------------------------------------------------------------------------
# dissection tree
# ---------------------------------------------------------------------------


def _neighbor_hit(indptr, indices, cand, mask):
    """For each row in `cand`, whether any column index has mask True."""
    lengths = indptr[cand + 1] - indptr[cand]
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(len(cand), dtype=bool)
    starts = np.repeat(indptr[cand], lengths)
    pos = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths) + starts
    hits = mask[indices[pos]]
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return np.logical_or.reduceat(hits, offsets)


class _DissectionTree:
    """Geometric nested dissection with adjacency-thinned separators."""

    def __init__(self, matrix: sp.csr_matrix, coords, h_link, leaf=LEAF_SIZE):
        self.indptr = matrix.indptr
        self.indices = matrix.indices
        self.coords = np.asarray(coords, dtype=float)
        self.h_link = float(h_link)
        self.leaf = int(leaf)
        self._scratch = np.zeros(matrix.shape[0], dtype=bool)
        self.nodes = []
        self.root = self._build(np.arange(matrix.shape[0], dtype=np.int64))

    def _split(self, idx):
        c = self.coords[idx]
        best = None
        for axis in range(c.shape[1]):
            vals = c[:, axis]
            median = np.median(vals)
            in_a = vals <= median
            a, b = idx[in_a], idx[~in_a]
            if len(a) == 0 or len(b) == 0:
                continue
            cand_mask = self.coords[a][:, axis] > median - self.h_link
            cand = a[cand_mask]
            self._scratch[b] = True
            sep_mask = _neighbor_hit(self.indptr, self.indices, cand, self._scratch)
            self._scratch[b] = False
            sep = cand[sep_mask]
            interior_a = np.concatenate([a[~cand_mask], cand[~sep_mask]])
            if len(interior_a) == 0:
                continue
            score = len(sep) - 1e-3 * min(len(a), len(b))
            if best is None or score < best[0]:
                best = (score, np.sort(interior_a), b, np.sort(sep))
        return best

    def _build(self, idx):
        if len(idx) <= self.leaf:
            self.nodes.append({"dofs": idx})
            return len(self.nodes) - 1
        found = self._split(idx)
        if found is None:
            self.nodes.append({"dofs": idx})
            return len(self.nodes) - 1
        _, interior_a, b, sep = found
        child_a = self._build(interior_a)
        child_b = self._build(b)
        self.nodes.append({"sep": sep, "children": (child_a, child_b)})
        return len(self.nodes) - 1


def _max_link_length(matrix: sp.csr_matrix, coords):
    """Longest geometric distance over structurally coupled DOF pairs."""
    coo = matrix.tocoo()
    d = coords[coo.row] - coords[coo.col]
    return float(np.sqrt(np.einsum("nx,nx->n", d, d).max()))


# ---------------------------------------------------------------------------
# factorization strategies
# ---------------------------------------------------------------------------


def _splu(matrix):
    """SuperLU factor on its default (COLAMD) column ordering."""
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(f"singular system: {exc}") from exc


class _NestedLU:
    """Dissection-tree Schur elimination with dense frontal LU.

    One upward pass eliminates leaf interiors (sparse LU) and separators
    (dense LU with partial pivoting), storing per-node factors and coupling
    blocks in a scratch directory; the downward pass back-substitutes.  Peak
    memory is a few live fronts, independent of the total fill.
    """

    def __init__(self, matrix: sp.csr_matrix, coords):
        self.matrix = matrix.tocsr()
        h_link = _max_link_length(self.matrix, coords)
        self.tree = _DissectionTree(self.matrix, coords, 1.001 * h_link)
        self._tmp = tempfile.TemporaryDirectory(prefix="surfdarcy-front-")
        self._dir = Path(self._tmp.name)
        self._prepared = False

    def _sub(self, rows, cols, dense=False):
        block = self.matrix[rows][:, cols]
        return block.toarray() if dense else block

    def _boundary_of(self, dofs, bnd):
        if len(bnd) == 0:
            return np.zeros(0, dtype=bool)
        scratch = np.zeros(self.matrix.shape[0], dtype=bool)
        scratch[dofs] = True
        return _neighbor_hit(self.matrix.indptr, self.matrix.indices, bnd, scratch)

    def _up(self, node_id, bnd, b):
        """Eliminate the subtree interior; return the Schur update and
        reduced right-hand side on `bnd`."""
        node = self.tree.nodes[node_id]
        if "dofs" in node:
            dofs = node["dofs"]
            lu = _splu(self._sub(dofs, dofs))
            y = lu.solve(b[dofs])
            if len(bnd) == 0:
                return np.zeros((0, 0)), np.zeros(0)
            a_xb = self._sub(dofs, bnd, dense=True)
            a_bx = self._sub(bnd, dofs)
            return -(a_bx @ lu.solve(a_xb)), -(a_bx @ y)

        sep = node["sep"]
        own = np.concatenate([sep, bnd])
        k = len(sep)
        # assemble raw matrix entries only on this node's separator rows and
        # columns; the (bnd, bnd) block and b[bnd] belong to an ancestor
        front = np.zeros((len(own), len(own)))
        front[:k, :] = self._sub(sep, own, dense=True)
        front[k:, :k] = self._sub(bnd, sep, dense=True)
        rhs = np.zeros(len(own))
        rhs[:k] = b[sep]
        for child_id in node["children"]:
            child_dofs = self._collect_dofs(child_id)
            mask = self._boundary_of(child_dofs, own)
            cpos = np.flatnonzero(mask)
            update, r_up = self._up(child_id, own[cpos], b)
            front[np.ix_(cpos, cpos)] += update
            rhs[cpos] += r_up
            node.setdefault("cpos", []).append(cpos)

        try:
            lu_piv = dla.lu_factor(front[:k, :k])
        except (ValueError, dla.LinAlgError) as exc:
            raise SingularSystemError(f"singular separator front: {exc}") from exc
        coupling = dla.lu_solve(lu_piv, front[:k, k:]) if len(bnd) else np.zeros((k, 0))
        g = dla.lu_solve(lu_piv, rhs[:k])
        np.save(self._dir / f"w{node_id}.npy", coupling)
        node["g"] = g
        if len(bnd) == 0:
            return np.zeros((0, 0)), np.zeros(0)
        schur = front[k:, k:] - front[k:, :k] @ coupling
        reduced = rhs[k:] - front[k:, :k] @ g
        return schur, reduced

    def _collect_dofs(self, node_id):
        node = self.tree.nodes[node_id]
        if "all_dofs" in node:
            return node["all_dofs"]
        if "dofs" in node:
            node["all_dofs"] = node["dofs"]
        else:
            parts = [self._collect_dofs(c) for c in node["children"]] + [node["sep"]]
            node["all_dofs"] = np.sort(np.concatenate(parts))
        return node["all_dofs"]

    def _down(self, node_id, bnd, xb, b, x):
        node = self.tree.nodes[node_id]
        if "dofs" in node:
            dofs = node["dofs"]
            rhs = b[dofs]
            if len(bnd):
                rhs = rhs - self._sub(dofs, bnd) @ xb
            x[dofs] = _splu(self._sub(dofs, dofs)).solve(rhs)
            return
        sep = node["sep"]
        own = np.concatenate([sep, bnd])
        coupling = np.load(self._dir / f"w{node_id}.npy")
        x_sep = node["g"] - (coupling @ xb if len(bnd) else 0.0)
        x[sep] = x_sep
        x_own = np.concatenate([x_sep, xb])
        for child_id, cpos in zip(node["children"], node["cpos"]):
            self._down(child_id, own[cpos], x_own[cpos], b, x)

    def solve(self, b, trans="N"):
        if trans == "T":
            if not hasattr(self, "_transposed"):
                self._transposed = _NestedLU(
                    self.matrix.T.tocsr(), self.tree.coords
                )
            return self._transposed.solve(b, trans="N")
        for node in self.tree.nodes:
            node.pop("cpos", None)
        x = np.zeros_like(b)
        self._up(self.tree.root, np.zeros(0, dtype=np.int64), b)
        self._down(self.tree.root, np.zeros(0, dtype=np.int64), np.zeros(0), b, x)
        return x


# ---------------------------------------------------------------------------
# bordered-system elimination
# ---------------------------------------------------------------------------


class _BorderedOperator:
    """Exact inverse of the assembled bordered system.

    The block without the multiplier has the constant-pressure vector e as
    left and right null vector; grounding one pressure DOF makes it regular,
    and the bordered solve reduces to

        lam = (e . r) / (e . c),   K x~ = r - lam c (grounded),
        x = x~ + t e with t from the constraint row.
    """

    def __init__(self, system: AssembledSystem):
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
        ground = lay.p_slice.start + int(np.argmax(c_p))

        grounded = matrix[:n, :n].tolil()
        grounded[ground, :] = 0.0
        grounded[:, ground] = 0.0
        grounded[ground, ground] = 1.0
        grounded = grounded.tocsr()
        self.ground = ground

        coords = system.dof_coords
        if coords is not None and n > NESTED_THRESHOLD:
            self.inner = _NestedLU(grounded, coords)
        else:
            self.inner = _splu(grounded)

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
    """One factorization of a system matrix, shared by the solve and the
    condition estimate.  An assembled bordered system is factorized through
    its grounded block; any other system or bare matrix as it is."""

    def __init__(self, system_or_matrix):
        self.system = None
        if isinstance(system_or_matrix, AssembledSystem):
            self.system = system_or_matrix
            system_or_matrix = system_or_matrix.matrix
        self.matrix = sp.csr_matrix(system_or_matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        lay = getattr(self.system, "layout", None)
        if lay is not None and lay.total == self.matrix.shape[0] and lay.n_p > 0:
            self._lu = _BorderedOperator(self.system)
        else:
            self._lu = _splu(self.matrix)

    def solution(self) -> Solution:
        """Direct solve; the residual is recomputed against the full system."""
        system = self.system
        if system is None:
            raise ValueError("a bare matrix has no right-hand side to solve for")
        lay = system.layout
        x = self._lu.solve(system.rhs)
        residual = float(np.linalg.norm(system.matrix @ x - system.rhs))
        u = np.stack([x[lay.u_slice(c)] for c in range(3)]) if lay.n_u else np.zeros((3, 0))
        return Solution(
            u_coeffs=u,
            p_coeffs=x[lay.p_slice],
            multiplier=float(x[lay.multiplier_index]),
            residual_norm=residual,
        )

    def condition(self, seed: int = 0) -> float:
        """2-norm condition estimate via power iteration on A A^T and its
        inverse (30 iterations, 1e-3 relative-change stop).  A non-converged
        estimate is returned as-is and logged as approximate."""
        a = self.matrix
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


def factorize(system_or_matrix) -> Factorization:
    """Factorize an assembled system or a bare square matrix; an existing
    Factorization is returned as it is."""
    if isinstance(system_or_matrix, Factorization):
        return system_or_matrix
    return Factorization(system_or_matrix)


def solve(system) -> Solution:
    """Direct solve of an assembled system (or of its Factorization)."""
    return factorize(system).solution()


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


def estimate_condition(system_or_matrix, seed: int = 0) -> float:
    """2-norm condition estimate of an assembled system, a bare matrix, or a
    Factorization of either; see Factorization.condition."""
    return factorize(system_or_matrix).condition(seed)
