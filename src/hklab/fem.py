"""P1 simplicial finite element kernels.

Assembly is vectorized with a fixed accumulation order, so stiffness and
boundary-mass matrices come out symmetric to the bit and repeated runs are
reproducible.

Derivative recovery fits a full quadratic to the vertex values over each
vertex's 2-hop patch (grown to 3 and 4 hops where needed), with offsets
whitened by the patch covariance, in the manner of Zienkiewicz-Zhu patch
recovery.  It is exact for quadratic fields, including one-sided boundary
patches.  Patches are rows of products of one sparse vertex adjacency
(`vertex_adjacency`); vertices are taken in fixed blocks, and within a block
the patches of equal size are fitted together as stacked batches.

Each batch of fits takes one Cholesky factorization G = L L^T of its Gram
matrices.  The Frobenius bound kappa_2(G) <= ||G||_F ||L^-1||_F^2 certifies
almost every patch as full rank beyond rounding doubt, and those fits solve
the normal equations with L.  What the bound does not certify, and every fit
of a batch whose Cholesky fails, takes a batched SVD with the rank rule of
lstsq(rcond=1e-8).  Cell Hessians are gradients of the recovered nodal
gradient, symmetrized.
"""

from __future__ import annotations

import logging
import math

import numpy as np
import scipy.sparse as sp

from hklab.errors import SolverError

logger = logging.getLogger("hklab.fem")

_DEGENERATE_REL = 1e-12
_RECOVERY_BLOCK = 2048  # vertices whose patches are built and fitted together
_RANK_RCOND = 1e-8  # a fit is full rank when s_min > _RANK_RCOND * s_max
_GRAM_SAFE = 1e-4  # s_min / s_max that the Cholesky bound certifies as full rank


def p1_gradients(vertices: np.ndarray, cells: np.ndarray):
    """Per-cell P1 basis gradients (nc, d+1, d) and signed volumes (nc,)."""
    d = vertices.shape[1]
    edges = vertices[cells[:, 1:]] - vertices[cells[:, :1]]  # (nc, d, d), rows are edges
    vols = np.linalg.det(edges) / math.factorial(d)
    scale = np.abs(vols).max() if len(vols) else 1.0
    good = np.abs(vols) > _DEGENERATE_REL * scale
    inv = np.zeros_like(edges)
    inv[good] = np.linalg.inv(edges[good])
    grads = np.empty((len(cells), d + 1, d))
    grads[:, 1:, :] = inv.transpose(0, 2, 1)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, vols, good


def assemble_stiffness(grads, vols, cells, nv) -> sp.csr_matrix:
    nc, m, _ = grads.shape
    local = np.einsum("cik,cjk->cij", grads, grads) * vols[:, None, None]
    ii = np.repeat(cells, m, axis=1).reshape(nc, m, m)
    jj = np.tile(cells[:, None, :], (1, m, 1))
    mat = sp.coo_matrix((local.ravel(), (ii.ravel(), jj.ravel())), shape=(nv, nv))
    return mat.tocsr()


def assemble_boundary_mass(facets, areas, nv) -> sp.csr_matrix:
    """Consistent mass matrix of the trace space on the given facets."""
    if len(facets) == 0:
        return sp.csr_matrix((nv, nv))
    m = facets.shape[1]
    base = (np.ones((m, m)) + np.eye(m)) / (m * (m + 1))
    local = areas[:, None, None] * base[None, :, :]
    ii = np.repeat(facets, m, axis=1).reshape(len(facets), m, m)
    jj = np.tile(facets[:, None, :], (1, m, 1))
    mat = sp.coo_matrix((local.ravel(), (ii.ravel(), jj.ravel())), shape=(nv, nv))
    return mat.tocsr()


def load_volume(cells, vols, rhs_vertex, nv) -> np.ndarray:
    """Consistent load vector of a P1 right-hand side."""
    m = cells.shape[1]
    h = rhs_vertex[cells]  # (nc, m)
    total = h.sum(axis=1)
    b = np.zeros(nv)
    for k in range(m):
        np.add.at(b, cells[:, k], vols * (total + h[:, k]) / (m * (m + 1)))
    return b


def load_facets(facets, areas, values, nv) -> np.ndarray:
    """Load vector of per-facet constant flux data."""
    b = np.zeros(nv)
    if len(facets) == 0:
        return b
    m = facets.shape[1]
    for k in range(m):
        np.add.at(b, facets[:, k], areas * values / m)
    return b


def pcg(a: sp.csr_matrix, b: np.ndarray, tol: float, max_iter: int):
    """Jacobi-preconditioned conjugate gradients; deterministic, SPD-checked."""
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolverError("system diagonal is not positive; matrix cannot be SPD")
    minv = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, 0.0
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    res = b_norm
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError("conjugate gradients met a nonpositive curvature direction")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm:
            return x, it, res / b_norm
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"conjugate gradients did not reach tol {tol:g} in {max_iter} iterations "
        f"(relative residual {res / b_norm:.3e})"
    )


def cell_gradients_of(f: np.ndarray, grads: np.ndarray, cells: np.ndarray) -> np.ndarray:
    return np.einsum("cm,cmd->cd", f[cells], grads)


def vertex_adjacency(cells: np.ndarray, nv: int) -> sp.csr_matrix:
    """Vertex adjacency with self loops: the sparsity pattern of C^T C.

    C is the (nc, nv) cell-vertex incidence matrix, built straight from the
    cell array, so no list of all vertex pairs is ever materialised.  Entries
    count the cells two vertices share; only the pattern is meaningful.
    Column indices are sorted.
    """
    nc, m = cells.shape
    incidence = sp.csr_matrix(
        (np.ones(nc * m, dtype=np.float32), cells.ravel(), np.arange(0, nc * m + 1, m)),
        shape=(nc, nv),
    )
    adj = (incidence.T @ incidence).tocsr()
    adj.sort_indices()
    return adj


def _quadratic_monomials(offsets: np.ndarray) -> np.ndarray:
    """Transposed quadratic design: monomials [1, x_i, x_i x_j (i <= j)] by point.

    offsets is (k, m, d); the result is (k, 1 + d + d(d+1)/2, m), so that
    row r of patch k holds monomial r at each of its m points.
    """
    d = offsets.shape[-1]
    rows = [np.ones(offsets.shape[:-1])]
    rows.extend(offsets[..., i] for i in range(d))
    for i in range(d):
        for j in range(i, d):
            rows.append(offsets[..., i] * offsets[..., j])
    return np.stack(rows, axis=1)


def _whitened_offsets(vertices: np.ndarray, centers: np.ndarray, ids: np.ndarray):
    """Patch offsets whitened by their covariance, for k patches of m vertices.

    Returns the whitened offsets (k, m, d), the whiteners (k, d, d) and a mask
    of the patches whose covariance is nonzero; the other rows are zero.
    """
    offsets = vertices[ids] - vertices[centers][:, None, :]
    cov = np.matmul(offsets.transpose(0, 2, 1), offsets) / ids.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    ok = evals[:, -1] > 0
    evals = np.maximum(evals[ok], 1e-12 * evals[ok, -1:])
    whitener = np.zeros_like(cov)
    scaled = evecs[ok] / np.sqrt(evals)[:, None, :]
    whitener[ok] = np.matmul(scaled, evecs[ok].transpose(0, 2, 1))
    return np.matmul(offsets, whitener), whitener, ok


def _full_rank_lstsq(design_t: np.ndarray, values: np.ndarray):
    """Batched least squares that keeps only full-rank fits.

    design_t is the transposed design (k, p, m) with m >= p, and values is
    (k, m).  A fit is full rank when its smallest singular value exceeds
    _RANK_RCOND times its largest, the rule of lstsq(rcond=_RANK_RCOND).

    One batched Cholesky G = L L^T of the Gram matrices G = A^T A, and L^-1
    by forward substitution, bound the condition number from above:
    kappa_2(G) <= ||G||_F ||G^-1||_F <= ||G||_F ||L^-1||_F^2.  A fit whose
    bound stays below _GRAM_SAFE**-2 has s_min / s_max > _GRAM_SAFE, so it is
    full rank beyond rounding doubt and takes coef = L^-T (L^-1 A^T values).
    The fits the bound does not certify, and the whole batch when Cholesky
    fails, take a batched SVD with the lstsq rule.  Returns coefficients
    (k, p) and the full-rank mask.
    """
    k, p, _ = design_t.shape
    gram = np.matmul(design_t, design_t.transpose(0, 2, 1))
    rhs = np.matmul(design_t, values[:, :, None])
    coef = np.zeros((k, p))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        full = np.zeros(k, dtype=bool)
    else:
        # forward substitution L X = I, one row of X = L^-1 at a time (on these
        # small batches it is faster than np.linalg.inv, which pivots an LU)
        linv = np.zeros_like(gram)
        for i in range(p):
            row = -np.matmul(chol[:, i : i + 1, :i], linv[:, :i, : i + 1])[:, 0]
            row[:, i] += 1.0
            linv[:, i, : i + 1] = row / chol[:, i, i : i + 1]
        bound = np.sqrt(np.sum(gram**2, axis=(1, 2))) * np.sum(linv**2, axis=(1, 2))
        full = bound < _GRAM_SAFE**-2
        lf = linv[full]
        coef[full] = np.matmul(lf.transpose(0, 2, 1), np.matmul(lf, rhs[full]))[:, :, 0]
    rest = np.flatnonzero(~full)
    if len(rest):
        u, s, vt = np.linalg.svd(design_t[rest].transpose(0, 2, 1), full_matrices=False)
        keep = s[:, -1] > _RANK_RCOND * s[:, 0]
        ut_f = np.einsum("kmp,km->kp", u[keep], values[rest[keep]]) / s[keep]
        coef[rest[keep]] = np.einsum("kqp,kq->kp", vt[keep], ut_f)
        full[rest[keep]] = True
    return coef, full


def _fit_quadratic_patches(vertices, f, centers, ids):
    """Whitened quadratic fits on k patches of m vertices each.

    Returns the gradients at the centers (k, d) and a mask of the patches
    whose fit is full rank; the other rows are zero.
    """
    d = vertices.shape[1]
    xi, whitener, ok = _whitened_offsets(vertices, centers, ids)
    rows = np.flatnonzero(ok)
    coef, full = _full_rank_lstsq(_quadratic_monomials(xi[rows]), f[ids[rows]])
    rows = rows[full]
    grads = np.zeros((len(centers), d))
    grads[rows] = np.einsum("kab,kb->ka", whitener[rows], coef[full, 1 : 1 + d])
    fitted = np.zeros(len(centers), dtype=bool)
    fitted[rows] = True
    return grads, fitted


def _linear_fallback(vertices, f, v, ids):
    """Whitened linear fit on one patch; None when its covariance vanishes."""
    xi, whitener, ok = _whitened_offsets(vertices, np.array([v]), ids[None, :])
    if not ok[0]:
        return None
    design = np.column_stack([np.ones(len(ids)), xi[0]])
    coef, *_ = np.linalg.lstsq(design, f[ids], rcond=None)
    return whitener[0] @ coef[1:]


def recover_nodal_gradients(
    vertices: np.ndarray,
    cells: np.ndarray,
    f: np.ndarray,
    good: np.ndarray,
) -> np.ndarray:
    """Nodal gradients from a quadratic least-squares fit of the vertex values.

    Each vertex fits a full quadratic over its sorted 2-hop patch, grown to 3
    and then 4 hops when the patch is too small or the fit rank-deficient.
    Offsets are whitened by the patch covariance before fitting, so graded
    anisotropic patches stay well conditioned; the recovered gradient is exact
    for quadratic fields on any mesh, one-sided boundary patches included.  A
    vertex whose 4-hop patch still supports no full quadratic takes a whitened
    linear fit on that patch.

    Vertices are processed in blocks of _RECOVERY_BLOCK: the block's patches
    are rows of sparse adjacency products, and patches of equal size are
    fitted together as stacked batches.
    """
    nv, d = vertices.shape
    adj = vertex_adjacency(cells[good] if not np.all(good) else cells, nv)
    n_param = 1 + d + d * (d + 1) // 2
    nodal = np.zeros((nv, d))
    fallback = 0
    for start in range(0, nv, _RECOVERY_BLOCK):
        rows = np.arange(start, min(start + _RECOVERY_BLOCK, nv))
        patches = adj[rows] @ adj
        for hop in range(2, 5):
            if hop > 2:
                patches = patches @ adj
            patches.sort_indices()
            sizes = np.diff(patches.indptr)
            # a patch of n_param points or fewer is grown without a fit; the
            # last hop fits every patch that can hold a full quadratic
            tried = sizes > n_param if hop < 4 else sizes >= n_param
            done = np.zeros(len(rows), dtype=bool)
            for m in np.unique(sizes[tried]):
                sel = np.flatnonzero(tried & (sizes == m))
                ids = patches.indices[patches.indptr[sel][:, None] + np.arange(m)]
                grads, ok = _fit_quadratic_patches(vertices, f, rows[sel], ids)
                nodal[rows[sel[ok]]] = grads[ok]
                done[sel[ok]] = True
            rows = rows[~done]
            if len(rows) == 0:
                break
            patches = patches[~done]
        else:
            # no patch up to 4 hops held a full-rank quadratic
            for v, lo, hi in zip(rows, patches.indptr[:-1], patches.indptr[1:]):
                if lo == hi:
                    continue  # a vertex in no nondegenerate cell keeps a zero gradient
                grad = _linear_fallback(vertices, f, v, patches.indices[lo:hi])
                if grad is not None:
                    nodal[v] = grad
                    fallback += 1
    logger.info("recovery: %d of %d vertices fell back to a linear fit", fallback, nv)
    return nodal


def cell_hessians_of(
    nodal_grads: np.ndarray, grads: np.ndarray, cells: np.ndarray, good: np.ndarray
) -> np.ndarray:
    """Symmetrized per-cell gradient of the recovered nodal gradient field."""
    hess = np.matmul(nodal_grads[cells].transpose(0, 2, 1), grads)
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    hess[~good] = 0.0
    return hess
