"""P1 simplicial finite element kernels.

Cell kernels run on fixed chunks of meshutil.CELL_BLOCK cells from start to
finish, and the solve path builds no whole-mesh cell intermediate: a
chunk's P1 gradients, local matrices, slot positions and products live only
while it is summed or written into the result.  P1 gradients are the
cofactors of each cell's edge matrix (cross products for tets) over its
determinant, meshutil.edge_determinant, which also gives the mesh's cell
volumes; they are formed coordinate-major, and degenerate cells take the
mesh-wide `nondegenerate` mask of the cell volumes, never a per-chunk scale.
Local stiffness entries are sums of contiguous row products; cell gradients
and Hessians are per-cell einsum and matmul products, whose bits do not
depend on the chunk a cell falls in.  Only `p1_gradients` returns the
gradients of the whole mesh.

Assembly scatters local matrices into the mesh's vertex graph
(DomainMesh.graph, the pattern `vertex_adjacency` builds): a search within
each row places every local entry, and each chunk's bincount leads with the
running sums of the entries it touches, then adds its entries in simplex
order.  So every entry sums its terms in simplex order for any chunk length,
stiffness and boundary-mass matrices come out symmetric to the bit, and
repeated runs are reproducible.

Linear systems are solved by preconditioned conjugate gradients (`pcg`).
Planar systems take `two_level`: a damped Jacobi smoother on either side of a
correction from piecewise-constant aggregates of about 10 vertices, whose
coarse matrix is factored once by SuperLU.  Jacobi alone needs O(1/h)
iterations there (about 930 on the half-ball at 512, 1055 on its graded
mesh); the two-level method needs 28-49 on uniform meshes and 95 on the
graded one.
Solid systems that come from the revolve take `circulant`, the exact inverse
of the rotation average of the matrix over the k azimuthal shifts of its
rings.  The mesh is symmetric under the shift except at the one wedge where
the sweep wraps, so the average is close to the matrix and is SPD (a mean of
SPD conjugates); a discrete Fourier transform over the rings splits it
into one banded (rho, z) system per azimuthal mode, and all modes are
factored at once.  At resolution 24 (2 vCPU, one BLAS thread) CG then takes
7-10 iterations against Jacobi's 524-572, and the solve (assembly included)
falls from about 0.33-0.39 s to 0.20-0.23 s: the set-up costs 35-45 ms and
one apply 2-3 ms.  A solid without rings
(one read from a file) keeps Jacobi.  No generic coarse space measured on
the n = 2 meshes paid for itself: unfiltered aggregates cut the iterations
at 24 from about 540 to 320 but doubled the solve time, strength-filtered
ones (theta = 0.05) cut them to 35 but their coarse LU of 5-6k unknowns took
2.4 s, and a SuperLU solve of the whole system was 7x slower.  Symmetric
Gauss-Seidel through triangular solves lost too: on the n = 2 meshes at 24
(23,850 unknowns) it took 209 iterations in 0.27-0.29 s against Jacobi's
524 in 0.18-0.19 s, SSOR at omega 1.3-1.85 took 133-169 iterations in
0.19-0.22 s, and one triangular solve (scipy's spsolve_triangular) cost 4.4
ms against 0.22-0.33 ms for a product with the matrix.  The mode systems are
factored with numpy alone: SuperLU on every mode raised the benchmark's peak
RSS to 142-146 MB, and importing scipy.linalg costs 3-8 MB more.

Derivative recovery fits a full quadratic to the vertex values over each
vertex's 2-hop patch (grown to 3 and 4 hops where needed), with offsets
divided by the patch's RMS radius, in the manner of Zienkiewicz-Zhu patch
recovery.  The fit is invariant under a linear change of coordinates, so the
scale only conditions it.  It is exact for quadratic fields, including
one-sided boundary patches.  Patches are rows of products of the mesh's
vertex graph, and vertices are taken in fixed blocks.  Recovery may fit only
some vertices (`at`); a fit reads only its own patch, so their gradients
equal a full recovery's bit for bit.

At each hop, the Gram matrices of a block's patches of every size are
stacked, in batches of at most _FIT_POINTS patch points, and each stack
takes one Cholesky factorization G = L L^T, written out in coordinate-major
layout (p, p, K) so that each step is one elementwise operation over the
whole stack (a stack holds hundreds to about 2,000 fits; on batches of
about 100 patches, LAPACK's batched Cholesky is the faster one).  The cap
bounds the designs and Gram matrices held at once: one stack per block and
hop peaked 26.4 MB above the live data on the half-ball n = 2 mesh at 24,
capped stacks 10.2 MB.  The
Frobenius bound kappa_2(G) <= ||G||_F ||L^-1||_F^2 certifies almost every
patch as full rank beyond rounding doubt, and those fits solve the normal
equations with L.  A fit with a pivot that is not positive, or that the bound
does not certify, takes a batched SVD with the rank rule of
lstsq(rcond=1e-8); the rest of its stack does not.  Cell Hessians are
gradients of the recovered nodal gradient, symmetrized.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING

import numpy as np

from hklab.errors import HkLabError, SolverError
from hklab.meshutil import CELL_BLOCK, edge_determinant

if TYPE_CHECKING:
    from collections.abc import Callable

    import scipy.sparse as sp

logger = logging.getLogger("hklab.fem")

_DEGENERATE_REL = 1e-12
_RECOVERY_BLOCK = 2048  # vertices whose patches are built together
_FIT_POINTS = 2**15  # patch points that one _fit_quadratic_patches call fits at most
_RANK_RCOND = 1e-8  # a fit is full rank when s_min > _RANK_RCOND * s_max
_GRAM_SAFE = 1e-4  # s_min / s_max that the Cholesky bound certifies as full rank
_HASH = 2654435761  # odd, so i -> i * _HASH mod 2^32 is one-to-one (root order)


def _cofactor_rows(edges: np.ndarray):
    """All cofactor rows and the determinants of edges given as
    meshutil.edge_determinant takes them: rows[b][c] is coordinate c of the
    cofactor row of edge b + 1 (e2 x e3, e3 x e1, e1 x e2 for tets)."""
    first, det = edge_determinant(edges)
    if len(edges) == 3:
        (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = edges
        return (first,
                (y3 * z1 - z3 * y1, z3 * x1 - x3 * z1, x3 * y1 - y3 * x1),
                (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)), det
    (x1, _), (y1, _) = edges
    return (first, (-y1, x1)), det


def _chunk_gradients(coords: np.ndarray, cells: np.ndarray):
    """Coordinate-major P1 gradients of one chunk of cells, and their determinants.

    coords is (d, nv); the gradients g (d + 1, d, k) hold at [b, c] coordinate
    c of the gradient of basis function b.  That of b >= 1 is cofactor row b
    over the determinant, and basis function 0 takes minus their sum.  A
    degenerate cell may divide by (nearly) zero here; the callers zero it.
    """
    m, d = cells.shape[1], len(coords)
    p = coords.take(cells.T, axis=1)
    rows, det = _cofactor_rows(p[:, 1:] - p[:, :1])
    g = np.empty((m, d, len(cells)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in range(d):
            for c in range(d):
                np.divide(rows[b][c], det, out=g[b + 1, c])
        np.negative(sum(g[2:], g[1]), out=g[0])
    return g, det


def _blocks(n: int):
    """Slices of consecutive chunks of CELL_BLOCK rows out of n."""
    return (slice(start, start + CELL_BLOCK) for start in range(0, n, CELL_BLOCK))


def _gradient_blocks(vertices: np.ndarray, cells: np.ndarray, good: np.ndarray):
    """(chunk, P1 gradients (d + 1, d, k) as _chunk_gradients gives them) for each
    chunk of cells; the cells outside `good`, the mesh-wide `nondegenerate`
    mask, get zero gradients."""
    coords = np.ascontiguousarray(vertices.T)
    for block in _blocks(len(cells)):
        g = _chunk_gradients(coords, cells[block])[0]
        g[..., ~good[block]] = 0.0
        yield block, g


def _cell_major(g: np.ndarray) -> np.ndarray:
    """Chunk gradients (d + 1, d, k) laid out cell by cell, (k, d + 1, d)."""
    return np.ascontiguousarray(g.transpose(2, 0, 1))


def p1_gradients(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per-cell P1 basis gradients (nc, d+1, d) of the whole mesh.

    Degenerate cells (`nondegenerate` of the determinants over d!, the mesh's
    cell volumes) get zero rows.  The solve path never builds this array: its
    kernels take their gradients chunk by chunk (`_gradient_blocks`).
    """
    nc, d = len(cells), vertices.shape[1]
    coords = np.ascontiguousarray(vertices.T)
    grads = np.empty((nc, d + 1, d))
    dets = np.empty(nc)
    for block in _blocks(nc):
        g, dets[block] = _chunk_gradients(coords, cells[block])
        grads[block] = g.transpose(2, 0, 1)
    grads[~nondegenerate(dets / math.factorial(d))] = 0.0
    return grads


def nondegenerate(vols: np.ndarray) -> np.ndarray:
    """Mask of the cells whose |volume| exceeds _DEGENERATE_REL times the largest."""
    scale = np.abs(vols).max() if len(vols) else 1.0
    return np.abs(vols) > _DEGENERATE_REL * scale


def _scatter(pattern: sp.csr_matrix, simplices: np.ndarray, blocks) -> sp.csr_matrix:
    """The sum of local matrices on pattern's CSR pattern, chunk by chunk.

    blocks yields (chunk, local matrices (k, m, m) of simplices[chunk]) for
    consecutive chunks.  A copy of the pattern storing 1..nnz gives each
    local entry its position by scipy's in-row binary search, and 0 to a pair
    off the pattern (HkLabError).  One np.bincount per chunk sums the running
    sums of the entries the chunk touches, then its terms in simplex order, so
    every entry adds all its terms in simplex order whatever the chunk length,
    and an entry and its transpose sum the same terms in the same order.
    """
    import scipy.sparse as sp

    m = simplices.shape[1]
    slots = sp.csr_array((np.arange(1, pattern.nnz + 1), pattern.indices, pattern.indptr),
                         shape=pattern.shape)
    data = np.zeros(pattern.nnz + 1)
    hit = np.zeros(pattern.nnz + 1, dtype=bool)
    for block, local in blocks:
        ends = simplices[block]
        pos = slots[np.repeat(ends, m, axis=1).ravel(), np.tile(ends, m).ravel()]
        if not pos.all():
            raise HkLabError("a simplex joins vertices that share no cell of the mesh")
        hit[:] = False
        hit[pos] = True
        touched = np.flatnonzero(hit)
        sums = np.bincount(np.concatenate([touched, pos]),
                           weights=np.concatenate([data[touched], local.ravel()]))
        data[touched] = sums[touched]
    # the matrix owns its index arrays, so no in-place edit of it reaches the graph
    return sp.csr_matrix((data[1:], pattern.indices, pattern.indptr), shape=pattern.shape,
                         copy=True)


def _stiffness_blocks(vertices: np.ndarray, vols: np.ndarray, cells: np.ndarray):
    """(chunk, local stiffness matrices vols * grads grads^T (k, m, m)) per chunk.

    Every entry is a sum of products of contiguous gradient rows; the lower
    triangle copies the upper one, so every local matrix is symmetric to the
    bit.  The matrices are built entry-major and handed over as a transposed
    view, which the scatter copies out cell by cell.
    """
    m, d = cells.shape[1], vertices.shape[1]
    for block, g in _gradient_blocks(vertices, cells, nondegenerate(vols)):
        sym = np.empty((m, m, g.shape[2]))
        for i in range(m):
            for j in range(i, m):
                entry = sym[i, j]
                np.multiply(g[i, 0], g[j, 0], out=entry)
                for c in range(1, d):
                    entry += g[i, c] * g[j, c]
                entry *= vols[block]
                sym[j, i] = entry
        yield block, sym.transpose(2, 0, 1)


def assemble_stiffness(vertices, vols, cells, pattern) -> sp.csr_matrix:
    """Stiffness matrix of the cells on the vertex graph `pattern` (DomainMesh.graph).

    The P1 gradients, local matrices and slot positions of one chunk of
    CELL_BLOCK cells live only while that chunk is summed in.  Cells that are
    degenerate by `nondegenerate(vols)` add nothing.
    """
    return _scatter(pattern, cells, _stiffness_blocks(vertices, vols, cells))


def assemble_boundary_mass(facets, areas, pattern) -> sp.csr_matrix:
    """Consistent mass matrix of the trace space on the given facets, on the
    vertex graph `pattern`."""
    m = facets.shape[1]
    base = (np.ones((m, m)) + np.eye(m)) / (m * (m + 1))
    blocks = ((block, areas[block, None, None] * base) for block in _blocks(len(facets)))
    return _scatter(pattern, facets, blocks)


def load_volume(cells, vols, rhs_vertex, nv) -> np.ndarray:
    """Consistent load vector of a P1 right-hand side, summed into each vertex
    by local vertex, then by cell; the local loads are formed in place."""
    m = cells.shape[1]
    order = cells.T.ravel()
    local = rhs_vertex[order].reshape(m, -1)  # (m, nc): contiguous rows, one per local vertex
    local += sum(local[1:], local[0])
    local *= vols
    local /= m * (m + 1)
    return np.bincount(order, weights=local.ravel(), minlength=nv)


def load_facets(facets, areas, values, nv) -> np.ndarray:
    """Load vector of per-facet constant flux data, summed into each vertex by
    local vertex, then by facet."""
    m = facets.shape[1]
    local = np.broadcast_to(areas * values / m, (m, len(facets)))
    # np.bincount of no facets returns integer zeros
    return np.bincount(facets.T.ravel(), weights=local.ravel(), minlength=nv).astype(float)


def _positive_diagonal(a: sp.csr_matrix) -> np.ndarray:
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolverError("system diagonal is not positive; matrix cannot be SPD")
    return diag


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the stored entries of CSR rows, row after row, and each row's first."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    runs = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=runs[1:])
    return np.repeat(starts - runs, counts) + np.arange(counts.sum()), runs


def aggregates(a: sp.csr_matrix):
    """Aggregate labels (n,) of the graph of a's pattern, and the root of each.

    The roots form a maximal distance-2 independent set, picked in rounds: an
    undecided vertex becomes a root when its hash, i * _HASH mod 2^32 (odd
    multiplier, so no ties), is the largest among the undecided vertices
    within two edges, and every vertex within two edges of a new root leaves
    the undecided set.  A round reads only the rows of the undecided vertices
    and of their neighbours.  Each root then takes its closed neighbourhood
    (disjoint, since roots are 3 edges apart), and every vertex left over,
    two edges from some root, joins the largest-numbered adjacent aggregate.
    Every row must store its diagonal.
    """
    n = a.shape[0]
    indptr, indices = a.indptr, a.indices
    key = np.arange(n, dtype=np.int64) * _HASH % (1 << 32)
    undecided = np.ones(n, dtype=bool)
    best = np.empty(n, dtype=np.int64)
    found = []
    u = np.arange(n)
    while len(u):
        pos_u, runs_u = _row_entries(indptr, u)
        near = np.zeros(n, dtype=bool)
        near[indices[pos_u]] = True
        near = np.flatnonzero(near)
        pos, runs = _row_entries(indptr, near)
        cols = indices[pos]
        best[near] = np.maximum.reduceat(np.where(undecided[cols], key[cols], -1), runs)
        new = u[np.maximum.reduceat(best[indices[pos_u]], runs_u) == key[u]]
        found.append(new)
        # the new roots' neighbourhoods are disjoint, so the ring repeats no vertex
        ring = indices[_row_entries(indptr, new)[0]]
        undecided[indices[_row_entries(indptr, ring)[0]]] = False
        u = np.flatnonzero(undecided)
    roots = np.sort(np.concatenate(found))
    labels = np.full(n, -1, dtype=np.int64)
    sizes = indptr[roots + 1] - indptr[roots]
    labels[indices[_row_entries(indptr, roots)[0]]] = np.repeat(np.arange(len(roots)), sizes)
    left = np.flatnonzero(labels < 0)
    if len(left):
        pos, runs = _row_entries(indptr, left)
        labels[left] = np.maximum.reduceat(labels[indices[pos]], runs)
    return labels, roots


def two_level(a: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """Symmetric two-level preconditioner r -> x of an SPD matrix a.

    x = S r, then x += P Ac^-1 P^T (r - A x), then x += S (r - A x), with
    the damped Jacobi smoother S = omega D^-1 and P the piecewise-constant
    prolongator of `aggregates` (Vanek, Mandel & Brezina, Computing 56,
    1996).  omega = 1/rho with rho the Gershgorin bound of D^-1 A, so
    2 S^-1 - A is positive definite and the preconditioner is SPD.  The
    coarse matrix Ac = P^T A P is factored once by SuperLU with diagonal
    pivots.  The returned function carries the coarse size as `coarse_size`.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    diag = _positive_diagonal(a)
    rho = float((np.add.reduceat(np.abs(a.data), a.indptr[:-1]) / diag).max())
    smooth = 1.0 / (rho * diag)
    labels, roots = aggregates(a)
    nc = len(roots)
    rows = np.repeat(labels, np.diff(a.indptr))
    coarse = sp.coo_matrix((a.data, (rows, labels[a.indices])), shape=(nc, nc)).tocsc()
    lu = spla.splu(coarse, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})

    def apply(r: np.ndarray) -> np.ndarray:
        x = smooth * r
        x += lu.solve(np.bincount(labels, weights=r - a @ x, minlength=nc))[labels]
        x += smooth * (r - a @ x)
        return x

    apply.coarse_size = nc
    return apply


def _stencil_sums(a: sp.csr_matrix, rings: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """sums[e, p, slot]: the sum of a's stored entries from the unknowns of
    point p to those of point p - e (e >= 0) whose azimuth step is 0, +1 or
    -1 (slot 0, 1 or 2).

    Ring unknowns sit at azimuths 0 to k - 1 and axis unknowns at 2k, so a
    step to or from the axis lies outside +-(k - 1) and takes slot 0, and a
    step between rings is looked up in a table that refuses all but 0, +-1
    and the wrap +-(k - 1).  The rows are gathered for CELL_BLOCK // k whole
    points at a time, so each sum adds its terms in one bincount, in row
    order, whatever the chunk length.
    """
    (points, k), n = rings.shape, a.shape[0]
    point = np.empty(n, dtype=np.int64)
    point[rings] = np.arange(points)[:, None]
    azimuth = np.full(n, 2 * k, dtype=np.int64)
    azimuth[rings[~axis]] = np.arange(k)
    table = np.full(4 * k + 1, -1, dtype=np.int64)
    table[:k] = table[3 * k + 1:] = 0
    table[2 * k + np.array([0, 1, 1 - k, -1, k - 1])] = [0, 1, 1, 2, 2]
    own = np.ones(rings.shape, dtype=bool)
    own[axis, 1:] = False
    counts = np.diff(a.indptr)
    sums = np.zeros(0)
    for start in range(0, points, max(1, CELL_BLOCK // k)):
        chunk = slice(start, start + max(1, CELL_BLOCK // k))
        rows = rings[chunk][own[chunk]]
        at = _row_entries(a.indptr, rows)[0]
        rows = np.repeat(rows, counts[rows])
        cols = a.indices[at]
        slot = table[azimuth[cols] - azimuth[rows] + 2 * k]
        if np.any(slot < 0):
            raise SolverError("the system couples unknowns more than one azimuth apart")
        gap = point[rows] - point[cols]
        low = gap >= 0
        part = np.bincount(((gap * points + point[rows]) * 3 + slot)[low], weights=a.data[at][low])
        if len(part) > len(sums):
            sums, part = part, sums
        sums[:len(part)] += part
    width = -(-len(sums) // (3 * points))
    return np.pad(sums, (0, 3 * points * width - len(sums))).reshape(width, points, 3)


def circulant(a: sp.csr_matrix, rings: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse r -> Abar^-1 r of the rotation average of an SPD matrix a
    on the unknowns of a revolved mesh.

    Row p of rings (points, k) numbers cross-section point p at the k
    azimuths; an axis point repeats its one unknown.  With S the one-step
    azimuthal shift, Abar = (1/k) sum_s S^s a S^-s is SPD and block
    circulant, so a discrete Fourier transform over the rings splits
    Abar^-1 into one (rho, z) system per azimuthal mode (T. F. Chan, SIAM
    J. Sci. Stat. Comput. 9, 1988).  The sweep couples azimuths at most one
    step apart, so the stencil is three sums per pair of points
    (_stencil_sums).  Mode 0 is the
    Galerkin matrix of a on the shift-invariant vectors, each ring's ones
    over sqrt(k) and each axis unknown; modes 1 to k // 2 span the rings
    alone, and their axis rows are identity rows.  Every mode matrix is
    banded, its bandwidth b the largest point-number gap of the stencil, so
    in blocks of b points it is block tridiagonal, and all modes take one
    batched block Cholesky factorization.  An apply is a real DFT over the
    rings, two batched block sweeps and the inverse DFT.  The DFTs are
    products with a (2 modes, k) matrix: k is often prime (131 at
    resolution 24), where numpy's rfft of 190 rings took 0.77 ms against
    0.16 ms for the product.  The returned function carries the factored
    rows, modes times padded points, as `factored_size`.
    """
    n, k = a.shape[0], rings.shape[1]
    axis = np.all(rings == rings[:, :1], axis=1)
    ring_ids, axis_ids = rings[~axis], rings[axis, 0]
    if not np.array_equal(np.bincount(np.concatenate([ring_ids.ravel(), axis_ids]),
                                      minlength=n), np.ones(n)):
        raise SolverError("rings do not number every unknown exactly once")
    points = len(rings)
    sums = _stencil_sums(a, rings, axis)

    # diag[i] and sub[i] hold each mode's blocks (i, i) and (i + 1, i) of b points
    modes, b = k // 2 + 1, max(len(sums) - 1, 1)
    blocks = -(-points // b)
    diag = np.zeros((blocks, modes, b, b), dtype=complex)
    sub = np.zeros((blocks, modes, b, b), dtype=complex)
    phase = np.exp(2j * math.pi * np.arange(modes) / k)[:, None]
    scale = np.where(axis, 1.0, 1.0 / math.sqrt(k))
    for e, (s0, s1, s2) in enumerate(sums.transpose(0, 2, 1)):
        p = np.arange(e, points)
        q = p - e
        entry = (s0[e:] + s1[e:] * phase + s2[e:] * phase.conj()) * (scale[p] * scale[q])
        entry[1:, axis[p] | axis[q]] = 1.0 if e == 0 else 0.0
        same = p // b == q // b
        diag[p[same] // b, :, p[same] % b, q[same] % b] = entry[:, same].T
        sub[q[~same] // b, :, p[~same] % b, q[~same] % b] = entry[:, ~same].T
    pad = np.arange(points, blocks * b)
    diag[pad // b, :, pad % b, pad % b] = 1.0
    diag += np.tril(diag, -1).conj().swapaxes(-1, -2)

    # diag[i] becomes L_ii^-1 and sub[i] the factor block L_(i+1)i = sub[i] L_ii^-H
    for i in range(blocks):
        if i:
            diag[i] -= sub[i - 1] @ sub[i - 1].conj().swapaxes(-1, -2)
        try:
            diag[i] = np.linalg.inv(np.linalg.cholesky(diag[i]))
        except np.linalg.LinAlgError:
            raise SolverError("rotation average of the system is not positive definite")
        sub[i] = sub[i] @ diag[i].conj().swapaxes(-1, -2)

    # real DFT over the rings: rows cos and -sin of each mode, mode 0 over sqrt(k)
    # (the Galerkin scaling), and its inverse, the transpose weighted by
    # 2 / k for the modes that stand for a conjugate pair too
    turns = 2.0 * math.pi / k * (np.arange(modes)[:, None] * np.arange(k) % k)
    dft = np.vstack([np.cos(turns), -np.sin(turns)])
    dft[0] /= math.sqrt(k)
    weight = np.where(np.arange(modes) == 0, 1.0, 2.0 / k)
    if k % 2 == 0:
        weight[-1] = 1.0 / k
    idft = (dft * np.tile(weight, 2)[:, None]).T
    ring_rows, axis_rows = np.flatnonzero(~axis), np.flatnonzero(axis)

    def apply(r: np.ndarray) -> np.ndarray:
        spectrum = dft @ r[ring_ids.T]
        y = np.zeros((modes, blocks * b), dtype=complex)
        y[:, ring_rows] = spectrum[:modes] + 1j * spectrum[modes:]
        y[0, axis_rows] = r[axis_ids]
        y = np.ascontiguousarray(y.reshape(modes, blocks, b, 1).transpose(1, 0, 2, 3))
        for i in range(blocks):
            if i:
                y[i] -= sub[i - 1] @ y[i - 1]
            y[i] = diag[i] @ y[i]
        for i in range(blocks - 1, -1, -1):
            if i < blocks - 1:
                y[i] -= (sub[i].swapaxes(-1, -2) @ y[i + 1].conj()).conj()
            y[i] = (diag[i].swapaxes(-1, -2) @ y[i].conj()).conj()
        x = y.transpose(1, 0, 2, 3).reshape(modes, blocks * b)
        spectrum = x[:, ring_rows]
        out = np.empty(n)
        out[ring_ids.T] = idft @ np.vstack([spectrum.real, spectrum.imag])
        out[axis_ids] = x[0, axis_rows].real
        return out

    apply.factored_size = modes * blocks * b
    return apply


def pcg(
    a: sp.csr_matrix,
    b: np.ndarray,
    tol: float,
    max_iter: int,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Preconditioned conjugate gradients: (x, iterations, relative residual).

    precondition maps a residual r to M r for an SPD M, such as
    `two_level(a)`; None means Jacobi, M = diag(a)^-1.  Iteration stops when
    |r| <= tol |b|.  Deterministic; raises SolverError when diag(a) is not
    positive, when a direction has nonpositive curvature (a is not SPD), when
    r.M r is not positive and finite (M is not SPD), or after max_iter steps.
    """
    diag = _positive_diagonal(a)
    if precondition is None:
        minv = 1.0 / diag

        def precondition(r):
            return minv * r

    x = np.zeros_like(b)
    r = b.copy()
    b_norm = math.sqrt(b @ b)
    if b_norm == 0.0:
        return x, 0, 0.0
    z = precondition(r)
    rz = _preconditioned_norm2(r, z)
    p = z.copy()
    step = np.empty_like(b)
    res = b_norm
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError("conjugate gradients met a nonpositive curvature direction")
        alpha = rz / pap
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(ap, alpha, out=step)
        r -= step
        res = math.sqrt(r @ r)
        if res <= tol * b_norm:
            return x, it, res / b_norm
        z = precondition(r)
        rz_new = _preconditioned_norm2(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"conjugate gradients did not reach tol {tol:g} in {max_iter} iterations "
        f"(relative residual {res / b_norm:.3e})"
    )


def _preconditioned_norm2(r: np.ndarray, z: np.ndarray) -> float:
    rz = float(r @ z)
    if not (math.isfinite(rz) and rz > 0.0):
        raise SolverError(f"preconditioner is not positive definite (r.Mr = {rz:g})")
    return rz


def cell_gradients_of(f: np.ndarray, vertices: np.ndarray, cells: np.ndarray,
                      good: np.ndarray) -> np.ndarray:
    """Per-cell P1 gradients (nc, d) of the vertex values f, chunk by chunk;
    zero on the cells outside good."""
    grads = np.empty((len(cells), vertices.shape[1]))
    for block, g in _gradient_blocks(vertices, cells, good):
        grads[block] = np.einsum("cm,cmd->cd", f[cells[block]], _cell_major(g))
    return grads


def vertex_adjacency(cells: np.ndarray, nv: int) -> sp.csr_matrix:
    """Vertex adjacency with self loops: the sparsity pattern of C^T C.

    C is the (nc, nv) cell-vertex incidence matrix, built straight from the
    cell array, so no list of all vertex pairs is ever materialised.  Entries
    count the cells two vertices share; only the pattern is meaningful.
    Column indices are sorted.
    """
    import scipy.sparse as sp

    nc, m = cells.shape
    incidence = sp.csr_matrix(
        (np.ones(nc * m, dtype=np.float32), cells.ravel(), np.arange(0, nc * m + 1, m)),
        shape=(nc, nv),
    )
    adj = (incidence.T @ incidence).tocsr()
    adj.sort_indices()
    return adj


def _quadratic_monomials(xi: np.ndarray) -> np.ndarray:
    """Transposed quadratic design: monomials [1, x_i, x_i x_j (i <= j)] by point.

    xi is coordinate-major (d, k, m); the result is (k, 1 + d + d(d+1)/2, m),
    so that row r of patch k holds monomial r at each of its m points.
    """
    d, k, m = xi.shape
    design = np.empty((k, 1 + d + d * (d + 1) // 2, m))
    design[:, 0] = 1.0
    for i in range(d):
        design[:, 1 + i] = xi[i]
    r = 1 + d
    for i in range(d):
        for j in range(i, d):
            np.multiply(xi[i], xi[j], out=design[:, r])
            r += 1
    return design


def _scaled_offsets(coords: np.ndarray, centers: np.ndarray, ids: np.ndarray):
    """Patch offsets divided by their RMS radius, for k patches of m vertices.

    coords is coordinate-major (d, nv).  Returns the scaled offsets (d, k, m)
    and the inverse scales (k,); a patch whose offsets all vanish has inverse
    scale 0 and zero offsets.
    """
    offsets = coords.take(ids, axis=1)
    offsets -= coords.take(centers, axis=1)[:, :, None]
    radius = np.sqrt(sum(x * x for x in offsets).sum(axis=1) / ids.shape[1])
    inv_scale = np.divide(1.0, radius, out=np.zeros_like(radius), where=radius > 0)
    offsets *= inv_scale[:, None]
    return offsets, inv_scale


def _certified_cholesky(gram: np.ndarray, rhs: np.ndarray):
    """Normal-equation solves of the fits that the Cholesky bound certifies.

    gram (K, p, p) and rhs (K, p) are stacked Gram matrices G = A^T A and
    right-hand sides A^T values.  G = L L^T and L^-1 are formed for all K at
    once in coordinate-major layout (p, p, K), column by column with
    elementwise updates, and every sum runs in a fixed order, so a fit's
    result does not depend on the other fits of the stack.  Only the lower
    triangle of chol is updated and read.  A pivot that is
    not positive and finite marks its own fit as uncertified.  The bound
    kappa_2(G) <= ||G||_F ||G^-1||_F <= ||G||_F ||L^-1||_F^2 certifies a fit
    when it stays below _GRAM_SAFE**-2: then s_min / s_max > _GRAM_SAFE, the
    fit is full rank beyond rounding doubt, and it takes coef = L^-T (L^-1
    rhs).  Returns coefficients (K, p), zero where uncertified, and the
    certified mask.
    """
    k, p, _ = gram.shape
    g = np.ascontiguousarray(gram.transpose(1, 2, 0))
    chol = g.copy()  # its lower triangle becomes L
    linv = np.zeros_like(g)
    ok = np.ones(k, dtype=bool)
    # an uncertified fit continues with pivot 1; its values are discarded
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for j in range(p):
            pivot = chol[j, j]
            ok &= (pivot > 0.0) & (pivot < math.inf)
            chol[j:, j] /= np.sqrt(np.where(ok, pivot, 1.0))
            for i in range(j + 1, p):  # the lower triangle of the trailing block, row by row
                chol[i, j + 1 : i + 1] -= chol[i, j] * chol[j + 1 : i + 1, j]
        for j in range(p):  # forward substitution L X = I, one column of L at a time
            linv[j, j] += 1.0
            linv[j, : j + 1] /= chol[j, j]
            linv[j + 1 :, : j + 1] -= chol[j + 1 :, j, None] * linv[j, : j + 1]
        g_frob2 = sum(x * x for x in g.reshape(p * p, k))
        linv_frob2 = sum(linv[i, j] ** 2 for i in range(p) for j in range(i + 1))
        full = ok & (np.sqrt(g_frob2) * linv_frob2 < _GRAM_SAFE**-2)
        y = sum(linv[:, j] * rhs[:, j] for j in range(p))
        coef = sum(linv[i] * y[i] for i in range(p)).T
    coef[~full] = 0.0
    return coef, full


def _svd_lstsq(design_t: np.ndarray, values: np.ndarray):
    """Batched SVD least squares with the rank rule of lstsq(rcond=_RANK_RCOND).

    Returns coefficients (k, p), zero for rank-deficient fits, and the
    full-rank mask.
    """
    k, p, _ = design_t.shape
    u, s, vt = np.linalg.svd(design_t.transpose(0, 2, 1), full_matrices=False)
    full = s[:, -1] > _RANK_RCOND * s[:, 0]
    coef = np.zeros((k, p))
    ut_f = np.einsum("kmp,km->kp", u[full], values[full]) / s[full]
    coef[full] = np.einsum("kqp,kq->kp", vt[full], ut_f)
    return coef, full


def _quadratic_system(coords, f, centers, ids):
    """Scaled quadratic design (k, p, m), values (k, m) and inverse scales (k,)
    of k patches of m vertices; a patch whose offsets all vanish has a design
    of rank 1."""
    xi, inv_scale = _scaled_offsets(coords, centers, ids)
    return _quadratic_monomials(xi), f[ids], inv_scale


def _fit_quadratic_patches(coords, f, groups):
    """Scaled quadratic fits of groups of patches, one group per patch size.

    groups holds (centers (k_i,), ids (k_i, m_i)).  The Gram matrices and
    right-hand sides of all groups take one stacked `_certified_cholesky`.
    A fit it does not certify has its design built again and takes
    `_svd_lstsq`, so no design outlives its group's Gram matrices.  A fit is
    full rank when its smallest singular value exceeds _RANK_RCOND times its
    largest, the rule of lstsq(rcond=_RANK_RCOND).  Returns the gradients at
    the centers (sum k_i, d) in group order, zero where rank-deficient, the
    full-rank mask and the number of fits that the SVD solved.
    """
    d = len(coords)
    grams, rhs, scales = [], [], []
    for centers, ids in groups:
        design, values, inv_scale = _quadratic_system(coords, f, centers, ids)
        grams.append(np.matmul(design, design.transpose(0, 2, 1)))
        rhs.append(np.matmul(design, values[:, :, None])[:, :, 0])
        scales.append(inv_scale)
    coef, full = _certified_cholesky(np.concatenate(grams), np.concatenate(rhs))
    by_svd = 0
    start = 0
    for centers, ids in groups:
        rest = np.flatnonzero(~full[start : start + len(ids)])
        if len(rest):
            design, values, _ = _quadratic_system(coords, f, centers[rest], ids[rest])
            coef[start + rest], full[start + rest] = _svd_lstsq(design, values)
            by_svd += int(full[start + rest].sum())
        start += len(ids)
    return coef[:, 1 : 1 + d] * np.concatenate(scales)[:, None], full, by_svd


def _fit_batches(groups):
    """The groups (centers, ids) cut, in order, into batches of at most
    _FIT_POINTS patch points; a patch of more points is a batch of its own."""
    batch, points = [], 0
    for centers, ids in groups:
        k, m = ids.shape
        step = max(1, _FIT_POINTS // m)
        for lo in range(0, k, step):
            n = min(step, k - lo) * m
            if batch and points + n > _FIT_POINTS:
                yield batch
                batch, points = [], 0
            batch.append((centers[lo : lo + step], ids[lo : lo + step]))
            points += n
    if batch:
        yield batch


def _linear_fallback(coords, f, v, ids):
    """Linear fit on one patch, offsets scaled as for the quadratic fits;
    None when the patch's offsets all vanish."""
    xi, inv_scale = _scaled_offsets(coords, np.array([v]), ids[None, :])
    if not inv_scale[0]:
        return None
    design = np.column_stack([np.ones(len(ids)), xi[:, 0].T])
    coef, *_ = np.linalg.lstsq(design, f[ids], rcond=None)
    return coef[1:] * inv_scale[0]


def recover_nodal_gradients(
    vertices: np.ndarray,
    graph: sp.csr_matrix,
    f: np.ndarray,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """Nodal gradients from a quadratic least-squares fit of the vertex values.

    Each vertex fits a full quadratic over its sorted 2-hop patch, grown to 3
    and then 4 hops when the patch is too small or the fit rank-deficient.
    Offsets are divided by the patch's RMS radius before fitting, so patches
    of any mesh size are equally well conditioned; the fit does not depend on
    the scale, and the recovered gradient is exact for quadratic fields on any
    mesh, one-sided boundary patches included.  A vertex whose 4-hop patch
    still supports no full quadratic takes a linear fit on that patch, scaled
    the same way.

    at, when given, lists the vertices to fit, and the result holds their
    rows (len(at), d) in that order; None fits every vertex.  A fit reads only
    its own patch, so these rows equal those of a full recovery bit for bit.

    Vertices are processed in blocks of _RECOVERY_BLOCK: the block's patches
    are rows of products of the mesh's vertex graph (DomainMesh.graph), and at
    each hop the patches of every size are fitted by `_fit_quadratic_patches`
    calls of at most _FIT_POINTS patch points each, which bounds the designs
    and Gram matrices held at once.
    """
    nv, d = vertices.shape
    at = np.arange(nv) if at is None else np.asarray(at, dtype=np.int64)
    coords = np.ascontiguousarray(vertices.T)
    n_param = 1 + d + d * (d + 1) // 2
    nodal = np.zeros((len(at), d))
    by_svd = fallback = 0
    for start in range(0, len(at), _RECOVERY_BLOCK):
        rows = np.arange(start, min(start + _RECOVERY_BLOCK, len(at)))  # rows of the result
        patches = graph[at[rows]] @ graph
        for hop in range(2, 5):
            if hop > 2:
                patches = patches @ graph
            patches.sort_indices()
            sizes = np.diff(patches.indptr)
            # a patch of n_param points or fewer is grown without a fit; the
            # last hop fits every patch that can hold a full quadratic
            tried = sizes > n_param if hop < 4 else sizes >= n_param
            sels, groups = [], []
            for m in np.unique(sizes[tried]):
                sel = np.flatnonzero(tried & (sizes == m))
                ids = patches.indices[patches.indptr[sel][:, None] + np.arange(m)]
                sels.append(sel)
                groups.append((at[rows[sel]], ids))
            done = np.zeros(len(rows), dtype=bool)
            if groups:
                sel = np.concatenate(sels)
                grads, full, svd_fits = zip(*(_fit_quadratic_patches(coords, f, batch)
                                              for batch in _fit_batches(groups)))
                grads, full = np.concatenate(grads), np.concatenate(full)
                nodal[rows[sel[full]]] = grads[full]
                done[sel[full]] = True
                by_svd += sum(svd_fits)
            rows = rows[~done]
            if len(rows) == 0:
                break
            patches = patches[~done]
        else:
            # no patch up to 4 hops held a full-rank quadratic
            for r, lo, hi in zip(rows, patches.indptr[:-1], patches.indptr[1:]):
                if lo == hi:
                    continue  # a vertex in no nondegenerate cell keeps a zero gradient
                grad = _linear_fallback(coords, f, at[r], patches.indices[lo:hi])
                if grad is not None:
                    nodal[r] = grad
                    fallback += 1
    logger.info("recovery: %s of %s vertices, %s by SVD, %s linear",
                *(f"{n:,}" for n in (len(at), nv, by_svd, fallback)))
    return nodal


def cell_hessians_of(nodal_grads: np.ndarray, vertices: np.ndarray, cells: np.ndarray,
                     good: np.ndarray) -> np.ndarray:
    """Symmetrized per-cell gradient of the recovered nodal gradient field
    (nc, d, d), chunk by chunk; zero on the cells outside good.  Each chunk's
    products are batched matmuls, one small product per cell, so a cell's
    Hessian does not depend on the chunk it falls in."""
    hess = np.empty((len(cells), vertices.shape[1], vertices.shape[1]))
    for block, g in _gradient_blocks(vertices, cells, good):
        h = np.matmul(nodal_grads[cells[block]].transpose(0, 2, 1), _cell_major(g))
        h += h.transpose(0, 2, 1)  # numpy buffers the overlapping operand
        h *= 0.5
        hess[block] = h
    hess[~good] = 0.0
    return hess
