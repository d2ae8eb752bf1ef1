"""Node ladders, the row zipper, the revolve, polyline order, area vectors,
simplex measures and centroids, nearest-point distances and the lazy
attribute that meshes and solutions share.

zipper_rows and revolve are the only copies of the two jobs every mesher
shares: zipper_rows triangulates the strips between consecutive vertex rows
(open rungs, closed rings, fan apices) in one vectorised merge, and revolve
turns (rho, z) points into rings of one azimuthal count about the x_d-axis.
edge_determinant is the only cell determinant: domain volumes and fem's P1
gradients divide by the same bits, in chunks of CELL_BLOCK cells.  The facet
kernels (area vectors, measures, centroids) gather coordinate-major too, in
O(simplices) (coordinate_rows), and cross_rows is the one cross product,
written out the way np.cross rounds.
"""

from __future__ import annotations

import math

import numpy as np

from hklab.errors import HkLabError

CELL_BLOCK = 1 << 14  # cells whose vertex coordinates are gathered together


def graded_nodes(
    length: float,
    target: float,
    exponent: float = 0.0,
    sides: str = "both",
) -> np.ndarray:
    """Monotone nodes on [0, length] with spacing ~ target * (d/cap)^exponent.

    d is the distance to the refined end(s) and cap a quarter of the length;
    sides selects refinement toward both ends, only the end, or none
    (uniform).  The first cell size is the self-consistent fixed point of
    the grading law, which for exponent 0.5 is quadratically smaller than
    target.
    """
    if length <= 0 or target <= 0:
        raise ValueError("graded_nodes needs positive length and target")
    if exponent <= 0 or sides == "none":
        k = max(1, int(round(length / target)))
        return np.linspace(0.0, length, k + 1)

    cap = 0.25 * length
    c = target / cap**exponent
    d1 = min(c ** (1.0 / (1.0 - exponent)), cap)
    interior = c * cap**exponent

    def march(limit: float) -> np.ndarray:
        pts = [0.0]
        s = 0.0
        while True:
            step = c * min(max(s, d1), cap) ** exponent
            if s + 1.25 * step >= limit:
                break
            s += step
            pts.append(s)
        # split an oversized terminal gap so no cell exceeds ~1.6 target
        gap = limit - pts[-1]
        if gap > 1.6 * interior:
            pts.append(pts[-1] + 0.5 * gap)
        return np.asarray(pts)

    if sides == "both":
        half = length / 2.0
        left = march(half)
        right = length - left[::-1]
        if half - left[-1] > 1e-12 * length:
            return np.concatenate([left, [half], right])
        return np.concatenate([left, right[1:]])
    if sides == "end":
        return length - np.concatenate([march(length), [length]])[::-1]
    raise ValueError(f"unknown sides {sides!r}")


def zipper_rows(rows: list, keys: list) -> np.ndarray:
    """Triangles (nt, 3) of the strips between all consecutive vertex rows.

    Row k holds vertex ids with nondecreasing keys keys[k].  The strip
    between rows a and b steps along a stable merge of their next keys
    (ties step along a): a step to a's next vertex makes (a_i, b_j, a_i+1),
    one to b's next vertex (a_i, b_j, b_j+1).  So every triangle runs a_i ->
    b_j, a region whose rows do not cross emits all its triangles with one
    orientation, and the rows fix the direction it runs each boundary edge.
    A row of length 1 is a fan apex; a closed ring is a row that repeats its
    first vertex at the end, with key + 2 pi.  Triangles come strip after
    strip, each strip's in step order, so a strip's first triangle runs a_0 ->
    b_0 and its last runs b's last vertex -> a's last vertex.
    """
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    ids = np.concatenate(rows).astype(np.int64)
    key = np.concatenate(keys)
    row = np.repeat(np.arange(len(rows)), sizes)
    moves = np.ones(len(ids), dtype=bool)  # every vertex but a row's first is a step
    moves[first] = False
    a_steps = np.flatnonzero(moves & (row < len(rows) - 1))
    b_steps = np.flatnonzero(moves & (row > 0))
    steps = np.concatenate([a_steps, b_steps])
    strip = np.concatenate([row[a_steps], row[b_steps] - 1])
    on_b = np.repeat([False, True], [len(a_steps), len(b_steps)])
    order = np.lexsort((steps, on_b, key[steps], strip))
    steps, strip, on_b = steps[order], strip[order], on_b[order]
    # steps already taken along each row of the strip
    done_b = np.cumsum(on_b) - on_b
    done_a = np.arange(len(steps)) - done_b
    strip_start = np.searchsorted(strip, strip)
    i = done_a - done_a[strip_start]
    j = done_b - done_b[strip_start]
    return np.column_stack([ids[first[strip] + i], ids[first[strip + 1] + j], ids[steps]])


def revolve(rz: np.ndarray, on_axis: np.ndarray, spacing: float):
    """Revolve (rho, z) points about the x_d-axis with one azimuthal count.

    Every point off the axis becomes a ring of k = max(8, ceil(2 pi rho_max /
    spacing)) vertices at the azimuths psi; a point on the axis becomes one
    vertex.  Returns the vertices, vid (len(rz), k) with the vertex of point i
    at azimuth j (an axis point repeats its one vertex), and psi.
    """
    rho_max = float(rz[:, 0].max())
    k = max(8, int(math.ceil(2.0 * math.pi * rho_max / spacing)))
    psi = 2.0 * math.pi * np.arange(k) / k
    ring_size = np.where(on_axis, 1, k)
    offsets = np.cumsum(ring_size) - ring_size
    vid = offsets[:, None] + np.where(on_axis[:, None], 0, np.arange(k)[None, :])
    # azimuth index of every revolved vertex; an axis vertex is one point at rho = 0
    j_of = np.arange(offsets[-1] + ring_size[-1]) - np.repeat(offsets, ring_size)
    rho = np.repeat(np.where(on_axis, 0.0, rz[:, 0]), ring_size)
    vertices = np.column_stack([rho * np.cos(psi)[j_of], rho * np.sin(psi)[j_of],
                                np.repeat(rz[:, 1], ring_size)])
    return vertices, vid, psi


def polyline_interp(points: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Points at given arclength fractions along a polyline (endpoints exact)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s /= s[-1]
    out = np.column_stack([np.interp(fractions, s, points[:, k]) for k in range(points.shape[1])])
    out[np.isclose(fractions, 0.0)] = points[0]
    out[np.isclose(fractions, 1.0)] = points[-1]
    return out


def cross_rows(a, b) -> tuple:
    """Cross product of coordinate rows a = (x, y, z) and b, rounded like np.cross."""
    (ax, ay, az), (bx, by, bz) = a, b
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def norm_rows(rows) -> np.ndarray:
    """Euclidean norms from coordinate rows; the squares add in coordinate
    order, which rounds like np.linalg.norm(axis=1)."""
    return np.sqrt(sum(c * c for c in rows))


def edge_determinant(edges: np.ndarray):
    """First cofactor row and determinant of cell edge matrices, coordinate-major.

    edges has shape (d, d, k): edges[c, b] is coordinate c of edge b + 1 of
    each cell, so every product runs on contiguous rows.  The row is that of
    edge 1 (e2 x e3 for tets, (y2, -x2) for triangles), and the determinant
    is the triple product e1 . (e2 x e3), or x1 y2 - y1 x2.
    """
    if len(edges) == 3:
        row = cross_rows(edges[:, 1], edges[:, 2])
        x1, y1, z1 = edges[:, 0]
        return row, x1 * row[0] + y1 * row[1] + z1 * row[2]
    (x1, x2), (y1, y2) = edges
    return (y2, -x2), x1 * y2 - y1 * x2


def coordinate_rows(values: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """(d, m, k) gather of points (nv, d): [c, b] is coordinate c of vertex b
    of every simplex; per-vertex values (nv,) give (m, k).

    Points gather coordinate by coordinate, in O(simplices): take on the
    non-contiguous (d, nv) view would first copy it whole.
    """
    index = np.ascontiguousarray(simplices.T)
    if values.ndim == 1:
        return values[index]
    return np.stack([column[index] for column in values.T])


def area_rows(p: np.ndarray) -> tuple:
    """Coordinate rows of the area vectors (measure times unit normal) of edges
    in the plane or triangles in space, from their coordinate_rows p.

    Normals follow the vertex order: an edge (a, b) gets b - a turned by -90
    degrees, a triangle (b - a) x (c - a) / 2.
    """
    if p.shape[1] == 2:
        (x0, x1), (y0, y1) = p
        return y1 - y0, -(x1 - x0)
    return tuple(0.5 * c for c in cross_rows(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))


def simplex_measures(vertices: np.ndarray, simplices: np.ndarray):
    """(measures, unit normals) of edges in the plane or triangles in space,
    the norms and directions of their area vectors (area_rows)."""
    area = area_rows(coordinate_rows(vertices, simplices))
    measures = norm_rows(area)
    return measures, np.column_stack([c / measures for c in area])


def vertex_means(p: np.ndarray) -> np.ndarray:
    """Centroids (k, d) from coordinate_rows p of points, or (k,) means from
    those of per-vertex values, with the bits of values[simplices].mean(axis=1).

    The gathered rows are summed in vertex order from 0, as that mean sums
    them, so a coordinate that is -0.0 at every vertex comes out +0.0 too.
    """
    return np.ascontiguousarray((sum(np.moveaxis(p, -2, 0)) / p.shape[-2]).T)


def centroids(values: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """vertex_means of the simplices of points (nv, d) or of values (nv,)."""
    return vertex_means(coordinate_rows(values, simplices))


def circumcircle_curvature(points: np.ndarray, closed: bool) -> np.ndarray:
    """Signed curvature of the circle through each planar point and its neighbours.

    The points are a closed loop or an open chain; an open chain's end points
    take the value of their neighbour.
    """
    m = len(points)
    idx = np.arange(m)
    if closed:
        ia, iv, ib = (idx - 1) % m, idx, (idx + 1) % m
    else:
        ia = np.clip(idx - 1, 0, m - 3)
        iv = ia + 1
        ib = ia + 2
    a, v, b = points[ia], points[iv], points[ib]
    e1, e2, e3 = v - a, b - v, b - a
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    denom = (
        np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1) * np.linalg.norm(e3, axis=1)
    )
    return 2.0 * cross / np.where(denom > 0, denom, np.inf)


def check_indices(indices: np.ndarray, nv: int, what: str) -> None:
    """HkLabError unless every entry indexes one of nv vertices (no negative wrap)."""
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= nv):
        raise HkLabError(f"{what} index outside [0, {nv})")


def nearest_distance(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the nearest of the targets."""
    return np.min(np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2), axis=1)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products; matmul rounds each like the 1-D `a @ b`, where einsum may not."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum like a running total; np.sum adds pairwise, in another order."""
    return float(sum(values.tolist()))


class lazy:
    """A property computed on first read and stored on the instance, with no
    lock: functools.cached_property takes one before Python 3.12, shared by
    every instance, so meshes or solutions read by threads would wait."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def polyline_order(cells: np.ndarray, nv: int) -> np.ndarray:
    """Vertex order of a polyline given as oriented edges (a, b).

    An open chain is returned from its start to its end.  A closed loop starts
    at cells[0, 0] and repeats that vertex at the end, so order[0] ==
    order[-1] tells the two apart.  Anything else (several chains, branches
    or vertices no edge reaches) raises HkLabError.
    """
    succ = {int(a): int(b) for a, b in cells}
    starts = set(succ) - set(succ.values())
    if len(starts) > 1:
        raise HkLabError("polyline mesh is not a single chain")
    start = starts.pop() if starts else int(cells[0, 0])
    order = [start]
    while order[-1] in succ and len(order) <= nv:
        order.append(succ[order[-1]])
        if order[-1] == start:
            break
    closed = len(order) > 1 and order[-1] == start
    if len(order) != nv + closed:
        raise HkLabError("polyline mesh has disconnected vertices")
    return np.asarray(order, dtype=np.int64)
