"""Deterministic node ladders, strip/band triangulation and polyline order."""

from __future__ import annotations

import math

import numpy as np

from hklab.errors import HkLabError


def graded_nodes(
    length: float,
    target: float,
    exponent: float = 0.0,
    sides: str = "both",
    cap_fraction: float = 0.25,
) -> np.ndarray:
    """Monotone nodes on [0, length] with spacing ~ target * (d/cap)^exponent.

    d is the distance to the refined end(s); sides selects refinement toward
    both ends, only the start, only the end, or none (uniform).  The first
    cell size is the self-consistent fixed point of the grading law, which
    for exponent 0.5 is quadratically smaller than target.
    """
    if length <= 0 or target <= 0:
        raise ValueError("graded_nodes needs positive length and target")
    if exponent <= 0 or sides == "none":
        k = max(1, int(round(length / target)))
        return np.linspace(0.0, length, k + 1)

    cap = cap_fraction * length
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
    if sides in ("start", "end"):
        nodes = np.concatenate([march(length), [length]])
        if sides == "end":
            nodes = length - nodes[::-1]
        return nodes
    raise ValueError(f"unknown sides {sides!r}")


def zipper_rings(
    idx_a: np.ndarray, ang_a: np.ndarray, idx_b: np.ndarray, ang_b: np.ndarray
) -> list[tuple[int, int, int]]:
    """Triangulate the band between two closed vertex rings by an angle merge."""
    na, nb = len(idx_a), len(idx_b)
    ea = np.append(ang_a, ang_a[0] + 2.0 * math.pi)
    eb = np.append(ang_b, ang_b[0] + 2.0 * math.pi)
    tris: list[tuple[int, int, int]] = []
    i = j = 0
    while i < na or j < nb:
        if i < na and (j >= nb or ea[i + 1] <= eb[j + 1]):
            tris.append((int(idx_a[i % na]), int(idx_b[j % nb]), int(idx_a[(i + 1) % na])))
            i += 1
        else:
            tris.append((int(idx_a[i % na]), int(idx_b[j % nb]), int(idx_b[(j + 1) % nb])))
            j += 1
    return tris


def zipper_rows(
    idx_a: np.ndarray, frac_a: np.ndarray, idx_b: np.ndarray, frac_b: np.ndarray
) -> list[tuple[int, int, int]]:
    """Triangulate the strip between two open vertex rows by a parameter merge.

    Rows of length one act as fan apices, which is how corner points of a
    two-rail strip are absorbed.
    """
    na, nb = len(idx_a), len(idx_b)
    tris: list[tuple[int, int, int]] = []
    i = j = 0
    while i < na - 1 or j < nb - 1:
        can_a = i < na - 1
        can_b = j < nb - 1
        if can_a and (not can_b or frac_a[i + 1] <= frac_b[j + 1]):
            tris.append((int(idx_a[i]), int(idx_b[j]), int(idx_a[i + 1])))
            i += 1
        else:
            tris.append((int(idx_a[i]), int(idx_b[j]), int(idx_b[j + 1])))
            j += 1
    return tris


def polyline_interp(points: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Points at given arclength fractions along a polyline (endpoints exact)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s /= s[-1]
    out = np.column_stack([np.interp(fractions, s, points[:, k]) for k in range(points.shape[1])])
    out[np.isclose(fractions, 0.0)] = points[0]
    out[np.isclose(fractions, 1.0)] = points[-1]
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products; matmul rounds each like the 1-D `a @ b`, where einsum may not."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum like a running total; np.sum adds pairwise, in another order."""
    return float(sum(values.tolist()))


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
