"""Small numeric helpers: stable log-sums and quadrature grids."""

from __future__ import annotations

import numpy as np


def logsumexp(values) -> float:
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return -np.inf
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def box_quadrature(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule on a box.

    bounds: sequence of (a, b) per axis.  Returns (points (m, r), weights (m,)).
    """
    axes = [gauss_legendre(n, a, b) for a, b in bounds]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[w for _, w in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return points, weights


def cell_integrals(f, edges, tol: float = 1e-9, max_subdiv: int = 16) -> np.ndarray:
    """Integrate a vectorized density over every cell of a rectangular grid.

    edges: list of 1-d increasing edge arrays, one per axis.  f maps an
    (m, r) array of points to m values.  Midpoint rule per cell, with the
    per-cell subdivision count doubled until the cell values stabilize.
    Returns an array of cell integrals with shape (len(e)-1 for e in edges).
    """
    edges = [np.asarray(e, dtype=float) for e in edges]
    shape = tuple(len(e) - 1 for e in edges)
    widths = [np.diff(e) for e in edges]
    prev = None
    k = 2
    while True:
        # per axis: (n_cells, k) midpoints of the k-fold subdivision
        axis_pts = []
        for e, w in zip(edges, widths):
            offs = (np.arange(k) + 0.5) / k
            axis_pts.append(e[:-1, None] + w[:, None] * offs[None, :])
        mesh = np.meshgrid(*[p.ravel() for p in axis_pts], indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        vals = np.asarray(f(pts), dtype=float)
        # reshape to (n1, k, n2, k, ...) and sum out the subdivision axes
        inter = vals.reshape(tuple(s for n in shape for s in (n, k)))
        summed = inter.sum(axis=tuple(range(1, 2 * len(shape), 2)))
        cellw = np.ones(shape)
        for ax, w in enumerate(widths):
            sl = [None] * len(shape)
            sl[ax] = slice(None)
            cellw = cellw * w[tuple(sl)]
        current = summed * cellw / (k ** len(shape))
        if prev is not None and np.max(np.abs(current - prev)) <= tol:
            return current
        if k >= max_subdiv:
            return current
        prev = current
        k *= 2
