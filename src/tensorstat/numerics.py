"""Small numeric helpers: quadrature grids."""

from __future__ import annotations

import numpy as np


# most midpoints per cell axis cell_integrals refines to, and the cell change that stops it sooner
MAX_SUBDIV = 16
CELL_TOL = 1e-9


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


def cell_integrals(f, edges) -> tuple[np.ndarray, bool]:
    """Integrate a vectorized density over every cell of a rectangular grid.

    edges: list of 1-d increasing edge arrays, one per axis.  f maps an
    (m, r) array of points to m values.  Midpoint rule per cell, with the
    per-cell subdivision count doubled until no cell value moves by more
    than CELL_TOL, or until MAX_SUBDIV midpoints per cell axis.  Returns
    the cell integrals, shape (len(e)-1 for e in edges), and whether they
    met CELL_TOL.
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
        converged = prev is not None and np.max(np.abs(current - prev)) <= CELL_TOL
        if converged or k >= MAX_SUBDIV:
            return current, bool(converged)
        prev = current
        k *= 2
