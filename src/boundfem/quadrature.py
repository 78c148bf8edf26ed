"""Gauss quadrature on the reference triangle and the unit edge.

Triangle rules live on the reference element with vertices (0,0), (1,0),
(0,1) (weights sum to 1/2); edge rules live on [0,1] (weights sum to 1).
Triangle rules use the collapsed-coordinate product of Gauss-Jacobi and
Gauss-Legendre rules, so any requested exactness degree up to MAX_DEGREE is
available with strictly positive weights. Both rules are built once per
degree and shared; their arrays are read-only.
"""

import functools

import numpy as np
from scipy.special import roots_jacobi

MAX_DEGREE = 60


class QuadratureRule:
    """Quadrature points and weights, exact for polynomials up to `degree`."""

    __slots__ = ("kind", "degree", "points", "weights")

    def __init__(self, kind, degree, points, weights):
        self.kind = kind
        self.degree = int(degree)
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"QuadratureRule({self.kind!r}, degree={self.degree}, npoints={len(self)})"


@functools.cache
def edge_rule(degree):
    """Gauss-Legendre rule on [0,1] exact for polynomials of the given degree."""
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"edge quadrature degree must be in [0, {MAX_DEGREE}], got {degree}")
    n = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule("edge", degree, 0.5 * (x + 1.0), 0.5 * w)


@functools.cache
def triangle_rule(degree):
    """Collapsed product rule on the reference triangle, exact for the given degree.

    The map (xi, eta) -> (xi, eta*(1-xi)) sends the unit square to the
    triangle with Jacobian (1-xi); the xi direction uses Gauss-Jacobi with
    weight (1-xi), the eta direction plain Gauss-Legendre.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"triangle quadrature degree must be in [0, {MAX_DEGREE}], got {degree}")
    n = degree // 2 + 1
    tj, wj = roots_jacobi(n, 1.0, 0.0)
    xi = 0.5 * (tj + 1.0)
    wxi = 0.25 * wj
    tl, wl = np.polynomial.legendre.leggauss(n)
    eta = 0.5 * (tl + 1.0)
    weta = 0.5 * wl

    X = np.repeat(xi, n)
    Y = np.tile(eta, n) * (1.0 - X)
    W = np.repeat(wxi, n) * np.tile(weta, n)
    return QuadratureRule("triangle", degree, np.column_stack([X, Y]), W)

