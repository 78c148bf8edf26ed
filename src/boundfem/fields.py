"""Normalization of coefficient fields (constants or callables on point arrays).

Fields follow one convention throughout the package: a scalar field maps an
array of points with shape (..., 2) to values of shape (...,); a vector field
maps (..., 2) to (..., 2). Plain numbers and 2-vectors are promoted to
constant fields.
"""

import numpy as np


def _field(c, value_shape):
    """Vectorized field from a constant or callable, with values of shape
    points.shape[:-1] + value_shape; a constant gives a fresh array per call."""
    if callable(c):
        def field(x):
            x = np.asarray(x, dtype=float)
            v = np.asarray(c(x), dtype=float)
            shape = x.shape[:-1] + value_shape
            return v if v.shape == shape else np.broadcast_to(v, shape)

        return field
    value = np.asarray(c).astype(float).reshape(value_shape)

    def field(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(value, x.shape[:-1] + value_shape).copy()

    return field


def scalar_field(c):
    """Return a vectorized scalar field from a constant or callable."""
    return _field(c, ())


def vector_field(c):
    """Return a vectorized 2D vector field from a constant 2-vector or callable."""
    return _field(c, (2,))
