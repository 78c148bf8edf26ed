"""Broken and continuous Lagrange spaces on triangular meshes.

Degrees of freedom are Lagrange nodal values. Local node ordering on the
reference triangle: the three vertices, then the interior nodes of each edge
(edge k runs from local vertex k to vertex (k+1) % 3), then element-interior
nodes. Global ordering:

* broken spaces are element-major: global dof = element * n_local + local;
* continuous spaces number mesh vertices first, then (p-1) dofs per unique
  mesh edge, then element-interior dofs.

Edge dofs of a continuous space are oriented from the endpoint with the
smaller global vertex index, so neighboring elements agree on shared dofs.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .mesh import _freeze

BROKEN = "broken"
CONTINUOUS = "continuous"


class ReferenceBasis:
    """Lagrange basis of degree p on the reference triangle (monomial form).

    Spaces share one basis per degree (`reference_basis`), and with it the
    tables at each quadrature rule (`tabulate`).
    """

    def __init__(self, p):
        if p < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.p = int(p)
        self.exponents = [(a, b) for total in range(p + 1)
                          for a, b in ((total - j, j) for j in range(total + 1))]
        self.nodes = _lagrange_nodes(p)
        self.n_local = len(self.nodes)
        self.coeffs = np.linalg.inv(_monomial_derivative(self.nodes, self.exponents, 0, 0))
        self._tables = {}

    def tabulate(self, rule):
        """`eval` at a triangle rule's points, or `edge_traces` at an edge
        rule's, computed on the first call for the rule and read-only. Rules
        are built once and shared, so the tables are kept per rule object;
        evaluation at any other points goes through `eval`.
        """
        tables = self._tables.get(rule)
        if tables is None:
            fn = self.eval if rule.kind == "triangle" else self.edge_traces
            tables = self._tables[rule] = _freeze(*fn(rule.points))
        return tables

    def eval(self, points):
        """Values and reference gradients of all shape functions at `points`.

        points: array (..., 2). Returns (values (..., n), grads (..., n, 2)).
        """
        points = np.asarray(points, dtype=float)
        values, gx, gy = (_monomial_derivative(points, self.exponents, da, db) @ self.coeffs
                          for da, db in ((0, 0), (1, 0), (0, 1)))
        return values, np.stack([gx, gy], axis=-1)

    def edge_traces(self, t):
        """Values (6, nt, n) and reference gradients (6, nt, n, 2) at the
        parameters t of local edge k, indexed k, and of its reverse, indexed
        k + 3. A shape function whose node lies off the edge has the Lagrange
        trace 0 there: its values are exactly 0.0, not monomial round-off.
        """
        start = self.nodes[:3, None]
        s = np.stack([t, 1.0 - t])[:, None, :, None]
        values, grads = self.eval(start + s * (np.roll(start, -1, axis=0) - start))
        # barycentric coordinate of each node opposite edge k, in lattice steps 1/p
        bary = np.column_stack([1.0 - self.nodes.sum(axis=1), self.nodes])
        on_edge = np.rint(self.p * bary[:, [2, 0, 1]].T) == 0
        values = np.where(on_edge[:, None], values, 0.0)
        return values.reshape(6, len(t), -1), grads.reshape(6, len(t), -1, 2)

    def eval_hessians(self, points):
        """Reference second derivatives, stacked as (..., n, 3) = (dxx, dxy, dyy)."""
        points = np.asarray(points, dtype=float)
        out = []
        for da, db in ((2, 0), (1, 1), (0, 2)):
            D = _monomial_derivative(points, self.exponents, da, db)
            out.append(D @ self.coeffs)
        return np.stack(out, axis=-1)


@functools.cache
def reference_basis(p):
    """The one `ReferenceBasis` of degree p, shared by every space of that degree."""
    return ReferenceBasis(p)


def _lagrange_nodes(p):
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(verts)
    for k in range(3):
        a = np.array(verts[k])
        b = np.array(verts[(k + 1) % 3])
        for i in range(1, p):
            nodes.append(tuple(a + (i / p) * (b - a)))
    for i in range(1, p):
        for j in range(1, p - i):
            nodes.append((i / p, j / p))
    return np.array(nodes)


def _monomial_derivative(points, exponents, da, db):
    x = points[..., 0]
    y = points[..., 1]
    cols = []
    for a, b in exponents:
        if a < da or b < db:
            cols.append(np.zeros_like(x))
            continue
        coef = 1.0
        for k in range(da):
            coef *= a - k
        for k in range(db):
            coef *= b - k
        cols.append(coef * x ** (a - da) * y ** (b - db))
    return np.stack(cols, axis=-1)


class FunctionSpace:
    """Polynomial space on a mesh, broken (dG) or continuous."""

    def __init__(self, mesh, p, continuity):
        if continuity not in (BROKEN, CONTINUOUS):
            raise ValueError(f"continuity must be '{BROKEN}' or '{CONTINUOUS}'")
        self.mesh = mesh
        self.p = int(p)
        self.continuity = continuity
        self.basis = reference_basis(self.p)
        self.n_local = self.basis.n_local
        if continuity == BROKEN:
            self.dofmap = np.arange(mesh.n_elements * self.n_local,
                                    dtype=np.int64).reshape(mesh.n_elements, self.n_local)
            self.n_dofs = mesh.n_elements * self.n_local
        else:
            self.dofmap, self.n_dofs = _continuous_dofmap(mesh, self.p)
        self.dofmap.setflags(write=False)
        # quadrature/geometry tables, kept by forms._contexts/_block_pattern,
        # and the Gram blocks assemble_gram leaves for the level's indicators
        self.contexts = {}


def _continuous_dofmap(mesh, p):
    """Continuous dofmap from the mesh edge table; see the `mesh` module docstring."""
    nv, ne = mesh.n_vertices, mesh.n_elements
    if p == 1:
        return mesh.elements, nv
    n_edges = len(mesh.edges)
    n_edge_dofs = p - 1
    n_int = (p - 1) * (p - 2) // 2
    # rank edges by first appearance in elem2edge, row by row
    _, first = np.unique(mesh.elem2edge, return_index=True)
    rank = np.empty(n_edges, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_edges)
    elems = mesh.elements
    forward = elems < np.roll(elems, -1, axis=1)
    i = np.arange(n_edge_dofs)
    slot = np.where(forward[:, :, None], i, n_edge_dofs - 1 - i)
    edge_dofs = nv + rank[mesh.elem2edge][:, :, None] * n_edge_dofs + slot
    interior = nv + n_edges * n_edge_dofs + np.arange(ne * n_int).reshape(ne, n_int)
    dofmap = np.hstack([elems, edge_dofs.reshape(ne, -1), interior])
    return dofmap, nv + n_edges * n_edge_dofs + ne * n_int


def trial_to_test_embedding(U_h, V_h):
    """Sparse embedding E with (E c)|broken == c|continuous pointwise.

    E has exactly one unit entry per broken dof row (shared Lagrange nodes).
    """
    if U_h.mesh is not V_h.mesh:
        raise ValueError("spaces must share the same mesh")
    if U_h.p != V_h.p:
        raise ValueError("spaces must share the same polynomial degree")
    if U_h.continuity != CONTINUOUS or V_h.continuity != BROKEN:
        raise ValueError("embedding maps a continuous space into a broken one")
    return gather_matrix(U_h)


def gather_matrix(space):
    """One-hot matrix S with S c = c[space.dofmap].ravel(), the element-major
    local values of coefficients c; for a continuous space U_h this is the
    embedding into the broken space of the same degree."""
    n = space.dofmap.size
    return sp.csr_matrix((np.ones(n), space.dofmap.ravel(), np.arange(n + 1)),
                         shape=(n, space.n_dofs))


class DiscreteFunction:
    """Coefficient vector bound to its function space."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.n_dofs,):
            raise ValueError(f"expected {space.n_dofs} coefficients, got {coeffs.shape}")
        self.space = space
        self.coeffs = coeffs

    def __call__(self, points):
        """Evaluate at physical points (outside-mesh points return NaN)."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        elems, refs = self.space.mesh.locate(points)
        out = np.full(len(points), np.nan)
        inside = elems >= 0
        if inside.any():
            vals, _ = self.space.basis.eval(refs[inside])
            c = self.coeffs[self.space.dofmap[elems[inside]]]
            out[inside] = (c * vals).sum(axis=1)
        return out
