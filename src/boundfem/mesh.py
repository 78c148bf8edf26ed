"""Conforming triangular meshes: construction, refinement, plain-text exchange.

Conventions
-----------
* Element vertices are stored counterclockwise. Every element is rotated at
  construction so that its local edge (0, 1) is the refinement edge used by
  newest-vertex bisection; local edge k joins local vertices k and (k+1) % 3.
  The refinement edge is the longest edge; length ties go to the edge with
  the smaller (lo, hi) vertex pair.
* Every mesh carries one edge table, built at construction:
  - `edges` (n_edges, 2) holds each edge once as its (lo, hi) vertex pair,
    and edge ids follow the lexicographic (lo, hi) order;
  - local edge k of element e is edge `elem2edge[e, k]`;
  - `edge2elem` (n_edges, 2) holds the elements on each edge, the smaller
    element id first, and -1 in the second column on the boundary.
  Faces, refinement and continuous dofmaps are all derived from it.
* For an interior face the stored vertex pair follows the traversal of the
  minus element T- (the smaller element id), so the unit normal n_F points
  from T- to T+. For a boundary face the normal is the outward normal of the
  owning element. Interior and boundary faces each follow the edge order.
* A continuous space of degree p numbers the vertices first, then p - 1 dofs
  per edge, then element-interior dofs. Edge dofs use the rank r of the edge
  in order of first appearance in `elem2edge` read row by row:
  dof = n_vertices + r (p - 1) + slot, where slot i of a local edge that runs
  from its low to its high vertex is i, and p - 2 - i when it runs from high
  to low. For p = 1 the dofmap is `elements`.
* Meshes are immutable after construction; refinement returns a new mesh
  carrying `parent_mesh` / `parent_elements` provenance.

The plain-text exchange format (see `write_mesh` / `read_mesh`):

    # optional comment lines
    <n_vertices> <n_elements>
    x y            (one line per vertex)
    a b c          (one line per element, 0-based vertex indices)
"""

import numpy as np

_CHAR_TOL_FACTOR = 1e-12


class Mesh:
    """Triangulation with an edge table, faces and per-element refinement edges."""

    def __init__(self, vertices, elements, *, refinement_edges="longest",
                 parent_mesh=None, parent_elements=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError("elements must have shape (n, 3)")
        if len(elements) == 0:
            raise ValueError("mesh needs at least one element")
        if elements.min() < 0 or elements.max() >= len(vertices):
            raise ValueError("element vertex index out of range")

        elements = _orient_ccw(vertices, elements)
        edges, elem2edge = _edge_table(len(vertices), elements)
        edge_length = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
        if refinement_edges == "longest":
            cols = (np.arange(3) + _longest_local_edge(edge_length, elem2edge)[:, None]) % 3
            elements = np.take_along_axis(elements, cols, axis=1)
            elem2edge = np.take_along_axis(elem2edge, cols, axis=1)
        elif refinement_edges != "keep":
            raise ValueError("refinement_edges must be 'longest' or 'keep'")

        self.vertices = vertices
        self.elements = elements
        self.edges = edges
        self.elem2edge = elem2edge
        self.parent_mesh = parent_mesh
        self.parent_elements = parent_elements

        p0 = vertices[elements[:, 0]]
        p1 = vertices[elements[:, 1]]
        p2 = vertices[elements[:, 2]]
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
            - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
        self.element_area = 0.5 * cross
        if np.any(self.element_area <= 0.0):
            raise ValueError("degenerate element (nonpositive area)")
        self.h_elem = edge_length[elem2edge].max(axis=1)

        self._build_faces()
        self._affine_cache = None
        self._locator = None
        _freeze(self.vertices, self.elements, self.edges, self.elem2edge,
                self.element_area, self.h_elem)

    # ------------------------------------------------------------------
    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def h(self):
        return float(self.h_elem.max())

    def _build_faces(self):
        """Fill `edge2elem` and split the edges into interior and boundary faces."""
        edge_ids = self.elem2edge.ravel()
        count = np.bincount(edge_ids, minlength=len(self.edges))
        if count.max() > 2:
            lo, hi = self.edges[np.argmax(count > 2)]
            raise ValueError(f"edge ({lo}, {hi}) shared by more than two elements")
        # (element, local edge) slots grouped by edge, in element order
        slots = np.argsort(edge_ids, kind="stable")
        end = np.cumsum(count)
        first = slots[end - count]
        interior = count == 2
        self.edge2elem = np.full((len(self.edges), 2), -1, dtype=np.int64)
        self.edge2elem[:, 0] = first // 3
        self.edge2elem[interior, 1] = slots[end[interior] - 1] // 3

        # each face is traversed as its first element's local edge
        local = np.stack([self.elements, np.roll(self.elements, -1, axis=1)], axis=-1)
        traversal = local.reshape(-1, 2)[first]
        self.iface_vertices = traversal[interior]
        self.iface_elements = self.edge2elem[interior]
        self.bface_vertices = traversal[~interior]
        self.bface_elements = self.edge2elem[~interior, 0]

        self.iface_normals, self.iface_h = _edge_normals(self.vertices, self.iface_vertices)
        self.bface_normals, self.bface_h = _edge_normals(self.vertices, self.bface_vertices)
        _freeze(self.edge2elem, self.iface_vertices, self.iface_elements,
                self.iface_normals, self.iface_h, self.bface_vertices,
                self.bface_elements, self.bface_normals, self.bface_h)

    # ------------------------------------------------------------------
    def affine(self):
        """Per-element affine maps x = b0 + B r from the reference triangle.

        Returns read-only (B, b0, detB, Binv) with shapes (ne,2,2), (ne,2),
        (ne,), (ne,2,2).
        """
        if self._affine_cache is None:
            p0 = self.vertices[self.elements[:, 0]]
            p1 = self.vertices[self.elements[:, 1]]
            p2 = self.vertices[self.elements[:, 2]]
            B = np.empty((self.n_elements, 2, 2))
            B[:, :, 0] = p1 - p0
            B[:, :, 1] = p2 - p0
            detB = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
            Binv = np.empty_like(B)
            Binv[:, 0, 0] = B[:, 1, 1]
            Binv[:, 0, 1] = -B[:, 0, 1]
            Binv[:, 1, 0] = -B[:, 1, 0]
            Binv[:, 1, 1] = B[:, 0, 0]
            Binv /= detB[:, None, None]
            self._affine_cache = _freeze(B, p0, detB, Binv)
        return self._affine_cache

    def to_reference(self, elems, points):
        """Map physical points (..., 2) inside the given elements to reference coords."""
        B, b0, _, Binv = self.affine()
        d = points - b0[elems]
        return np.einsum("...ij,...j->...i", Binv[elems], d)

    def element_centroids(self):
        v = self.vertices
        e = self.elements
        return (v[e[:, 0]] + v[e[:, 1]] + v[e[:, 2]]) / 3.0

    # ------------------------------------------------------------------
    def locate(self, points, tol=1e-12):
        """Find containing elements for physical points.

        Returns (elem_ids, ref_coords); elem_id -1 marks points outside the mesh.
        A point on several elements goes to the smallest element id.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if self._locator is None:
            self._locator = _GridLocator(self)
        return self._locator.locate(points, tol)


class _GridLocator:
    """Uniform-grid bucket index over element bounding boxes.

    Buckets are stored as one array of element ids sorted by grid cell (and
    by element id within a cell), with `start[c]:start[c + 1]` the range of
    cell c.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        v = mesh.vertices
        self.lo = v.min(axis=0)
        hi = v.max(axis=0)
        self.n = max(1, int(np.sqrt(mesh.n_elements)))
        self.cell = (hi - self.lo) / self.n
        self.cell[self.cell == 0.0] = 1.0
        corners = v[mesh.elements]
        i0 = self._cell_of(corners.min(axis=1))
        span = self._cell_of(corners.max(axis=1)) - i0 + 1
        elem, k = _expand(span[:, 0] * span[:, 1])
        cell = (i0[elem, 0] + k // span[elem, 1]) * self.n + i0[elem, 1] + k % span[elem, 1]
        self.elems = elem[np.argsort(cell, kind="stable")]
        self.start = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=self.n ** 2))])

    def _cell_of(self, points):
        return np.clip(((points - self.lo) / self.cell).astype(int), 0, self.n - 1)

    def locate(self, points, tol):
        idx = self._cell_of(points)
        cell = idx[:, 0] * self.n + idx[:, 1]
        point, k = _expand(self.start[cell + 1] - self.start[cell])
        cand = self.elems[self.start[cell[point]] + k]
        r = self.mesh.to_reference(cand, points[point])
        ok = np.nonzero((r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(axis=1) <= 1.0 + tol))[0]
        hit_points, first = np.unique(point[ok], return_index=True)
        elems = np.full(len(points), -1, dtype=np.int64)
        refs = np.zeros((len(points), 2))
        elems[hit_points] = cand[ok[first]]
        refs[hit_points] = r[ok[first]]
        return elems, refs


def _expand(counts):
    """(owner, position) pairs: owner i repeated counts[i] times, positions 0..counts[i]-1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _freeze(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _orient_ccw(vertices, elements):
    p0 = vertices[elements[:, 0]]
    p1 = vertices[elements[:, 1]]
    p2 = vertices[elements[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    flip = cross < 0.0
    if flip.any():
        elements = elements.copy()
        elements[flip, 1], elements[flip, 2] = elements[flip, 2], elements[flip, 1].copy()
    return elements


def _edge_table(n_vertices, elements):
    """Sorted unique (lo, hi) edges and the (ne, 3) element-to-edge map."""
    ends = np.roll(elements, -1, axis=1)
    keys = np.minimum(elements, ends) * n_vertices + np.maximum(elements, ends)
    unique, elem2edge = np.unique(keys.ravel(), return_inverse=True)
    edges = np.column_stack(np.divmod(unique, n_vertices))
    return edges, elem2edge.reshape(-1, 3)


def _longest_local_edge(edge_length, elem2edge):
    """Local index of each element's longest edge, ties to the smaller edge id.

    Edge ids follow the (lo, hi) order, so this is the (-length, lo, hi) minimum.
    """
    length = edge_length[elem2edge]
    rows = np.arange(len(elem2edge))
    best = np.zeros(len(elem2edge), dtype=np.int64)
    for k in (1, 2):
        lb = length[rows, best]
        better = (length[:, k] > lb) | ((length[:, k] == lb)
                                        & (elem2edge[:, k] < elem2edge[rows, best]))
        best[better] = k
    return best


def _edge_normals(vertices, pairs):
    """Unit normals obtained by rotating the edge tangent clockwise.

    For an edge traversed in the owner's counterclockwise order this is the
    outward normal of that owner.
    """
    t = vertices[pairs[:, 1]] - vertices[pairs[:, 0]]
    h = np.linalg.norm(t, axis=1)
    normals = np.column_stack([t[:, 1], -t[:, 0]])
    if len(h):
        normals /= h[:, None]
    return normals, h


# ----------------------------------------------------------------------
# Constructors and refinement
# ----------------------------------------------------------------------

def build_structured_mesh(nx, ny, rect=(0.0, 1.0, 0.0, 1.0)):
    """Structured triangulation of an axis-aligned rectangle.

    Each of the nx-by-ny grid cells is split along its lower-left to
    upper-right diagonal, giving 2*nx*ny congruent triangles.
    """
    nx, ny = int(nx), int(ny)
    x0, x1, y0, y1 = map(float, rect)
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    if x1 <= x0 or y1 <= y0:
        raise ValueError("rectangle must have positive area")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cells row by row; corners a, b, c, d counterclockwise from lower left
    j, i = np.divmod(np.arange(nx * ny, dtype=np.int64), nx)
    a = j * (nx + 1) + i
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(vertices, elements)


def refine_uniform_red(mesh):
    """Split every triangle into four congruent children (red refinement).

    The midpoint of edge k becomes vertex n_vertices + k.
    """
    verts = mesh.vertices
    lo, hi = mesh.edges.T
    new_verts = np.vstack([verts, 0.5 * (verts[lo] + verts[hi])])
    a, b, c = mesh.elements.T
    mab, mbc, mca = (mesh.n_vertices + mesh.elem2edge).T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    parents = np.repeat(np.arange(mesh.n_elements, dtype=np.int64), 4)
    return Mesh(new_verts, children, parent_mesh=mesh, parent_elements=parents)


def bisect_marked(mesh, marks):
    """Newest-vertex bisection of the marked elements with conformity closure.

    Every marked element is bisected at least once; neighbors are bisected
    only as required to keep the mesh conforming. An empty mark set returns
    the mesh unchanged. Split edges get new vertices in edge order; each
    element's children replace it in place.
    """
    marks = np.unique(np.asarray(list(marks), dtype=np.int64).reshape(-1))
    if len(marks) == 0:
        return mesh
    if marks.min() < 0 or marks.max() >= mesh.n_elements:
        raise ValueError("marked element id out of range")

    elem2edge = mesh.elem2edge
    marked_edge = np.zeros(len(mesh.edges), dtype=bool)
    marked_edge[elem2edge[marks, 0]] = True
    # closure: any element with a marked edge must have its refinement edge marked
    while True:
        touched = marked_edge[elem2edge].any(axis=1)
        need = touched & ~marked_edge[elem2edge[:, 0]]
        if not need.any():
            break
        marked_edge[elem2edge[need, 0]] = True

    split_ids = np.nonzero(marked_edge)[0]
    new_vid = np.full(len(mesh.edges), -1, dtype=np.int64)
    new_vid[split_ids] = mesh.n_vertices + np.arange(len(split_ids))
    lo, hi = mesh.edges[split_ids].T
    new_verts = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])])

    # up to four children per element, in the order: left (c, a, m) or its
    # two halves, then right (b, c, m) or its two halves
    a, b, c = mesh.elements.T
    m, m1, m2 = new_vid[elem2edge].T
    s0, s1, s2 = marked_edge[elem2edge].T

    def pick(cond, yes, no):
        return np.where(cond[:, None], np.column_stack(yes), np.column_stack(no))

    slots = np.stack([
        np.where(s0[:, None], pick(s2, (m, c, m2), (c, a, m)), mesh.elements),
        np.column_stack([a, m, m2]),
        pick(s1, (m, b, m1), (b, c, m)),
        np.column_stack([c, m, m1]),
    ], axis=1)
    used = np.column_stack([np.ones_like(s0), s0 & s2, s0, s0 & s1])
    return Mesh(new_verts, slots[used], refinement_edges="keep", parent_mesh=mesh,
                parent_elements=np.nonzero(used)[0])


# ----------------------------------------------------------------------
# Inflow tolerance
# ----------------------------------------------------------------------

def char_tolerance(beta_values):
    """Sign tolerance for beta.n, scaled by the largest velocity component."""
    if beta_values.size == 0:
        return 0.0
    return _CHAR_TOL_FACTOR * float(np.abs(beta_values).max())


# ----------------------------------------------------------------------
# Plain-text mesh exchange
# ----------------------------------------------------------------------

def write_mesh(mesh, path):
    """Write the documented plain-text format (vertex list + element list)."""
    with open(path, "w") as fh:
        fh.write("# boundfem mesh: vertices then elements, 0-based indices\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for a, b, c in mesh.elements:
            fh.write(f"{a} {b} {c}\n")


def read_mesh(path):
    """Read the plain-text format written by `write_mesh`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    nv, ne = map(int, lines[0].split())
    if len(lines) != 1 + nv + ne:
        raise ValueError(f"mesh file {path}: expected {1 + nv + ne} data lines, got {len(lines)}")
    vertices = np.array([[float(t) for t in ln.split()] for ln in lines[1:1 + nv]])
    elements = np.array([[int(t) for t in ln.split()] for ln in lines[1 + nv:]], dtype=np.int64)
    return Mesh(vertices, elements)
