"""Per-element loop versions of the mesh topology and dofmap algorithms.

These are the straightforward dict-and-loop formulations that the
vectorized edge-table code in `boundfem.mesh` and `boundfem.fespace` must
reproduce exactly; only the tests use them.
"""

import numpy as np

from boundfem.mesh import _orient_ccw


def all_edges(elements):
    """Sorted unique (lo, hi) vertex pairs over all element edges."""
    pairs = set()
    for a, b, c in elements:
        for u, v in ((a, b), (b, c), (c, a)):
            pairs.add((u, v) if u < v else (v, u))
    return sorted(pairs)


def rotate_longest_edge_first(vertices, elements):
    """Rotate each element so edge (0,1) is its longest; ties by (lo, hi)."""
    out = elements.copy()
    for e in range(len(elements)):
        tri = elements[e]
        best = None
        for k in range(3):
            u, v = tri[k], tri[(k + 1) % 3]
            length = np.linalg.norm(vertices[u] - vertices[v])
            key = (-length, (min(u, v), max(u, v)))
            if best is None or key < best[0]:
                best = (key, k)
        if best[1]:
            out[e] = np.roll(tri, -best[1])
    return out


def faces(elements):
    """(iface_vertices, iface_elements, bface_vertices, bface_elements)."""
    owners = {}
    for e in range(len(elements)):
        a, b, c = elements[e]
        for le, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            key = (u, v) if u < v else (v, u)
            owners.setdefault(key, []).append((e, le))

    i_verts, i_elems, b_verts, b_elems = [], [], [], []
    for key in sorted(owners):
        own = owners[key]
        if len(own) == 2:
            own.sort()
            (em, lem), (ep, _) = own
            i_verts.append((elements[em, lem], elements[em, (lem + 1) % 3]))
            i_elems.append((em, ep))
        elif len(own) == 1:
            e, le = own[0]
            b_verts.append((elements[e, le], elements[e, (le + 1) % 3]))
            b_elems.append(e)
        else:
            raise ValueError(f"edge {key} shared by more than two elements")
    return (np.array(i_verts, dtype=np.int64).reshape(-1, 2),
            np.array(i_elems, dtype=np.int64).reshape(-1, 2),
            np.array(b_verts, dtype=np.int64).reshape(-1, 2),
            np.array(b_elems, dtype=np.int64))


def mesh_arrays(vertices, elements, refinement_edges="longest"):
    """The element and face arrays a Mesh of these inputs must hold."""
    vertices = np.asarray(vertices, dtype=float)
    elements = _orient_ccw(vertices, np.asarray(elements, dtype=np.int64))
    if refinement_edges == "longest":
        elements = rotate_longest_edge_first(vertices, elements)
    iv, ie, bv, be = faces(elements)
    return {"vertices": vertices, "elements": elements, "iface_vertices": iv,
            "iface_elements": ie, "bface_vertices": bv, "bface_elements": be}


def refine_uniform_red(mesh):
    """(vertices, children, parents) of red refinement."""
    verts = mesh.vertices
    edge_mid = {}
    mids = []
    for pair in all_edges(mesh.elements):
        edge_mid[pair] = len(verts) + len(mids)
        mids.append(0.5 * (verts[pair[0]] + verts[pair[1]]))
    new_verts = np.vstack([verts, np.array(mids).reshape(-1, 2)])

    def mid(u, v):
        return edge_mid[(u, v) if u < v else (v, u)]

    children = []
    for a, b, c in mesh.elements:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        children += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
    parents = np.repeat(np.arange(mesh.n_elements, dtype=np.int64), 4)
    return new_verts, np.array(children, dtype=np.int64), parents


def bisect_marked(mesh, marks):
    """(vertices, children, parents) of newest-vertex bisection with closure."""
    marks = np.unique(np.asarray(list(marks), dtype=np.int64))
    elems = mesh.elements
    edge_ids = {pair: k for k, pair in enumerate(all_edges(elems))}
    elem2edge = np.empty((len(elems), 3), dtype=np.int64)
    for e, (a, b, c) in enumerate(elems):
        for le, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            elem2edge[e, le] = edge_ids[(u, v) if u < v else (v, u)]

    marked_edge = np.zeros(len(edge_ids), dtype=bool)
    marked_edge[elem2edge[marks, 0]] = True
    while True:
        touched = marked_edge[elem2edge].any(axis=1)
        need = touched & ~marked_edge[elem2edge[:, 0]]
        if not need.any():
            break
        marked_edge[elem2edge[need, 0]] = True

    new_vid = {}
    mids = []
    inv_edges = {v: k for k, v in edge_ids.items()}
    for eid in np.nonzero(marked_edge)[0]:
        u, v = inv_edges[eid]
        new_vid[eid] = mesh.n_vertices + len(mids)
        mids.append(0.5 * (mesh.vertices[u] + mesh.vertices[v]))
    new_verts = np.vstack([mesh.vertices, np.array(mids).reshape(-1, 2)])

    children = []
    parents = []
    for e, (a, b, c) in enumerate(elems):
        e0, e1, e2 = elem2edge[e]
        if not marked_edge[e0]:
            children.append((a, b, c))
            parents.append(e)
            continue
        m = new_vid[e0]
        if marked_edge[e2]:
            children += [(m, c, new_vid[e2]), (a, m, new_vid[e2])]
            parents += [e, e]
        else:
            children.append((c, a, m))
            parents.append(e)
        if marked_edge[e1]:
            children += [(m, b, new_vid[e1]), (c, m, new_vid[e1])]
            parents += [e, e]
        else:
            children.append((b, c, m))
            parents.append(e)
    return new_verts, np.array(children, dtype=np.int64), np.array(parents, dtype=np.int64)


def continuous_dofmap(mesh, p):
    """(dofmap, n_dofs) of the continuous degree-p space, edges numbered on first sight."""
    nv = mesh.n_vertices
    elems = mesh.elements
    ne = len(elems)
    edge_ids = {}
    for e in range(ne):
        a, b, c = elems[e]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            if key not in edge_ids:
                edge_ids[key] = len(edge_ids)
    n_edges = len(edge_ids)
    n_edge_dofs = p - 1
    n_int = (p - 1) * (p - 2) // 2
    n_local = (p + 1) * (p + 2) // 2

    dofmap = np.empty((ne, n_local), dtype=np.int64)
    dofmap[:, 0:3] = elems
    for e in range(ne):
        a, b, c = elems[e]
        loc = 3
        for (u, v) in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            base = nv + edge_ids[key] * n_edge_dofs
            for i in range(n_edge_dofs):
                slot = i if u < v else n_edge_dofs - 1 - i
                dofmap[e, loc] = base + slot
                loc += 1
        for i in range(n_int):
            dofmap[e, loc] = nv + n_edges * n_edge_dofs + e * n_int + i
            loc += 1
    return dofmap, nv + n_edges * n_edge_dofs + ne * n_int


def locate(mesh, points, tol=1e-12):
    """Point location by a per-point loop over uniform-grid buckets."""
    v = mesh.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    n = max(1, int(np.sqrt(mesh.n_elements)))
    cell = (hi - lo) / n
    cell[cell == 0.0] = 1.0
    buckets = [[] for _ in range(n * n)]
    corners = v[mesh.elements]
    i0 = np.clip(((corners.min(axis=1) - lo) / cell).astype(int), 0, n - 1)
    i1 = np.clip(((corners.max(axis=1) - lo) / cell).astype(int), 0, n - 1)
    for e in range(mesh.n_elements):
        for ix in range(i0[e, 0], i1[e, 0] + 1):
            for iy in range(i0[e, 1], i1[e, 1] + 1):
                buckets[ix * n + iy].append(e)

    idx = np.clip(((points - lo) / cell).astype(int), 0, n - 1)
    elems = np.full(len(points), -1, dtype=np.int64)
    refs = np.zeros((len(points), 2))
    for k, p in enumerate(points):
        cand = np.array(buckets[idx[k, 0] * n + idx[k, 1]], dtype=np.int64)
        if len(cand) == 0:
            continue
        r = mesh.to_reference(cand, np.broadcast_to(p, (len(cand), 2)))
        hits = np.nonzero((r[:, 0] >= -tol) & (r[:, 1] >= -tol)
                          & (r.sum(axis=1) <= 1.0 + tol))[0]
        if len(hits):
            elems[k] = cand[hits[0]]
            refs[k] = r[hits[0]]
    return elems, refs


def structured_elements(nx, ny):
    """Elements of build_structured_mesh(nx, ny): two triangles per cell, row by row."""
    elements = []
    for j in range(ny):
        for i in range(nx):
            a, b = j * (nx + 1) + i, j * (nx + 1) + i + 1
            c, d = (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i
            elements += [(a, b, c), (a, c, d)]
    return np.array(elements, dtype=np.int64)
