"""Legacy ASCII VTK export of meshes and discrete fields."""

import numpy as np

from .fespace import CONTINUOUS


def export_vtk(mesh, fields, path, title="boundfem output"):
    """Write an unstructured-grid legacy VTK file.

    `fields` maps names to DiscreteFunctions on `mesh`. Continuous fields
    are written as point data (their vertex values); broken fields as cell
    data evaluated at element centroids.
    """
    point_data = {}
    cell_data = {}
    for name, u in fields.items():
        if u.space.mesh is not mesh:
            raise ValueError(f"field {name!r} does not live on the given mesh")
        if u.space.continuity == CONTINUOUS:
            # vertex dofs come first in the continuous ordering
            point_data[name] = u.coeffs[:mesh.n_vertices]
        else:
            centroid = u.space.basis.eval(np.array([[1.0 / 3.0, 1.0 / 3.0]]))[0]
            cell_data[name] = (u.coeffs[u.space.dofmap] @ centroid.T)[:, 0]

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        ne = mesh.n_elements
        fh.write(f"CELLS {ne} {4 * ne}\n")
        for a, b, c in mesh.elements:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {ne}\n")
        fh.write("5\n" * ne)
        if point_data:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, vals in point_data.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in vals:
                    fh.write(f"{float(v)!r}\n")
        if cell_data:
            fh.write(f"CELL_DATA {ne}\n")
            for name, vals in cell_data.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in vals:
                    fh.write(f"{float(v)!r}\n")

