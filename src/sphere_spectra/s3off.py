"""S3OFF: a plain-text exchange format for triangle meshes on S^3.

Layout::

    S3OFF
    V F
    x0 x1 x2 x3          (V vertex lines, unit 4-vectors)
    3 i j k              (F triangle lines, zero-based indices)

Writers emit 17 significant digits so coordinates round-trip exactly.
Loading validates unit norms (1e-9) and the closed-manifold invariants
via the SphericalTriMesh constructor.
"""

import os

import numpy as np

from .mesh import MeshError, SphericalTriMesh, write_text_atomic

__all__ = ["read_s3off", "write_s3off"]


def read_s3off(path):
    """Load and validate a mesh from an S3OFF file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "S3OFF":
        raise MeshError(f"{path}: missing S3OFF header")
    try:
        v_count, f_count = (int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise MeshError(f"{path}: malformed count line") from exc
    if len(lines) != 2 + v_count + f_count:
        raise MeshError(
            f"{path}: expected {2 + v_count + f_count} lines, got {len(lines)}")
    try:
        verts = np.array([[float(t) for t in ln.split()]
                          for ln in lines[2:2 + v_count]])
    except ValueError as exc:
        raise MeshError(f"{path}: malformed vertex line") from exc
    if verts.shape != (v_count, 4):
        raise MeshError(f"{path}: vertex lines must hold 4 floats")
    tris = []
    for ln in lines[2 + v_count:]:
        toks = ln.split()
        if len(toks) != 4 or toks[0] != "3":
            raise MeshError(f"{path}: triangle line must read '3 i j k'")
        tris.append([int(t) for t in toks[1:]])
    return SphericalTriMesh(
        vertices=verts, triangles=np.array(tris, dtype=np.int64),
        name=os.path.basename(path))


def write_s3off(mesh, path):
    """Write a mesh as S3OFF (atomically: temp file + rename)."""
    lines = ["S3OFF", f"{mesh.vertex_count} {mesh.triangle_count}"]
    lines += [" ".join(f"{x:.17g}" for x in v) for v in mesh.vertices]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
    write_text_atomic("\n".join(lines) + "\n", path)
