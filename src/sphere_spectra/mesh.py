"""Triangulated closed surfaces embedded in the unit 3-sphere.

Vertices are unit 4-vectors; triangle connectivity must form a closed,
consistently oriented 2-manifold.  Triangle geometry (areas, angles,
Laplacian weights) is chordal: straight-line simplices in R^4.

Discrete surface normals follow the package orientation convention of
:mod:`sphere_spectra.geometry`: for a triangle (p0, p1, p2) the normal is
the 4D dual of (p1-p0, p2-p0, centroid), so generator windings determine
which side the normal field points to (each generator documents its
choice).
"""

import os
import stat
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import geometry

__all__ = [
    "MeshError", "MeshQualityError", "SphericalTriMesh",
    "LaplacePair", "DiscreteGeometry", "assemble_laplacian",
    "discrete_shape_operator", "offset_horizon", "offset_mesh",
    "vertex_areas", "write_text_atomic",
]

_UNIT_TOL = 1e-9


def write_text_atomic(text, path):
    """Write text to path via a temp file in its directory and a rename.

    A failed write leaves any earlier file at path as it was and no temp
    file behind.  The file gets the mode `open(path, "w")` would leave:
    an existing file keeps its own, a new one gets 0666 less the umask.
    """
    path = os.path.abspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    # O_EXCL: never write through a file or link that is already there
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:      # named by the path asked for, not the temp
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class MeshError(ValueError):
    """Invalid mesh data (geometry or connectivity)."""


class MeshQualityError(MeshError):
    """Mesh is valid but numerically unusable (e.g. degenerate triangle)."""


def _cross4(a, b, c):
    """Vector orthogonal to a, b, c in R^4, oriented so det[n, a, b, c] > 0.

    Works on stacked (..., 4) arrays.
    """
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    m01 = b0 * c1 - b1 * c0
    m02 = b0 * c2 - b2 * c0
    m03 = b0 * c3 - b3 * c0
    m12 = b1 * c2 - b2 * c1
    m13 = b1 * c3 - b3 * c1
    m23 = b2 * c3 - b3 * c2
    n0 = a1 * m23 - a2 * m13 + a3 * m12
    n1 = -(a0 * m23 - a2 * m03 + a3 * m02)
    n2 = a0 * m13 - a1 * m03 + a3 * m01
    n3 = -(a0 * m12 - a1 * m02 + a2 * m01)
    return np.stack([n0, n1, n2, n3], axis=-1)


def _check_finite(rows, what):
    """MeshError naming the first row of `rows` with a NaN or infinity
    (the tolerance checks compare with `>`, which a NaN passes)."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise MeshError(f"{what} {int(np.argmax(bad))} is not finite")


@dataclass
class SphericalTriMesh:
    """Closed oriented triangle mesh with vertices on S^3.

    Optional analytic attachments produced by the generators:
    `normals` (per-vertex unit surface normals, tangent to S^3) and
    `kappas` (per-vertex principal curvatures with respect to those
    normals).  `genus` is validated against the Euler characteristic
    when the mesh is connected.
    """
    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray | None = None
    kappas: np.ndarray | None = None
    genus: int | None = None
    name: str = "mesh"
    normal_doc: str = ""
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 4:
            raise MeshError("vertices must be a (V, 4) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be a (F, 3) array")
        v, f = self.vertex_count, self.triangle_count
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= v:
            raise MeshError("triangle index out of range")
        _check_finite(self.vertices, "vertex")
        norms = np.linalg.norm(self.vertices, axis=1)
        bad = np.abs(norms - 1.0) > _UNIT_TOL
        if bad.any():
            i = int(np.argmax(np.abs(norms - 1.0)))
            raise MeshError(
                f"vertex {i} is off the unit sphere by {abs(norms[i] - 1.0):.3e}")
        t = self.triangles
        if (t[:, 0] == t[:, 1]).any() or (t[:, 1] == t[:, 2]).any() \
                or (t[:, 0] == t[:, 2]).any():
            raise MeshError("triangle with a repeated vertex")
        tail = t.T.ravel()
        head = t[:, [1, 2, 0]].T.ravel()
        # distinct directed edges, each with its reverse among them: then
        # every edge is shared by exactly two triangles, and there are 3F/2
        forward = np.sort(tail * v + head)
        if (forward[1:] == forward[:-1]).any():
            raise MeshError("inconsistent orientation: repeated directed edge")
        if not np.array_equal(forward, np.sort(head * v + tail)):
            raise MeshError("mesh is not closed: edge not shared by exactly "
                            "two triangles")
        self._edge_count = 3 * f // 2
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=float)
            if self.normals.shape != self.vertices.shape:
                raise MeshError("normals must match vertices in shape")
            _check_finite(self.normals, "normal")
            if np.abs(np.linalg.norm(self.normals, axis=1) - 1.0).max() > _UNIT_TOL:
                raise MeshError("normals must be unit vectors")
            if np.abs(np.einsum("ij,ij->i", self.normals,
                                self.vertices)).max() > _UNIT_TOL:
                raise MeshError("normals must be tangent to the sphere")
        if self.kappas is not None:
            self.kappas = np.ascontiguousarray(self.kappas, dtype=float)
            if self.kappas.shape != (v, 2):
                raise MeshError("kappas must be a (V, 2) array")
            _check_finite(self.kappas, "kappa")
        if self.genus is not None and self.component_count == 1:
            if self.euler_characteristic != 2 - 2 * self.genus:
                raise MeshError(
                    f"Euler characteristic {self.euler_characteristic} does "
                    f"not match genus {self.genus}")

    @property
    def vertex_count(self):
        return self.vertices.shape[0]

    @property
    def triangle_count(self):
        return self.triangles.shape[0]

    @property
    def edge_count(self):
        return self._edge_count

    @property
    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + self.triangle_count

    @property
    def component_count(self):
        if "components" not in self._cache:
            self._cache["components"] = connected_components(
                self.adjacency(), directed=False)[0]
        return self._cache["components"]

    def triangle_points(self):
        """(F, 3, 4) array of triangle corner coordinates."""
        return np.take(self.vertices, self.triangles, axis=0)

    def triangle_areas(self):
        """(F,) chordal triangle areas, computed once per mesh (read-only)."""
        if "triangle_areas" not in self._cache:
            p = self.triangle_points()
            u = p[:, 1] - p[:, 0]
            w = p[:, 2] - p[:, 0]
            uu = np.einsum("ij,ij->i", u, u)
            ww = np.einsum("ij,ij->i", w, w)
            uw = np.einsum("ij,ij->i", u, w)
            g = uu * ww - uw ** 2
            self._cache["triangle_areas"] = _read_only(
                0.5 * np.sqrt(np.maximum(g, 0.0)))
        return self._cache["triangle_areas"]

    def area(self):
        return float(self.triangle_areas().sum())

    def adjacency(self):
        """CSR vertex adjacency (summed duplicates; indices per row sorted),
        computed once per mesh (read-only arrays)."""
        if "adjacency" not in self._cache:
            t = self.triangles
            rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
            cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
            a = sp.coo_matrix(
                (np.ones(len(rows)), (rows, cols)),
                shape=(self.vertex_count, self.vertex_count)).tocsr()
            a = a + a.T
            a.sort_indices()
            for x in (a.data, a.indices, a.indptr):
                _read_only(x)
            self._cache["adjacency"] = a
        return self._cache["adjacency"]

    def _with_vertices(self, vertices, normals, kappas, name):
        """Mesh on a copy of these triangles at new vertex positions.

        It starts with this mesh's adjacency and component count, which
        depend on the triangles alone (shared, read-only); its own
        validation still runs.
        """
        return SphericalTriMesh(
            vertices=vertices, triangles=self.triangles.copy(),
            normals=normals, kappas=kappas, genus=self.genus, name=name,
            normal_doc=self.normal_doc,
            _cache={"adjacency": self.adjacency(),
                    "components": self.component_count})

    def estimated_normals(self):
        """Discrete surface normals (unit, tangent to S^3), computed once
        per mesh (read-only).

        Per-corner contributions weighted by 1/(|e1|^2 |e2|^2) (Max's
        weights), which reproduces exact normals whenever the one-ring
        lies on a round sphere through the vertex; geodesic spheres in
        S^3 are chordal round spheres inside a hyperplane, so they get
        exact normals for any triangulation.
        """
        if "est_normals" not in self._cache:
            p = self.triangle_points()
            f = self.triangle_count
            contrib = np.empty((4, 3 * f))    # one row per coordinate
            for k in range(3):
                corner = p[:, k]
                e1 = p[:, (k + 1) % 3] - corner
                e2 = p[:, (k + 2) % 3] - corner
                w = (np.einsum("ij,ij->i", e1, e1)
                     * np.einsum("ij,ij->i", e2, e2))
                contrib[:, k * f:(k + 1) * f] = \
                    _cross4(e1, e2, corner).T / w
            acc = np.stack([_corner_sums(self, row) for row in contrib],
                           axis=1)
            acc -= self.vertices * np.einsum(
                "ij,ij->i", acc, self.vertices)[:, None]
            norms = np.linalg.norm(acc, axis=1)
            if (norms < 1e-30).any():
                raise MeshQualityError("vanishing discrete normal at a vertex")
            self._cache["est_normals"] = _read_only(acc / norms[:, None])
        return self._cache["est_normals"]


@dataclass(frozen=True)
class LaplacePair:
    """Cotangent stiffness matrix and lumped (barycentric) mass vector."""
    stiffness: sp.csr_matrix
    mass: np.ndarray

    @property
    def size(self):
        return self.mass.shape[0]


def _read_only(a):
    a.flags.writeable = False
    return a


def _corner_sums(mesh, values):
    """Per-vertex sums of per-corner values (3F,) ordered as
    `triangles.T.ravel()`: all first corners, then second, then third.

    bincount adds in that order, triangle by triangle, as a loop of
    `np.add.at` over the three corners would.
    """
    return np.bincount(mesh.triangles.T.ravel(), weights=values,
                       minlength=mesh.vertex_count)


def vertex_areas(mesh):
    """Barycentric lumped vertex areas (one third of incident triangles),
    computed once per mesh (read-only)."""
    if "vertex_areas" not in mesh._cache:
        third = mesh.triangle_areas() / 3.0
        mesh._cache["vertex_areas"] = _read_only(
            _corner_sums(mesh, np.concatenate([third, third, third])))
    return mesh._cache["vertex_areas"]


def assemble_laplacian(mesh):
    """Cotangent stiffness + lumped mass for -Laplace on the mesh.

    Chordal triangle geometry in R^4.  Raises MeshQualityError for a
    triangle with area below 1e-14 (cotangents unreliable past that).
    """
    p = mesh.triangle_points()
    areas = mesh.triangle_areas()
    if (areas < 1e-14).any():
        i = int(np.argmin(areas))
        raise MeshQualityError(
            f"triangle {i} is degenerate (area {areas[i]:.3e})")
    rows, cols, vals = [], [], []
    tris = mesh.triangles
    for corner in range(3):
        j = (corner + 1) % 3
        k = (corner + 2) % 3
        u = p[:, j] - p[:, corner]
        w = p[:, k] - p[:, corner]
        cot = np.einsum("ij,ij->i", u, w) / (2.0 * areas)
        half = 0.5 * cot
        rows += [tris[:, j], tris[:, k], tris[:, j], tris[:, k]]
        cols += [tris[:, k], tris[:, j], tris[:, j], tris[:, k]]
        vals += [-half, -half, half, half]
    stiffness = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.vertex_count, mesh.vertex_count)).tocsr()
    return LaplacePair(stiffness=stiffness, mass=vertex_areas(mesh))


@dataclass(frozen=True)
class DiscreteGeometry:
    """Per-vertex discrete geometry estimated from the triangulation; its
    arrays are read-only, as a mesh caches it (`discrete_shape_operator`)."""
    areas: np.ndarray        # lumped vertex areas; positive, sum = total area
    normals: np.ndarray      # estimated unit surface normals
    shape_operators: np.ndarray  # (V, 2, 2) symmetric Weingarten estimates
    kappas: np.ndarray       # (V, 2) principal curvature estimates
    norm_A: np.ndarray       # (V,) Frobenius norms of the shape operators
    mean_H: np.ndarray       # (V,) traces
    total_area: float
    lam_max: float           # max over vertices of norm_A
    genus: int | None


def _tangent_frames(vertices, normals):
    """Orthonormal pairs (t1, t2) spanning the surface tangent plane."""
    v = vertices
    nu = normals
    weight = np.abs(v) + np.abs(nu)
    seed = np.take(np.eye(4), np.argmin(weight, axis=1), axis=0)
    t1 = seed - v * np.einsum("ij,ij->i", seed, v)[:, None] \
        - nu * np.einsum("ij,ij->i", seed, nu)[:, None]
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = _cross4(v, nu, t1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    return t1, t2


def discrete_shape_operator(mesh):
    """Estimate the per-vertex shape operator from one-ring normal variation.

    The per-vertex normal is estimated from incident triangles, then a
    symmetric 2x2 operator S is fit in least squares to
    delta_normal = -S delta_position  over the one-ring, both sides
    projected to the tangent plane, in closed form for all vertices at
    once.  Curvature sign convention is the package one: geodesic
    spheres have positive curvature toward their center.

    Computed once per mesh: the `DiscreteGeometry` is cached on the mesh
    (read-only arrays, as `vertex_areas`) and later calls return it.
    Raises MeshQualityError where a vertex's one-ring fit is rank
    deficient.
    """
    if "geometry" in mesh._cache:
        return mesh._cache["geometry"]
    normals = mesh.estimated_normals()
    v = mesh.vertices
    t1, t2 = _tangent_frames(v, normals)
    adj = mesh.adjacency()
    indptr, indices = adj.indptr, adj.indices
    counts = np.diff(indptr)
    src = np.repeat(np.arange(mesh.vertex_count), counts)
    dx = np.take(v, indices, axis=0) - np.take(v, src, axis=0)
    dn = np.take(normals, indices, axis=0) - np.take(normals, src, axis=0)

    def coords(t):          # one gathered frame axis alive at a time
        e = np.take(t, src, axis=0)
        return np.einsum("ij,ij->i", dx, e), np.einsum("ij,ij->i", dn, e)

    (a1, b1), (a2, b2) = coords(t1), coords(t2)
    V = mesh.vertex_count

    def seg(x):
        return np.bincount(src, weights=x, minlength=V)

    p11 = seg(a1 * a1)
    p12 = seg(a1 * a2)
    p22 = seg(a2 * a2)
    r1 = -seg(a1 * b1)
    r2 = -(seg(a2 * b1) + seg(a1 * b2))
    r3 = -seg(a2 * b2)

    # the normal equations [[p11, p12, 0], [p12, p11 + p22, p12],
    # [0, p12, p22]] (s11, s12, s22) = r, solved by the adjugate over
    # the determinant (p11 + p22)(p11 p22 - p12^2)
    trace = p11 + p22
    dets = trace * (p11 * p22 - p12 * p12)
    degenerate = dets < 1e-10 * np.maximum(trace, 1e-300) ** 3
    if degenerate.any():
        raise MeshQualityError(
            f"rank-deficient one-ring fit at vertex "
            f"{int(np.argmax(degenerate))}")
    inv = 1.0 / dets
    s11 = ((trace * p22 - p12 * p12) * r1 - p12 * p22 * r2
           + p12 * p12 * r3) * inv
    s12 = (p11 * p22 * r2 - p12 * (p22 * r1 + p11 * r3)) * inv
    s22 = (p12 * p12 * r1 - p11 * p12 * r2
           + (p11 * trace - p12 * p12) * r3) * inv

    s_ops = np.stack([np.stack([s11, s12], 1), np.stack([s12, s22], 1)], 1)
    # eigenvalues of S: the larger in magnitude is mid +- hypot((s11 - s22)
    # / 2, s12), the other det S over it, accurate also where it is small
    mid = 0.5 * (s11 + s22)
    big = mid + np.copysign(np.hypot(0.5 * (s11 - s22), s12), mid)
    small = np.divide(s11 * s22 - s12 * s12, big, out=np.zeros(V),
                      where=big != 0.0)
    kappas = np.sort(np.stack([big, small], axis=1), axis=1)
    norm_a = np.sqrt(s11 ** 2 + 2.0 * s12 ** 2 + s22 ** 2)
    mean_h = s11 + s22
    for x in (s_ops, kappas, norm_a, mean_h):
        _read_only(x)
    areas = vertex_areas(mesh)
    genus = None
    if mesh.component_count == 1:
        genus = (2 - mesh.euler_characteristic) // 2
    mesh._cache["geometry"] = DiscreteGeometry(
        areas=areas, normals=normals, shape_operators=s_ops,
        kappas=kappas, norm_A=norm_a, mean_H=mean_h,
        total_area=float(areas.sum()), lam_max=float(norm_a.max()),
        genus=genus)
    return mesh._cache["geometry"]


def offset_horizon(mesh):
    """Focal distance of the largest principal |kappa|, pi/2 if all are 0
    (`geometry.embeddedness_horizon`): the analytic kappas if the mesh has
    them, else the discrete ones."""
    kappas = mesh.kappas
    if kappas is None:
        kappas = discrete_shape_operator(mesh).kappas
    return geometry.embeddedness_horizon(kappas.ravel())


def offset_mesh(mesh, t):
    """Parallel mesh at signed geodesic distance t along per-vertex normals.

    Uses the mesh's analytic normals when present, otherwise estimated
    ones.  Raises HorizonError for |t| at or beyond `offset_horizon(mesh)`.
    Analytic normals and curvatures are transported to the offset mesh,
    the curvatures by `geometry.tangent_addition`.  The offset
    mesh keeps the triangles, and shares the mesh's adjacency and
    component count from the start.
    """
    analytic = mesh.normals is not None
    normals = mesh.normals if analytic else mesh.estimated_normals()
    geometry.check_below_horizon(t, offset_horizon(mesh))
    ct, st = np.cos(t), np.sin(t)
    new_vertices = ct * mesh.vertices + st * normals
    new_normals = None
    new_kappas = None
    if analytic:
        new_normals = ct * normals - st * mesh.vertices
        if mesh.kappas is not None:
            new_kappas = geometry.tangent_addition(mesh.kappas, t)
    return mesh._with_vertices(new_vertices, new_normals, new_kappas,
                               f"{mesh.name}|offset{t:+g}")
