"""Self-intersection testing for triangle meshes on S^3.

Two 2-simplices in 4-space generically miss each other, so the
well-posed test projects the mesh to R^3 first: stereographic projection
from a pole chosen automatically as far as possible from the surface (a
diffeomorphism of S^3 minus the pole, so embeddedness is preserved).

The projected mesh goes through a uniform spatial hash (broad phase) and
a triangle-triangle intersection test between non-adjacent triangles
(narrow phase).  Narrow-phase predicates are evaluated in floating point
with a conservative error bound.  The pairs with any sign decision
within the bound go, in one batched call, through the exact predicate:
numpy re-checks every sign it needs against the same bound, and exact
integer arithmetic computes only the signs floats leave undecided
(every float is an integer over a power of two).  The reported verdict
is therefore exact for the projected coordinates.  Touching
configurations count as intersections.
"""

import math

import numpy as np

__all__ = ["PoleSelectionError", "select_pole", "stereographic_project",
           "self_intersection_test", "triangles_intersect"]

_ORIENT_EPS = 1e-14
# the float filter of the exact predicates is trusted only where under-
# and overflow cannot outweigh the rounding bound
_FILTER_TINY = 2.0 ** -600
_FILTER_HUGE = 2.0 ** 300
_POLE_CHUNK = 256     # vertices per chunk in select_pole: an 8 MB product


class PoleSelectionError(RuntimeError):
    """No projection pole with enough clearance from the mesh."""


def select_pole(vertices, samples=4096, seed=20240317):
    """Point of S^3 far from every vertex (maximizing the minimum distance).

    Deterministic: candidates are a fixed seeded sample plus the
    coordinate axes.  Returns (pole, clearance_angle).
    """
    rng = np.random.default_rng(seed)
    cand = rng.standard_normal((samples, 4))
    cand = np.concatenate([cand, np.eye(4), -np.eye(4)])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    # max_i <pole, v_i> -> cos of distance to the nearest vertex, over
    # vertex chunks so that no (candidates x vertices) matrix is formed
    worst = np.full(len(cand), -np.inf)
    for lo in range(0, len(vertices), _POLE_CHUNK):
        np.maximum(worst, (cand @ vertices[lo:lo + _POLE_CHUNK].T).max(axis=1),
                   out=worst)
    best = int(np.argmin(worst))
    clearance = math.acos(min(1.0, max(-1.0, worst[best])))
    return cand[best], clearance


def stereographic_project(vertices, pole):
    """Stereographic chart of S^3 minus the pole onto R^3."""
    pole = np.asarray(pole, dtype=float)
    basis = []
    for k in np.argsort(np.abs(pole)):
        e = np.zeros(4)
        e[k] = 1.0
        for b in basis:
            e = e - b * (e @ b)
        e = e - pole * (e @ pole)
        nrm = np.linalg.norm(e)
        if nrm > 1e-8:
            basis.append(e / nrm)
        if len(basis) == 3:
            break
    basis = np.array(basis)
    denom = 1.0 - vertices @ pole
    if (denom < 1e-12).any():
        raise PoleSelectionError("mesh passes through the projection pole")
    return (vertices @ basis.T) / denom[:, None]


def _orient3d_float(a, b, c, d):
    """Batched signed volume det[b-a, c-a, d-a] with an error bound.

    Returns (det, bound): |det - true det| <= bound, so the sign is
    certain whenever |det| > bound.
    """
    u = b - a
    v = c - a
    w = d - a
    m0 = v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1]
    m1 = v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0]
    m2 = v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]
    det = u[..., 0] * m0 - u[..., 1] * m1 + u[..., 2] * m2
    av, aw, au = np.abs(v), np.abs(w), np.abs(u)
    perm = (au[..., 0] * (av[..., 1] * aw[..., 2] + av[..., 2] * aw[..., 1])
            + au[..., 1] * (av[..., 0] * aw[..., 2] + av[..., 2] * aw[..., 0])
            + au[..., 2] * (av[..., 0] * aw[..., 1] + av[..., 1] * aw[..., 0]))
    return det, _ORIENT_EPS * perm


def _orient3d_filter(a, b, c, d):
    """Signs of det[b-a, c-a, d-a] that floats prove, 0 where they cannot.

    A sign is proved when |det| clears the bound of `_orient3d_float`.
    That bound covers rounding only: overflow gives inf/nan and fails
    the comparison, and the range checks (permanent above 2^-600,
    max |b-a| below 2^300) keep underflow -- at most 2^-1074 per
    product, times |b-a| -- far below it.  A proved sign is never 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det, bound = _orient3d_float(a, b, c, d)
        ok = ((bound > _ORIENT_EPS * _FILTER_TINY)
              & (np.abs(b - a).max(axis=-1) < _FILTER_HUGE))
        return (ok & (det > bound)).astype(np.int8) - (ok & (det < -bound))


def _sign(x):
    return (x > 0) - (x < 0)


def _scaled_ints(*points):
    """Float points as integer points over one power-of-two denominator.

    Every finite float is num / 2^k, so shifting each numerator up to
    the largest k scales all coordinates by the same positive factor,
    which leaves the sign of an orientation determinant unchanged.
    """
    ratios = [[x.as_integer_ratio() for x in p] for p in points]
    top = max(den for p in ratios for _, den in p).bit_length()
    return [[num << (top - den.bit_length()) for num, den in p]
            for p in ratios]


def _det3(a, b, c, d):
    """det[b-a, c-a, d-a] of integer points."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return (ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx)
            + uz * (vx * wy - vy * wx))


def _det2(a, b, c):
    """det[b-a, c-a] in 2D and its permanent (floats or ints)."""
    p = (b[0] - a[0]) * (c[1] - a[1])
    q = (b[1] - a[1]) * (c[0] - a[0])
    return p - q, abs(p) + abs(q)


def _orient3d_exact(a, b, c, d):
    """Exact signs of det[b-a, c-a, d-a] over broadcast stacks (..., 3).

    `_orient3d_filter` proves what it can; each sign it leaves open is
    the sign of the determinant in Python integers.
    """
    pts = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                for x in (a, b, c, d)))
    shape = pts[0].shape[:-1]
    pts = [x.reshape(-1, 3) for x in pts]
    sign = _orient3d_filter(*pts)
    todo = sign == 0
    sign[todo] = [_sign(_det3(*_scaled_ints(*quad)))
                  for quad in zip(*(x[todo].tolist() for x in pts))]
    return sign.reshape(shape)


def _orient2d_exact(a, b, c):
    """Exact sign of det[b-a, c-a] in 2D.

    Filtered as `_orient3d_filter`, one sign at a time; no edge length
    multiplies an underflowed product here, so only the permanent is
    range-checked.
    """
    det, perm = _det2(a, b, c)
    if abs(det) > _ORIENT_EPS * perm and perm > _FILTER_TINY:
        return _sign(det)
    return _sign(_det2(*_scaled_ints(a, b, c))[0])


def _drop_axis(tri3, extra):
    """Project coplanar points to the 2D plane of largest normal component."""
    a, b, c = (np.asarray(p, dtype=float) for p in tri3)
    n = np.cross(b - a, c - a)
    axis = int(np.argmax(np.abs(n)))
    keep = [k for k in range(3) if k != axis]
    return ([tuple(float(p[k]) for k in keep) for p in tri3],
            [tuple(float(p[k]) for k in keep) for p in extra])


def _point_in_triangle_2d(p, tri2):
    a, b, c = tri2
    s1 = _orient2d_exact(a, b, p)
    s2 = _orient2d_exact(b, c, p)
    s3 = _orient2d_exact(c, a, p)
    return not (1 in {s1, s2, s3} and -1 in {s1, s2, s3})


def _segments_cross_2d(p, q, a, b):
    s1 = _orient2d_exact(p, q, a)
    s2 = _orient2d_exact(p, q, b)
    s3 = _orient2d_exact(a, b, p)
    s4 = _orient2d_exact(a, b, q)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    # collinear / endpoint contacts
    for (u, v, w, s) in [(p, q, a, s1), (p, q, b, s2), (a, b, p, s3), (a, b, q, s4)]:
        if s == 0 and _between_2d(u, v, w):
            return True
    return False


def _between_2d(u, v, w):
    """Is w within the bounding box of collinear segment uv?"""
    return (min(u[0], v[0]) <= w[0] <= max(u[0], v[0])
            and min(u[1], v[1]) <= w[1] <= max(u[1], v[1]))


def _coplanar_segment_hits_exact(p, q, tri):
    tri2, (p2, q2) = _drop_axis(tri, [p, q])
    if _point_in_triangle_2d(p2, tri2) or _point_in_triangle_2d(q2, tri2):
        return True
    a, b, c = tri2
    return any(_segments_cross_2d(p2, q2, u, v)
               for (u, v) in [(a, b), (b, c), (c, a)])


def _edges_and_triangles(t1, t2):
    """Each edge of either triangle of a pair, with the other triangle.

    t1, t2 are (P, 3, 3) stacks.  Returns p, q and tri, (2, P, 3, 3)
    each: edge k of side s runs from p[s, :, k] to q[s, :, k] and is
    tested against the triangle tri[s] (side 0: edges of t1 against t2).
    """
    p = np.stack([t1, t2])
    return p, np.roll(p, -1, axis=2), p[::-1]


def _side_args(p, tri):
    """orient3d arguments of every edge end p against its triangle's plane."""
    return tri[:, :, None, 0], tri[:, :, None, 1], tri[:, :, None, 2], p


def _line_args(p, q, tri, mask):
    """orient3d arguments of the masked edges' lines against the edges
    (a, b), (b, c), (c, a) of their triangles: (p, a, b, q) and so on."""
    t = np.broadcast_to(tri[:, :, None], p.shape[:3] + (3, 3))[mask]
    return p[mask][:, None], t, np.roll(t, -1, axis=1), q[mask][:, None]


def triangles_intersect(tri1, tri2):
    """Exact triangle-triangle intersection in R^3 (contact counts).

    Takes two triangles (3, 3) and returns a bool, or two stacks of them
    (P, 3, 3) and returns a (P,) bool array.  A pair meets when an edge
    of either triangle meets the other one: its ends are not strictly on
    one side of the plane and its line passes the triangle's three edges
    the same way round, or both ends lie in the plane and the 2D test
    finds contact.  Each of the six plane-side signs of a pair is
    computed once, the line signs only for edges that reach the plane.
    """
    t1 = np.asarray(tri1, dtype=float)
    t2 = np.asarray(tri2, dtype=float)
    p, q, tri = _edges_and_triangles(t1.reshape(-1, 3, 3),
                                     t2.reshape(-1, 3, 3))
    sp = _orient3d_exact(*_side_args(p, tri))
    sq = np.roll(sp, -1, axis=2)
    coplanar = (sp == 0) & (sq == 0)
    reach = (sp * sq <= 0) & ~coplanar
    meets = np.zeros(sp.shape, dtype=bool)
    uvw = _orient3d_exact(*_line_args(p, q, tri, reach))
    meets[reach] = ~((uvw > 0).any(axis=1) & (uvw < 0).any(axis=1))
    for s, i, k in zip(*np.nonzero(coplanar)):
        meets[s, i, k] = _coplanar_segment_hits_exact(
            p[s, i, k].tolist(), q[s, i, k].tolist(), tri[s, i].tolist())
    hit = meets.any(axis=(0, 2))
    return hit if t1.ndim == 3 else bool(hit[0])


def _broad_phase(points, triangles):
    """Uniform spatial hash of triangle AABBs -> candidate non-adjacent pairs.

    Returns the pairs (i < j) as a sorted (P, 2) int64 array.
    """
    tp = points[triangles]
    lo = tp.min(axis=1)
    hi = tp.max(axis=1)
    n_tri = len(triangles)
    ext = (hi - lo).max(axis=1)
    cell = max(float(np.median(ext)), 1e-12)
    lo_idx = np.floor(lo / cell).astype(np.int64)
    span = np.floor(hi / cell).astype(np.int64) - lo_idx + 1
    # one (cell, triangle) entry per cell a triangle's AABB touches: the
    # k-th entry of a triangle is k unravelled in its own span
    count = span.prod(axis=1)
    owners = np.repeat(np.arange(n_tri), count)
    k = np.arange(len(owners)) - np.repeat(np.cumsum(count) - count, count)
    cells = lo_idx[owners]
    for axis in (2, 1, 0):
        size = span[owners, axis]
        cells[:, axis] += k % size
        k //= size
    # stable: within a bucket the owners stay ascending, so i < j below
    order = np.lexsort(cells.T)
    cells, owners = cells[order], owners[order]
    new_bucket = np.ones(len(cells), dtype=bool)
    new_bucket[1:] = (cells[1:] != cells[:-1]).any(axis=1)
    starts = np.nonzero(new_bucket)[0]
    sizes = np.diff(np.append(starts, len(cells)))
    keys = [np.empty(0, dtype=np.int64)]
    for size in np.unique(sizes[sizes > 1]):
        first = starts[sizes == size]
        members = owners[first[:, None] + np.arange(size)]
        iu, ju = np.triu_indices(size, 1)
        ti, tj = members[:, iu].ravel(), members[:, ju].ravel()
        # AABB overlap re-check (hash cells over-approximate), then no
        # shared vertex
        keep = (lo[ti] <= hi[tj]).all(axis=1) & (lo[tj] <= hi[ti]).all(axis=1)
        ti, tj = ti[keep], tj[keep]
        shared = (triangles[ti][:, :, None] == triangles[tj][:, None, :])
        keep = ~shared.any(axis=(1, 2))
        keys.append(ti[keep] * n_tri + tj[keep])
    keys = np.unique(np.concatenate(keys))
    return np.stack([keys // n_tri, keys % n_tri], axis=1)


def _narrow_phase(points, triangles, pairs):
    """Split the (P, 2) candidate pairs into certain hits and uncertain pairs.

    The signs of `triangles_intersect` as far as `_orient3d_filter`
    proves them; a pair that one of the unproved signs could decide
    goes to the exact fallback.
    """
    tp = points[triangles]
    p, q, tri = _edges_and_triangles(tp[pairs[:, 0]], tp[pairs[:, 1]])
    sp = _orient3d_filter(*_side_args(p, tri))
    # a triangle strictly on one side of the other's plane: no contact
    alive = np.flatnonzero(~((sp > 0).all(axis=2)
                             | (sp < 0).all(axis=2)).any(axis=0))
    p, q, tri, sp = p[:, alive], q[:, alive], tri[:, alive], sp[:, alive]
    sq = np.roll(sp, -1, axis=2)
    cross = sp * sq < 0
    uvw = _orient3d_filter(*_line_args(p, q, tri, cross))
    pierce = np.zeros(sp.shape, dtype=bool)
    unsure = (sp == 0) | (sq == 0)
    pierce[cross] = (uvw > 0).all(axis=1) | (uvw < 0).all(axis=1)
    unsure[cross] = (uvw == 0).any(axis=1) & ~pierce[cross]
    hits = pierce.any(axis=(0, 2))
    uncertain = unsure.any(axis=(0, 2)) & ~hits
    return (list(map(tuple, pairs[alive[hits]].tolist())),
            list(map(tuple, pairs[alive[uncertain]].tolist())))


def self_intersection_test(mesh, max_witnesses=64):
    """Test a mesh on S^3 for self-intersections.

    Returns (embedded, witnesses): `embedded` is True when no pair of
    non-adjacent triangles meets; `witnesses` lists offending triangle
    index pairs (capped at max_witnesses).  Disjoint nested components
    are embedded.  Raises PoleSelectionError when no projection pole
    clears the surface.  Witnesses are (i, j) tuples of ints, i < j.
    """
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")
    pole, clearance = select_pole(mesh.vertices)
    tp = mesh.triangle_points()
    # chordal diameter -> angular bound on how far the surface can stray
    # from its vertices; the pole must clear vertices by more than that
    diam = np.linalg.norm(tp - np.roll(tp, 1, axis=1), axis=2).max()
    margin = 2.0 * math.asin(min(1.0, 0.5 * diam))
    if clearance <= margin + 1e-6:
        raise PoleSelectionError(
            f"best pole clearance {clearance:.4f} rad does not exceed the "
            f"triangle-size margin {margin:.4f} rad; mesh too dense in S^3")
    points = stereographic_project(mesh.vertices, pole)
    pairs = _broad_phase(points, mesh.triangles)
    hits, fuzzy = _narrow_phase(points, mesh.triangles, pairs)
    witnesses = list(hits)
    # one witness decides the verdict even when none are to be listed
    room = max(max_witnesses, 1) - len(witnesses)
    if room > 0 and fuzzy:
        undecided = np.array(fuzzy, dtype=np.int64)
        proj = points[mesh.triangles]
        meets = triangles_intersect(proj[undecided[:, 0]],
                                    proj[undecided[:, 1]])
        witnesses += map(tuple, undecided[meets][:room].tolist())
    return not witnesses, sorted(witnesses)[:max_witnesses]
