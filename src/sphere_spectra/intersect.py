"""Self-intersection testing for triangle meshes on S^3.

Two 2-simplices in 4-space generically miss each other, so the
well-posed test projects the mesh to R^3 first: stereographic projection
from a pole chosen automatically as far as possible from the surface (a
diffeomorphism of S^3 minus the pole, so embeddedness is preserved).

The projected mesh goes through a uniform spatial hash (broad phase) and
a triangle-triangle intersection test between non-adjacent triangles
(narrow phase).  Narrow-phase predicates are evaluated in floating point
with a conservative error bound; a pair with any sign decision within
the bound is re-run through exact predicates, which use exact integer
arithmetic for only the signs floats cannot decide (every float is an
integer over a power of two).  The reported verdict is therefore exact
for the projected coordinates.  Touching configurations count as
intersections.
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
    """det[b-a, c-a, d-a], its permanent and max |b-a| (floats or ints)."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    p0, q0 = vy * wz, vz * wy
    p1, q1 = vx * wz, vz * wx
    p2, q2 = vx * wy, vy * wx
    det = ux * (p0 - q0) - uy * (p1 - q1) + uz * (p2 - q2)
    perm = (abs(ux) * (abs(p0) + abs(q0)) + abs(uy) * (abs(p1) + abs(q1))
            + abs(uz) * (abs(p2) + abs(q2)))
    return det, perm, max(abs(ux), abs(uy), abs(uz))


def _det2(a, b, c):
    """det[b-a, c-a] in 2D and its permanent (floats or ints)."""
    p = (b[0] - a[0]) * (c[1] - a[1])
    q = (b[1] - a[1]) * (c[0] - a[0])
    return p - q, abs(p) + abs(q)


def _orient3d_exact(a, b, c, d):
    """Exact sign of det[b-a, c-a, d-a].

    The float determinant decides when it clears the `_ORIENT_EPS`
    permanent bound of `_orient3d_float`.  That bound covers rounding
    only: overflow gives inf/nan and fails the comparison, and the
    range checks keep underflow (at most 2^-1074 per product, times
    |b-a|) far below it.  Otherwise the sign comes from integers.
    """
    det, perm, u_max = _det3(a, b, c, d)
    if (abs(det) > _ORIENT_EPS * perm and perm > _FILTER_TINY
            and u_max < _FILTER_HUGE):
        return _sign(det)
    return _sign(_det3(*_scaled_ints(a, b, c, d))[0])


def _orient2d_exact(a, b, c):
    """Exact sign of det[b-a, c-a] in 2D, filtered as `_orient3d_exact`."""
    det, perm = _det2(a, b, c)
    if abs(det) > _ORIENT_EPS * perm and perm > _FILTER_TINY:
        return _sign(det)
    return _sign(_det2(*_scaled_ints(a, b, c))[0])


def _segment_hits_triangle_exact(p, q, tri):
    """Exact: does segment pq meet triangle tri (boundary contact counts)?"""
    a, b, c = tri
    sp = _orient3d_exact(a, b, c, p)
    sq = _orient3d_exact(a, b, c, q)
    if sp == 0 and sq == 0:
        return _coplanar_segment_hits_exact(p, q, tri)
    if sp * sq > 0:
        return False
    u = _orient3d_exact(p, a, b, q)
    v = _orient3d_exact(p, b, c, q)
    w = _orient3d_exact(p, c, a, q)
    signs = {u, v, w}
    return not (1 in signs and -1 in signs)


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


def triangles_intersect(tri1, tri2):
    """Exact triangle-triangle intersection in R^3 (contact counts).

    Reference predicate used for the exact narrow-phase fallback: any of
    the six edges meeting the other triangle, or coplanar overlap.
    """
    t1 = [tuple(map(float, p)) for p in tri1]
    t2 = [tuple(map(float, p)) for p in tri2]
    for (p, q) in [(t1[0], t1[1]), (t1[1], t1[2]), (t1[2], t1[0])]:
        if _segment_hits_triangle_exact(p, q, t2):
            return True
    for (p, q) in [(t2[0], t2[1]), (t2[1], t2[2]), (t2[2], t2[0])]:
        if _segment_hits_triangle_exact(p, q, t1):
            return True
    return False


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

    Vectorized float predicates with conservative error bounds; anything
    not decidable at the bound goes to the exact fallback.
    """
    if len(pairs) == 0:
        return [], []
    p1 = points[triangles[pairs[:, 0]]]
    p2 = points[triangles[pairs[:, 1]]]
    a, b, c = p1[:, 0], p1[:, 1], p1[:, 2]
    d, e, f = p2[:, 0], p2[:, 1], p2[:, 2]

    # plane side tests (shared by the edge tests)
    sides2 = []   # vertices of tri2 against plane of tri1
    for x in (d, e, f):
        sides2.append(_orient3d_float(a, b, c, x))
    sides1 = []
    for x in (a, b, c):
        sides1.append(_orient3d_float(d, e, f, x))

    def certain_pos(sd):
        return sd[0] > sd[1]

    def certain_neg(sd):
        return sd[0] < -sd[1]

    sep1 = np.logical_and.reduce([certain_pos(s) for s in sides2]) \
        | np.logical_and.reduce([certain_neg(s) for s in sides2])
    sep2 = np.logical_and.reduce([certain_pos(s) for s in sides1]) \
        | np.logical_and.reduce([certain_neg(s) for s in sides1])
    alive = ~(sep1 | sep2)
    if not alive.any():
        return [], []

    idx = np.nonzero(alive)[0]
    hits = np.zeros(len(idx), dtype=bool)
    uncertain = np.zeros(len(idx), dtype=bool)
    edge_lists = (
        [(a, b), (b, c), (c, a)],
        [(d, e), (e, f), (f, d)],
    )
    tri_of = ((d, e, f), (a, b, c))
    side_of = (sides1, sides2)
    for which in (0, 1):
        ta, tb, tc = tri_of[which]
        for k, (p, q) in enumerate(edge_lists[which]):
            sp_det, sp_bnd = side_of[which][k]
            sq_det, sq_bnd = side_of[which][(k + 1) % 3]
            sp_det, sp_bnd = sp_det[idx], sp_bnd[idx]
            sq_det, sq_bnd = sq_det[idx], sq_bnd[idx]
            cross = ((sp_det > sp_bnd) & (sq_det < -sq_bnd)) \
                | ((sp_det < -sp_bnd) & (sq_det > sq_bnd))
            fuzzy = (np.abs(sp_det) <= sp_bnd) | (np.abs(sq_det) <= sq_bnd)
            pi, qi = p[idx], q[idx]
            u_det, u_bnd = _orient3d_float(pi, ta[idx], tb[idx], qi)
            v_det, v_bnd = _orient3d_float(pi, tb[idx], tc[idx], qi)
            w_det, w_bnd = _orient3d_float(pi, tc[idx], ta[idx], qi)
            all_pos = (u_det > u_bnd) & (v_det > v_bnd) & (w_det > w_bnd)
            all_neg = (u_det < -u_bnd) & (v_det < -v_bnd) & (w_det < -w_bnd)
            pierce_fuzzy = ((np.abs(u_det) <= u_bnd) | (np.abs(v_det) <= v_bnd)
                            | (np.abs(w_det) <= w_bnd))
            hits |= cross & (all_pos | all_neg)
            uncertain |= fuzzy
            uncertain |= cross & pierce_fuzzy & ~(all_pos | all_neg)
    uncertain &= ~hits
    hit_pairs = [tuple(pairs[i]) for i in idx[hits]]
    fuzzy_pairs = [tuple(pairs[i]) for i in idx[uncertain]]
    return hit_pairs, fuzzy_pairs


def self_intersection_test(mesh, max_witnesses=64):
    """Test a mesh on S^3 for self-intersections.

    Returns (embedded, witnesses): `embedded` is True when no pair of
    non-adjacent triangles meets; `witnesses` lists offending triangle
    index pairs (capped at max_witnesses).  Disjoint nested components
    are embedded.  Raises PoleSelectionError when no projection pole
    clears the surface.
    """
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
    for (i, j) in fuzzy:
        # one witness decides the verdict even when none are to be listed
        if len(witnesses) >= max(max_witnesses, 1):
            break
        if triangles_intersect(points[mesh.triangles[i]],
                               points[mesh.triangles[j]]):
            witnesses.append((i, j))
    return not witnesses, sorted(set(witnesses))[:max_witnesses]
