"""Self-intersection testing for triangle meshes on S^3.

Two 2-simplices in 4-space generically miss each other, so the
well-posed test projects the mesh to R^3 first: stereographic projection
from a pole chosen automatically as far as possible from the surface (a
diffeomorphism of S^3 minus the pole, so embeddedness is preserved).
The pole search bounds every candidate's distance to the mesh from a
sample of the vertices and measures it exactly only for the candidates
that can still win.

The projected mesh goes through a uniform spatial hash with cells twice
the median triangle box (broad phase) and the exact triangle-triangle
test between non-adjacent triangles.  The broad phase pairs each (cell,
triangle) entry with the later entries of its cell by index arithmetic,
in chunks of whole entries of about _PAIR_CHUNK pairs, and drops a pair
found in several cells by a sort and a neighbour compare.  Its pairs,
sorted, go to `triangles_intersect` in ascending order, in chunks that
start at _EXACT_CHUNK pairs and double, until enough witnesses are
found; so the witnesses are always the smallest meeting pairs.

`triangles_intersect` evaluates every sign in floating point with a
conservative error bound first, in one batched call per kind of sign:
numpy checks every sign against that bound, and exact integer
arithmetic computes only the signs floats leave undecided.  Those go,
per batch, through one conversion to integers (every float is an
integer over a power of two) and one object-array determinant in Python
integers.  The reported verdict is therefore exact for the projected
coordinates.  Touching configurations count as intersections.

Every sign is the orientation of four points in R^3, from that one
filtered-exact predicate: the in-plane signs of coplanar contact are
orientations against an apex lifted off the common plane.
"""

import functools
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
_POLE_SAMPLES = 4096  # seeded random pole candidates, besides the 8 axes
_POLE_SEED = 20240317
# a sampled maximum is compared with an exact one only up to this margin,
# far above the ~1e-16 rounding of a 4-term dot product of unit vectors,
# so that two roundings of one sum can never drop the best candidate
_POLE_MARGIN = 1e-12
_PAIR_CHUNK = 1 << 16  # bucket pairs per chunk in _broad_phase
_EXACT_CHUNK = 2048    # pairs in self_intersection_test's first chunk


class PoleSelectionError(RuntimeError):
    """No projection pole with enough clearance from the mesh."""


def _max_dots(cand, vertices):
    """max_i <c, v_i> for each row c of cand, over vertex chunks so that
    no (candidates x vertices) matrix is formed."""
    # two rows at least: numpy hands a one-row product to BLAS gemv,
    # whose sums round differently from the gemm every other call takes
    block = cand if len(cand) > 1 else np.repeat(cand, 2, axis=0)
    worst = np.full(len(block), -np.inf)
    for lo in range(0, len(vertices), _POLE_CHUNK):
        chunk = vertices[lo:lo + _POLE_CHUNK]
        np.maximum(worst, (block @ chunk.T).max(axis=1), out=worst)
    return worst[:len(cand)]


@functools.cache
def _pole_candidates():
    """The seeded sample, then the 8 axes, as unit rows (read-only).

    Drawn on first use, once per process: a command that never tests
    embeddedness does not pay for them.
    """
    cand = np.concatenate([
        np.random.default_rng(_POLE_SEED).standard_normal((_POLE_SAMPLES, 4)),
        np.eye(4), -np.eye(4)])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    cand.flags.writeable = False
    return cand


def select_pole(vertices):
    """Point of S^3 far from every vertex (maximizing the minimum distance).

    Deterministic: candidates are a fixed seeded sample plus the
    coordinate axes, and the pole is the first candidate whose largest
    <pole, v_i> (the cosine of its distance to the nearest vertex) is
    least.  That largest value is first bounded from below by its
    maximum over every ceil(V / 256)-th vertex; it is computed exactly
    over all vertices only for the candidates whose bound does not
    exceed the exact value of the candidate with the smallest bound,
    the only ones that can win.  Returns (pole, clearance_angle).
    """
    cand = _pole_candidates()
    stride = -(-len(vertices) // _POLE_CHUNK)
    bound = (cand @ vertices[::stride].T).max(axis=1)
    if stride == 1:             # every vertex sampled: the bound is exact
        best = int(np.argmin(bound))
        worst = bound[best]
    else:
        first = int(np.argmin(bound))
        top = _max_dots(cand[first:first + 1], vertices)[0]
        # ascending rows keep the first-index tie-break of np.argmin
        rows = np.flatnonzero(bound <= top + _POLE_MARGIN)
        exact = _max_dots(cand[rows], vertices)
        k = int(np.argmin(exact))
        best, worst = int(rows[k]), exact[k]
    clearance = math.acos(min(1.0, max(-1.0, worst)))
    return cand[best].copy(), clearance


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


@np.errstate(over="ignore", invalid="ignore")
def _orient3d_filter(a, b, c, d):
    """Signs of det[b-a, c-a, d-a] that floats prove, 0 where they cannot.

    The float determinant is within _ORIENT_EPS times its permanent of
    the true one, so a sign is proved when |det| clears that bound.  The
    bound covers rounding only: overflow gives inf/nan and fails the
    comparison, and the range checks (permanent above 2^-600, max |b-a|
    below 2^300) keep underflow -- at most 2^-1074 per product, times
    |b-a| -- far below it.  A proved sign is never 0.
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
    bound = _ORIENT_EPS * perm
    ok = ((bound > _ORIENT_EPS * _FILTER_TINY)
          & (au.max(axis=-1) < _FILTER_HUGE))
    return (ok & (det > bound)).astype(np.int8) - (ok & (det < -bound))


def _scaled_ints(points):
    """Float stacks (m, k, d) as Python-int stacks, one denominator a row.

    Every finite float is a 53-bit integer mantissa times a power of
    two.  Shifting each mantissa up by its exponent's excess over the
    smallest exponent of a nonzero entry in its row scales the whole
    row by one positive power of two, which leaves the sign of an
    orientation determinant unchanged.  Raises ValueError on a NaN or
    infinite coordinate, which has no sign to decide.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("exact orientation of a non-finite coordinate")
    mant, expo = np.frexp(points)
    num = (mant * 2.0 ** 53).astype(np.int64)        # exact: 53 bits
    nonzero = num != 0
    # frexp exponents of finite floats are at most 1024
    low = np.min(expo, axis=(1, 2), keepdims=True, where=nonzero,
                 initial=1024)
    shift = np.where(nonzero, expo - low, 0)
    return num.astype(object) << shift.astype(object)


def _det3(a, b, c, d):
    """det[b-a, c-a, d-a] of integer points."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return (ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx)
            + uz * (vx * wy - vy * wx))


def _orient3d_exact(a, b, c, d):
    """Exact signs of det[b-a, c-a, d-a] over broadcast stacks (..., 3).

    `_orient3d_filter` proves what it can; the signs it leaves open come
    from one integer conversion of the open quadruples and one
    object-array determinant over all of them.
    """
    pts = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                for x in (a, b, c, d)))
    shape = pts[0].shape[:-1]
    pts = [x.reshape(-1, 3) for x in pts]
    sign = _orient3d_filter(*pts)
    todo = sign == 0
    if todo.any():
        quads = _scaled_ints(np.stack([x[todo] for x in pts], axis=1))
        det = _det3(*quads.transpose(1, 2, 0))
        sign[todo] = (det > 0).astype(np.int8) - (det < 0)
    return sign.reshape(shape)


def _between(u, v, w):
    """Is w within the bounding box of segment uv?  Stacks (..., 3)."""
    return ((np.minimum(u, v) <= w) & (w <= np.maximum(u, v))).all(axis=-1)


def _coplanar_segment_hits_exact(p, q, tri):
    """Contact of coplanar segments pq with triangles tri.

    p, q are (C, 3) stacks and tri a (C, 3, 3) stack, each segment in
    its triangle's plane.  A segment meets its triangle when an end is
    inside it or the segment meets an edge: crossing it, or touching it
    where a sign is 0.  The nine in-plane signs (each end against the
    three edges, the three vertices against the segment's line) come
    from one `_orient3d_exact` call against an apex off the plane: the
    first vertex a with apex_k = a_k + max(1, |a_k|) on the axis k of
    the largest normal component, so delta = apex_k - a_k > 0 exactly.
    For u, v, w in the plane, v-u, w-u and a-u lie in its 2D direction
    space, so det[v-u, w-u, apex-u] = delta * cross(v-u, w-u)_k: the 2D
    sign with axis k dropped, times a sign fixed by k, which cancels as
    only signs of one segment are compared.  Dropping k is injective on
    the plane, so the box test of collinear points decides in 3D as in
    2D.  (a + normal is no apex: for a small triangle far from the
    origin it rounds back onto the plane.)  A zero-area triangle has no
    plane; it gets this construction's answer all the same.
    """
    a = tri[:, 0]
    normal = np.cross(tri[:, 1] - a, tri[:, 2] - a)
    k = np.argmax(np.abs(normal), axis=1)
    a_k = np.take_along_axis(a, k[:, None], axis=1)
    apex = a + np.eye(3)[k] * np.maximum(1.0, np.abs(a_k))
    u = tri
    v = np.roll(u, -1, axis=1)                  # edge i runs u[i] -> v[i]
    p, q = p[:, None], q[:, None]
    signs = _orient3d_exact(np.concatenate([u, u, np.repeat(p, 3, 1)], 1),
                            np.concatenate([v, v, np.repeat(q, 3, 1)], 1),
                            np.concatenate([np.repeat(p, 3, 1),
                                            np.repeat(q, 3, 1), u], 1),
                            apex[:, None])
    sp, sq, su = signs[:, :3], signs[:, 3:6], signs[:, 6:]
    sv = np.roll(su, -1, axis=1)
    inside = [~((s > 0).any(axis=1) & (s < 0).any(axis=1)) for s in (sp, sq)]
    cross = ((su * sv < 0) & (sp * sq < 0)
             | (su == 0) & _between(p, q, u)
             | (sv == 0) & _between(p, q, v)
             | (sp == 0) & _between(u, v, p)
             | (sq == 0) & _between(u, v, q))
    return inside[0] | inside[1] | cross.any(axis=1)


def triangles_intersect(tri1, tri2):
    """Exact triangle-triangle intersection in R^3 (contact counts).

    Takes two triangles (3, 3) and returns a bool, or two stacks of them
    (P, 3, 3) and returns a (P,) bool array.  A pair meets when an edge
    of either triangle meets the other one: its ends are not strictly on
    one side of the plane and its line passes the triangle's three edges
    the same way round, or both ends lie in the plane and the coplanar
    test finds contact.  Each of the six plane-side signs of a pair is
    computed once, the line signs only for edges that reach the plane.
    """
    t1 = np.asarray(tri1, dtype=float)
    t2 = np.asarray(tri2, dtype=float)
    # edge k of side s runs from p[s, :, k] to q[s, :, k] and is tested
    # against the triangle tri[s] (side 0: edges of t1 against t2)
    p = np.stack([t1.reshape(-1, 3, 3), t2.reshape(-1, 3, 3)])
    q = np.roll(p, -1, axis=2)
    tri = p[::-1]
    sp = _orient3d_exact(tri[:, :, None, 0], tri[:, :, None, 1],
                         tri[:, :, None, 2], p)
    sq = np.roll(sp, -1, axis=2)
    coplanar = (sp == 0) & (sq == 0)
    reach = (sp * sq <= 0) & ~coplanar
    meets = np.zeros(sp.shape, dtype=bool)
    # the line of edge pq against the edges (a, b), (b, c), (c, a) of its
    # triangle: the signs of (p, a, b, q) and so on
    edge_tri = np.broadcast_to(tri[:, :, None], p.shape[:3] + (3, 3))
    t = edge_tri[reach]
    uvw = _orient3d_exact(p[reach][:, None], t, np.roll(t, -1, axis=1),
                          q[reach][:, None])
    meets[reach] = ~((uvw > 0).any(axis=1) & (uvw < 0).any(axis=1))
    if coplanar.any():
        meets[coplanar] = _coplanar_segment_hits_exact(
            p[coplanar], q[coplanar], edge_tri[coplanar])
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
    # any cell size gives the same pairs (two overlapping closed boxes
    # share a cell; the re-check below decides), so it is chosen for
    # speed.  At the median extent a typical box touches 8 cells and
    # most bucket pairs are formed only to be dropped.  Cells 1.5x to
    # 3x that took 15-50% less time on crossed clifford tori, sphere
    # offsets, clifford 32x32 and 128x128 and equator subdiv 5, within
    # about 10% of each other; 2x stays low in that range because on a
    # surface the bucket pairs formed grow as the square of the width.
    cell = max(2.0 * float(np.median(ext)), 1e-12)
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
    # entry e pairs with the rest[e] entries after it in its bucket
    rest = np.repeat(starts + sizes, sizes) - np.arange(len(cells)) - 1
    entries = np.flatnonzero(rest)
    rest = rest[entries]
    # whole entries in chunks of about _PAIR_CHUNK pairs, each entry in
    # the chunk its first pair falls in: the chunks bound the pair
    # temporaries, and one pass over all pairs was slower
    chunk = (np.cumsum(rest) - rest) // _PAIR_CHUNK
    cuts = np.flatnonzero(np.diff(chunk)) + 1
    lo_t, hi_t, tri_t = lo.T.copy(), hi.T.copy(), triangles.T.copy()
    keys = []
    for e, r in zip(np.split(entries, cuts), np.split(rest, cuts)):
        ti = np.repeat(e, r)
        # the k-th pair of entry e is (e, e + 1 + k)
        tj = ti + 1 + np.arange(len(ti)) - np.repeat(np.cumsum(r) - r, r)
        ti, tj = owners[ti], owners[tj]
        # AABB overlap re-check (hash cells over-approximate), one axis
        # at a time on the pairs left, then no shared vertex
        for lo_k, hi_k in zip(lo_t, hi_t):
            keep = (lo_k[ti] <= hi_k[tj]) & (lo_k[tj] <= hi_k[ti])
            ti, tj = ti[keep], tj[keep]
        vi, vj = tri_t[:, ti], tri_t[:, tj]
        keep = np.logical_and.reduce([x != y for x in vi for y in vj])
        keys.append(ti[keep] * n_tri + tj[keep])
    # a pair found in several cells is dropped after the first: by a sort
    # and a neighbour compare (numpy >= 2.3 sends a bare np.unique of
    # int64 through a hash table, many times slower than a sort)
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([keys // n_tri, keys % n_tri], axis=1)


def self_intersection_test(mesh, max_witnesses=64):
    """Test a mesh on S^3 for self-intersections.

    Returns (embedded, witnesses): `embedded` is True when no pair of
    non-adjacent triangles meets; `witnesses` lists the max_witnesses
    smallest meeting triangle index pairs, in ascending order, as (i, j)
    tuples of ints with i < j.  The candidate pairs are decided exactly
    in ascending chunks, and the test stops after the chunk that brings
    max(max_witnesses, 1) witnesses, so a cap of 0 still decides
    `embedded`.  Disjoint nested components are embedded.  Raises
    PoleSelectionError when no projection pole clears the surface.
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
    proj = points[mesh.triangles]
    # one witness decides the verdict even when none are to be listed
    want = max(max_witnesses, 1)
    witnesses = []
    lo, size = 0, _EXACT_CHUNK
    while lo < len(pairs) and len(witnesses) < want:
        chunk = pairs[lo:lo + size]
        meets = triangles_intersect(proj[chunk[:, 0]], proj[chunk[:, 1]])
        witnesses += map(tuple, chunk[meets].tolist())
        lo, size = lo + size, 2 * size
    return not witnesses, witnesses[:max_witnesses]
