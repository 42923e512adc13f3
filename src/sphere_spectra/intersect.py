"""Self-intersection testing for triangle meshes on S^3.

Two 2-simplices in 4-space generically miss each other, so the
well-posed test projects the mesh to R^3 first: stereographic projection
from a pole chosen automatically as far as possible from the surface (a
diffeomorphism of S^3 minus the pole, so embeddedness is preserved).
The pole search bounds every candidate's distance to the mesh from
seeded vertex samples that grow 8x a level, and measures it exactly
only for the candidates that can still win.

The projected mesh goes through a uniform spatial hash with cells twice
the median triangle box (broad phase) and the exact triangle-triangle
test between non-adjacent triangles.  The hash is built once: its
(cell, triangle) entries sorted by one int64 key, cell times the
triangle count plus the triangle, so that triangles ascend within a
cell.  The candidate pairs then stream out one owner range at a time: a
range of triangles holds every pair (i, j), i < j, whose first triangle
i lies in it, formed by pairing i's entries with the later entries of
their cells by index arithmetic, re-checked box against box, and
deduplicated and sorted by a sort and a neighbour compare.  The first
range holds about _RANGE_PAIRS such bucket pairs and later ones twice
as many up to _RANGE_MAX_PAIRS, so the concatenated ranges are every
candidate pair in ascending order.  `self_intersection_test` decides
the pairs of whole ranges in batches of at least _EXACT_BATCH pairs,
each before the next range is hashed, and stops after the batch that
brings enough witnesses; so the witnesses are always the smallest
meeting pairs, and an intersecting mesh forms and decides only a few
ranges' pairs.

`triangles_intersect` evaluates every sign in floating point with a
conservative error bound first, in one batched call per kind of sign:
numpy checks every sign against Shewchuk's bound in doubles, then the
signs doubles leave open with the same filter in np.longdouble, against
the bound of its own unit roundoff (2^-64 on x87; on platforms where
long double is no wider than double that stage is skipped, with the same
signs).  Exact integer arithmetic computes only the signs both leave
undecided -- exact zeros, extreme exponents, |det| below about 2^-61 of
the permanent -- a handful of rows even on the near-degenerate
quadruples of the symmetric tori.  Those go, per batch, through one
conversion to integers (every float is an integer over a power of two)
and one object-array determinant in Python integers.  The reported
verdict is therefore exact for the projected coordinates.  Touching
configurations count as intersections.

Every sign is the orientation of four points in R^3, from that one
filtered-exact predicate: the in-plane signs of coplanar contact are
orientations against an apex lifted off the common plane.

Rows are gathered with np.take and filtered with np.compress, not with
a[idx] or a[mask], which cost 3-10x more for the same values on numpy
2.4; duplicates go by a sort, not by a bare np.unique, which numpy >= 2.3
runs through a much slower hash table.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = ["PoleSelectionError", "select_pole", "stereographic_project",
           "self_intersection_test", "triangles_intersect"]

# Shewchuk's o3derrboundA for the float determinant of `_orient3d_filter`
_ORIENT_EPS = (7.0 + 56.0 * 2.0 ** -53) * 2.0 ** -53
# the float filter of the exact predicates is trusted only where under-
# and overflow cannot outweigh the rounding bound
_FILTER_TINY = 2.0 ** -600
_FILTER_HUGE = 2.0 ** 300
_POLE_CHUNK = 1 << 20  # entries per candidates x vertices product: 8 MB
_POLE_SAMPLES = 4096  # seeded random pole candidates, besides the 8 axes
_POLE_SEED = 20240317
_POLE_SAMPLE = 64     # vertices in select_pole's first sample
# select_pole measures this few candidates exactly with no further
# level, whose product and exact best would cost about as much
_POLE_FEW = 32
# a sampled maximum is compared with an exact one only up to this margin,
# far above the ~1e-16 rounding of a 4-term dot product of unit vectors,
# so that two roundings of one sum can never drop the best candidate
_POLE_MARGIN = 1e-12
# bucket pairs in the first owner range of _broad_phase, and in the
# largest, whose pair temporaries still stay in cache
_RANGE_PAIRS = 1 << 14
_RANGE_MAX_PAIRS = 1 << 16
# candidate pairs that fill an exact batch: larger batches cost more a
# pair once their temporaries leave the cache
_EXACT_BATCH = 512


class PoleSelectionError(RuntimeError):
    """No projection pole with enough clearance from the mesh."""


def _max_dots(cand, vertices):
    """max_i <c, v_i> for each row c of cand, over vertex chunks so that
    no product of more than _POLE_CHUNK entries is formed."""
    # two rows at least: numpy hands a one-row product to BLAS gemv,
    # whose sums round differently from the gemm every other call takes
    block = cand if len(cand) > 1 else np.repeat(cand, 2, axis=0)
    worst = np.full(len(block), -np.inf)
    step = _POLE_CHUNK // len(block)
    for lo in range(0, len(vertices), step):
        chunk = vertices[lo:lo + step]
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
    least.  That largest value is bounded from below by its maximum over
    seeded random vertex samples, of 64 and then 8x more a level while
    fewer than V and while more than _POLE_FEW candidates are left.  A
    level keeps the candidates whose bound is at most the least exact
    value yet of a level's best-bounded one, the only ones that can win;
    the last ones kept are measured exactly.  The sample sets the cost,
    never the pole.  Returns (pole, clearance_angle).
    """
    cand = _pole_candidates()
    draw = np.random.default_rng(_POLE_SEED).integers
    # ascending rows keep the first-index tie-break of np.argmin
    rows = np.arange(len(cand))
    top, size = np.inf, _POLE_SAMPLE
    while size < len(vertices) and len(rows) > _POLE_FEW:
        sample = np.take(vertices, draw(len(vertices), size=size), axis=0)
        # samples x candidates: numpy reduces down columns, across rows
        # of over _POLE_FEW entries, about 4x faster than along rows of 64
        bound = (sample @ np.take(cand, rows, axis=0).T).max(axis=0)
        first = rows[int(np.argmin(bound))]
        top = min(top, _max_dots(cand[first:first + 1], vertices)[0])
        rows = np.compress(bound <= top + _POLE_MARGIN, rows)
        size *= 8
    exact = _max_dots(np.take(cand, rows, axis=0), vertices)
    k = int(np.argmin(exact))
    clearance = math.acos(min(1.0, max(-1.0, exact[k])))
    return cand[rows[k]].copy(), clearance


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
def _orient3d_filter(a, b, c, d, errbound):
    """Signs of det[b-a, c-a, d-a] that the inputs' floating-point type
    proves, 0 where it cannot.

    errbound is (7 + 56 eps) eps for the unit roundoff eps of that type:
    _ORIENT_EPS for doubles (eps = 2^-53), `_long_orient_eps()` for
    np.longdouble.  With no under- or overflow, each operation rounds
    by a factor (1 + delta), |delta| <= eps.  Every term of the computed
    determinant is a product of three exact differences times the
    roundings it passed through, at most seven: its three differences,
    the product in its 2x2 minor, the minor's subtraction, the product
    with u and the first of the two sums.  So before the last sum the
    computed value is within (7 eps + O(eps^2)) perm of the true
    determinant, perm being the sum of the six terms' magnitudes; and the
    last sum rounds by eps times its own result, which changes no sign
    the bound proves.  Shewchuk (Discrete Comput. Geom. 18, 1997) bounds
    the second-order terms, the rounding of the computed permanent and of
    the product errbound * perm by 56 eps^2, which gives his
    o3derrboundA = (7 + 56 eps) eps for this very evaluation order and
    any eps, and a sign is proved when |det| exceeds that bound.

    The bound covers rounding only: overflow gives inf/nan and fails the
    comparison, and the range checks (permanent above 2^-600, max |b-a|
    below 2^300) keep underflow -- at most 2^-1074 per double product,
    times |b-a| -- far below it.  In long double, whose 15-bit exponent
    reaches 2^+-16382, double inputs can neither under- nor overflow: a
    nonzero difference of two doubles lies between 2^-1074 and 2^1025,
    so every nonzero intermediate stays between about 2^-3500 and
    2^3100.  The checks guard nothing there; they only pass the
    extreme-exponent rows that doubles rejected on to integers.  A
    proved sign is never 0.
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
    bound = errbound * perm
    ok = ((bound > errbound * _FILTER_TINY)
          & (np.maximum(np.maximum(au[..., 0], au[..., 1]), au[..., 2])
             < _FILTER_HUGE))
    return (ok & (det > bound)).astype(np.int8) - (ok & (det < -bound))


@functools.cache
def _long_orient_eps():
    """(7 + 56 eps) eps for np.longdouble, or None where its arithmetic
    is not both wider and longer-ranged than double's.

    The unit roundoff eps = 2^-(nmant + 1) from np.finfo must be at most
    2^-64 (x87 extended, IEEE quad) and the exponent must have 15 bits.
    An array probe then checks that sums and products really round at
    eps: an x87 unit set to 53-bit precision reports 64 bits in np.finfo
    but rounds 1 + 2 eps to 1, which would make the bound false.  With
    eps = 2^-p, 7 + 56 eps spans p bits, so the bound is exact.
    """
    info = np.finfo(np.longdouble)
    if info.nmant < 63 or info.nexp < 15:
        return None
    eps = np.longdouble(2.0) ** -(info.nmant + 1)
    x = np.ones(2, dtype=np.longdouble) + 2 * eps
    if not ((x - 1 == 2 * eps).all() and (x * x - 1 == 4 * eps).all()):
        return None
    return (7 + 56 * eps) * eps


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

    `_orient3d_filter` proves what it can in doubles, then in long double
    (where `_long_orient_eps` finds it wider) on the quadruples doubles
    leave open; the signs left after both come from one integer
    conversion of those quadruples and one object-array determinant over
    all of them: exact zeros, extreme-exponent rows and rows with |det|
    below about 2^-61 of the permanent.
    """
    pts = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                for x in (a, b, c, d)))
    shape = pts[0].shape[:-1]
    pts = [x.reshape(-1, 3) for x in pts]
    sign = _orient3d_filter(*pts, _ORIENT_EPS)
    todo = np.flatnonzero(sign == 0)
    quads = np.stack([np.take(x, todo, axis=0) for x in pts], axis=1)
    long_eps = _long_orient_eps()
    if len(todo) and long_eps is not None:
        part = _orient3d_filter(
            *quads.astype(np.longdouble).transpose(1, 0, 2), long_eps)
        np.put(sign, todo, part)
        todo = np.compress(part == 0, todo)
        quads = np.compress(part == 0, quads, axis=0)
    if len(todo):
        det = _det3(*_scaled_ints(quads).transpose(1, 2, 0))
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
    apex = a + np.take(np.eye(3), k, axis=0) * np.maximum(1.0, np.abs(a_k))
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
    # flat rows: edge r = (s * P + i) * 3 + k runs from p[r] to q[r] and
    # is tested against the triangle tri[r // 3]
    p, q, tri = p.reshape(-1, 3), q.reshape(-1, 3), tri.reshape(-1, 3, 3)
    meets = np.zeros(sp.size, dtype=bool)
    # the line of edge pq against the edges (a, b), (b, c), (c, a) of its
    # triangle: the signs of (p, a, b, q) and so on
    r = np.flatnonzero(reach)
    t = np.take(tri, r // 3, axis=0)
    uvw = _orient3d_exact(np.take(p, r, axis=0)[:, None], t,
                          np.roll(t, -1, axis=1),
                          np.take(q, r, axis=0)[:, None])
    meets[r] = ~((uvw > 0).any(axis=1) & (uvw < 0).any(axis=1))
    r = np.flatnonzero(coplanar)
    if len(r):
        meets[r] = _coplanar_segment_hits_exact(
            np.take(p, r, axis=0), np.take(q, r, axis=0),
            np.take(tri, r // 3, axis=0))
    hit = meets.reshape(sp.shape).any(axis=(0, 2))
    return hit if t1.ndim == 3 else bool(hit[0])


class _Buckets(NamedTuple):
    """The (cell, triangle) entries of a spatial hash, in bucket order."""
    owners: np.ndarray     # each entry's triangle, ascending in a bucket
    end: np.ndarray        # one past the last entry of each entry's bucket
    where: np.ndarray      # bucket-order position of the entries, owner-major
    first: np.ndarray      # owner-major index of each triangle's first entry
    x_lo: np.ndarray       # each entry's box on the first axis
    x_hi: np.ndarray
    lo: np.ndarray         # (3, n_tri) box corners, one row an axis
    hi: np.ndarray
    corners: np.ndarray    # (3, n_tri) vertex indices, one row a corner


def _hash_entries(proj, triangles):
    """Uniform spatial hash of triangle AABBs.

    `proj` holds the (n_tri, 3, 3) triangle corners in R^3 that the
    exact test reads too.  Returns the `_Buckets` and the bounds of the
    owner ranges: ascending triangle indices from 0 to n_tri, range r
    holding the triangles from bounds[r] up to bounds[r + 1].
    """
    lo = np.minimum(np.minimum(proj[:, 0], proj[:, 1]), proj[:, 2])
    hi = np.maximum(np.maximum(proj[:, 0], proj[:, 1]), proj[:, 2])
    n_tri = len(triangles)
    ext = hi - lo
    ext = np.maximum(np.maximum(ext[:, 0], ext[:, 1]), ext[:, 2])
    # any cell size gives the same pairs (two overlapping closed boxes
    # share a cell; _broad_phase re-checks), so it is chosen for
    # speed.  At the median extent a typical box touches 8 cells and
    # most bucket pairs are formed only to be dropped.  Cells 1.5x to
    # 3x that took 15-50% less time on crossed clifford tori, sphere
    # offsets, clifford 32x32 and 128x128 and equator subdiv 5, within
    # about 10% of each other; 2x stays low in that range because on a
    # surface the bucket pairs formed grow as the square of the width.
    cell = max(2.0 * float(np.median(ext)), 1e-12)
    lo_idx = np.floor(lo / cell).astype(np.int64)
    span = np.floor(hi / cell).astype(np.int64) - lo_idx + 1
    # one (cell, triangle) entry per cell a triangle's AABB touches, keyed
    # (x * ny + y) * nz + z: the entries are expanded one axis at a time,
    # each repeated once per cell of the triangle's span on that axis and
    # moved by its offset in the span, so they stay owner-major with z
    # fastest.
    ny, nz = ((lo_idx + span).max(axis=0) - lo_idx.min(axis=0))[1:]
    owners = np.arange(n_tri)
    cells = (lo_idx[:, 0] * ny + lo_idx[:, 1]) * nz + lo_idx[:, 2]
    for axis, stride in ((0, ny * nz), (1, nz), (2, 1)):
        size = np.take(span[:, axis], owners)
        owners, cells = np.repeat(owners, size), np.repeat(cells, size)
        cells += (np.arange(len(cells))
                  - np.repeat(np.cumsum(size) - size, size)) * stride
    # one key per entry, cell * width + owner, sorted: the owners ascend
    # in a bucket, so the pairs formed have i < j.  A cell key that wraps
    # (modulo 2^62 // width here, past 2^63 above) only merges buckets,
    # whose extra pairs the box re-check drops.  Distinct entries have
    # distinct keys, so numpy's default sort fixes their order; it took
    # 2-3x less time than a stable sort of the cell keys alone.
    width = max(n_tri, 1)
    order = np.argsort(np.mod(cells, (1 << 62) // width) * width + owners)
    cells, owners = np.take(cells, order), np.take(owners, order)
    new_bucket = np.ones(len(cells), dtype=bool)
    new_bucket[1:] = cells[1:] != cells[:-1]
    starts = np.nonzero(new_bucket)[0]
    sizes = np.diff(np.append(starts, len(cells)))
    end = np.repeat(starts + sizes, sizes)
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    first = np.concatenate([[0], np.cumsum(span.prod(axis=1))])
    # entry e pairs with the end[e] - e - 1 entries after it in its
    # bucket.  The ranges hold _RANGE_PAIRS of those pairs, then twice as
    # many a range up to _RANGE_MAX_PAIRS, and a triangle goes to the
    # range its first pair falls in; a range that would get less than
    # half its share is left to the one before it.
    before = np.concatenate([[0], np.cumsum(np.take(end - 1, where)
                                            - where)])
    total = int(before[-1])
    ramp = max(_RANGE_MAX_PAIRS // _RANGE_PAIRS, 1).bit_length()
    size = np.concatenate([_RANGE_PAIRS << np.arange(ramp),
                           np.full(total // _RANGE_MAX_PAIRS + 1,
                                   _RANGE_MAX_PAIRS)])
    cuts = np.cumsum(size)[:-1]
    cuts = np.compress(cuts + size[1:] // 2 <= total, cuts)
    rng = np.searchsorted(cuts, np.take(before, first[:-1]), side="right")
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(rng)) + 1,
                             [n_tri]])
    lo, hi = lo.T.copy(), hi.T.copy()
    buckets = _Buckets(owners, end, where, first, np.take(lo[0], owners),
                       np.take(hi[0], owners), lo, hi, triangles.T.copy())
    return buckets, bounds


def _broad_phase(buckets, first, stop):
    """Candidate non-adjacent pairs (i, j), i < j, with i in [first, stop)
    and overlapping boxes, as a sorted (P, 2) int64 array."""
    # the range's entries in bucket order, so that the gathers stay local
    e = np.sort(buckets.where[buckets.first[first]:buckets.first[stop]])
    rest = np.take(buckets.end, e) - e - 1
    # the k-th pair of entry e is (e, e + 1 + k)
    pi = np.repeat(e, rest)
    pj = np.arange(len(pi)) + np.repeat(e + 1 - np.cumsum(rest) + rest, rest)
    # AABB overlap re-check (hash cells over-approximate), one axis at a
    # time on the pairs left, then no shared vertex.  The first axis,
    # on every pair formed, reads the entries' own copies of the box;
    # one np.flatnonzero and two np.take filter two arrays in 2/3 the
    # time of two np.compress
    keep = np.take(buckets.x_lo, pi) <= np.take(buckets.x_hi, pj)
    keep &= np.take(buckets.x_lo, pj) <= np.take(buckets.x_hi, pi)
    keep = np.flatnonzero(keep)
    ti = np.take(buckets.owners, np.take(pi, keep))
    tj = np.take(buckets.owners, np.take(pj, keep))
    for lo_k, hi_k in zip(buckets.lo[1:], buckets.hi[1:]):
        keep = np.take(lo_k, ti) <= np.take(hi_k, tj)
        keep &= np.take(lo_k, tj) <= np.take(hi_k, ti)
        keep = np.flatnonzero(keep)
        ti, tj = np.take(ti, keep), np.take(tj, keep)
    vi = np.take(buckets.corners, ti, axis=1)
    vj = np.take(buckets.corners, tj, axis=1)
    keep = np.ones(len(ti), dtype=bool)
    for x in vi:
        for y in vj:
            keep &= x != y
    # a pair found in several cells is dropped after the first: by a sort
    # and a neighbour compare (numpy >= 2.3 sends a bare np.unique of
    # int64 through a hash table, many times slower than a sort), as rows
    # go through np.take / np.compress, not a[idx] / a[mask], which cost
    # 3-10x more on numpy 2.4
    width = len(buckets.first) - 1
    keys = np.sort(np.compress(keep, ti) * width + np.compress(keep, tj))
    keys = np.compress(np.diff(keys, prepend=-1) != 0, keys)
    return np.stack([keys // width, keys % width], axis=1)


def _candidate_pairs(proj, triangles):
    """The candidate pairs of the triangles `proj`, one owner range at a time.

    Hashes the triangles once, then yields `_broad_phase` of each range
    of triangles in ascending order; a pair (i, j) is formed only from
    i's entries, so its copies from other cells fall in one range, and
    the ranges concatenated are every candidate pair, sorted.
    """
    buckets, bounds = _hash_entries(proj, triangles)
    for first, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        yield _broad_phase(buckets, first, stop)


def self_intersection_test(mesh, max_witnesses=64):
    """Test a mesh on S^3 for self-intersections.

    Returns (embedded, witnesses): `embedded` is True when no pair of
    non-adjacent triangles meets; `witnesses` lists the max_witnesses
    smallest meeting triangle index pairs, in ascending order, as (i, j)
    tuples of ints with i < j.  The candidate pairs stream in ascending
    owner ranges and are decided exactly in batches of whole ranges, of
    _EXACT_BATCH pairs or more (or the last ones), each before the next
    range is hashed; the test stops after the batch that brings
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
    edge = tp - np.roll(tp, 1, axis=1)
    diam = math.sqrt(sum(edge[..., i] ** 2 for i in range(4)).max())
    margin = 2.0 * math.asin(min(1.0, 0.5 * diam))
    if clearance <= margin + 1e-6:
        raise PoleSelectionError(
            f"best pole clearance {clearance:.4f} rad does not exceed "
            f"{margin:.4f} rad, the angular size of the largest triangle")
    proj = np.take(stereographic_project(mesh.vertices, pole),
                   mesh.triangles, axis=0)
    ranges = _candidate_pairs(proj, mesh.triangles)
    # one witness decides the verdict even when none are to be listed
    want = max(max_witnesses, 1)
    witnesses = []
    while len(witnesses) < want:
        pending, count = [], 0
        for pairs in ranges:
            pending.append(pairs)
            count += len(pairs)
            if count >= _EXACT_BATCH:
                break
        if not count:
            break
        chunk = np.concatenate(pending)
        meets = triangles_intersect(np.take(proj, chunk[:, 0], axis=0),
                                    np.take(proj, chunk[:, 1], axis=0))
        witnesses += map(tuple, np.compress(meets, chunk, axis=0).tolist())
    return not witnesses, witnesses[:max_witnesses]
