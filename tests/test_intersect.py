import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from sphere_spectra import intersect
from sphere_spectra.generators import (
    combine_meshes, gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere,
    rotate_mesh,
)
from sphere_spectra.intersect import (
    PoleSelectionError, _candidate_pairs, _orient3d_exact, _orient3d_filter,
    select_pole, self_intersection_test, stereographic_project,
    triangles_intersect,
)
from sphere_spectra.mesh import (
    SphericalTriMesh, discrete_shape_operator, offset_mesh,
)


# ---------------------------------------------------------------------------
# exact triangle-triangle predicate

T_BASE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]


@pytest.mark.parametrize("other,expected", [
    ([(0.2, 0.2, -1.0), (0.3, 0.2, 1.0), (0.2, 0.3, 1.0)], True),   # pierces
    ([(0.2, 0.2, 0.5), (1.2, 0.2, 1.0), (0.2, 1.3, 1.0)], False),   # above
    ([(0.1, 0.1, 0.0), (0.9, 0.1, 0.0), (0.1, 0.9, 0.0)], True),    # coplanar
    ([(2.0, 2.0, 0.0), (3.0, 2.0, 0.0), (2.0, 3.0, 0.0)], False),   # far coplanar
    ([(0.0, 0.0, 0.0), (-1.0, 0.0, 1.0), (0.0, -1.0, 1.0)], True),  # vertex touch
    ([(0.3, 0.3, -1.0), (0.3, 0.3, 1.0), (5.0, 5.0, 3.0)], True),   # edge stab
    ([(0.5, 0.5, 1e-12), (1.5, 0.5, 1.0), (0.5, 1.5, 1.0)], False), # near miss
    # coplanar, no vertex inside the other triangle: only edges cross
    ([(-0.5, 0.2, 0.0), (1.5, 0.2, 0.0), (-0.5, 0.3, 0.0)], True),
    ([(0.6, 0.5, 0.0), (1.0, 0.5, 0.0), (0.6, 0.9, 0.0)], False),   # coplanar miss
])
def test_triangle_predicate_cases(other, expected):
    assert triangles_intersect(T_BASE, other) is expected
    assert triangles_intersect(other, T_BASE) is expected


def _float_reference(tri_a, tri_b):
    """Independent float reference for generic (non-degenerate) pairs."""
    def seg_tri(p, q, tri):
        a, b, c = (np.asarray(v, dtype=float) for v in tri)
        n = np.cross(b - a, c - a)
        dp, dq = float((p - a) @ n), float((q - a) @ n)
        if dp * dq > 0 or dp == dq:
            return False
        lam = dp / (dp - dq)
        x = p + lam * (q - p)
        v0, v1, v2 = b - a, c - a, x - a
        d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
        d20, d21 = v2 @ v0, v2 @ v1
        den = d00 * d11 - d01 * d01
        u = (d11 * d20 - d01 * d21) / den
        v = (d00 * d21 - d01 * d20) / den
        return u >= -1e-12 and v >= -1e-12 and u + v <= 1 + 1e-12

    a = [np.asarray(p, dtype=float) for p in tri_a]
    b = [np.asarray(p, dtype=float) for p in tri_b]
    edges = [(a[0], a[1], b), (a[1], a[2], b), (a[2], a[0], b),
             (b[0], b[1], a), (b[1], b[2], a), (b[2], b[0], a)]
    return any(seg_tri(p, q, tri) for p, q, tri in edges)


# ---------------------------------------------------------------------------
# filtered integer orientation predicates against rational arithmetic

def _orient3d_fraction(a, b, c, d):
    u = [Fraction(b[k]) - Fraction(a[k]) for k in range(3)]
    v = [Fraction(c[k]) - Fraction(a[k]) for k in range(3)]
    w = [Fraction(d[k]) - Fraction(a[k]) for k in range(3)]
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    return (det > 0) - (det < 0)


def _orient2d_fraction(a, b, c):
    det = ((Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1]))
           - (Fraction(b[1]) - Fraction(a[1])) * (Fraction(c[0]) - Fraction(a[0])))
    return (det > 0) - (det < 0)


def _points(arr):
    return [tuple(map(float, p)) for p in arr]


def _assert_orient3d_agrees(quads):
    signs = []
    for quad in quads:
        a, b, c, d = _points(quad)
        for args in [(a, b, c, d), (b, a, c, d), (d, c, b, a), (c, d, a, b)]:
            expected = _orient3d_fraction(*args)
            assert _orient3d_exact(*args) == expected, args
            signs.append(expected)
    return signs


@pytest.fixture(scope="module")
def clifford_rectangles():
    # vertices (i, j), (i+1, j), (i, j+k), (i+1, j+k) of the product torus
    # are concyclic in S^3, so coplanar after stereographic projection --
    # up to the rounding of the projected coordinates
    n = 16
    mesh = gen_clifford_torus(n, n)
    pole, _ = select_pole(mesh.vertices)
    pts = stereographic_project(mesh.vertices, pole).reshape(n, n, 3)
    quads = [(pts[i, j], pts[(i + 1) % n, j], pts[i, (j + k) % n],
              pts[(i + 1) % n, (j + k) % n])
             for i in range(0, n, 3) for j in range(0, n, 5)
             for k in (1, 2, 7)]
    return np.array(quads)


def test_orient3d_projected_clifford_rectangles(clifford_rectangles):
    quads = clifford_rectangles
    sign = _orient3d_filter(quads[:, 0], quads[:, 1], quads[:, 2],
                            quads[:, 3], intersect._ORIENT_EPS)
    assert (sign == 0).mean() > 0.9                # floats cannot decide
    _assert_orient3d_agrees(quads)


def test_orient3d_exactly_coplanar(clifford_rectangles):
    # on a 2^-20 grid, d = b + c - a is exact: a planar parallelogram
    grid = np.round(clifford_rectangles * 2.0 ** 20) / 2.0 ** 20
    grid[:, 3] = grid[:, 1] + grid[:, 2] - grid[:, 0]
    assert set(_assert_orient3d_agrees(grid)) == {0}


# near-coplanar quadruples whose float determinant, rounded in the
# filter's evaluation order, has the wrong sign
WRONG_SIGN_QUADS = [
    [("0x1.b3905ae78aea4p-1", "-0x1.82bd1a1656f30p-1", "-0x1.f4b9dc75bdc1ap-1"),
     ("0x1.3d3bb86bf12e8p-2", "0x1.afee438899f48p-3", "0x1.dc48f3e494e34p-1"),
     ("0x1.cb255174dc554p-1", "0x1.04c0dfd30fea2p-1", "-0x1.61cb50df7d1e4p-1"),
     ("0x1.1e5705f290267p-2", "0x1.b0d86d50bdc60p+0", "0x1.833528763d40ep+0")],
    [("-0x1.afaafb8bb1da0p-3", "-0x1.93d8d28a4ade0p-5", "0x1.fe9ca1bafc344p-1"),
     ("0x1.5a79d1b7b1d30p-2", "0x1.fd15852c16600p-4", "-0x1.f205a47b31570p-4"),
     ("-0x1.23475377c8b22p-1", "0x1.5ff089bd15220p-1", "0x1.06c9a4de7a538p-1"),
     ("0x1.31221afb99a0bp-1", "0x1.a8540181103c3p-3", "-0x1.4c11fdfec5d85p-1")],
    [("0x1.bb6913fcba590p-3", "-0x1.3764572886044p-2", "0x1.2cf27e95d7b7cp-1"),
     ("-0x1.dbd10b77b5ab0p-2", "-0x1.861f318231740p-3", "-0x1.2dc27bc71d7a2p-1"),
     ("-0x1.6638b7fc5f3a8p-2", "-0x1.7f954de63f00ep-1", "-0x1.0ed32789aad40p-4"),
     ("-0x1.d7a7ed70bc678p-2", "-0x1.d80508c319f3cp-5", "-0x1.53537abf34ccdp-1")],
]


def _filter_det(a, b, c, d):
    """The determinant and permanent of `_orient3d_filter`, in its
    evaluation order and the inputs' dtype."""
    u, v, w = b - a, c - a, d - a
    m0 = v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1]
    m1 = v[:, 0] * w[:, 2] - v[:, 2] * w[:, 0]
    m2 = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    det = u[:, 0] * m0 - u[:, 1] * m1 + u[:, 2] * m2
    au, av, aw = np.abs(u), np.abs(v), np.abs(w)
    perm = (au[:, 0] * (av[:, 1] * aw[:, 2] + av[:, 2] * aw[:, 1])
            + au[:, 1] * (av[:, 0] * aw[:, 2] + av[:, 2] * aw[:, 0])
            + au[:, 2] * (av[:, 0] * aw[:, 1] + av[:, 1] * aw[:, 0]))
    return det, perm


def _hex_quads(quads):
    return np.array([[[float.fromhex(x) for x in p] for p in q]
                     for q in quads])


def test_orient3d_filter_leaves_wrong_float_signs_open():
    quads = _hex_quads(WRONG_SIGN_QUADS)
    a, b, c, d = quads.transpose(1, 0, 2)
    det, perm = _filter_det(a, b, c, d)
    exact = np.array([_orient3d_fraction(*q) for q in quads])
    assert (np.sign(det) == -exact).all() and (exact != 0).all()
    # the first misses by over 2 eps times its permanent, so a filter
    # bound of 2 eps would prove its wrong sign
    assert abs(det[0]) > 2.0 * 2.0 ** -53 * perm[0]
    assert (_orient3d_filter(a, b, c, d, intersect._ORIENT_EPS) == 0).all()


# ---------------------------------------------------------------------------
# the long-double stage between the float filter and the integers

needs_long = pytest.mark.skipif(
    intersect._long_orient_eps() is None,
    reason="np.longdouble is no wider than double here")
# the pinned rows and roundings are those of a 64-bit mantissa
needs_x87 = pytest.mark.skipif(
    intersect._long_orient_eps() is None
    or np.finfo(np.longdouble).nmant != 63,
    reason="np.longdouble is not x87 extended precision here")


@pytest.fixture
def integer_rows(monkeypatch):
    """The rows of every `_scaled_ints` call, one list per call."""
    rows = []
    scaled = intersect._scaled_ints
    monkeypatch.setattr(intersect, "_scaled_ints",
                        lambda pts: rows.append(pts) or scaled(pts))
    return rows


def _ratio_fraction(q):
    """|det| / perm of a quadruple, in rational arithmetic."""
    a, b, c, d = ([Fraction(x) for x in p] for p in q)
    u, v, w = ([y - x for x, y in zip(a, p)] for p in (b, c, d))
    terms = [u[i] * v[j] * w[k] * s for i, j, k, s in (
        (0, 1, 2, 1), (0, 2, 1, -1), (1, 0, 2, -1), (1, 2, 0, 1),
        (2, 0, 1, 1), (2, 1, 0, -1))]
    return abs(sum(terms)) / sum(map(abs, terms))


def test_long_orient_eps_is_shewchuk_bound():
    eps = intersect._long_orient_eps()
    if eps is None:
        # no wider arithmetic here: the stage is skipped, never run loose
        assert np.finfo(np.longdouble).nmant < 63 \
            or np.finfo(np.longdouble).nexp < 15 \
            or (np.ones(1, np.longdouble) + 2.0 ** -63 == 1).all()
        return
    unit = Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    assert eps.dtype == np.longdouble and unit <= Fraction(1, 2 ** 64)
    assert Fraction(*eps.as_integer_ratio()) == (7 + 56 * unit) * unit
    assert intersect._ORIENT_EPS == (7 + 56 * 2.0 ** -53) * 2.0 ** -53


@needs_long
def test_long_double_decides_near_coplanar_without_integers(integer_rows):
    # a fourth point rounded onto the plane of three: |det| / perm is
    # about 2^-53 and below, where doubles prove no sign; at or above
    # 2^-60 (past twice the long-double bound 7 * 2^-64) long double
    # proves every one, and between 2^-61 and 2^-60 the integers take the
    # few it leaves
    rng = np.random.default_rng(31)
    n = 4000
    a, b, c = rng.uniform(-1.0, 1.0, (3, n, 3))
    # per-coordinate exponents down to 2^-20: inexact differences too
    a, b, c = (np.ldexp(x, rng.integers(-20, 1, (n, 3))) for x in (a, b, c))
    s, t = rng.uniform(-1.0, 2.0, (2, n, 1))
    quads = np.stack([a, b, c, a + s * (b - a) + t * (c - a)], axis=1)
    ratio = np.array([float(_ratio_fraction(q)) for q in quads.tolist()])
    low = np.log2(np.maximum(ratio, 2.0 ** -1000))
    keep = (low >= -61) & (low <= -50)
    quads, low = quads[keep], low[keep]
    assert len(quads) > 0.9 * n and (low < -59).sum() >= 10
    args = quads.transpose(1, 0, 2)
    assert (_orient3d_filter(*args, intersect._ORIENT_EPS) == 0).mean() > 0.9
    proved = low >= -60
    signs = _orient3d_exact(*quads[proved].transpose(1, 0, 2))
    assert integer_rows == []
    assert signs.tolist() == [_orient3d_fraction(*q)
                              for q in quads[proved].tolist()]
    assert _orient3d_exact(*args).tolist() \
        == [_orient3d_fraction(*q) for q in quads.tolist()]
    assert sum(map(len, integer_rows)) <= (~proved).sum()


# exactly and nearly coplanar quadruples whose x87 long-double
# determinant, rounded in the filter's evaluation order, exceeds
# 2^-63 perm (twice the unit roundoff): a, a + e_x, c and k c with a
# nearly parallel to c in y and z.  The exact determinant is 0 in the
# first two and a few hundredths of 2^-64 perm, of the other sign, in
# the others.
LONG_ROUNDOFF_QUADS = [
    [("0x0.0p+0", "0x1.0113ef4696520p-17", "0x1.1331a95cf2660p-17"),
     ("0x1.0000000000000p+0", "0x1.0113ef4696520p-17", "0x1.1331a95cf2660p-17"),
     ("0x1.136768a593290p+0", "0x1.0113ef4696520p+0", "0x1.1331a95cf2660p+0"),
     ("-0x1.136768a593290p+0", "-0x1.0113ef4696520p+0",
      "-0x1.1331a95cf2660p+0")],
    [("0x0.0p+0", "0x1.0df2ac0b65d50p-16", "0x1.1843d12d47ab0p-16"),
     ("0x1.0000000000000p+0", "0x1.0df2ac0b65d50p-16", "0x1.1843d12d47ab0p-16"),
     ("0x1.0374c5783f820p+0", "0x1.0df2ac0b65d50p+0", "0x1.1843d12d47ab0p+0"),
     ("0x1.4451f6d64f628p+2", "0x1.516f570e3f4a4p+2", "0x1.5e54c5789995cp+2")],
]
LONG_WRONG_SIGN_QUADS = [
    [("0x0.0p+0", "0x1.174b60740e7e4p-23", "0x1.03bdb77f0384cp-23"),
     ("0x1.0000000000000p+0", "0x1.174b60740e7e4p-23", "0x1.03bdb77f0384cp-23"),
     ("0x1.0153c463b3db0p+0", "0x1.174b60740e730p+0", "0x1.03bdb77f03800p+0"),
     ("-0x1.0153c463b3db0p+0", "-0x1.174b60740e730p+0",
      "-0x1.03bdb77f03800p+0")],
    [("0x0.0p+0", "0x1.0c1a978ded201p-21", "0x1.1202e32e61df6p-21"),
     ("0x1.0000000000000p+0", "0x1.0c1a978ded201p-21", "0x1.1202e32e61df6p-21"),
     ("0x1.07ca20b11c6d0p+0", "0x1.0c1a978ded240p+0", "0x1.1202e32e61e20p+0"),
     ("-0x1.07ca20b11c6d0p+0", "-0x1.0c1a978ded240p+0",
      "-0x1.1202e32e61e20p+0")],
    [("0x0.0p+0", "0x1.0ab23b568b3b4p-22", "0x1.06c677c2c0c02p-22"),
     ("0x1.0000000000000p+0", "0x1.0ab23b568b3b4p-22", "0x1.06c677c2c0c02p-22"),
     ("0x1.064af96f85420p+0", "0x1.0ab23b568b380p+0", "0x1.06c677c2c0bf0p+0"),
     ("0x1.47ddb7cb66928p+2", "0x1.4d5eca2c2e060p+2", "0x1.487815b370eecp+2")],
]


@needs_x87
def test_long_double_leaves_wrong_signs_to_integers(integer_rows):
    zero = _hex_quads(LONG_ROUNDOFF_QUADS)
    wrong = _hex_quads(LONG_WRONG_SIGN_QUADS)
    quads = np.concatenate([zero, wrong])
    exact = np.array([_orient3d_fraction(*q) for q in quads.tolist()])
    assert (exact[:len(zero)] == 0).all() and (exact[len(zero):] != 0).all()
    args = quads.transpose(1, 0, 2).astype(np.longdouble)
    det, perm = _filter_det(*args)
    assert (np.sign(det[len(zero):]) == -exact[len(zero):]).all()
    # each misses by over 2^-63 times its permanent, so a long-double
    # bound of twice the unit roundoff would prove a sign that is wrong
    assert (np.abs(det) > 2 * np.longdouble(2.0) ** -64 * perm).all()
    assert (_orient3d_filter(*args, intersect._long_orient_eps()) == 0).all()
    assert _orient3d_exact(*quads.transpose(1, 0, 2)).tolist() \
        == exact.tolist()
    assert len(integer_rows) == 1 and len(integer_rows[0]) == len(quads)


@needs_x87
def test_rows_below_long_double_bound_reach_integers(clifford_rectangles,
                                                     integer_rows):
    # exact zeros (parallelograms on a 2^-20 grid) and nonzero rows with
    # |det| / perm below 2^-64: a, a + e_x, c and 3 c with a one unit in
    # the last place off parallel to c in y and z
    grid = np.round(clifford_rectangles * 2.0 ** 20) / 2.0 ** 20
    grid[:, 3] = grid[:, 1] + grid[:, 2] - grid[:, 0]
    rng = np.random.default_rng(32)
    c = np.round(rng.uniform(1.0, 1.1, (200, 3)) * 2.0 ** 48) / 2.0 ** 48
    a = np.ldexp(c, -rng.integers(12, 24, (200, 1)))
    a[:, 1:] += np.spacing(a[:, 1:]) * rng.choice([-1.0, 1.0], (200, 2))
    a[:, 0] = 0.0
    b = a.copy()
    b[:, 0] = 1.0
    near = np.stack([a, b, c, 3.0 * c], axis=1)
    quads = np.concatenate([grid, near])
    ratio = [_ratio_fraction(q) for q in quads.tolist()]
    assert all(r == 0 for r in ratio[:len(grid)])
    assert all(0 < r < Fraction(1, 2 ** 64) for r in ratio[len(grid):])
    signs = _orient3d_exact(*quads.transpose(1, 0, 2))
    assert signs.tolist() == [_orient3d_fraction(*q) for q in quads.tolist()]
    assert len(integer_rows) == 1
    assert np.array_equal(integer_rows[0], quads)


def test_orient_extreme_exponents():
    rng = np.random.default_rng(8)
    mant = rng.uniform(-1.0, 1.0, (400, 4, 3))
    expo = rng.integers(-1000, 1001, (400, 4, 3))
    quads = np.ldexp(mant, expo)
    _assert_orient3d_agrees(quads)
    # one exponent per point: large, tiny and mixed-scale quadruples
    quads = np.ldexp(mant, rng.integers(-1000, 1001, (400, 4, 1)))
    _assert_orient3d_agrees(quads)


def test_orient3d_underflow_times_long_edge():
    # (c-a)_y (d-a)_z = 2^-1080 underflows to 0, and |b-a| = 2^700 turns
    # that into a 2^-380 error: the float determinant is -2^-540 while the
    # true one is 2^-380 - 2^-540 > 0
    a, b = (0.0, 0.0, 0.0), (2.0 ** 700, 1.0, 0.0)
    c, d = (1.0, 2.0 ** -540, 0.0), (0.0, 0.0, 2.0 ** -540)
    assert _orient3d_fraction(a, b, c, d) == 1
    assert _orient3d_exact(a, b, c, d) == 1
    _assert_orient3d_agrees([[a, b, c, d]])


def test_orient_signed_zeros():
    quads = np.array([
        [(0.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (1.0, 0.0, -0.0), (0.5, 0.5, -0.0)],
        [(-0.0, -0.0, -0.0), (1.0, -0.0, 0.0), (0.0, 1.0, -0.0), (0.0, 0.0, 1.0)],
        [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, 0.0, 1.0)],
    ])
    _assert_orient3d_agrees(quads)


def test_orient3d_one_batch_mixed_exponents(integer_rows):
    # the stacks of the extreme-exponent, underflow and signed-zero tests
    # in one call: one integer conversion, each row over its own power
    # of two
    rng = np.random.default_rng(8)
    mant = rng.uniform(-1.0, 1.0, (400, 4, 3))
    quads = np.concatenate([
        np.ldexp(mant, rng.integers(-1000, 1001, (400, 4, 3))),
        np.ldexp(mant, rng.integers(-1000, 1001, (400, 4, 1))),
        [[(0.0, 0.0, 0.0), (2.0 ** 700, 1.0, 0.0), (1.0, 2.0 ** -540, 0.0),
          (0.0, 0.0, 2.0 ** -540)]],
        [[(0.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (1.0, 0.0, -0.0),
          (0.5, 0.5, -0.0)],
         [(-0.0, -0.0, -0.0), (1.0, -0.0, 0.0), (0.0, 1.0, -0.0),
          (0.0, 0.0, 1.0)]],
    ])
    signs = _orient3d_exact(*quads.transpose(1, 0, 2))
    assert signs.tolist() == [_orient3d_fraction(*q) for q in quads.tolist()]
    assert len(integer_rows) == 1
    _, expo = np.frexp(integer_rows[0])
    spread = expo.max(axis=(1, 2)) - expo.min(axis=(1, 2))
    assert len(integer_rows[0]) > 100 \
        and spread.min() < 10 < 1000 < spread.max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_orient_non_finite_rejected(bad):
    for k in range(4):
        quad = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0]]
        quad[k][k % 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _orient3d_exact(*quad)


def test_orient_random_generic():
    rng = np.random.default_rng(9)
    quads = rng.uniform(-1.0, 1.0, (500, 4, 3))
    assert 0 not in _assert_orient3d_agrees(quads)


def test_triangle_predicate_random_agreement():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        tri_a = rng.uniform(-1.0, 1.0, (3, 3))
        tri_b = rng.uniform(-1.0, 1.0, (3, 3))
        assert triangles_intersect(tri_a, tri_b) \
            == _float_reference(tri_a, tri_b)


# ---------------------------------------------------------------------------
# batched triangle predicate against rational arithmetic

def _segment_hits_fraction(p, q, tri):
    a, b, c = tri
    sp, sq = _orient3d_fraction(a, b, c, p), _orient3d_fraction(a, b, c, q)
    if sp == 0 and sq == 0:
        return _coplanar_segment_hits_fraction(p, q, tri)
    if sp * sq > 0:
        return False
    signs = {_orient3d_fraction(p, a, b, q), _orient3d_fraction(p, b, c, q),
             _orient3d_fraction(p, c, a, q)}
    return not {1, -1} <= signs


def _coplanar_segment_hits_fraction(p, q, tri):
    # drop the axis of the largest exact normal component
    a, b, c = ([Fraction(x) for x in v] for v in tri)
    u = [b[k] - a[k] for k in range(3)]
    v = [c[k] - a[k] for k in range(3)]
    normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
              u[0] * v[1] - u[1] * v[0]]
    drop = max(range(3), key=lambda k: abs(normal[k]))
    p, q, a, b, c = ([x[k] for k in range(3) if k != drop]
                     for x in (p, q, *tri))

    def inside(x):
        signs = {_orient2d_fraction(a, b, x), _orient2d_fraction(b, c, x),
                 _orient2d_fraction(c, a, x)}
        return not {1, -1} <= signs

    def on_segment(s, e, x):     # x collinear with segment se
        return all(min(s[k], e[k]) <= x[k] <= max(s[k], e[k])
                   for k in range(2))

    def meets_edge(s, e):
        s1, s2 = _orient2d_fraction(p, q, s), _orient2d_fraction(p, q, e)
        s3, s4 = _orient2d_fraction(s, e, p), _orient2d_fraction(s, e, q)
        if s1 * s2 < 0 and s3 * s4 < 0:
            return True
        return any(sign == 0 and on_segment(*seg, x)
                   for sign, seg, x in [(s1, (p, q), s), (s2, (p, q), e),
                                        (s3, (s, e), p), (s4, (s, e), q)])

    return (inside(p) or inside(q)
            or any(meets_edge(s, e) for s, e in [(a, b), (b, c), (c, a)]))


def _triangles_intersect_fraction(tri_a, tri_b):
    """Contact of two triangles with every sign in rational arithmetic."""
    ta, tb = _points(tri_a), _points(tri_b)
    return (any(_segment_hits_fraction(ta[k], ta[(k + 1) % 3], tb)
                for k in range(3))
            or any(_segment_hits_fraction(tb[k], tb[(k + 1) % 3], ta)
                   for k in range(3)))


def _assert_batch_agrees(tri_a, tri_b):
    """The batched predicate equals the reference in both argument orders,
    and the batch equals the pair-by-pair calls."""
    tri_a = np.asarray(tri_a, dtype=float)
    tri_b = np.asarray(tri_b, dtype=float)
    expected = [_triangles_intersect_fraction(x, y)
                for x, y in zip(tri_a, tri_b)]
    got = triangles_intersect(tri_a, tri_b)
    assert got.dtype == bool and got.shape == (len(tri_a),)
    assert got.tolist() == expected
    assert triangles_intersect(tri_b, tri_a).tolist() == expected
    assert [triangles_intersect(x, y) for x, y in zip(tri_a, tri_b)] \
        == expected
    return expected


def _rectangle_pairs(quads):
    # a, b, d, c go round a (nearly) planar rectangle; on a grid,
    # shrinking towards a vertex by 1/2 or 3/4 keeps the points exact
    a, b, c, d = (quads[:, k] for k in range(4))
    pairs = [
        ((a, b, c), (b, d, c)),                      # share edge bc
        ((a, b, c), (a, b, d)),                      # overlap along ab
        ((a, b, c), (d, d + 0.5 * (b - d), d + 0.5 * (c - d))),  # gap
        ((a, b, d), (c, c + 0.75 * (a - c), c + 0.75 * (d - c))),
        ((a, a + 0.5 * (b - a), a + 0.5 * (c - a)),
         (d, d + 0.75 * (b - d), d + 0.75 * (c - d))),
        # a triangle of another rectangle
        ((a, b, c), tuple(np.roll(x, 1, axis=0) for x in (b, d, c))),
    ]
    return tuple(np.concatenate([np.stack(pair[k], axis=1) for pair in pairs])
                 for k in (0, 1))


def test_batched_predicate_clifford_rectangles(clifford_rectangles):
    expected = _assert_batch_agrees(*_rectangle_pairs(clifford_rectangles))
    assert {True, False} <= set(expected)


def test_batched_predicate_exactly_coplanar(clifford_rectangles, monkeypatch):
    grid = np.round(clifford_rectangles * 2.0 ** 20) / 2.0 ** 20
    grid[:, 3] = grid[:, 1] + grid[:, 2] - grid[:, 0]
    calls = []
    coplanar = intersect._coplanar_segment_hits_exact
    monkeypatch.setattr(intersect, "_coplanar_segment_hits_exact",
                        lambda *args: calls.append(args) or coplanar(*args))
    first, second = _rectangle_pairs(grid)
    expected = _assert_batch_agrees(first, second)
    assert {True, False} <= set(expected)
    assert calls                                 # the coplanar path was taken
    # all but the last set pair triangles of one rectangle: one plane
    first, second = first[:-len(grid)], second[:-len(grid)]
    signs = _orient3d_exact(first[:, None, 0], first[:, None, 1],
                            first[:, None, 2], second)
    assert (signs == 0).all()


def _nondegenerate(*tris):
    areas = [np.linalg.norm(np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]),
                            axis=1) for t in tris]
    return np.logical_and.reduce([a > 0 for a in areas])


def test_batched_predicate_touching():
    rng = np.random.default_rng(13)
    n = 120
    tri = rng.integers(-8, 9, (n, 3, 3)).astype(float)
    r0, r1 = rng.integers(-8, 9, (2, n, 1, 3)).astype(float)
    v = tri[:, :1]
    mid = 0.5 * (tri[:, :1] + tri[:, 1:2])           # exact on this grid
    others = [
        np.concatenate([v, v + r0, v + r1], axis=1),          # at a vertex
        np.concatenate([mid, mid + r0, mid + r1], axis=1),    # on an edge
        np.concatenate([mid - r0, mid + r0, mid + r1], axis=1),  # edge on edge
        2.0 * v - tri[:, [0, 2, 1]],                  # coplanar, at a vertex
    ]
    for other in others:
        keep = _nondegenerate(tri, other)
        assert keep.sum() > n // 2
        assert all(_assert_batch_agrees(tri[keep], other[keep]))


def _tilted_plane_pairs(seed, n):
    """Integer triangles and partners of four kinds in tilted integer
    planes z = a x + b y + c, with the axes permuted per pair: every edge
    of a pair with nonzero areas takes the coplanar path."""
    rng = np.random.default_rng(seed)
    tri = rng.integers(-6, 7, (n, 3, 2)).astype(float)
    v0, v1, v2 = tri[:, :1], tri[:, 1:2], tri[:, 2:]
    d = v1 - v0
    k = np.sort(rng.choice(np.arange(-3, 5), (n, 2, 1)), axis=1)
    others = {
        "touching": np.concatenate([v0, 2.0 * v0 - v2, 2.0 * v0 - v1], 1),
        "crossing": tri[:, [1, 2, 0]] + rng.integers(-2, 3, (n, 1, 2)),
        "disjoint": tri + [20.0, -3.0],
        # an edge of the other triangle on the line of edge v0 v1
        "collinear": np.concatenate([v0 + k[:, :1] * d, v0 + k[:, 1:] * d,
                                     v0 + k[:, :1] * d - (v2 - v0)], 1),
    }
    a, b, c = rng.integers(-3, 4, (3, n, 1, 1)).astype(float)
    axes = np.array([rng.permutation(3) for _ in range(n)])[:, None, :]

    def lift(t):
        t = np.concatenate([t, a * t[..., :1] + b * t[..., 1:] + c], axis=2)
        return np.take_along_axis(t, axes, axis=2)

    pairs = {}
    for kind, other in others.items():
        keep = _nondegenerate(lift(tri), lift(other))
        assert keep.sum() > n // 2, kind
        pairs[kind] = lift(tri)[keep], lift(other)[keep]
    return pairs


def test_coplanar_signs_through_orient3d(monkeypatch):
    # every sign, the in-plane ones included, is an orientation of four
    # 3D points: one conversion at most each for the side, line and
    # coplanar signs
    rows = []
    scaled = intersect._scaled_ints
    monkeypatch.setattr(intersect, "_scaled_ints",
                        lambda pts: rows.append(np.shape(pts)) or scaled(pts))
    for kind, (first, second) in _tilted_plane_pairs(21, 80).items():
        rows.clear()
        got = triangles_intersect(first, second).tolist()
        assert 1 <= len(rows) <= 3, kind
        assert all(shape[1:] == (4, 3) for shape in rows), kind
        assert _assert_batch_agrees(first, second) == got
        expected = {"touching": {True}, "disjoint": {False}}
        assert set(got) == expected.get(kind, {True, False}), kind


def test_coplanar_far_from_origin(monkeypatch):
    # small coplanar triangles far out: a point lifted off such a plane by
    # its normal would round back onto it
    calls = []
    coplanar = intersect._coplanar_segment_hits_exact
    monkeypatch.setattr(intersect, "_coplanar_segment_hits_exact",
                        lambda *args: calls.append(args) or coplanar(*args))
    pairs = _tilted_plane_pairs(22, 12)
    for s in (0, 20, 30, 40):
        for m in (0, 20, 30, 40):
            for kind, (first, second) in pairs.items():
                first, second = (np.ldexp(t, -s) + 2.0 ** m
                                 for t in (first, second))
                keep = _nondegenerate(first, second)
                first, second = first[keep], second[keep]
                expected = [_triangles_intersect_fraction(x, y)
                            for x, y in zip(first, second)]
                assert triangles_intersect(first, second).tolist() \
                    == expected, (s, m, kind)
                assert triangles_intersect(second, first).tolist() \
                    == expected, (s, m, kind)
    assert sum(len(args[0]) for args in calls) > 1000


def test_triangles_intersect_empty_batch():
    empty = np.empty((0, 3, 3))
    got = triangles_intersect(empty, empty)
    assert got.dtype == bool and got.shape == (0,)


def test_batch_with_no_edge_reaching_a_plane(monkeypatch):
    # parallel triangles a height apart: every side sign is proved, and
    # the line signs are asked for no edge at all
    rng = np.random.default_rng(23)
    n = 40
    first = rng.integers(-6, 7, (n, 3, 3)).astype(float)
    first[:, :, 2] = 0.0
    second = first[:, [1, 2, 0]] + [0.5, -0.25, 0.0]
    second[:, :, 2] = rng.choice([0.5, 1.0, -3.0], (n, 1))
    keep = _nondegenerate(first, second)
    first, second = first[keep], second[keep]
    rows = []
    orient = intersect._orient3d_exact
    monkeypatch.setattr(intersect, "_orient3d_exact",
                        lambda *pts: rows.append(np.shape(pts[0]))
                        or orient(*pts))
    assert not triangles_intersect(first, second).any()
    assert rows[0] == (2, len(first), 1, 3) and rows[1][0] == 0
    assert _assert_batch_agrees(first, second) == [False] * len(first)


def test_batch_of_only_coplanar_pairs(monkeypatch):
    # the four kinds of coplanar pairs shuffled into one batch: every edge
    # of both sides takes the coplanar path, and the batch answers as the
    # pair-by-pair calls do
    pairs = _tilted_plane_pairs(24, 60).values()
    first = np.concatenate([a for a, _ in pairs])
    second = np.concatenate([b for _, b in pairs])
    order = np.random.default_rng(24).permutation(len(first))
    first, second = first[order], second[order]
    calls = []
    coplanar = intersect._coplanar_segment_hits_exact
    monkeypatch.setattr(intersect, "_coplanar_segment_hits_exact",
                        lambda *args: calls.append(len(args[0]))
                        or coplanar(*args))
    got = triangles_intersect(first, second).tolist()
    assert calls == [6 * len(first)]
    assert got == [triangles_intersect(x, y) for x, y in zip(first, second)]
    assert _assert_batch_agrees(first, second) == got
    assert {True, False} <= set(got)


def test_batched_predicate_random_generic():
    rng = np.random.default_rng(14)
    tri_a = rng.uniform(-1.0, 1.0, (300, 3, 3))
    tri_b = rng.uniform(-1.0, 1.0, (300, 3, 3)) + [0.5, 0.0, 0.0]
    expected = _assert_batch_agrees(tri_a, tri_b)
    assert {True, False} <= set(expected)


# ---------------------------------------------------------------------------
# projection machinery

def test_select_pole_clears_mesh():
    mesh = gen_clifford_torus(24, 24)
    pole, clearance = select_pole(mesh.vertices)
    assert abs(np.linalg.norm(pole) - 1.0) < 1e-12
    dots = mesh.vertices @ pole
    assert math.acos(dots.max()) == pytest.approx(clearance, abs=1e-12)
    assert clearance > 0.1


@pytest.mark.parametrize("make", [
    lambda: gen_clifford_torus(32, 32),
    lambda: gen_geodesic_sphere(math.pi / 4.0, 4),    # V = 2562
    lambda: gen_clifford_torus(16, 16),               # V = 256
    lambda: _crossed_clifford_32(),                   # a 2-way tie
    # a single candidate measured exactly, and not an axis
    lambda: rotate_mesh(gen_geodesic_sphere(0.3, 3), 0, 1, 0.3),
])
def test_select_pole_matches_full_matrix(make):
    vertices = make().vertices
    # reference: the whole (candidates x vertices) matrix at once
    rng = np.random.default_rng(20240317)
    cand = np.concatenate([rng.standard_normal((4096, 4)), np.eye(4),
                           -np.eye(4)])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    worst = np.max(cand @ vertices.T, axis=1)
    best = int(np.argmin(worst))
    pole, clearance = select_pole(vertices)
    assert np.array_equal(pole, cand[best])
    assert clearance == math.acos(min(1.0, max(-1.0, worst[best])))


@pytest.mark.parametrize("make", [
    lambda: gen_geodesic_sphere(math.pi / 4.0, 4),
    lambda: gen_clifford_torus(16, 16),
    lambda: _crossed_clifford_32(),
], ids=["sphere-4", "clifford-16", "crossed-clifford-32"])
def test_select_pole_chunks_do_not_change_pole(make, monkeypatch):
    # products of 4104 entries: one vertex a chunk for all candidates,
    # partial chunks for the few measured exactly
    vertices = make().vertices
    pole, clearance = select_pole(vertices)
    monkeypatch.setattr(intersect, "_POLE_CHUNK", 4104)
    again, cleared = select_pole(vertices)
    assert np.array_equal(again, pole) and cleared == clearance


@pytest.mark.parametrize("make", [
    lambda: gen_geodesic_sphere(math.pi / 4.0, 4),
    lambda: gen_clifford_torus(32, 32),
    # an even grid, where a regular vertex sample aliases with the torus
    lambda: gen_clifford_torus(128, 128),
], ids=["sphere-4", "clifford-32", "clifford-128"])
def test_select_pole_exact_for_few_candidates(make, monkeypatch):
    # the sampled bounds leave under 1% of the 4104 candidates to the
    # exact maximum over every vertex
    rows = []
    exact = intersect._max_dots
    monkeypatch.setattr(intersect, "_max_dots",
                        lambda cand, vertices: rows.append(len(cand))
                        or exact(cand, vertices))
    select_pole(make().vertices)
    assert 1 <= sum(rows) < 0.01 * 4104


@pytest.mark.parametrize("make", [
    lambda: gen_clifford_torus(64, 64),
    lambda: _crossed_clifford_32(),
], ids=["clifford-64", "crossed-clifford-32"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_pole_invariant_under_vertex_permutation(make, seed):
    # the vertex sample sets only the cost: a relabelled mesh gets the
    # bitwise-same pole and clearance
    vertices = make().vertices
    perm = np.random.default_rng(seed).permutation(len(vertices))
    pole, clearance = select_pole(vertices)
    again, cleared = select_pole(vertices[perm])
    assert np.array_equal(again, pole) and cleared == clearance


def test_stereographic_preserves_structure():
    mesh = gen_geodesic_sphere(0.6, 3)
    pole, _ = select_pole(mesh.vertices)
    pts = stereographic_project(mesh.vertices, pole)
    assert pts.shape == (mesh.vertex_count, 3)
    assert np.isfinite(pts).all()


def test_pole_through_mesh_rejected():
    mesh = gen_geodesic_sphere(0.6, 3)
    with pytest.raises(PoleSelectionError):
        stereographic_project(mesh.vertices, mesh.vertices[0])


# ---------------------------------------------------------------------------
# mesh-level verdicts

def test_generators_embedded_at_zero_offset():
    for mesh in [gen_clifford_torus(16, 16), gen_flat_torus(0.35, 16, 16),
                 gen_geodesic_sphere(0.9, 3)]:
        embedded, witnesses = self_intersection_test(mesh)
        assert embedded
        assert witnesses == []


def test_clifford_offsets_embedded():
    mesh = gen_clifford_torus(24, 24)
    for t in (0.2, 0.6):
        embedded, _ = self_intersection_test(offset_mesh(mesh, t))
        assert embedded


def test_concentric_spheres_embedded():
    union = combine_meshes(gen_geodesic_sphere(0.5, 3),
                           gen_geodesic_sphere(1.0, 3))
    embedded, witnesses = self_intersection_test(union)
    assert embedded
    assert witnesses == []


def test_crossed_tori_detected():
    # two equal tubes around great circles that cross at (0,0,0,+-1):
    # the tubes must intersect each other
    tube_a = gen_flat_torus(0.3, 20, 20)
    tube_b = rotate_mesh(gen_flat_torus(0.3, 20, 20), 0, 2, 0.8)
    union = combine_meshes(tube_a, tube_b)
    embedded, witnesses = self_intersection_test(union)
    assert not embedded
    assert len(witnesses) > 0
    # witnesses point at genuinely intersecting projected triangles
    pole, _ = select_pole(union.vertices)
    pts = stereographic_project(union.vertices, pole)
    i, j = witnesses[0]
    assert triangles_intersect(pts[union.triangles[i]],
                               pts[union.triangles[j]])


def test_dense_mesh_rejected():
    # two antipodal tetrahedra: every pole is within pi/3 of some vertex
    # while the triangle-size margin is pi/2, so no pole clears the mesh
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    tetra = SphericalTriMesh(vertices=verts, triangles=tris, genus=0)
    anti = SphericalTriMesh(vertices=-verts, triangles=tris[:, ::-1].copy(),
                            genus=0)
    with pytest.raises(PoleSelectionError):
        self_intersection_test(combine_meshes(tetra, anti))


def _projected(mesh):
    pole, _ = select_pole(mesh.vertices)
    return stereographic_project(mesh.vertices, pole)


def _all_candidates(points, triangles):
    """Every candidate pair of the stream, its ranges concatenated."""
    proj = np.take(points, triangles, axis=0)
    return np.concatenate(list(_candidate_pairs(proj, triangles)))


def test_broad_phase_empty_when_every_pair_shares_a_vertex():
    # any two faces of a tetrahedron share an edge: their boxes overlap,
    # and no candidate pair is left
    verts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    tetra = SphericalTriMesh(vertices=verts, triangles=tris, genus=0)
    points = stereographic_project(verts, np.full(4, -0.5))
    pairs = _all_candidates(points, tetra.triangles)
    assert pairs.dtype == np.int64 and pairs.shape == (0, 2)
    assert len(_sweep_pairs(points, tetra.triangles)) == 0
    assert self_intersection_test(tetra) == (True, [])


def _sweep_pairs(points, triangles):
    """Plain O(n^2) sweep: non-adjacent pairs (i < j) whose AABBs overlap."""
    tp = points[triangles]
    lo, hi = tp.min(axis=1), tp.max(axis=1)
    sets = [set(t) for t in triangles]
    pairs = []
    for i in range(len(triangles)):
        overlap = np.all(lo[i] <= hi[i + 1:], axis=1) \
            & np.all(lo[i + 1:] <= hi[i], axis=1)
        for j in np.nonzero(overlap)[0] + i + 1:
            if not sets[i] & sets[j]:
                pairs.append((i, int(j)))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("make", [
    lambda: combine_meshes(gen_clifford_torus(32, 32),
                           rotate_mesh(gen_clifford_torus(32, 32), 0, 2, 0.9)),
    lambda: offset_mesh(gen_clifford_torus(16, 16), 0.7),
    lambda: offset_mesh(gen_geodesic_sphere(math.pi / 4.0, 4), 0.2),
    # two triangle scales: the median extent fits neither sphere
    lambda: combine_meshes(gen_geodesic_sphere(0.5, 3),
                           gen_geodesic_sphere(1.0, 3)),
], ids=["crossed-clifford-32", "clifford-16-t0.7", "sphere-4-t0.2",
        "concentric-spheres"])
def test_broad_phase_matches_sweep(make):
    mesh = make()
    points = _projected(mesh)
    pairs = _all_candidates(points, mesh.triangles)
    assert pairs.dtype == np.int64
    assert np.array_equal(pairs, _sweep_pairs(points, mesh.triangles))


# the largest range budget: 1 and 7 bucket pairs for every range, and
# the default ramp from _RANGE_PAIRS up to _RANGE_MAX_PAIRS
@pytest.mark.parametrize("chunk", [1, 7, intersect._RANGE_MAX_PAIRS])
@pytest.mark.parametrize("make", [
    lambda: _crossed_flat_tori(),
    lambda: offset_mesh(gen_clifford_torus(16, 16), 0.4),
    lambda: offset_mesh(gen_geodesic_sphere(math.pi / 4.0, 3), 0.2),
], ids=["crossed-flat-tori", "clifford-16-t0.4", "sphere-3-t0.2"])
def test_broad_phase_chunks_match_brute_force(make, chunk, monkeypatch):
    # every non-adjacent pair with overlapping closed boxes, whatever
    # number of bucket pairs each owner range holds; each range holds
    # whole first triangles, ascending from range to range
    monkeypatch.setattr(intersect, "_RANGE_PAIRS",
                        min(chunk, intersect._RANGE_PAIRS))
    monkeypatch.setattr(intersect, "_RANGE_MAX_PAIRS", chunk)
    mesh = make()
    points = _projected(mesh)
    ref = _sweep_pairs(points, mesh.triangles)
    ranges = list(_candidate_pairs(np.take(points, mesh.triangles, axis=0),
                                   mesh.triangles))
    assert all(r.dtype == np.int64 and r.shape[1:] == (2,) for r in ranges)
    assert len(ref) > 100 and np.array_equal(np.concatenate(ranges), ref)
    firsts = [np.unique(r[:, 0]) for r in ranges if len(r)]
    assert all(a[-1] < b[0] for a, b in zip(firsts, firsts[1:]))
    if chunk < intersect._RANGE_PAIRS:
        assert len(firsts) > 10


def test_select_pole_candidates_drawn_once():
    assert intersect._pole_candidates() is intersect._pole_candidates()
    assert not intersect._pole_candidates().flags.writeable
    vertices = gen_clifford_torus(16, 16).vertices
    pole, clearance = select_pole(vertices)
    pole[:] = 0.0          # the caller's copy, not the candidate table
    again, _ = select_pole(vertices)
    assert abs(np.linalg.norm(again) - 1.0) < 1e-12
    assert select_pole(vertices)[1] == clearance


def _crossed_flat_tori():
    return combine_meshes(
        gen_flat_torus(0.3, 10, 10),
        rotate_mesh(gen_flat_torus(0.3, 10, 10), 0, 2, 0.1))


def test_pipeline_matches_brute_force_enumeration():
    # full pipeline (hash broad phase + exact predicate in chunks) against a
    # plain O(n^2) sweep with the exact predicate, witness-for-witness
    union = _crossed_flat_tori()
    embedded, witnesses = self_intersection_test(union, max_witnesses=10**6)
    assert not embedded

    tp = _projected(union)[union.triangles]
    ref = {(i, j) for i, j in _sweep_pairs(_projected(union), union.triangles)
           if triangles_intersect(tp[i], tp[j])}
    assert set(map(tuple, witnesses)) == ref
    assert len(ref) > 100


def test_witness_cap_does_not_decide_embeddedness(monkeypatch):
    union = _crossed_flat_tori()
    assert self_intersection_test(union, max_witnesses=0) == (False, [])
    embedded, witnesses = self_intersection_test(union, max_witnesses=1)
    assert not embedded and len(witnesses) == 1
    # the same with every sign left to integers and one pair a chunk
    monkeypatch.setattr(intersect, "_long_orient_eps", lambda: None)
    monkeypatch.setattr(intersect, "_orient3d_filter",
                        lambda *pts: np.zeros(len(pts[0]), dtype=np.int8))
    monkeypatch.setattr(intersect, "_EXACT_BATCH", 1)
    assert self_intersection_test(union, max_witnesses=0) == (False, [])


def test_negative_witness_cap_rejected():
    union = _crossed_flat_tori()
    with pytest.raises(ValueError, match="max_witnesses"):
        self_intersection_test(union, max_witnesses=-1)
    _, witnesses = self_intersection_test(union, max_witnesses=10**6)
    assert witnesses and all(type(i) is int and type(j) is int and i < j
                             for i, j in witnesses)


def _crossed_clifford_32():
    return combine_meshes(gen_clifford_torus(32, 32),
                          rotate_mesh(gen_clifford_torus(32, 32), 0, 2, 0.9))


_FRACTION_LOOP_MESHES = {
    "clifford-16-t0.1": lambda: offset_mesh(gen_clifford_torus(16, 16), 0.1),
    "clifford-16-t0.4": lambda: offset_mesh(gen_clifford_torus(16, 16), 0.4),
    "clifford-16-t0.7": lambda: offset_mesh(gen_clifford_torus(16, 16), 0.7),
    "crossed-clifford-32": _crossed_clifford_32,
    "crossed-flat-tori": _crossed_flat_tori,
}


@functools.cache
def _fraction_loop_case(name):
    """A mesh and its meeting candidate pairs by the rational predicate,
    computed once for both settings of the long-double stage."""
    mesh = _FRACTION_LOOP_MESHES[name]()
    points = _projected(mesh)
    tp = points[mesh.triangles]
    meets = [(i, j) for i, j in _all_candidates(points, mesh.triangles).tolist()
             if _triangles_intersect_fraction(tp[i], tp[j])]
    return mesh, meets


# with the long-double stage, and without it (suffix "-integers") as on a
# platform whose long double is double
@pytest.mark.parametrize("name,long_stage", [
    pytest.param(name, long_stage,
                 id=name + ("" if long_stage else "-integers"))
    for long_stage in (True, False) for name in _FRACTION_LOOP_MESHES])
def test_witnesses_match_fraction_loop(name, long_stage, monkeypatch):
    # every candidate pair through the rational predicate: the witnesses
    # are the `cap` smallest meeting pairs, whatever the cap
    if not long_stage:
        monkeypatch.setattr(intersect, "_long_orient_eps", lambda: None)
    mesh, meets = _fraction_loop_case(name)
    assert meets == sorted(meets)
    for cap in (0, 1, 64, 230, 10**6):
        assert self_intersection_test(mesh, max_witnesses=cap) \
            == (not meets, meets[:cap])


def test_exact_fallback_converts_once_per_batch(integer_rows, monkeypatch):
    # one integer conversion for the side signs and one for the line
    # signs, however many signs floats leave open (with the long-double
    # stage off, as where long double is double: it leaves none open on
    # this mesh)
    monkeypatch.setattr(intersect, "_long_orient_eps", lambda: None)
    mesh = offset_mesh(gen_clifford_torus(16, 16), 0.4)
    assert self_intersection_test(mesh) == (True, [])
    rows = list(map(len, integer_rows))
    assert 1 <= len(rows) <= 2 and sum(rows) > 100


def test_default_cap_stops_before_every_pair(monkeypatch):
    # the crossed tori meet in their first owner ranges: at the default
    # cap the later candidate pairs are neither formed nor decided
    formed, decided = [], []
    broad, decide = intersect._broad_phase, intersect.triangles_intersect
    monkeypatch.setattr(intersect, "_broad_phase", lambda *a: (
        lambda pairs: formed.append(len(pairs)) or pairs)(broad(*a)))
    monkeypatch.setattr(intersect, "triangles_intersect",
                        lambda t1, t2: decided.append(len(t1))
                        or decide(t1, t2))
    mesh = _crossed_clifford_32()
    embedded, witnesses = self_intersection_test(mesh)
    assert not embedded and len(witnesses) == 64
    monkeypatch.undo()
    pairs = _all_candidates(_projected(mesh), mesh.triangles)
    assert decided and sum(decided) <= sum(formed) < len(pairs)


def _relaid(mesh, layout):
    """The mesh built again from Fortran-ordered or strided copies of
    its arrays."""
    def lay(a):
        if a is None:
            return None
        if layout == "fortran":
            return np.asfortranarray(a)
        wide = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
        wide[::2, ::3] = a
        return wide[::2, ::3]

    laid = [lay(mesh.vertices), lay(mesh.triangles)]
    assert not any(a.flags.c_contiguous for a in laid)
    return SphericalTriMesh(vertices=laid[0], triangles=laid[1],
                            normals=lay(mesh.normals),
                            kappas=lay(mesh.kappas), genus=mesh.genus)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("make", [
    _crossed_flat_tori,
    lambda: offset_mesh(gen_clifford_torus(16, 16), 0.4),
], ids=["crossed-flat-tori", "clifford-16-t0.4"])
def test_outputs_independent_of_memory_layout(make, layout):
    # the flat-row gathers read the arrays the mesh lays out itself, so
    # the input layout changes no output bit
    mesh = make()
    other = _relaid(mesh, layout)
    geom, again = discrete_shape_operator(mesh), discrete_shape_operator(other)
    for name in ("areas", "normals", "shape_operators", "kappas", "norm_A",
                 "mean_H"):
        assert np.array_equal(getattr(geom, name), getattr(again, name)), name
    assert self_intersection_test(other, max_witnesses=10**6) \
        == self_intersection_test(mesh, max_witnesses=10**6)
    tp = _projected(mesh)[mesh.triangles]
    pairs = _all_candidates(_projected(mesh), mesh.triangles)
    first, second = tp[pairs[:, 0]], tp[pairs[:, 1]]
    expected = triangles_intersect(first, second)
    strided = np.repeat(second, 2, axis=0)[::2]
    assert np.array_equal(
        triangles_intersect(np.asfortranarray(first), strided), expected)
