"""Adaptive Gauss-Kronrod quadrature.

Single shared 1D integration engine for the whole package: a 7/15-point
Gauss-Kronrod rule driven by greedy interval bisection to an absolute
error target, or with `relative=True` to one scaled by the magnitude of
the running estimate.  Integrands must accept numpy arrays (they are
evaluated on all 15 nodes of an interval at once).
"""

import heapq
import math

import numpy as np

# G7/K15 nodes and weights on [-1, 1] (QUADPACK dqk15 values).
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# Full symmetric node/weight tables (15 nodes, ascending).
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_WK_FULL = np.concatenate([_WK[:-1], _WK[::-1]])
_WG_FULL = np.zeros_like(_WK_FULL)
_WG_FULL[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])
_ROUNDOFF = 10.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when the error estimate stops halving before the tolerance,
    or the value or its error estimate is not finite.

    Carries the best value and the achieved absolute error estimate.
    """

    def __init__(self, message, value, achieved):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


def _rule(f, a, b):
    """One G7/K15 application on [a, b]: (kronrod, error estimate), the
    estimate QUADPACK dqk15's, which scales with f: resasc min(1, (200 d /
    resasc)^1.5), d = |K15 - G7|, resasc = K15 of |f - mean f|."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    # ndarray.dot: the BLAS dot of `@`, with less call overhead
    unit = float(fx.dot(_WK_FULL))
    k = half * unit
    err = abs(k - half * float(fx.dot(_WG_FULL)))
    resasc = half * float(np.abs(fx - 0.5 * unit).dot(_WK_FULL))
    if not err > 0:     # 0, or NaN: then `integrate` raises on the value
        err = 0.0
    elif resasc:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = _ROUNDOFF * half * float(np.abs(fx).dot(_WK_FULL))   # roundoff
    return k, max(err, floor)


def integrate(f, a, b, tol=1e-10, relative=False):
    """Integrate f over the finite interval [a, b] to absolute tolerance
    tol, or with relative=True to tol * |value| of the running estimate,
    with no absolute floor: an integrand that is 0 on its nodes gives
    (0.0, 0.0), and an integral that cancels to about 0 raises
    QuadratureError.

    Returns (value, error_estimate), the estimate summed from `_rule`'s.
    A first rule that meets the target is returned at once, with no heap;
    otherwise greedy bisection of the interval with the largest error
    estimate.  Raises QuadratureError if the error estimate stops
    halving every 256 splits or the result is not finite, and ValueError
    for a NaN or negative tol.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds must be finite, got [{a}, {b}]")
    if not (b > a):
        if b == a:
            return 0.0, 0.0
        raise ValueError(f"inverted interval [{a}, {b}]")
    val, err = _rule(f, a, b)
    if not err > tol * (abs(val) if relative else 1.0):
        # + 0.0 maps -0.0 to 0.0, as the sum below does for one interval
        return _finite(val + 0.0, err)
    # heap of (-err, a, b, val, err); the disjoint intervals' left ends
    # are distinct and break ties deterministically
    heap = [(-err, a, b, val, err)]
    total_val = val
    total_err = err
    stall_mark = math.inf
    splits = 0
    while total_err > (target := tol * (abs(total_val) if relative else 1.0)):
        splits += 1
        if splits % 256 == 0:
            # roundoff floors are not reducible by splitting; bail out
            # once refinement stops paying.  A double halves only ~2100
            # times, so this ends every loop.
            if total_err > 0.5 * stall_mark:
                raise QuadratureError(
                    f"error estimate stalled at {total_err:.3e} > target "
                    f"{target:.3e} (roundoff-limited)",
                    value=total_val, achieved=total_err)
            stall_mark = total_err
        neg_err, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im <= ia or im >= ib:
            # interval at roundoff width; keep its estimate and move on
            heapq.heappush(heap, (0.0, ia, ib, ival, 0.0))
            total_err -= ierr
            continue
        lv, le = _rule(f, ia, im)
        rv, re = _rule(f, im, ib)
        total_val += lv + rv - ival
        total_err += le + re - ierr
        heapq.heappush(heap, (-le, ia, im, lv, le))
        heapq.heappush(heap, (-re, im, ib, rv, re))
    # fixed summation order for determinism
    items = sorted(heap, key=lambda it: it[1])
    value = float(np.sum(np.array([it[3] for it in items])))
    return _finite(value, total_err)


def _finite(value, err):
    """(value, err), or QuadratureError if either is not finite."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(
            f"non-finite result {value} (error estimate {err})",
            value=value, achieved=err)
    return value, err
