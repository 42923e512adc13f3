"""Composed surface verification and report handling.

`verify_surface` runs the whole pipeline on one mesh (Laplacian assembly,
eigensolve, shape-operator estimation, volume/curvature verdicts, optional
offset embeddedness table) and returns a plain-dict report that
serializes losslessly to JSON.  Every verdict is a pure function of
numbers stored in the report, so `compute_verdicts(report)` can re-derive
them for auditing.  Schema version 1.
"""

import csv
import functools
import io
import json
import math
import time
from importlib import metadata as _im

import numpy as np

from . import constants, intersect, spectral
from .mesh import (MeshError, assemble_laplacian, discrete_shape_operator,
                   offset_horizon, offset_mesh, write_text_atomic)

__all__ = [
    "SCHEMA_VERSION", "SchemaMismatchError", "tool_version",
    "verify_surface", "offset_row", "compute_verdicts", "report_to_csv_row",
    "CSV_FIELDS",
    "write_json_atomic", "load_report", "merge_reports", "merged_csv_text",
]

SCHEMA_VERSION = 1

# Verdict tolerances (relative unless noted); fixed so reports are
# reproducible and auditable from their stored raw numbers alone.
EIG_TOL = 0.02            # slack on eigenvalue comparisons
SIMONS_FLOOR = -0.05      # absolute floor for the discrete Simons integral
MINIMAL_H_TOL = 0.05      # |H| threshold for calling a surface minimal


class SchemaMismatchError(ValueError):
    """Report files with differing schema versions cannot be merged."""


@functools.cache
def tool_version():
    """The installed package version, looked up once per process."""
    try:
        return _im.version("sphere-spectra")
    except _im.PackageNotFoundError:
        return "0.0.0+unpackaged"


def offset_row(mesh, t):
    """One offsets-table row: the parallel mesh at distance t.

    A distance at or beyond `offset_horizon(mesh)` gives a
    "beyond-horizon" row.  Otherwise the row holds the embeddedness
    status and the ranges of the discrete and (if the mesh has analytic
    curvatures) the transported analytic mean curvature.
    """
    t = float(t)
    horizon = offset_horizon(mesh)
    if abs(t) >= horizon:
        return {"t": t, "status": "beyond-horizon", "horizon": horizon}
    t0 = time.perf_counter()
    off = offset_mesh(mesh, t)
    off_geom = discrete_shape_operator(off)
    embedded, witnesses = intersect.self_intersection_test(off)
    row = {
        "t": t,
        "status": "embedded" if embedded else "intersecting",
        "witnesses": len(witnesses),
        "h_discrete_min": float(off_geom.mean_H.min()),
        "h_discrete_max": float(off_geom.mean_H.max()),
    }
    if off.kappas is not None:
        h = off.kappas.sum(axis=1)
        row["h_analytic_min"] = float(h.min())
        row["h_analytic_max"] = float(h.max())
    row["seconds"] = time.perf_counter() - t0
    return row


def verify_surface(mesh, tol=1e-8, seed=0, offsets=(), max_iter=10000):
    """Full verification pipeline for one mesh; returns the report dict.

    `offsets` is a sequence of signed distances for the embeddedness
    table, one `offset_row` each.  A mesh with more than one connected
    component raises MeshError: its first nonzero eigenvalue is 0.
    """
    n = 2   # triangulated surfaces in S^3
    if mesh.component_count > 1:
        raise MeshError(
            f"mesh has {mesh.component_count} connected components; "
            "lambda1 of a disconnected surface is 0")
    timing = {}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    geom = mesh.discrete_geometry()
    timing["shape_operator"] = time.perf_counter() - t0

    lam_analytic = None
    h_analytic = None
    if mesh.kappas is not None:
        lam_analytic = float(np.linalg.norm(mesh.kappas, axis=1).max())
        h_analytic = float(mesh.kappas.sum(axis=1).max())
        h_min_analytic = float(mesh.kappas.sum(axis=1).min())
        minimal = abs(h_analytic) <= 1e-12 and abs(h_min_analytic) <= 1e-12
        mean_convex = h_min_analytic >= -1e-12
    else:
        scale = max(1.0, geom.lam_max)
        minimal = bool(np.abs(geom.mean_H).max() <= MINIMAL_H_TOL * scale)
        mean_convex = bool(geom.mean_H.min() >= -MINIMAL_H_TOL * scale)
    horizon = offset_horizon(mesh)

    t0 = time.perf_counter()
    pair = assemble_laplacian(mesh)
    timing["assembly"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # the ambient coordinates are eigenfunctions on a minimal surface (and
    # on a geodesic sphere), so their Rayleigh quotients lie near lambda1;
    # where they lie too high, the inertia check rejects the shift
    eig = spectral.smallest_nonzero_eig(pair, tol=tol, max_iter=max_iter,
                                        seed=seed, trial=mesh.vertices)
    timing["eigensolve"] = time.perf_counter() - t0
    spectrum = {
        "lambda1": eig.lambda1,
        "residual": eig.residual,
        "iterations": eig.iterations,
        "cluster": eig.cluster,
        "values": eig.values,
        "shift": eig.shift,
        "below_shift": eig.below_shift,
        "lambda1_analytic": mesh.meta.get("lambda1"),
    }

    bc = constants.compute_bound_constants(n)
    lam_for_bound = lam_analytic if lam_analytic is not None else geom.lam_max
    branch = constants.bound_branch(n, lam_for_bound)
    bound_analytic = constants.eigenvalue_lower_bound(n, lam_for_bound)
    bound_discrete = constants.eigenvalue_lower_bound(n, geom.lam_max)

    volume = None
    if lam_for_bound > 0:
        t0 = time.perf_counter()
        tube = constants.tube_integral(n, lam_for_bound)
        volume = {
            "lam": lam_for_bound,
            "tube_integral": tube,
            "bound_sharp": constants.sphere_volume(n + 1) / (2.0 * tube),
        }
        timing["tube_integral"] = time.perf_counter() - t0

    simons = float(np.sum(
        geom.areas * geom.norm_A ** 2 * (geom.norm_A ** 2 - n)))

    offsets_table = [offset_row(mesh, t) for t in offsets]

    timing["total"] = time.perf_counter() - t_all
    report = {
        "schema": SCHEMA_VERSION,
        "tool": f"sphere-spectra {tool_version()}",
        "surface": {
            "name": mesh.name,
            "dim": n,
            "vertices": mesh.vertex_count,
            "triangles": mesh.triangle_count,
            "edges": mesh.edge_count,
            "euler": mesh.euler_characteristic,
            "genus": geom.genus,
            "generator": {k: v for k, v in mesh.meta.items()
                          if isinstance(v, (int, float, str))},
            "normal_doc": mesh.normal_doc,
        },
        "parameters": {
            "seed": seed,
            "tol": tol,
            "max_iter": max_iter,
            "offsets": [float(t) for t in offsets],
        },
        "area": {
            "discrete": geom.total_area,
            "analytic": mesh.meta.get("area"),
        },
        "spectrum": spectrum,
        "curvature": {
            "lam_analytic": lam_analytic,
            "lam_discrete": geom.lam_max,
            "h_analytic_max": h_analytic,
            "h_discrete_min": float(geom.mean_H.min()),
            "h_discrete_max": float(geom.mean_H.max()),
            "minimal": minimal,
            "mean_convex": mean_convex,
            "horizon": horizon if math.isfinite(horizon) else None,
        },
        "bound": {
            "a_n": bc.a_n,
            "b_n": bc.b_n,
            "branch": branch,
            "value_analytic_lam": bound_analytic,
            "value_discrete_lam": bound_discrete,
        },
        "volume": volume,
        "simons": {"integral": simons},
        "offsets": offsets_table,
        "timing_s": timing,
    }
    report["verdicts"] = compute_verdicts(report)
    return report


def _verdict(passed, detail):
    return {"passed": bool(passed), "detail": detail}


def compute_verdicts(report):
    """Derive every verdict from the numbers stored in the report.

    Pure function of the report content (excluding the "verdicts" key),
    so stored verdicts can be audited by recomputation.
    """
    n = report["surface"]["dim"]
    cur = report["curvature"]
    spec = report["spectrum"]
    verdicts = {}

    verdicts["minimality"] = _verdict(
        cur["minimal"], "minimal" if cur["minimal"] else "not minimal")

    if spec is not None:
        lam1 = spec["lambda1"]
        if cur["minimal"]:
            verdicts["choi_wang"] = _verdict(
                lam1 >= n / 2.0 * (1.0 - EIG_TOL),
                f"lambda1={lam1:.6g} >= n/2={n / 2.0:.6g}")
            bound = report["bound"]["value_analytic_lam"]
            verdicts["improved_bound"] = _verdict(
                lam1 >= bound * (1.0 - EIG_TOL),
                f"lambda1={lam1:.6g} >= bound={bound:.8g} "
                f"({report['bound']['branch']})")
            verdicts["yau_upper"] = _verdict(
                lam1 <= n * (1.0 + EIG_TOL),
                f"lambda1={lam1:.6g} <= n={n}")
        else:
            verdicts["improved_bound"] = _verdict(
                True, "skipped: surface not minimal")
        genus = report["surface"]["genus"]
        if genus is not None:
            cap = 8.0 * math.pi * ((genus + 3) // 2)
            product = lam1 * report["area"]["discrete"]
            verdicts["yang_yau"] = _verdict(
                product <= cap * (1.0 + EIG_TOL),
                f"lambda1*area={product:.6g} <= 8*pi*floor((g+3)/2)={cap:.6g}")

    if cur["minimal"]:
        simons = report["simons"]["integral"]
        verdicts["simons"] = _verdict(
            simons >= SIMONS_FLOOR,
            f"discrete Simons integral {simons:.4g} >= {SIMONS_FLOOR}")

    if cur["mean_convex"] and report["volume"] is not None:
        area = report["area"]["discrete"]
        cap = report["volume"]["bound_sharp"]
        verdicts["volume_bound"] = _verdict(
            area <= cap * (1.0 + 1e-9),
            f"area={area:.6g} <= Vol(S^3)/(2 I)={cap:.6g}")

    rows = report.get("offsets", [])
    if rows:
        bad = [r["t"] for r in rows if r.get("status") == "intersecting"]
        verdicts["offsets_embedded"] = _verdict(
            not bad,
            "all offsets embedded" if not bad
            else f"self-intersection at t in {bad}")
    return verdicts


# verdict columns of the CSV, in column order; a missing verdict is empty
_VERDICTS = ("minimality", "choi_wang", "improved_bound", "yau_upper",
             "yang_yau", "simons", "volume_bound", "offsets_embedded")

CSV_FIELDS = [
    "name", "vertices", "triangles", "genus",
    "area_discrete", "area_analytic",
    "lambda1", "lambda1_analytic", "residual", "iterations",
    "lam_discrete", "lam_analytic", "bound_value", "branch",
    "simons", "seconds",
] + [f"verdict_{name}" for name in _VERDICTS]


# the top-level report keys report_to_csv_row reads
_CSV_SECTIONS = ("surface", "area", "spectrum", "curvature", "bound",
                 "simons", "timing_s", "verdicts")


def report_to_csv_row(report):
    spec = report["spectrum"] or {}
    verdicts = report["verdicts"]
    return {
        "name": report["surface"]["name"],
        "vertices": report["surface"]["vertices"],
        "triangles": report["surface"]["triangles"],
        "genus": report["surface"]["genus"],
        "area_discrete": report["area"]["discrete"],
        "area_analytic": report["area"]["analytic"],
        "lambda1": spec.get("lambda1"),
        "lambda1_analytic": spec.get("lambda1_analytic"),
        "residual": spec.get("residual"),
        "iterations": spec.get("iterations"),
        "lam_discrete": report["curvature"]["lam_discrete"],
        "lam_analytic": report["curvature"]["lam_analytic"],
        "bound_value": report["bound"]["value_analytic_lam"],
        "branch": report["bound"]["branch"],
        "simons": report["simons"]["integral"],
        "seconds": report["timing_s"]["total"],
        **{f"verdict_{name}": int(verdicts[name]["passed"])
           if name in verdicts else "" for name in _VERDICTS},
    }


def write_json_atomic(data, path):
    """Serialize to JSON and move into place (temp file + rename)."""
    write_text_atomic(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def load_report(path):
    """Read one JSON report.  A file without the schema field, or a
    current-schema file without a section `report_to_csv_row` reads,
    raises SchemaMismatchError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:       # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a JSON report ({exc})") from exc
    if not isinstance(data, dict) or "schema" not in data:
        raise SchemaMismatchError(f"{path}: missing schema field")
    missing = [key for key in _CSV_SECTIONS if key not in data]
    if data["schema"] == SCHEMA_VERSION and missing:
        raise SchemaMismatchError(
            f"{path}: schema {SCHEMA_VERSION} report without {missing[0]!r}")
    return data


def merge_reports(paths):
    """Load several reports; all must share one schema version."""
    reports = [load_report(p) for p in paths]
    versions = {r["schema"] for r in reports}
    if len(versions) > 1:
        raise SchemaMismatchError(
            f"mixed schema versions {sorted(versions)} in {list(paths)}")
    if versions and versions != {SCHEMA_VERSION}:
        raise SchemaMismatchError(
            f"unsupported schema version {sorted(versions)}")
    return reports


def merged_csv_text(reports):
    """Render merged reports as CSV text (header always present)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for rep in reports:
        writer.writerow(report_to_csv_row(rep))
    return buf.getvalue()
