"""Composed surface verification and report handling.

`verify_surface` runs the whole pipeline on one mesh (Laplacian assembly,
eigensolve, shape-operator estimation, volume/curvature verdicts, optional
offset embeddedness table) and returns a plain-dict report that
serializes losslessly to JSON.  Every verdict is a pure function of
numbers stored in the report, so `compute_verdicts(report)` can re-derive
them for auditing, and `load_report` does so for every file it reads.
Schema version 1.
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
from .geometry import HorizonError
from .mesh import (MeshError, assemble_laplacian, discrete_shape_operator,
                   offset_horizon, offset_mesh, write_text_atomic)

__all__ = [
    "SCHEMA_VERSION", "SchemaMismatchError", "tool_version",
    "verify_surface", "offset_row", "compute_verdicts", "report_to_csv_row",
    "CSV_FIELDS",
    "write_json_atomic", "load_report", "merge_reports", "merged_csv_text",
    "write_merged_json",
]

SCHEMA_VERSION = 1

# Verdict tolerances (relative unless noted); fixed so reports are
# reproducible and auditable from their stored raw numbers alone.
EIG_TOL = 0.02            # slack on eigenvalue comparisons
SIMONS_FLOOR = -0.05      # absolute floor for the discrete Simons integral
MINIMAL_H_TOL = 0.05      # |H| threshold for calling a surface minimal


class SchemaMismatchError(ValueError):
    """Report files with differing schema versions cannot be merged, nor
    can a current-schema file that lacks a number its readers need or
    whose stored verdicts its numbers do not give."""


@functools.cache
def tool_version():
    """The installed package version, looked up once per process."""
    try:
        return _im.version("sphere-spectra")
    except _im.PackageNotFoundError:
        return "0.0.0+unpackaged"


def offset_row(mesh, t):
    """One offsets-table row: the parallel mesh at distance t.

    A distance `offset_mesh` refuses gives a "beyond-horizon" row, whose
    horizon is |critical_t| of the HorizonError.  Otherwise the row holds
    the embeddedness status and the ranges of the discrete and (if the
    mesh has analytic curvatures) the transported analytic mean curvature.
    """
    t = float(t)
    t0 = time.perf_counter()
    try:
        off = offset_mesh(mesh, t)
    except HorizonError as exc:
        return {"t": t, "status": "beyond-horizon",
                "horizon": float(abs(exc.critical_t))}
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


def verify_surface(mesh, tol=spectral.DEFAULT_TOL, seed=0, offsets=()):
    """Full verification pipeline for one mesh; returns the report dict.

    `offsets` is a sequence of signed distances for the embeddedness
    table, one `offset_row` each.  Minimal is max|H| <= h_tol, mean convex
    min H >= -h_tol, for the analytic H and h_tol = 1e-12 if the mesh has
    kappas, else the discrete H and MINIMAL_H_TOL * max(1, lam_max).  A
    mesh with more than one connected component raises MeshError.
    """
    n = 2   # triangulated surfaces in S^3
    if mesh.component_count > 1:
        raise MeshError(
            f"mesh has {mesh.component_count} connected components; "
            "lambda1 of a disconnected surface is 0")
    timing = {}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    geom = discrete_shape_operator(mesh)
    timing["shape_operator"] = time.perf_counter() - t0

    if mesh.kappas is not None:
        lam_analytic = float(np.linalg.norm(mesh.kappas, axis=1).max())
        mean_h, h_tol = mesh.kappas.sum(axis=1), 1e-12
        h_analytic = float(mean_h.max())
    else:
        lam_analytic = h_analytic = None
        mean_h, h_tol = geom.mean_H, MINIMAL_H_TOL * max(1.0, geom.lam_max)
    minimal = bool(np.abs(mean_h).max() <= h_tol)
    mean_convex = bool(mean_h.min() >= -h_tol)

    t0 = time.perf_counter()
    pair = assemble_laplacian(mesh)
    timing["assembly"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # the ambient coordinates are eigenfunctions on a minimal surface (and
    # on a geodesic sphere), so the smallest Ritz value of their span lies
    # near lambda1; where it lies too high, the inertia check rejects the
    # shift
    eig = spectral.smallest_nonzero_eig(pair, tol=tol, seed=seed,
                                        trial=mesh.vertices)
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
        vb = constants.volume_upper_bound(n, lam_for_bound)
        volume = {"lam": lam_for_bound, "tube_integral": vb.tube,
                  "bound_sharp": vb.sharp}
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
            "max_iter": spectral.DEFAULT_MAX_ITER,
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
            "horizon": offset_horizon(mesh),
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
    lam1 = report["spectrum"]["lambda1"]
    verdicts = {}

    verdicts["minimality"] = _verdict(
        cur["minimal"], "minimal" if cur["minimal"] else "not minimal")

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
            f"discrete Simons integral {round(simons, 6) + 0.0:.6f} "
            f">= {SIMONS_FLOOR}")

    if cur["mean_convex"] and report["volume"] is not None:
        area = report["area"]["discrete"]
        cap = report["volume"]["bound_sharp"]
        verdicts["volume_bound"] = _verdict(
            area <= cap * (1.0 + 1e-9),
            f"area={area:.6g} <= Vol(S^3)/(2 I)={cap:.6g}")

    rows = report.get("offsets", [])
    if rows:
        ts = {s: [r["t"] for r in rows if r.get("status") == s]
              for s in ("embedded", "intersecting", "beyond-horizon")}
        bad, beyond = ts["intersecting"], ts["beyond-horizon"]
        detail = "all offsets embedded"
        if bad:
            detail = f"self-intersection at t in {bad}"
        elif beyond:    # never tested: a passing table names them
            detail = (f"embedded at t in {ts['embedded']}; "
                      f"beyond the horizon at t in {beyond}")
        verdicts["offsets_embedded"] = _verdict(not bad, detail)
    return verdicts


# the CSV's columns: (column, report section, key), then one verdict_<name>
# column per verdict, its passed flag, empty where the report has none
_CSV_COLUMNS = (
    ("name", "surface", "name"), ("vertices", "surface", "vertices"),
    ("triangles", "surface", "triangles"), ("genus", "surface", "genus"),
    ("area_discrete", "area", "discrete"),
    ("area_analytic", "area", "analytic"),
    ("lambda1", "spectrum", "lambda1"),
    ("lambda1_analytic", "spectrum", "lambda1_analytic"),
    ("residual", "spectrum", "residual"),
    ("iterations", "spectrum", "iterations"),
    ("lam_discrete", "curvature", "lam_discrete"),
    ("lam_analytic", "curvature", "lam_analytic"),
    ("bound_value", "bound", "value_analytic_lam"),
    ("branch", "bound", "branch"), ("simons", "simons", "integral"),
    ("seconds", "timing_s", "total"))
_VERDICTS = ("minimality", "choi_wang", "improved_bound", "yau_upper",
             "yang_yau", "simons", "volume_bound", "offsets_embedded")

CSV_FIELDS = [column for column, _, _ in _CSV_COLUMNS] \
    + [f"verdict_{name}" for name in _VERDICTS]


def report_to_csv_row(report):
    """The CSV row of a report, read by `_CSV_COLUMNS` in column order;
    a missing section or key raises KeyError naming it."""
    row = {column: report[section][key]
           for column, section, key in _CSV_COLUMNS}
    verdicts = report["verdicts"]
    return row | {f"verdict_{name}": int(verdicts[name]["passed"])
                  if name in verdicts else "" for name in _VERDICTS}


def write_json_atomic(data, path):
    """Serialize to JSON and move into place (temp file + rename)."""
    write_text_atomic(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:       # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a JSON report ({exc})") from exc


def _checked_report(data, where):
    """`data` as `load_report` returns it; `where` names it in errors.
    The check is the two readers of a report: `report_to_csv_row` must
    read its row, and `compute_verdicts` must give the stored verdicts."""
    if not isinstance(data, dict) or "schema" not in data:
        raise SchemaMismatchError(f"{where}: missing schema field")
    if data["schema"] != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{where}: unsupported schema version {data['schema']!r}")
    try:
        report_to_csv_row(data)
    except KeyError as exc:
        raise SchemaMismatchError(f"{where}: schema {SCHEMA_VERSION} "
                                  f"report without {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaMismatchError(
            f"{where}: no CSV row can be read ({exc!r})") from exc
    try:
        fresh = {name: v["passed"]
                 for name, v in compute_verdicts(data).items()}
        stored = {name: v["passed"] for name, v in data["verdicts"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaMismatchError(
            f"{where}: verdicts cannot be recomputed ({exc!r})") from exc
    differ = [name for name in dict.fromkeys([*fresh, *stored])
              if fresh.get(name) != stored.get(name)]
    if differ:
        raise SchemaMismatchError(
            f"{where}: stored verdicts differ from their recomputation: "
            f"{', '.join(differ)}")
    return data


def load_report(path):
    """Read one JSON report.  A file without the schema field, a file of
    any schema other than SCHEMA_VERSION, a file without a section or key
    that `report_to_csv_row` reads (the message names it) or that
    `compute_verdicts` needs, and a file whose stored verdicts (names and
    passed flags) differ from `compute_verdicts` of its numbers raise
    SchemaMismatchError naming the file; the message names the verdicts
    that differ, in the order `compute_verdicts` makes them."""
    return _checked_report(_read_json(path), path)


def merge_reports(paths):
    """Load several reports, each checked as `load_report` checks a
    file, so every one is of schema SCHEMA_VERSION.

    A path may also hold a merged file, {"schema": 1, "reports": [...]}
    as `write_merged_json` writes it: its reports are read in order, each
    checked the same way (errors name it as `path: reports[k]`).
    """
    reports = []
    for path in paths:
        data = _read_json(path)
        if (isinstance(data, dict) and data.get("schema") == SCHEMA_VERSION
                and "reports" in data):
            if not isinstance(data["reports"], list):
                raise SchemaMismatchError(
                    f"{path}: merged file whose 'reports' is not a list")
            reports += [_checked_report(r, f"{path}: reports[{k}]")
                        for k, r in enumerate(data["reports"])]
        else:
            reports.append(_checked_report(data, path))
    return reports


def merged_csv_text(reports):
    """Render merged reports as CSV text (header always present)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for rep in reports:
        writer.writerow(report_to_csv_row(rep))
    return buf.getvalue()


def write_merged_json(reports, path):
    """Write reports as the merged file that `merge_reports` reads back."""
    write_json_atomic({"schema": SCHEMA_VERSION, "reports": reports}, path)
