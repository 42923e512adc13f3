"""The benchmark's four workloads: inputs, one timed pass, output checks.

Each workload has three parts.  `build()` makes fresh inputs, so no pass
sees a mesh whose `_cache` an earlier pass filled.  `steps(inputs)` is
one pass: a list of calls, each running some of the workload's
operations and returning their records; the steps are the only timed
calls, each timed on its own.
`check(inputs, results)` returns a list of problems, found by comparing
the outputs with analytic values, with an independent solver, or with
properties the method must have -- never with a stored copy of earlier
output.

Every call into the library goes through a module attribute
(`report.verify_surface`, not a name imported from it), so that the
tracer's wrappers see it.  An operation that raises one of the library's
documented errors is a failed operation; its outcome is not checked.
"""

import contextlib
import io
import math
import re
import time
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sphere_spectra import cli, constants, generators, intersect, mesh, report
from sphere_spectra.geometry import HorizonError
from sphere_spectra.intersect import PoleSelectionError
from sphere_spectra.mesh import MeshError
from sphere_spectra.quadrature import QuadratureError
from sphere_spectra.spectral import ConvergenceError

OP_ERRORS = (ConvergenceError, HorizonError, MeshError, PoleSelectionError,
             QuadratureError)

SQRT2 = math.sqrt(2.0)


def _timed(op, fn):
    """Run one operation; returns its record with `ok` and `seconds`."""
    t0 = time.perf_counter()
    try:
        record = fn()
        record["ok"] = True
    except OP_ERRORS as exc:
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    record["op"] = op
    record["seconds"] = time.perf_counter() - t0
    return record


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# spectrum

def spectrum_problems(label, rep, ref_lambda1, surface):
    """Problems in one `verify_surface` report.

    `ref_lambda1` is scipy's eigsh on the same matrices; `surface` holds
    the smooth surface's first eigenvalue, its multiplicity, whether it
    is minimal, and whether to check the order n/2 < bound <= lambda1.
    """
    problems = []
    spec = rep["spectrum"]
    lam = spec["lambda1"]
    if _rel(lam, ref_lambda1) > 1e-7:
        problems.append(f"{label}: lambda1 {lam!r} differs from eigsh "
                        f"{ref_lambda1!r} by more than 1e-7 relative")
    if _rel(lam, surface.lambda1) > 0.01:
        problems.append(f"{label}: lambda1 {lam!r} is not within 1% of "
                        f"the analytic {surface.lambda1!r}")
    if len(spec["cluster"]) != surface.multiplicity:
        problems.append(f"{label}: cluster {spec['cluster']} does not have "
                        f"the analytic multiplicity {surface.multiplicity}")
    if surface.check_order:
        half_n = rep["surface"]["dim"] / 2.0
        bound = rep["bound"]["value_analytic_lam"]
        if not half_n < bound <= lam:
            problems.append(f"{label}: order n/2={half_n} < bound={bound!r} "
                            f"<= lambda1={lam!r} does not hold")
    verdicts = report.compute_verdicts(rep)
    if verdicts != rep["verdicts"]:
        problems.append(f"{label}: compute_verdicts does not reproduce "
                        f"the stored verdicts")
    # "minimality" classifies the surface; every other verdict must pass
    if verdicts["minimality"]["passed"] != surface.minimal:
        problems.append(f"{label}: minimality verdict "
                        f"{verdicts['minimality']['detail']!r}")
    failed = sorted(k for k, v in verdicts.items()
                    if k != "minimality" and not v["passed"])
    if failed:
        problems.append(f"{label}: verdicts failed: {failed}")
    return problems


def eigsh_lambda1(pair):
    """Smallest nonzero eigenvalue by scipy's ARPACK shift-invert.

    The shift -0.1 keeps L - sigma M definite; the two smallest of the
    six returned values are the constant mode (0) and lambda1.
    """
    n = len(pair.mass)
    v0 = np.random.default_rng(12345).standard_normal(n)
    vals = spla.eigsh(pair.stiffness, k=6, M=sp.diags(pair.mass),
                      sigma=-0.1, which="LM", v0=v0,
                      return_eigenvectors=False)
    return float(np.sort(vals)[1])


class Surface(NamedTuple):
    label: str
    build: Callable
    lambda1: float          # first eigenvalue of the smooth surface
    multiplicity: int
    minimal: bool
    check_order: bool       # n/2 < bound <= lambda1 (minimal, not geodesic)


class Spectrum:
    """`verify_surface` without offsets on clifford 64x64, equator subdiv
    4 and sphere r=pi/4 subdiv 4.

    The eigensolve is most of the time and `intersect` is never called.
    The three spectra differ in multiplicity and shift.  The seed draws
    the eigensolver's start block, a new one for each pass: on sphere
    r=pi/4 one start block converges in 12 outer iterations and another
    in 17, so a single start block per run would let the seed alone move
    `pass_s` by more than the run-to-run noise.
    """

    name = "spectrum"

    def __init__(self, seed, smoke=False):
        self.rng = np.random.default_rng(seed)
        res, subdiv = (24, 3) if smoke else (64, 4)
        quarter = math.pi / 4.0
        self.surfaces = [
            Surface(f"clifford {res}x{res}",
                    lambda: generators.gen_clifford_torus(res, res),
                    2.0, 4, True, True),
            Surface(f"equator subdiv {subdiv}",
                    lambda: generators.gen_geodesic_sphere(math.pi / 2.0,
                                                           subdiv),
                    2.0, 3, True, False),
            Surface(f"sphere r=pi/4 subdiv {subdiv}",
                    lambda: generators.gen_geodesic_sphere(quarter, subdiv),
                    2.0 / math.sin(quarter) ** 2, 3, False, False),
        ]
        self._ref = {}

    def build(self):
        return {"meshes": [surface.build() for surface in self.surfaces],
                "start": int(self.rng.integers(2 ** 31))}

    def steps(self, inputs):
        start = inputs["start"]
        return [lambda s=surface, m=m: [_timed(s.label, lambda: {
                    "report": report.verify_surface(m, seed=start)})]
                for surface, m in zip(self.surfaces, inputs["meshes"])]

    def check(self, inputs, results):
        problems = []
        for surface, m, res in zip(self.surfaces, inputs["meshes"],
                                   results):
            if not res["ok"]:
                continue
            if surface.label not in self._ref:
                self._ref[surface.label] = eigsh_lambda1(
                    mesh.assemble_laplacian(m))
            problems += spectrum_problems(surface.label, res["report"],
                                          self._ref[surface.label], surface)
        return problems

    @staticmethod
    def summary(record):
        spec = record["report"]["spectrum"]
        return {"lambda1": spec["lambda1"], "residual": spec["residual"],
                "iterations": spec["iterations"],
                "multiplicity": len(spec["cluster"])}


# ---------------------------------------------------------------------------
# offsets

def offset_row(surface, t):
    """One row of the offsets table, as `cli offsets` computes it."""
    off = mesh.offset_mesh(surface, t)
    geom = mesh.discrete_shape_operator(off)
    embedded, witnesses = intersect.self_intersection_test(off)
    return {"t": t, "embedded": embedded, "witnesses": len(witnesses),
            "h_min": float(geom.mean_H.min()),
            "h_max": float(geom.mean_H.max())}


def offset_problems(label, row, h_true):
    """An offset that must be embedded, with discrete H within 5% of h_true."""
    problems = []
    if not row["embedded"] or row["witnesses"]:
        problems.append(f"{label} t={row['t']}: not embedded "
                        f"({row['witnesses']} witnesses)")
    for key in ("h_min", "h_max"):
        if _rel(row[key], h_true) > 0.05:
            problems.append(f"{label} t={row['t']}: discrete {key} "
                            f"{row[key]!r} not within 5% of {h_true!r}")
    return problems


class OffsetsEmbedded:
    """Offset rows of clifford 16x16 at t = 0.1, 0.4, 0.7.

    Offsets of the Clifford torus below pi/4 are embedded flat tori with
    H = 2 tan 2t.  Concyclic vertex quadruples leave most candidate pairs
    undecided in floats, so the exact fallback does most of the work.
    `spectral` is never called; no input depends on the seed.
    """

    name = "offsets-embedded"

    def __init__(self, seed, smoke=False):
        self.res = 8 if smoke else 16
        self.ts = (0.1, 0.4, 0.7)

    def build(self):
        return generators.gen_clifford_torus(self.res, self.res)

    def steps(self, torus):
        return [lambda t=t: [_timed(f"offset t={t}",
                                    lambda: offset_row(torus, t))]
                for t in self.ts]

    def check(self, torus, results):
        problems = []
        for res in results:
            if res["ok"]:
                problems += offset_problems(
                    f"clifford {self.res}x{self.res}", res,
                    2.0 * math.tan(2.0 * res["t"]))
        return problems

    @staticmethod
    def summary(record):
        return {k: record[k] for k in ("embedded", "witnesses", "h_min")}


def crossed_problems(embedded, witnesses, first_triangles):
    """Two closed minimal surfaces in S^3 must meet (Frankel), and every
    witness must pair a triangle of the first torus with one of the
    second (triangles of the second are numbered from first_triangles)."""
    if embedded or not witnesses:
        return ["crossed tori reported embedded"]
    stray = [w for w in witnesses
             if not (min(w) < first_triangles <= max(w))]
    if stray:
        return [f"crossed tori: witnesses within one torus: {stray[:4]}"]
    return []


class OffsetsIntersecting:
    """Two crossed clifford 32x32 tori, and sphere r=pi/4 subdiv 4 offset
    rows.

    The crossed tori stop at 64 witnesses and leave undecided pairs
    unresolved; the sphere offsets have no undecided pairs.  Pole
    selection and the broad phase do the work.  The seed is the angle,
    in (0.8, 1.0) rad, of the second torus in the (x0, x2) plane.  Over
    that range the candidate pairs stay within 4933-5186; from 0.3 rad
    they grow to 8478, so a wider range would let the seed alone move
    `pass_s` by more than the run-to-run noise.
    """

    name = "offsets-intersecting"

    def __init__(self, seed, smoke=False):
        self.res, self.subdiv = (12, 3) if smoke else (32, 4)
        self.angle = 0.8 + 0.2 * float(np.random.default_rng(seed).random())
        self.ts = (0.2, 0.5)

    def build(self):
        first = generators.gen_clifford_torus(self.res, self.res)
        second = generators.rotate_mesh(
            generators.gen_clifford_torus(self.res, self.res), 0, 2,
            self.angle)
        union = generators.combine_meshes(first, second)
        sphere = generators.gen_geodesic_sphere(math.pi / 4.0, self.subdiv)
        return {"union": union, "first_triangles": first.triangle_count,
                "sphere": sphere}

    def steps(self, inputs):
        def crossed():
            embedded, witnesses = intersect.self_intersection_test(
                inputs["union"])
            return {"embedded": embedded,
                    "witnesses": [[int(i), int(j)] for i, j in witnesses]}

        return [lambda: [_timed("crossed tori", crossed)]] + [
            lambda t=t: [_timed(f"sphere offset t={t}",
                                lambda: offset_row(inputs["sphere"], t))]
            for t in self.ts]

    def check(self, inputs, results):
        crossed, *rows = results
        problems = []
        if crossed["ok"]:
            problems += crossed_problems(crossed["embedded"],
                                         crossed["witnesses"],
                                         inputs["first_triangles"])
        for row in rows:
            if row["ok"]:
                problems += offset_problems(
                    "sphere r=pi/4", row,
                    2.0 / math.tan(math.pi / 4.0 - row["t"]))
        return problems

    @staticmethod
    def summary(record):
        if "t" in record:
            return OffsetsEmbedded.summary(record)
        return {"embedded": record["embedded"],
                "witnesses": len(record["witnesses"])}


# ---------------------------------------------------------------------------
# oracles

_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(.+?)\s+(\S+)\s+(\S+)\s+(pass|FAIL)$")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def parse_oracle_table(text):
    """Rows [(kind, n, check, passed)] and (passed, total) of the summary
    line of `sphere-spectra verify-oracles` output."""
    rows, summary = [], None
    for line in text.splitlines():
        m = _ROW.match(line.strip())
        if m:
            rows.append((m[1], int(m[2]), m[3], m[6] == "pass"))
        m = _SUMMARY.match(line.strip())
        if m:
            summary = (int(m[1]), int(m[2]))
    return rows, summary


def oracle_records(exit_code, text):
    """One operation record per oracle check of the CLI output; a FAIL row
    is a failed operation."""
    rows, summary = parse_oracle_table(text)
    return [{"op": f"oracle {kind} n={n} {name}", "ok": passed,
             "exit_code": exit_code, "summary": summary}
            for kind, n, name, passed in rows]


def oracle_problems(records, expected_rows):
    """The CLI printed the expected rows, a summary line that counts them,
    and exit code 0 exactly when no row failed."""
    if len(records) != expected_rows:
        return [f"oracles: {len(records)} rows, expected {expected_rows}"]
    n_failed = sum(not rec["ok"] for rec in records)
    problems = []
    summary = records[0]["summary"]
    if summary != (len(records) - n_failed, len(records)):
        problems.append(f"oracles: summary {summary} does not match the "
                        f"{len(records)} rows with {n_failed} failures")
    code = records[0]["exit_code"]
    if (code == 0) != (n_failed == 0):
        problems.append(f"oracles: exit code {code} with "
                        f"{n_failed} failed rows")
    return problems


def analytic_surfaces():
    """(name, area, max ||A||) of the six mean-convex surfaces of the
    volume bound: geodesic spheres and flat tori."""
    out = []
    for r in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        out.append((f"sphere(r={r:.3f})", 4.0 * math.pi * math.sin(r) ** 2,
                    SQRT2 * math.cos(r) / math.sin(r)))
    for r in (0.4, 0.5, 1.0 / SQRT2):
        s = math.sqrt(1.0 - r * r)
        out.append((f"flat-torus(r={r:.3f})", 4.0 * math.pi ** 2 * r * s,
                    math.sqrt(r ** 4 + s ** 4) / (r * s)))
    return out


# closed forms of the n = 2 tube integral
TUBE_CLOSED_FORMS = [
    (1.0, math.pi / 4.0 - 0.5),
    (SQRT2, 1.5 * math.atan(1.0 / SQRT2) - SQRT2 / 2.0),
]


class Oracles:
    """`verify-oracles --dims 2,3,4` through the CLI, plus the volume-bound
    computations: tube integrals against closed forms and on a 64-point
    lambda grid, and the sharp bound on six analytic surfaces.

    Quadrature, `radial` and `solve_ivp` do all the work; no mesh is
    built.  No input depends on the seed.
    """

    name = "oracles"

    def __init__(self, seed, smoke=False):
        self.dims = "2" if smoke else "2,3,4"
        self.grid_points = 8 if smoke else 64
        self.expected_rows = 24 * len(self.dims.split(","))

    def build(self):
        return {"grid": [float(x) for x in
                         np.linspace(0.25, 10.0, self.grid_points)],
                "surfaces": analytic_surfaces()}

    def steps(self, inputs):
        return [self._cli, lambda: self._integrals(inputs)]

    def _cli(self):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = cli.main(["verify-oracles", "--dims", self.dims])
            records = oracle_records(code, buf.getvalue())
        except OP_ERRORS as exc:
            # the CLI died before its table: every check failed
            records = [{"op": f"oracle #{k}", "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"}
                       for k in range(self.expected_rows)]
        return records

    @staticmethod
    def _integrals(inputs):
        records = []
        for lam, exact in TUBE_CLOSED_FORMS:
            records.append(_timed(
                f"tube integral lam={lam:.6g}",
                lambda lam=lam, exact=exact: {
                    "value": constants.tube_integral(2, lam),
                    "exact": exact}))
        for lam in inputs["grid"]:
            records.append(_timed(
                f"tube integral grid lam={lam:.6g}",
                lambda lam=lam: {
                    "value": constants.tube_integral(2, lam),
                    "floor": constants.tube_integral_floor(2, lam)}))
        for name, area, lam in inputs["surfaces"]:
            records.append(_timed(
                f"volume bound {name}",
                lambda area=area, lam=lam: {
                    "area": area,
                    "sharp": constants.volume_upper_bound(2, lam).sharp}))
        return records

    def check(self, inputs, results):
        rows = [rec for rec in results if rec["op"].startswith("oracle ")]
        crashed = any("error" in rec for rec in rows)
        problems = [] if crashed else oracle_problems(rows,
                                                      self.expected_rows)
        for rec in results:
            if not rec["ok"]:
                continue
            if "exact" in rec and abs(rec["value"] - rec["exact"]) > 1e-9:
                problems.append(f"{rec['op']}: {rec['value']!r} differs from "
                                f"the closed form {rec['exact']!r}")
            if "floor" in rec and not rec["value"] >= rec["floor"]:
                problems.append(f"{rec['op']}: {rec['value']!r} is below "
                                f"the floor {rec['floor']!r}")
            if "sharp" in rec and not rec["area"] <= rec["sharp"]:
                problems.append(f"{rec['op']}: area {rec['area']!r} exceeds "
                                f"the sharp bound {rec['sharp']!r}")
        return problems

    @staticmethod
    def summary(record):
        return {k: v for k, v in record.items()
                if k in ("value", "exact", "floor", "area", "sharp")}


WORKLOADS = {w.name: w for w in (Spectrum, OffsetsEmbedded,
                                 OffsetsIntersecting, Oracles)}
