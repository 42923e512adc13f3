"""Command-line front end.

Subcommands::

    constants       dimensional constants, slack chain, eigenvalue bound
    verify-surface  full pipeline on a generated or loaded mesh -> JSON/CSV
    offsets         embeddedness / mean-convexity table for parallel meshes
    verify-oracles  radial integral-identity suite over a dimension list
    report          merge verification reports into CSV/JSON

Exit codes: 0 ok, 2 usage, 3 mesh error, 4 solver failure, 5 failed
oracle check, 6 report schema mismatch.

A config file (--config) holds `key = value` lines ('#' starts a
comment); keys are the long option names of the chosen subcommand and
explicit flags override the file.  The environment variable
SPHERE_SPECTRA_SEED overrides the RNG seed from either source.
"""

import argparse
import math
import os
import sys

from . import constants as consts
from . import radial, report as rep
from .generators import gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere
from .geometry import HorizonError
from .intersect import PoleSelectionError
from .mesh import MeshError, offset_horizon, write_text_atomic
from .s3off import read_s3off
from .spectral import ConvergenceError

EXIT_USAGE = 2
EXIT_MESH = 3
EXIT_SOLVER = 4
EXIT_ORACLE = 5
EXIT_SCHEMA = 6


def _read_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _apply_config(args, parser):
    """Fill argparse values that were left at None from the config file.

    Config keys are the long option names of the subcommand (dashes or
    underscores); explicit flags always win.
    """
    if not getattr(args, "config", None):
        return args
    values = _read_config(args.config)
    sub = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub = action.choices[args.command]
            break
    actions = {}
    for action in (sub._actions if sub else []):
        for opt in action.option_strings:
            if opt.startswith("--"):
                actions[opt[2:].replace("-", "_")] = action
    for key, value in values.items():
        action = actions.get(key)
        if action is None or not hasattr(args, action.dest):
            continue
        if getattr(args, action.dest) is None:
            value = action.type(value) if action.type else value
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{key} = {value!r}: not one of "
                                 f"{', '.join(map(str, action.choices))}")
            args.__dict__[action.dest] = value
    return args


def _resolve_seed(args):
    env = os.environ.get("SPHERE_SPECTRA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"SPHERE_SPECTRA_SEED={env!r} is not an integer") from None
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return 0


def _parse_list(text, kind):
    """A comma list option; one that parses to nothing would run, and
    pass, nothing, so it is a usage error, and so is a NaN or infinite
    entry."""
    items = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"no values in the list {text!r}")
    if not all(map(math.isfinite, items)):
        raise ValueError(f"non-finite value in the list {text!r}")
    return items


def _build_mesh(args):
    if getattr(args, "mesh", None):
        return read_s3off(args.mesh)
    gen = args.gen or "clifford"
    res = args.res if args.res is not None else 64
    subdiv = args.subdiv if args.subdiv is not None else 4
    if gen == "clifford":
        return gen_clifford_torus(res, res)
    if gen == "flat-torus":
        r = args.r if args.r is not None else 0.5
        return gen_flat_torus(r, res, res)
    if gen == "equator":
        return gen_geodesic_sphere(math.pi / 2.0, subdiv)
    if gen == "sphere":
        r = args.r if args.r is not None else math.pi / 4.0
        return gen_geodesic_sphere(r, subdiv)
    raise MeshError(f"unknown generator {gen!r}")


# ---------------------------------------------------------------------------

# the parameter-chain fields `constants` prints and writes, with their notes
_CHAIN_ROWS = (
    ("eps", "offset slack"), ("beta", "trace slack"),
    ("eps_tilde", "offset mean-curvature bound"), ("gamma", "chain slack"),
    ("delta", "n*arctan(eps/n)"), ("t_collar", "delta/(2 lam^2)"),
    ("d_eps", "arctan(eps/lam^2)"))


def _cmd_constants(args):
    n = args.dim if args.dim is not None else 2
    bc = consts.compute_bound_constants(n)
    rows = [
        ("a_n", bc.a_n, f">= floor {bc.a_floor:.8g}"),
        ("b_n", bc.b_n, f"<= ceiling {bc.b_ceiling:.8g}"),
        ("c_n", bc.c_n, "volume-bound constant (lam >= 1/4)"),
        ("factor", consts.arctan_cubed_factor(n), "in [7/200, 1/27]"),
    ]
    out = {"schema": rep.SCHEMA_VERSION, "tool": f"sphere-spectra {rep.tool_version()}",
           "dim": n, "a_n": bc.a_n, "b_n": bc.b_n, "c_n": bc.c_n,
           "a_floor": bc.a_floor, "b_ceiling": bc.b_ceiling}
    lam = getattr(args, "lam", None)
    if lam is not None:
        bound = consts.eigenvalue_lower_bound(n, lam)
        branch = consts.bound_branch(n, lam)
        chain = None
        if lam > 0 and branch == "generic":
            chain = consts.build_parameter_chain(n, lam, args.eps, args.beta)
            out["chain"] = {name: getattr(chain, name)
                            for name, _ in _CHAIN_ROWS}
            rows += [(name, out["chain"][name], note + (
                "  [DEGENERATE]" if name == "gamma" and not chain.valid
                else "")) for name, note in _CHAIN_ROWS]
            out["chain"]["valid"] = chain.valid
        rows.append(("bound", bound, f"lam={lam:g}, {branch} branch"))
        out["lam"] = lam
        out["bound"] = bound
        out["branch"] = branch
    print(f"dimensional constants (n = {n})")
    for name, value, note in rows:
        print(f"  {name:10s} {value: .12g}   {note}")
    if args.out:
        rep.write_json_atomic(out, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify_surface(args):
    offsets = _parse_list(args.offsets, float) if args.offsets else []
    mesh = _build_mesh(args)
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else 1e-8
    data = rep.verify_surface(mesh, tol=tol, seed=seed, offsets=offsets)
    spec = data["spectrum"]
    cur = data["curvature"]
    print(f"surface: {data['surface']['name']}  "
          f"V={data['surface']['vertices']} F={data['surface']['triangles']} "
          f"genus={data['surface']['genus']}")
    print(f"  area      discrete {data['area']['discrete']:.6f}"
          + (f"  analytic {data['area']['analytic']:.6f}"
             if data['area']['analytic'] else ""))
    print(f"  lambda1   {spec['lambda1']:.8f}  residual {spec['residual']:.2e}"
          f"  multiplicity {len(spec['cluster'])}"
          + (f"  analytic {spec['lambda1_analytic']:.8f}"
             if spec['lambda1_analytic'] else ""))
    print(f"  max||A||  discrete {cur['lam_discrete']:.6f}"
          + (f"  analytic {cur['lam_analytic']:.6f}"
             if cur['lam_analytic'] is not None else ""))
    print(f"  bound     {data['bound']['value_analytic_lam']:.8f}"
          f"  ({data['bound']['branch']})")
    for t_row in data["offsets"]:
        print(f"  offset t={t_row['t']:+.3f}: {t_row['status']}")
    print("verdicts:")
    for name, verdict in data["verdicts"].items():
        mark = "pass" if verdict["passed"] else "FAIL"
        print(f"  [{mark}] {name}: {verdict['detail']}")
    if args.out:
        rep.write_json_atomic(data, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        text = rep.merged_csv_text([data])
        write_text_atomic(text, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_offsets(args):
    ts = _parse_list(args.ts, float) if args.ts else [0.1, 0.2, 0.3]
    mesh = _build_mesh(args)
    horizon = offset_horizon(mesh)
    print(f"surface: {mesh.name}   horizon T = {horizon:.6f}")
    print(f"{'t':>8s} {'status':>16s} {'minH(disc)':>12s} {'maxH(disc)':>12s} "
          f"{'minH(anal)':>12s} {'maxH(anal)':>12s}")
    for t in ts:
        row = rep.offset_row(mesh, t)
        if row["status"] == "beyond-horizon":
            print(f"{t:8.3f} {'beyond T=%.4f' % horizon:>16s}")
            continue
        status = row["status"]
        if status == "intersecting":
            status += f"({row['witnesses']})"
        analytic = ""
        if "h_analytic_min" in row:
            analytic = (f"{row['h_analytic_min']:12.6f} "
                        f"{row['h_analytic_max']:12.6f}")
        print(f"{t:8.3f} {status:>16s} {row['h_discrete_min']:12.6f} "
              f"{row['h_discrete_max']:12.6f} {analytic}")
    return 0


def _cmd_verify_oracles(args):
    dims = _parse_list(args.dims, int) if args.dims else [2, 3, 4]
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    rows = []
    for n in dims:
        for kind, suite in radial.ORACLES.items():
            if args.only not in (None, kind):
                continue
            for r in suite(n):
                if args.tol is not None:
                    r = radial.judge(type(r), r.name, r.lhs, r.rhs, args.tol,
                                     r.extras)
                identity = isinstance(r, radial.IdentityReport)
                label = kind if kind != "chain" else \
                    "chain/flux" if identity else "chain/ineq"
                rows.append((label, n, r.name,
                             r.gap if identity else -r.slack, r.tol, r.passed))
    failed = [row for row in rows if not row[5]]
    width = max(len(row[2]) for row in rows) if rows else 10
    print(f"{'kind':12s} {'n':>2s} {'check':{width}s} {'gap/-slack':>12s} "
          f"{'tol':>9s} verdict")
    for kind, n, name, gap, tol_eff, passed in rows:
        print(f"{kind:12s} {n:2d} {name:{width}s} {gap:12.3e} "
              f"{tol_eff:9.1e} {'pass' if passed else 'FAIL'}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    if failed:
        print("failed: " + ", ".join(row[2] for row in failed),
              file=sys.stderr)
        return EXIT_ORACLE
    return 0


def _cmd_report(args):
    try:
        reports = rep.merge_reports(args.paths)
    except rep.SchemaMismatchError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    text = rep.merged_csv_text(reports)
    if args.csv:
        write_text_atomic(text, args.csv)
        print(f"wrote {args.csv} ({len(reports)} rows)")
    else:
        sys.stdout.write(text)
    if args.out:
        rep.write_json_atomic({"schema": rep.SCHEMA_VERSION,
                               "reports": reports}, args.out)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------

def _add_mesh_arguments(sub):
    sub.add_argument("--gen", choices=["clifford", "flat-torus", "equator",
                                       "sphere"], default=None,
                     help="generator family (default clifford)")
    sub.add_argument("--mesh", default=None, help="path to an S3OFF file")
    sub.add_argument("--res", type=int, default=None,
                     help="grid resolution per circle for torus generators")
    sub.add_argument("--subdiv", type=int, default=None,
                     help="icosphere subdivision level for sphere generators")
    sub.add_argument("--r", type=float, default=None,
                     help="tube parameter (flat-torus) or radius (sphere)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphere-spectra",
        description="spectral geometry of closed surfaces in the 3-sphere")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", help="dimensional constants and bound")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="curvature bound max ||A||")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", default=None, help="write JSON output here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_constants)

    p = subs.add_parser("verify-surface", help="full verification pipeline")
    _add_mesh_arguments(p)
    p.add_argument("--tol", type=float, default=None,
                   help="eigensolver residual tolerance (default 1e-8)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--offsets", default=None,
                   help="comma list of offset distances for the embeddedness table")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="write a one-row CSV here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_verify_surface)

    p = subs.add_parser("offsets", help="parallel-surface table")
    _add_mesh_arguments(p)
    p.add_argument("--ts", default=None, help="comma list of offsets")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_offsets)

    p = subs.add_parser("verify-oracles", help="radial identity suite")
    p.add_argument("--dims", default=None, help="comma list of dimensions")
    p.add_argument("--only", default=None, choices=list(radial.ORACLES),
                   help="one kind of the 24 checks per dimension: reilly 9, "
                        "bochner 1, interior 2, chain 4, collar 8")
    p.add_argument("--tol", type=float, default=None,
                   help="pass threshold X*(1+|lhs|) for every identity and "
                        "X*(1+|rhs|) for every inequality")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_verify_oracles)

    p = subs.add_parser("report", help="merge JSON reports")
    p.add_argument("paths", nargs="*", help="report files to merge")
    p.add_argument("--csv", default=None, help="write merged CSV here")
    p.add_argument("--out", default=None, help="write merged JSON here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except (HorizonError, PoleSelectionError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except ValueError as exc:
        # after the handlers above: MeshError and HorizonError subclass it
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
