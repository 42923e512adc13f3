"""Command-line front end.

Subcommands::

    constants       dimensional constants, slack chain, eigenvalue bound
    verify-surface  full pipeline on a generated or loaded mesh -> JSON/CSV
    offsets         embeddedness / mean-convexity table for parallel meshes
    verify-oracles  radial integral-identity suite over a dimension list
    report          merge verification reports into CSV/JSON

Exit codes: 0 ok, 2 usage (a file that cannot be read or written
included), 3 mesh error, 4 solver failure (eigensolver or quadrature),
5 failed oracle check, 6 report schema mismatch (another schema, a
missing number, or a stored verdict that its numbers do not give,
included), 141 (128 + SIGPIPE) stdout closed by its reader.

`verify-oracles` prints one line per `radial.OracleReport` row: minus
its slack (the gap |lhs - rhs| of an identity), its threshold and its
verdict; `--tol` re-judges every row through `radial.judge`.

A config file (--config) holds `key = value` lines ('#' starts a
comment).  Each line is read as the option `--key=value` of the chosen
subcommand, ahead of the command line's own options, so it is checked
like a flag and the command line overrides it; keys that name no option
of the subcommand are ignored.  The environment variable
SPHERE_SPECTRA_SEED overrides the RNG seed from either source.
"""

import argparse
import functools
import math
import os
import sys

from . import constants as consts
from . import radial, report as rep, spectral
from .generators import gen_clifford_torus, gen_flat_torus, gen_geodesic_sphere
from .geometry import HorizonError
from .intersect import PoleSelectionError
from .mesh import MeshError, offset_horizon, write_text_atomic
from .quadrature import QuadratureError
from .s3off import read_s3off
from .spectral import ConvergenceError

EXIT_USAGE = 2
EXIT_MESH = 3
EXIT_SOLVER = 4
EXIT_ORACLE = 5
EXIT_SCHEMA = 6
EXIT_PIPE = 141


class _ParseError(Exception):
    """A parse error, with the (sub)parser that found it."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises its errors, so that `main` can tell an error in a config
    file from one on the command line."""

    def error(self, message):
        raise _ParseError(self, message)


def _config_args(parser, command, path):
    """The `key = value` lines of a config file as `--key=value` options,
    one token each, so that an option's value is never taken for a
    positional argument.  Keys that name no option of the subcommand are
    dropped: argparse would read such a token as a positional argument
    when its value holds a space."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if _names_option(parser, command, key):
                tokens.append(f"--{key}={value}")
    return tokens


def _names_option(parser, command, key):
    """Whether `--key` is an option of the subcommand, by parsing it alone
    with a spaceless value: an option takes it or rejects it, anything
    else is left over."""
    if any(c.isspace() for c in key):
        return False
    try:
        _, extra = parser.parse_known_args([command, f"--{key}=0"])
    except _ParseError:
        return True
    return not extra


def _resolve_seed(args):
    env = os.environ.get("SPHERE_SPECTRA_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"SPHERE_SPECTRA_SEED={env!r} is not an integer") from None


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


# the --gen choices, each building its mesh from the parsed options
_GENERATORS = {
    "clifford": lambda a: gen_clifford_torus(a.res, a.res),
    "flat-torus": lambda a: gen_flat_torus(
        0.5 if a.r is None else a.r, a.res, a.res),
    "equator": lambda a: gen_geodesic_sphere(math.pi / 2.0, a.subdiv),
    "sphere": lambda a: gen_geodesic_sphere(
        math.pi / 4.0 if a.r is None else a.r, a.subdiv),
}


def _build_mesh(args):
    return read_s3off(args.mesh) if args.mesh else _GENERATORS[args.gen](args)


# ---------------------------------------------------------------------------

# the parameter-chain fields `constants` prints and writes, with their notes
_CHAIN_ROWS = (
    ("eps", "offset slack"), ("beta", "trace slack"),
    ("eps_tilde", "offset mean-curvature bound"), ("gamma", "chain slack"),
    ("delta", "n*arctan(eps/n)"), ("t_collar", "delta/(2 lam^2)"),
    ("d_eps", "arctan(eps/lam^2)"))


def _cmd_constants(args):
    n = args.dim
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
    lam = args.lam
    if lam is not None:
        bound = consts.eigenvalue_lower_bound(n, lam)
        branch = consts.bound_branch(n, lam)
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
    data = rep.verify_surface(mesh, tol=args.tol, seed=_resolve_seed(args),
                              offsets=offsets)
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
    ts = _parse_list(args.ts, float)
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
    dims = _parse_list(args.dims, int)
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    rows = []
    for n in dims:
        for kind, suite in radial.ORACLES.items():
            if args.only not in (None, kind):
                continue
            for r in suite(n):
                if args.tol is not None:
                    r = radial.judge(r.identity, r.name, r.lhs, r.rhs,
                                     args.tol, r.extras)
                label = kind if kind != "chain" else \
                    "chain/flux" if r.identity else "chain/ineq"
                rows.append((label, n, r.name, -r.slack, r.tol, r.passed))
    failed = [row for row in rows if not row[5]]
    width = max(len(row[2]) for row in rows)
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
    reports = rep.merge_reports(args.paths)
    text = rep.merged_csv_text(reports)
    if args.csv:
        write_text_atomic(text, args.csv)
        print(f"wrote {args.csv} ({len(reports)} rows)")
    else:
        sys.stdout.write(text)
    if args.out:
        rep.write_merged_json(reports, args.out)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------

def _add_mesh_arguments(sub):
    sub.add_argument("--gen", choices=list(_GENERATORS), default="clifford",
                     help="generator family (default %(default)s)")
    sub.add_argument("--mesh", default=None, help="path to an S3OFF file")
    sub.add_argument("--res", type=int, default=64,
                     help="grid resolution per circle for torus generators")
    sub.add_argument("--subdiv", type=int, default=4,
                     help="icosphere subdivision level for sphere generators")
    sub.add_argument("--r", type=float, default=None,
                     help="tube parameter (flat-torus) or radius (sphere)")


def build_parser():
    parser = _Parser(
        prog="sphere-spectra",
        description="spectral geometry of closed surfaces in the 3-sphere")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", help="dimensional constants and bound")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="curvature bound max ||A||")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", default=None, help="write JSON output here")

    p = subs.add_parser("verify-surface", help="full verification pipeline")
    _add_mesh_arguments(p)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL,
                   help="eigensolver residual tolerance (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offsets", default=None,
                   help="comma list of offset distances for the embeddedness table")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="write a one-row CSV here")

    p = subs.add_parser("offsets", help="parallel-surface table")
    _add_mesh_arguments(p)
    p.add_argument("--ts", default="0.1,0.2,0.3",
                   help="comma list of offsets (default %(default)s)")

    p = subs.add_parser("verify-oracles", help="radial identity suite")
    p.add_argument("--dims", default="2,3,4",
                   help="comma list of dimensions (default %(default)s)")
    p.add_argument("--only", default=None, choices=list(radial.ORACLES),
                   help="print only the rows of this kind")
    p.add_argument("--tol", type=float, default=None,
                   help="re-judge every row at this relative tolerance")

    p = subs.add_parser("report", help="merge JSON reports")
    p.add_argument("paths", nargs="*", help="report files to merge")
    p.add_argument("--csv", default=None, help="write merged CSV here")
    p.add_argument("--out", default=None, help="write merged JSON here")
    for p in subs.choices.values():
        p.add_argument("--config", default=None)
    return parser


@functools.cache
def _parser():
    """The parser of `main`, built once per process: parsing leaves it as
    it was, and building it cost about 1.2 ms a call."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        # prints the usage of the (sub)parser that failed and exits 2
        argparse.ArgumentParser.error(exc.parser, str(exc))
    if args.config:
        # the file's options go first, so the command line's override them
        try:
            args = parser.parse_args(
                [args.command, *_config_args(parser, args.command, args.config),
                 *argv[1:]])
        except (OSError, ValueError, _ParseError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    # looked up per call, so that a handler wrapped on the module runs
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        status = handler(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): no error line, and
        # stdout goes to devnull so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except rep.SchemaMismatchError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (HorizonError, PoleSelectionError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except (ValueError, OSError) as exc:
        # after the handlers above: MeshError, SchemaMismatchError and
        # HorizonError subclass ValueError, BrokenPipeError OSError; an
        # OSError names the file that could not be opened
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, QuadratureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
