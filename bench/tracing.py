"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced library function by a wrapper at
every module attribute bound to it (so `report.discrete_shape_operator`
and `mesh.discrete_shape_operator` are both covered).  Wrappers keep
spans in memory -- name, start, end, parent span, pass id -- and
`uninstall()` puts the originals back.  A function that no longer exists
in the library is listed as absent and its metrics read 0.

A `_s` metric is the self time per pass: a span's duration minus the
time its direct child spans cover, summed over the pass.  Counts and
self times are the mean over the run's passes;
`generators.build_s` is the mean over the builds of each pass's inputs,
which happen outside the timed passes.
"""

import functools
import statistics
import sys
import time

# (metric, module, functions): a span around every call of the functions
SPANS = [
    ("generators.build_s", "generators",
     ("gen_flat_torus", "gen_clifford_torus", "gen_geodesic_sphere",
      "combine_meshes", "rotate_mesh")),
    ("mesh.shape_operator_s", "mesh", ("discrete_shape_operator",)),
    ("mesh.assembly_s", "mesh", ("assemble_laplacian",)),
    ("mesh.offset_s", "mesh", ("offset_mesh",)),
    ("spectral.eigensolve_s", "spectral", ("smallest_nonzero_eig",)),
    ("spectral.cg_s", "spectral", ("_cg",)),
    ("intersect.pole_s", "intersect", ("select_pole",)),
    ("intersect.broad_s", "intersect", ("_broad_phase",)),
    ("intersect.narrow_s", "intersect", ("_narrow_phase",)),
    ("intersect.exact_s", "intersect", ("triangles_intersect",)),
    ("quadrature.integrate_s", "quadrature", ("integrate",)),
    ("radial.hemisphere_ode_s", "radial", ("solve_hemisphere_extension",)),
    ("constants.tube_integral_s", "constants", ("tube_integral",)),
    ("report.verify_surface_self_s", "report", ("verify_surface",)),
    ("cli.verify_oracles_self_s", "cli", ("_cmd_verify_oracles",)),
]

# call counts of a spanned function
CALLS = {
    "spectral.cg_calls": "spectral.cg_s",
    "intersect.exact_calls": "intersect.exact_s",
    "quadrature.integrate_calls": "quadrature.integrate_s",
}

# (metric, module, function): counted, no span (called too often)
COUNTED = [("quadrature.rule_evals", "quadrature", "_rule")]


def _eig_hook(tracer, result):
    tracer.add("spectral.outer_iterations", result.iterations)
    tracer.maximum("spectral.residual_max", result.residual)


def _broad_hook(tracer, result):
    tracer.add("intersect.candidate_pairs", len(result))


def _narrow_hook(tracer, result):
    tracer.add("intersect.fuzzy_pairs", len(result[1]))


# values read off a traced function's result
HOOKS = {
    "smallest_nonzero_eig": _eig_hook,
    "_broad_phase": _broad_hook,
    "_narrow_phase": _narrow_hook,
}

# (metric, unit, better): every per-layer metric, in BENCHMARK.json order
METRICS = [
    ("generators.build_s", "s", "lower"),
    ("mesh.shape_operator_s", "s", "lower"),
    ("mesh.assembly_s", "s", "lower"),
    ("mesh.offset_s", "s", "lower"),
    ("spectral.eigensolve_s", "s", "lower"),
    ("spectral.cg_s", "s", "lower"),
    ("spectral.cg_calls", "count", "lower"),
    ("spectral.outer_iterations", "count", "lower"),
    ("spectral.residual_max", "1", "lower"),
    ("intersect.pole_s", "s", "lower"),
    ("intersect.broad_s", "s", "lower"),
    ("intersect.narrow_s", "s", "lower"),
    ("intersect.exact_s", "s", "lower"),
    ("intersect.candidate_pairs", "count", "lower"),
    ("intersect.fuzzy_pairs", "count", "lower"),
    ("intersect.exact_calls", "count", "lower"),
    ("intersect.float_decided_ratio", "1", "higher"),
    ("quadrature.integrate_s", "s", "lower"),
    ("quadrature.integrate_calls", "count", "lower"),
    ("quadrature.rule_evals", "count", "lower"),
    ("radial.hemisphere_ode_s", "s", "lower"),
    ("constants.tube_integral_s", "s", "lower"),
    ("report.verify_surface_self_s", "s", "lower"),
    ("cli.verify_oracles_self_s", "s", "lower"),
]

PACKAGE = "sphere_spectra"


def _mean(values):
    return statistics.fmean(values) if values else 0.0


class Tracer:
    """Spans and counters recorded around library calls.

    `pass_id` names the phase the next calls belong to: an int for a
    timed pass, "build<k>" for building the inputs of pass k; anything
    else (checks) is recorded but enters no metric.
    """

    def __init__(self):
        self.pass_id = None
        self.spans = []       # [name, start, end, parent index, pass id]
        self.counters = {}    # (pass id, metric) -> number
        self.absent = []
        self._stack = []
        self._patched = []    # (module, attribute, original)

    # -- recording -------------------------------------------------------
    def add(self, metric, amount):
        key = (self.pass_id, metric)
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, metric, value):
        key = (self.pass_id, metric)
        self.counters[key] = max(self.counters.get(key, value), value)

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.pass_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, metric):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(metric, 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, module_name, func_name, make_wrapper):
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:
            self.absent.append(f"{module_name}.{func_name}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self):
        for metric, module_name, funcs in SPANS:
            for func in funcs:
                hook = HOOKS.get(func)
                self._patch(module_name, func,
                            lambda fn, m=metric, h=hook:
                            self._span_wrapper(fn, m, h))
        for metric, module_name, func in COUNTED:
            self._patch(module_name, func,
                        lambda fn, m=metric: self._count_wrapper(fn, m))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- metrics ---------------------------------------------------------
    def self_times(self):
        """{(pass id, metric): summed self time} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            key = (pid, name)
            totals[key] = totals.get(key, 0.0) + (end - start) - child[i]
        return totals

    def metrics(self, n_passes):
        """Every per-layer metric as {name: value}; 0 where not called."""
        passes = range(n_passes)
        self_s = self.self_times()
        calls = {}
        for name, _, _, _, pid in self.spans:
            calls[(pid, name)] = calls.get((pid, name), 0) + 1

        def per_pass(table, metric):
            return [table.get((p, metric), 0) for p in passes]

        out = {}
        for metric, _, _ in METRICS:
            if metric == "generators.build_s":
                out[metric] = _mean([self_s.get((f"build{p}", metric), 0.0)
                                     for p in passes])
            elif metric.endswith("_s"):
                out[metric] = _mean(per_pass(self_s, metric))
            elif metric in CALLS:
                out[metric] = _mean(per_pass(calls, CALLS[metric]))
            elif metric == "spectral.residual_max":
                out[metric] = max(per_pass(self.counters, metric), default=0)
            elif metric == "intersect.float_decided_ratio":
                ratios = []
                cands = per_pass(self.counters, "intersect.candidate_pairs")
                fuzzies = per_pass(self.counters, "intersect.fuzzy_pairs")
                for cand, fuzzy in zip(cands, fuzzies):
                    ratios.append(1.0 - fuzzy / cand if cand else 0.0)
                out[metric] = _mean(ratios)
            else:
                out[metric] = _mean(per_pass(self.counters, metric))
        return out
