"""Benchmark of sphere-spectra: four workloads, timed or traced.

    python3 bench/run.py                         # all workloads, one table
    python3 bench/run.py --trace 1               # ... plus per-layer tables
    python3 bench/run.py --workload spectrum --seed 0 --seconds 25 --trace 0

A single workload runs in this process, with one BLAS thread.  It sets
up -- imports the package and builds the first pass's input meshes --
and then repeats passes over its operations on fresh meshes until the
passes add up to `--seconds`.  Both timed metrics are given at a fixed
host speed: the speed of a shared host drifts by up to 2x within
seconds, so every time is scaled by PROBE_REF_S over the time a fixed
pure-Python loop (`probe_s`) takes next to it.  `setup_s` is the median
of SETUP_ROUNDS set-ups: this process's, from its start to its first
pass, and the same import and build repeated in fresh interpreters.
`pass_s` is the time of a typical pass: each of a pass's steps is timed
on its own, and `pass_s` sums the median of each step over the run's
passes.  `peak_rss_mb` is this process's peak resident memory after the
first pass, read before any output check runs.  Outputs are checked
after each pass, outside the timed region.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` -- the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A run also
writes bench/out/<workload>-seed<seed>-trace<0|1>.json (environment,
set-up and pass times, operation summaries; with tracing, every span).

Without `--workload`, every workload runs in its own child process in
turn, and the metrics print as a table.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("spectrum", "offsets-embedded", "offsets-intersecting",
                  "oracles")
SETUP_ROUNDS = 5       # this process's set-up and 4 in fresh interpreters
PROBE_REF_S = 0.004    # probe_s at the reference host speed (the median
                       # on the VM of bench/results/baseline.json)
DEFAULT_SECONDS = 25    # BENCHMARK.json run_seconds

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB")]


def _import_package():
    """Import sphere_spectra from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sphere_spectra", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}/sphere_spectra")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import sphere_spectra
    if os.path.dirname(os.path.abspath(sphere_spectra.__file__)) != \
            os.path.join(SRC, "sphere_spectra"):
        sys.exit(f"bench: imported sphere_spectra from "
                 f"{sphere_spectra.__file__}, not from {SRC}")
    import workloads
    return workloads


def probe_s():
    """Time of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0


def host_probe_s():
    """probe_s at this moment, median of three."""
    return statistics.median(probe_s() for _ in range(3))


# one set-up in a fresh interpreter, timed inside it (start-up excluded)
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, smoke={smoke!r}).build()
seconds = time.perf_counter() - t0
import run
print(seconds, run.host_probe_s())
"""


def setup_seconds(name, seed, smoke):
    """Import the package and build the workload's inputs in a fresh
    interpreter; returns the time it took there and the host probe
    taken right after."""
    code = SETUP_CODE.format(bench=BENCH_DIR, src=SRC, name=name, seed=seed,
                             smoke=smoke)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    seconds, probe = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(probe)


def typical_setup(setups):
    """setup_s: the median set-up at the reference host speed; `setups`
    holds (seconds, probe) per set-up."""
    return statistics.median(t * PROBE_REF_S / p for t, p in setups)


def _git_sha():
    """HEAD of the checkout; "unknown" outside a git clone."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def typical_pass(step_s, probes):
    """pass_s: a typical pass at the reference host speed.

    `step_s` holds one list of step times per pass, `probes` the probe
    taken before the first pass and after each pass.  Each step time is
    scaled by PROBE_REF_S over the mean of its pass's two probes;
    pass_s sums over the steps each step's median scaled time.
    """
    scale = [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    scaled = [[t * f for t in steps] for steps, f in zip(step_s, scale)]
    return sum(statistics.median(times) for times in zip(*scaled))


def measure(workload, seconds, tracer, inputs):
    """Run passes until they add up to `seconds` (at least one).

    `inputs` are the first pass's; each later pass builds its own.
    Returns the raw measurement; `tracer.pass_id` is kept pointing at the
    phase in progress.
    """
    pass_s, pass_cpu_s, step_s, problems = [], [], [], []
    probes = [probe_s()]
    attempted = failed = 0
    peak_rss_mb = None
    while not pass_s or sum(pass_s) < seconds:
        if pass_s:
            tracer.pass_id = f"build{len(pass_s)}"
            inputs = workload.build()
        tracer.pass_id = len(pass_s)
        results, steps = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for step in workload.steps(inputs):
            s0 = time.perf_counter()
            results += step()
            steps.append(time.perf_counter() - s0)
        pass_s.append(time.perf_counter() - t0)
        pass_cpu_s.append(time.process_time() - c0)
        probes.append(probe_s())
        step_s.append(steps)
        if peak_rss_mb is None:
            # the checks' reference solves must not set the peak
            peak_rss_mb = _peak_rss_mb()
        tracer.pass_id = "check"
        problems += workload.check(inputs, results)
        attempted += len(results)
        failed += sum(not rec["ok"] for rec in results)
    tracer.pass_id = None
    ops = [{"op": rec["op"], "ok": rec["ok"], "seconds": rec.get("seconds"),
            **(workload.summary(rec) if rec["ok"]
               else {"error": rec.get("error")})}
           for rec in results]
    return {"pass_s": pass_s, "pass_cpu_s": pass_cpu_s, "step_s": step_s,
            "probes": probes, "peak_rss_mb": peak_rss_mb, "problems": problems,
            "attempted": attempted, "failed": failed, "operations": ops}


def run_workload(name, seed, seconds, trace, smoke=False, out_dir=OUT_DIR):
    """One workload in this process.

    Returns the result-line object and the record written to `out_dir`.
    """
    workloads = _import_package()
    if trace:
        import tracing
        tracer = tracing.Tracer().install()
    else:
        tracer = types.SimpleNamespace(pass_id=None)
    tracer.pass_id = "build0"
    workload = workloads.WORKLOADS[name](seed, smoke=smoke)
    inputs = workload.build()
    setup_s = [(time.perf_counter() - _T_START, host_probe_s())]
    if not trace:
        setup_s += [setup_seconds(name, seed, smoke)
                    for _ in range(SETUP_ROUNDS - 1)]
    try:
        m = measure(workload, seconds, tracer, inputs)
    finally:
        if trace:
            tracer.uninstall()
    if trace:
        layer = tracer.metrics(len(m["pass_s"]))
        metrics = {metric: {"value": layer[metric], "unit": unit}
                   for metric, unit, _ in tracing.METRICS}
    else:
        values = {
            "setup_s": typical_setup(setup_s),
            "pass_s": typical_pass(m["step_s"], m["probes"]),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END}
    result = {"correct": not m["problems"], "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "environment": environment(), "result": result,
        "setup_s": setup_s, "pass_s": m["pass_s"],
        "pass_cpu_s": m["pass_cpu_s"], "step_s": m["step_s"],
        "probes": m["probes"],
        "problems": m["problems"][:50],
        "last_pass": m["operations"],
    }
    if trace:
        record["absent"] = tracer.absent
        record["spans"] = tracer.spans
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=lambda v: v.item())   # numpy scalars
    return result, record


# ---------------------------------------------------------------------------
# all workloads, one child process each

def _child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {name} printed no result "
                         f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    for problem in lines[:-1]:
        print(f"  {name}: {problem}")
    with open(os.path.join(OUT_DIR,
                           f"{name}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(seed, seconds, trace):
    ok = True
    for name in WORKLOAD_NAMES:
        result, record = _child(name, seed, seconds, 0)
        if name == WORKLOAD_NAMES[0]:
            print(f"environment: {json.dumps(record['environment'])}")
        ok &= result["correct"] and result["failed"] == 0
        cells = "  ".join(f"{metric}={_fmt(entry['value'])} {entry['unit']}"
                          for metric, entry in result["metrics"].items())
        print(f"{name:21s} {cells}  attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        if not trace:
            continue
        traced, traced_record = _child(name, seed, seconds, 1)
        ok &= traced["correct"] and traced["failed"] == 0
        overhead = (typical_pass(traced_record["step_s"],
                                 traced_record["probes"])
                    - result["metrics"]["pass_s"]["value"])
        print(f"  tracing overhead {overhead:+.4f} s per pass")
        for metric, entry in traced["metrics"].items():
            print(f"    {metric:32s} {_fmt(entry['value']):>12s} "
                  f"{entry['unit']}")
        if traced_record["absent"]:
            print(f"    absent: {', '.join(traced_record['absent'])}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time: passes run until they add up "
                             "to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
