"""Tests of the benchmark itself.

Smoke runs of every workload at reduced size (checks included), traced
and untraced, and negative cases showing that the checks are not
vacuous.  Run with `python3 -m pytest -q bench/tests`.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

workloads = run._import_package()
import tracing  # noqa: E402

from sphere_spectra import cli, generators, mesh, report  # noqa: E402

# layers each workload must exercise, and layers it must leave alone
WORKS = {
    "spectrum": ("spectral.eigensolve_s", "mesh.assembly_s",
                 "spectral.outer_iterations"),
    "offsets-embedded": ("intersect.exact_calls", "intersect.exact_s",
                         "mesh.offset_s", "intersect.candidate_pairs"),
    "offsets-intersecting": ("intersect.broad_s", "intersect.pole_s",
                             "generators.build_s"),
    "oracles": ("quadrature.rule_evals", "quadrature.integrate_s",
                "radial.hemisphere_ode_s", "cli.verify_oracles_self_s"),
}
BYPASSES = {
    "spectrum": ("intersect.broad_s", "intersect.exact_calls",
                 "radial.hemisphere_ode_s"),
    "offsets-embedded": ("spectral.eigensolve_s", "spectral.cg_calls",
                         "report.verify_surface_self_s"),
    "offsets-intersecting": ("spectral.eigensolve_s", "mesh.assembly_s"),
    "oracles": ("generators.build_s", "spectral.eigensolve_s",
                "intersect.broad_s", "mesh.shape_operator_s"),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct(name, tmp_path):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=False,
                                      smoke=True, out_dir=str(tmp_path))
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [m for m, _ in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    written = json.loads(
        (tmp_path / f"{name}-seed3-trace0.json").read_text())
    assert written["result"] == result
    env = written["environment"]
    assert env["blas_threads"] == {v: "1" for v in run.BLAS_THREAD_VARS}
    assert {"git_sha", "python", "numpy", "scipy", "nproc"} <= set(env)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_layers(name, tmp_path):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=True,
                                      smoke=True, out_dir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(values) == [m for m, _, _ in tracing.METRICS]
    for metric in WORKS[name]:
        assert values[metric] > 0, metric
    for metric in BYPASSES[name]:
        assert values[metric] == 0, metric
    assert record["absent"] == []
    # the wrappers are gone again
    assert report.verify_surface.__module__ == "sphere_spectra.report"
    assert not hasattr(report.verify_surface, "__wrapped__")


def test_tracer_patches_every_binding_and_restores():
    original = mesh.discrete_shape_operator
    tracer = tracing.Tracer().install()
    try:
        assert report.discrete_shape_operator is mesh.discrete_shape_operator
        assert mesh.discrete_shape_operator is not original
        assert cli.gen_clifford_torus is generators.gen_clifford_torus
        assert hasattr(generators.gen_clifford_torus, "__wrapped__")
    finally:
        tracer.uninstall()
    assert mesh.discrete_shape_operator is original
    assert report.discrete_shape_operator is original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["report.verify_surface_self_s", 0.0, 10.0, -1, 0],
                    ["spectral.eigensolve_s", 2.0, 7.0, 0, 0],
                    ["spectral.cg_s", 3.0, 6.0, 1, 0],
                    ["spectral.cg_s", 11.0, 11.5, -1, 1]]
    times = tracer.self_times()
    assert times[(0, "report.verify_surface_self_s")] == 5.0
    assert times[(0, "spectral.eigensolve_s")] == 2.0
    assert times[(0, "spectral.cg_s")] == 3.0
    metrics = tracer.metrics(n_passes=2)
    assert metrics["spectral.cg_s"] == 1.75          # mean of 3.0, 0.5
    assert metrics["spectral.cg_calls"] == 1


def test_perturbed_lambda1_fails_eigsh_cross_check():
    surface = workloads.Spectrum(0, smoke=True).surfaces[0]
    m = surface.build()
    rep = report.verify_surface(m, seed=0)
    ref = workloads.eigsh_lambda1(mesh.assemble_laplacian(m))
    assert workloads.spectrum_problems(surface.label, rep, ref, surface) == []
    bad = copy.deepcopy(rep)
    bad["spectrum"]["lambda1"] *= 1.0 + 1e-3
    problems = workloads.spectrum_problems(surface.label, bad, ref, surface)
    assert any("eigsh" in p for p in problems)


def test_embedded_verdict_on_crossed_tori_fails():
    first = 512
    assert workloads.crossed_problems(False, [[3, first + 7]], first) == []
    assert workloads.crossed_problems(True, [], first)
    assert workloads.crossed_problems(False, [], first)
    assert workloads.crossed_problems(False, [[3, 7]], first)


def _failing_oracle_output():
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify-oracles", "--dims", "2"]) == 0
    lines = buf.getvalue().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(" pass"))
    lines[row] = lines[row][:-len("pass")] + "FAIL"
    lines[-1] = "23/24 checks passed"
    return "\n".join(lines)


def test_failed_oracle_row_is_a_failed_operation():
    text = _failing_oracle_output()
    records = workloads.oracle_records(cli.EXIT_ORACLE, text)
    assert len(records) == 24
    assert sum(not rec["ok"] for rec in records) == 1
    # consistent output: the failure is counted, not flagged as wrong
    assert workloads.oracle_problems(records, 24) == []
    # an exit code of 0 with a failed row is wrong output
    assert workloads.oracle_problems(
        workloads.oracle_records(0, text), 24)

    class Stub:
        def build(self):
            return None

        def steps(self, inputs):
            return [lambda: workloads.oracle_records(cli.EXIT_ORACLE, text)]

        def check(self, inputs, results):
            return workloads.oracle_problems(results, 24)

        @staticmethod
        def summary(record):
            return {}

    m = run.measure(Stub(), 0, types.SimpleNamespace(pass_id=None), None)
    assert (m["attempted"], m["failed"], m["problems"]) == (24, 1, [])


def test_failed_operation_fails_a_single_workload_run(monkeypatch, capsys):
    result = {"correct": True, "attempted": 24, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_workload",
                        lambda *args: (result, {"problems": []}))
    assert run.main(["--workload", "oracles", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


def test_peak_rss_is_read_before_the_first_check(monkeypatch):
    log = []
    monkeypatch.setattr(run, "_peak_rss_mb", lambda: log.append("rss") or 1.0)

    class Stub:
        def build(self):
            return None

        def steps(self, inputs):
            return [lambda: log.append("pass") or [{"op": "x", "ok": True}]]

        def check(self, inputs, results):
            log.append("check")
            return []

        @staticmethod
        def summary(record):
            return {}

    m = run.measure(Stub(), 0, types.SimpleNamespace(pass_id=None), None)
    assert log == ["pass", "rss", "check"]
    assert m["peak_rss_mb"] == 1.0


def test_typical_pass_sums_step_medians():
    # three passes of two steps; a slow burst in one step of one pass
    step_s = [[1.0, 0.5], [1.2, 2.0], [1.1, 0.6]]
    probes = [run.PROBE_REF_S] * 4
    assert run.typical_pass(step_s, probes) == pytest.approx(1.1 + 0.6)


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.PROBE_REF_S
    # on a host at half speed the probe and the steps take twice as long
    assert run.typical_pass([[1.0, 0.5]], [ref, ref]) == pytest.approx(1.5)
    assert run.typical_pass([[2.0, 1.0]], [2 * ref, 2 * ref]) \
        == pytest.approx(1.5)
    assert run.typical_setup([(0.8, ref), (1.8, 2 * ref), (0.95, ref)]) \
        == pytest.approx(0.9)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.METRICS


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracles",
         "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
