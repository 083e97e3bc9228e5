"""Tests of the benchmark itself, on tiny instances of all four workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_priordp()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_results():
    return {
        (name, trace): run.measure(name, 3, 0.0, trace, tiny=True)
        for name in run.WORKLOADS
        for trace in (False, True)
    }


def _traced_pass(name: str, seed: int = 3):
    bench = run.Run(name, seed, tiny=True)
    tracer = tracing.Tracer()
    try:
        bench.setup()
        _, _, plain = bench.one_pass()
        tracer.wrap()
        try:
            _, _, traced = bench.one_pass()
        finally:
            tracer.unwrap()
    finally:
        bench.close()
    return bench, tracer, plain, traced


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.MAKERS) == list(run.WORKLOADS)


def test_every_metric_emitted_with_unit(tiny_results):
    want = {False: BENCH["end_to_end"], True: BENCH["per_layer"]}
    for (name, trace), res in tiny_results.items():
        assert res["correct"], (name, trace, res["failures"])
        assert res["failed"] == 0 and res["attempted"] >= 1
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in want[trace]}, (name, trace)
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
        env = res["env"]
        for key in ("git_rev", "python", "numpy", "scipy", "cpu_count", "affinity_cpus",
                    "env", "loadavg_at_start"):
            assert key in env
        assert "PDP_THREADS" in env["env"] and "OMP_NUM_THREADS" in env["env"]


def test_end_to_end_metrics_are_positive(tiny_results):
    for name in run.WORKLOADS:
        for m in tiny_results[(name, False)]["metrics"].values():
            assert m["value"] > 0


def test_layer_counts_repeat_between_traced_runs(tiny_results):
    for name in run.WORKLOADS:
        again = run.measure(name, 3, 0.0, True, tiny=True)
        first = tiny_results[(name, True)]["metrics"]
        for key in tracing.EXACT_COUNTS:
            assert again["metrics"][key]["value"] == first[key]["value"], (name, key)


def test_each_workload_drives_its_layer(tiny_results):
    def value(name, key):
        return tiny_results[(name, True)]["metrics"][key]["value"]

    assert value("table_chain", "whg.logsumexp.calls") > 0
    assert value("table_chain", "model_discrete.marginal.calls") > 0
    assert value("synthetic_sweep", "synth.edge_values.edges") > 0
    assert value("oracle_survey", "oracle.pdp_exact.calls") > 0
    assert value("gaussian_enum", "model_gaussian.mu0_expand.calls") > 0
    assert value("gaussian_enum", "model_gaussian.log_g.points") > 0
    for name in ("table_chain", "oracle_survey", "gaussian_enum"):
        assert value(name, "synth.edge_values.calls") == 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outputs_identical(name):
    bench, _, plain, traced = _traced_pass(name)
    assert not bench.failures
    assert plain == traced


def test_full_search_edge_counts():
    for name in ("table_chain", "oracle_survey"):
        _, tracer, _, _ = _traced_pass(name)
        full = [sp.attrs for sp in tracer.spans
                if sp.name == "whg.search_table" and sp.attrs["mode"] == "full"]
        assert full
        for a in full:
            n = a["n"]
            assert a["edges"] == n * (n - 1) * 2 ** (n - 2)
            assert a["nodes"] == n * 2 ** (n - 1)


def test_synthetic_full_search_edge_counts():
    _, tracer, _, _ = _traced_pass("synthetic_sweep")
    spans = tracer.spans
    found = 0
    for idx, sp in enumerate(spans):
        if sp.name == "whg.search_synthetic" and sp.attrs["mode"] == "full":
            n = sp.attrs["n"]
            edges = sum(c.attrs["edges"] for c in spans
                        if c.name == "synth.edge_values" and c.parent == idx)
            assert edges == n * (n - 1) * 2 ** (n - 2)
            found += 1
    assert found == 2 * 3  # two seeds at each of three correlations


def test_experiment_csv_identical_across_thread_counts(tmp_path, monkeypatch):
    setup = workloads.synthetic_sweep(3, tmp_path, tiny=True)
    (job,) = setup.jobs
    digests = []
    for threads in ("1", str(len(os.sched_getaffinity(0)))):
        monkeypatch.setenv("PDP_THREADS", threads)
        code, err = workloads.run_job(job)
        assert code == 0, err
        digests.append(job.out.read_bytes())
    assert digests[0] == digests[1]


def test_tracer_survives_missing_binding(monkeypatch):
    import priordp.whg

    monkeypatch.delattr(priordp.whg, "logsumexp")
    tracer = tracing.Tracer()
    tracer.wrap()
    try:
        assert any("priordp.whg.logsumexp" in note for note in tracer.notes)
    finally:
        tracer.unwrap()
    m = tracing.layer_metrics(tracer.spans)
    assert m["whg.logsumexp.calls"] == 0 and m["whg.logsumexp.s"] == 0.0


def test_self_time_subtracts_children_across_threads():
    spans = [
        tracing.Span("cli.main", 1, 0.0, None, end=10.0, cpu_end=2.0),
        tracing.Span("whg.search_synthetic", 2, 1.0, 0, end=5.0, cpu_end=3.0),
        tracing.Span("whg.search_synthetic", 3, 2.0, 0, end=6.0, cpu_end=2.5),
        tracing.Span("synth.edge_values", 2, 1.0, 1, end=4.0, cpu_start=0.5, cpu_end=2.5),
    ]
    t = tracing.layer_totals(spans)
    assert t["cli.main"]["self_s"] == pytest.approx(5.0)  # children cover [1, 6]
    assert t["whg.search_synthetic"]["s"] == pytest.approx(8.0)
    assert t["whg.search_synthetic"]["self_s"] == pytest.approx(5.0)
    # CPU self time subtracts only children on the span's own thread
    assert t["cli.main"]["self_cpu_s"] == pytest.approx(2.0)
    assert t["whg.search_synthetic"]["cpu_s"] == pytest.approx(5.5)
    assert t["whg.search_synthetic"]["self_cpu_s"] == pytest.approx(3.5)
    m = tracing.layer_metrics(spans)
    assert m["synth.edge_values.s"] == pytest.approx(2.0)
    assert m["whg.search_synthetic.self_s"] == pytest.approx(3.5)


def test_checks_catch_wrong_outputs(tmp_path):
    setup = workloads.table_chain(3, tmp_path, tiny=True)
    outs = {}
    for job in setup.jobs:
        code, err = workloads.run_job(job)
        outs[job.id] = workloads.read_output(job, code)
    assert not any(workloads.check_pass(setup.jobs, outs).values())
    full, fast = setup.jobs[0], setup.jobs[1]
    bad = dict(outs)
    bad[fast.id] = {**outs[fast.id], "leakage": outs[full.id]["leakage"] - 1e-6}
    assert workloads.check_pass(setup.jobs, bad)[fast.id]
    ref = workloads.reference_entry(outs[full.id])
    shifted = {**outs[full.id], "leakage": ref["leakage"] + 1e-8}
    assert workloads.check_reference(full, shifted, ref)
    assert not workloads.check_reference(full, outs[full.id], ref)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
