"""Self-test of the benchmark at tiny sizes.

Runs every workload in-process on small inputs, checks that each run prints
every metric BENCHMARK.json names with no failed request, that the output
checkers reject deliberately wrong outputs, that the traced run accounts for
all request time and repeats its counters exactly, and that the benchmark
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from detgraph import dpp, polynomials  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_and_nothing_fails(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    failed_frac = [line.split() for line in lines if line.split()[:1] == ["failed_frac"]]
    assert failed_frac and float(failed_frac[0][1]) == 0.0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_contract_lists_the_metrics_the_runner_defines():
    assert [m["name"] for m in CONTRACT["end_to_end"]] == [m[0] for m in run.END_TO_END]
    per_layer = run.per_layer_specs(spans.Tracer().names[1:])
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == per_layer
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_accounts_for_request_time_and_repeats_counts(workload):
    first = run.run_workload(workload, 7, 0, True, tiny=True)
    second = run.run_workload(workload, 7, 0, True, tiny=True)
    layers = first["layers"]
    wall = layers["request"]["busy_s"]
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(wall, rel=1e-9)
    assert first["metrics"]["request.other_s"] == layers["request"]["self_s"]
    counts = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert counts["request.calls"] == len(first["latencies_s"])
    assert first["metrics"]["trace.errors"] == 0
    assert not hasattr(dpp.sample, "__wrapped__")  # wrappers removed after the run


def test_exact_counters_count_the_work():
    fig = run.run_workload("figure-15x15", 3, 0, True, tiny=True)["metrics"]
    # one categorical draw per sampler step: 3 samples of rank |V|-1+k-l per request
    ranks = {"ust": 15, "connected": 19, "forest": 11, "crsf": 16, "mixed": 15}
    assert fig["rng.categorical.calls"] == 3 * sum(ranks.values())
    mc = run.run_workload("mc-small", 3, 0, True, tiny=True)
    assert mc["metrics"]["rng.stream.calls"] == 20 * len(mc["latencies_s"])
    ver = run.run_workload("verify-small", 3, 0, True, tiny=True)["metrics"]
    assert ver["oracle.enumerate_family.calls"] > 0 and ver["dpp.density.calls"] > 0
    assert 0.0 < ver["oracle.family_hit_ratio"] <= 1.0


def test_removed_target_records_zero_calls(monkeypatch):
    gone = ("dpp.gone", "detgraph.dpp", "gone")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.request(0):
            dpp.sample(workloads.MonteCarlo(1, True, Path()).kernels[0][3], 1)
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert table["dpp.gone"]["calls"] == 0
    assert table["dpp.sample"]["calls"] == 1


def test_figure_check_rejects_a_sample_with_an_edge_dropped(tmp_path):
    fig = workloads.Figure(2, True, tmp_path)
    for req in fig.cycle(0)[:2]:
        code = req.call()
        payload = json.loads(fig.out_path.read_text())
        payload["samples"][0] = payload["samples"][0][1:]
        fig.out_path.write_text(json.dumps(payload))
        assert code == 0 and not req.check(code)
    req = fig.cycle(1)[0]
    assert req.check(req.call())


def test_batch_check_rejects_wrong_samples():
    mc = workloads.MonteCarlo(2, True, Path())
    req = mc.cycle(0)[1]
    batch = req.call()
    assert req.check(list(batch))
    dropped = list(batch)
    dropped[-1] = frozenset(sorted(dropped[-1])[1:])
    assert not req.check(dropped)
    swapped = [batch[1], batch[0]] + list(batch[2:])
    assert batch[0] == batch[1] or not req.check(swapped)


def test_oracle_and_identity_checks_reject_errors():
    ver = workloads.Verify(2, True, Path())
    reports = [req.call() for req in ver.cycle(0)[:7]]
    assert all(workloads._passed(r) for r in reports)
    reports[0].max_density_error = 1e-6
    assert not workloads._passed(reports[0])
    reports[6].max_poly_rel_error = 1e-6
    assert not workloads._passed(reports[6])

    poly = workloads.PolyGrid(2, True, Path())
    reqs = {r.kind.rsplit("-", 1)[0]: r for r in poly.cycle(0)}
    for kind in ("green", "torus"):
        lhs, rhs = reqs[kind].call()
        assert reqs[kind].check((lhs, rhs))
        assert not reqs[kind].check((lhs, rhs * (1 + 1e-6)))
    ratio = reqs["ratio-connected"].call()
    assert reqs["ratio-connected"].check(ratio)
    assert not reqs["ratio-connected"].check(
        polynomials.RatioReport(ratio.lhs, ratio.rhs * (1 + 1e-6)))
    stable = reqs["stability-T"].call()
    assert reqs["stability-T"].check(stable)
    assert not reqs["stability-T"].check(
        polynomials.StabilityReport(stable.trials, 0.0, stable.max_abs, False))
    assert not reqs["T"].check(complex(np.nan))


def test_matroid_check_rejects_a_sum_off_by_1e6():
    ver = workloads.Verify(2, True, Path())
    req = next(r for r in ver.cycle(0) if r.kind.startswith("matroid"))
    sums, pf = req.call()
    assert req.check((sums, pf))
    assert not req.check(({**sums, "K": sums["K"] * (1 + 1e-6)}, pf))


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
