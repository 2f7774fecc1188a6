"""Tests of the benchmark itself: output checks, tracing and exact counts.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.cap_threads()
cli = run.import_fwm()

import fwm.model  # noqa: E402
import fwm.sweep  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_CERTIFY = ["--input.alpha_abs", "0.5", "--input.beta", "0.4", "--input.gamma", "0.3",
                 "--gt_grid.count", "2", "--gt_grid.stop", "0.02"]


def run_pass(wl, record=False):
    """Run one pass of a workload; returns (outputs, tracer)."""
    outputs = []
    with tracing.Tracer(record=record) as tracer:
        for job in wl.jobs:
            _, data, error = run.run_job(cli, job)
            assert not error, error
            outputs.append(data)
    return outputs, tracer


def test_phases_come_from_the_seed():
    assert workloads.phases_for(0) == workloads.SHIPPED_PHASES
    p = workloads.phases_for(5)
    assert p == workloads.phases_for(5) != workloads.phases_for(6)
    assert len(p) == 3 and all(0.0 <= x < 2 * math.pi for x in p)


@pytest.mark.parametrize("n, pct", [(1, 100), (10, 100), (11, 9), (45, 77), (200, 95)])
def test_tail_leaves_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    value, got = run.tail(samples)
    assert got == pct
    if n > 10:
        assert sum(s > value for s in samples) >= 10


def test_csv_check_catches_defects(tmp_path):
    out = tmp_path / "fig5.csv"
    assert cli.main(["sweep", "--preset", "fig5", "--gt_grid.count", "3",
                     "--out", str(out)]) == 0
    good = out.read_bytes()
    problems: list[str] = []
    groups = workloads.parse_csv(good, problems)
    assert problems == [] and sum(len(g[1]) for g in groups.values()) == 4 * 3 * 3
    header, first, *rest = good.decode().splitlines()
    mutants = {
        "header": "\n".join([header.replace("value", "val"), first] + rest),
        "ragged": "\n".join([header, first + ",x"] + rest),
        "nan": "\n".join([header, ",".join(first.split(",")[:6] + ["nan", "false",
                                                                   "perturbative"])] + rest),
        "flag": "\n".join([header, first.replace("false", "true")] + rest),
    }
    for name, text in mutants.items():
        found: list[str] = []
        workloads.parse_csv(text.encode(), found)
        assert found, name


def test_json_check_is_strict():
    problems: list[str] = []
    assert workloads.parse_json(b'{"rows": [{"value": NaN}]}', problems) is None
    assert problems


def test_oracle_failed_rows_fail_the_check(tmp_path):
    wl = workloads.oracle_grid(1, tmp_path, gt_count=3, gt_stop=0.01,
                               witnesses=("HZ1:ab",))
    (data,), _ = run_pass(wl)
    job = wl.jobs[0]
    assert job.check(data) == []
    bad = data.replace(b",oracle\n", b",oracle_failed\n", 1)
    assert any("oracle_failed" in p for p in job.check(bad))


def test_reference_check_flags_a_changed_value(tmp_path):
    wl = workloads.figures(0, tmp_path)
    job = next(j for j in wl.jobs if j.name == "sweep fig5 csv")
    _, data, error = run.run_job(cli, job)
    assert not error and job.check(data) == []
    lines = data.decode().splitlines()
    cols = lines[200].split(",")
    cols[6] = repr(float(cols[6]) * (1 + 1e-9))
    lines[200] = ",".join(cols)
    assert any("reference" in p for p in job.check(("\n".join(lines) + "\n").encode()))


def test_traced_counts_repeat_exactly(tmp_path):
    wl = workloads.certify(2, tmp_path, extra_argv=SMALL_CERTIFY)
    totals = []
    outputs = []
    for _ in range(2):
        out, tracer = run_pass(wl, record=True)
        assert wl.jobs[0].check(out[0]) == []
        assert tracer.pop_drift() <= workloads.MAX_DRIFT
        outputs.append(out)
        totals.append({k: v for k, v in tracer.layer_totals().items()
                       if not k.endswith(".self_s")})
    assert outputs[0] == outputs[1]
    assert totals[0] == totals[1]
    t = totals[0]
    assert t["kernels.rk4_steps"] > 0 and t["kernels.matvecs"] == 4 * t["kernels.rk4_steps"]
    assert t["oracle.dimension"] > 0 and t["oracle.nnz"] > 0
    assert 0 < t["fockspace.moment.useful_ratio"] <= 1
    assert t["oracle.compare.calls"] == 1 and t["sweep.run_compare.calls"] == 1


def test_self_time_excludes_children(tmp_path):
    wl = workloads.figures(3, tmp_path)
    wl.jobs = [j for j in wl.jobs if j.name == "check fig2"]
    _, tracer = run_pass(wl, record=True)
    spans = {s[0]: s for s in tracer.spans}
    (main,) = [s for s in tracer.spans if s[3] == "cli.main"]
    children = sum(s[5] - s[4] for s in tracer.spans if s[1] == main[0])
    totals = tracer.layer_totals()
    assert totals["cli.main.self_s"] == pytest.approx(main[5] - main[4] - children)
    assert all(s[1] is None or s[1] in spans for s in tracer.spans)


def test_wrappers_reach_every_caller_and_are_removed():
    original = fwm.model.coefficients
    with tracing.Tracer() as tracer:
        assert fwm.sweep.coefficients is not original
        assert fwm.sweep.coefficients is fwm.model.coefficients
    assert fwm.sweep.coefficients is original and fwm.model.coefficients is original
    assert tracer.absent == []


def test_missing_function_is_reported_absent():
    functions = tracing.LAYER_FUNCTIONS + (("oracle", "no_such_function"),)
    with tracing.Tracer(functions=functions) as tracer:
        pass
    assert tracer.absent == ["oracle.no_such_function"]
    assert "oracle.no_such_function.calls" not in tracer.layer_totals()


def test_manifest_lists_the_metrics_the_benchmark_reports():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]]
    assert per_layer == tracing.per_layer_metric_specs()
    records = [{"seconds": 1.0, "values": 5, "traced": False}]
    metrics, _ = run.end_to_end(records, [0.5], 100.0)
    assert sorted(metrics) == sorted(m["name"] for m in MANIFEST["end_to_end"])
    assert sorted(w["name"] for w in MANIFEST["workloads"]) == sorted(workloads.WORKLOADS)


def test_reference_records_the_known_red_margins():
    _, meta = workloads.load_reference("certify")
    c6b = meta["criterion_6b"]
    assert (c6b["above"], c6b["witnesses"]) == (28, 31)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
