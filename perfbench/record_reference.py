#!/usr/bin/env python3
"""Record the reference outputs that seed-0 runs of the benchmark compare with.

Run once, at the commit whose outputs define the reference:

    python3 perfbench/record_reference.py

It runs the seed-0 jobs of every workload through ``fwm.cli.main`` and
writes ``perfbench/reference/``: closed-form values, entangled flags and
onsets of the figure sweeps, perturbative and oracle values of the oracle
grid, and ``compare``'s per-witness exponent_min and max_rel_err on each
shipped pump phase, together with the criterion 6b margins as they stand.
Takes about two minutes on a 2-core Xeon.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.cap_threads()
cli = run.import_fwm()

import numpy as np  # noqa: E402  (after the thread caps)

import workloads  # noqa: E402

AGREEMENT_BOUND = 1e-3   # criterion 6b


def call(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"fwm {' '.join(argv)} exited {rc}")
    return stdout.getvalue()


def series(groups, source, keys, phases):
    values = np.array([[groups[(source, k, p)][1] for p in phases] for k in keys])
    ents = np.array([[groups[(source, k, p)][2] for p in phases] for k in keys])
    return values, ents


def record_figures(workdir: Path, meta: dict):
    wl = workloads.figures(0, workdir)
    groups, onsets = {}, {}
    for job in wl.jobs:
        call(job.argv)
        if job.out is None:
            continue
        problems: list[str] = []
        if job.out.suffix == ".csv":
            groups.update(workloads.parse_csv(job.out.read_bytes(), problems))
        else:
            payload = workloads.parse_json(job.out.read_bytes(), problems)
            for item in payload["summary"]:
                slot = onsets.setdefault(item["witness"], [None] * len(workloads.SHIPPED_PHASES))
                slot[workloads.SHIPPED_PHASES.index(item["phi"])] = item["onset_gt"]
        if problems:
            raise SystemExit(f"{job.name}: {problems[:3]}")
    phases = list(workloads.SHIPPED_PHASES)
    keys = sorted({label for _, label, _ in groups})
    values, ents = series(groups, "perturbative", keys, phases)
    np.savez_compressed(workloads.REFERENCE_DIR / "figures.npz", keys=np.array(keys),
                        phases=np.array(phases), values=values, entangled=ents)
    meta["figures"] = {"onsets": onsets, "witnesses": len(keys)}


def record_oracle_grid(workdir: Path, meta: dict):
    wl = workloads.oracle_grid(0, workdir)
    job = wl.jobs[0]
    call(job.argv)
    problems: list[str] = []
    groups = workloads.parse_csv(job.out.read_bytes(), problems)
    if problems:
        raise SystemExit(f"oracle_grid: {problems[:3]}")
    phase = workloads.SHIPPED_PHASES[0]
    keys = sorted({label for _, label, _ in groups})
    arrays = {"keys": np.array(keys), "phase": np.array(phase)}
    for source in ("perturbative", "oracle"):
        values, ents = series(groups, source, keys, [phase])
        arrays[source] = values[:, 0]
        arrays[f"{source}_entangled"] = ents[:, 0]
    np.savez_compressed(workloads.REFERENCE_DIR / "oracle_grid.npz", **arrays)
    meta["oracle_grid"] = {"phase": phase, "witnesses": len(keys)}


def record_certify(workdir: Path, meta: dict):
    per_phase, worst = [], {}
    for phase in workloads.SHIPPED_PHASES:
        out = workdir / "certify.json"
        call(["compare", "--out", str(out), "--workers", "1",
              "--input.phi", json.dumps([phase])])
        report = json.loads(out.read_text())
        per_phase.append({label: {"exponent_min": s["exponent_min"],
                                  "max_rel_err": s["max_rel_err"]}
                          for label, s in report["witnesses"].items()})
        for label, s in report["witnesses"].items():
            worst[label] = max(worst.get(label, 0.0), s["max_rel_err"])
    above = sorted(label for label, err in worst.items() if err > AGREEMENT_BOUND)
    top = max(worst, key=worst.get)
    meta["certify"] = {
        "phases": list(workloads.SHIPPED_PHASES), "per_phase": per_phase,
        "criterion_6b": {"bound": AGREEMENT_BOUND, "above": len(above),
                         "witnesses": len(worst), "worst": top,
                         "worst_max_rel_err": worst[top], "above_labels": above},
    }


def main():
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, text=True,
                            capture_output=True).stdout.strip() or None
    meta = {"git_commit": commit}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        record_figures(Path(tmp), meta)
        record_oracle_grid(Path(tmp), meta)
        record_certify(Path(tmp), meta)
    (workloads.REFERENCE_DIR / "reference.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n")
    c6b = meta["certify"]["criterion_6b"]
    print(f"criterion 6b: {c6b['above']}/{c6b['witnesses']} witnesses above "
          f"{c6b['bound']:g}; worst {c6b['worst']} at {c6b['worst_max_rel_err']:.3e}")


if __name__ == "__main__":
    sys.exit(main())
