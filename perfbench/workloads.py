"""Workloads of the fwm benchmark and the checks on their outputs.

Every job is one call of ``fwm.cli.main`` with the argv a user would type.
A workload is a pass (a fixed list of jobs) repeated for the run's length.

* ``figures``: ``sweep`` over the fig2-fig5 presets on their 400-point gt
  grid, each written once as CSV and once as JSON, then ``check --preset
  fig2``.  This is how users reproduce the paper's figures; it exercises
  model, witnesses, residuals and the sweep serializers and never touches
  the oracle.
* ``certify``: ``compare`` at its default certification settings (basis
  dimension 4 368) on one pump phase.  Propagation dominates it.
* ``oracle_grid``: ``sweep --oracle`` with the fig2 witness set on the
  400-point gt grid at the certification amplitudes and detuning, fed as a
  ``--config`` file, on one pump phase.  One Hamiltonian, 400 output times
  and 3 600 ``oracle_witness`` calls, so moment extraction shows here.

The seed picks the pump phases: seed 0 gives the shipped {0, π/2, π}, any
other seed three phases drawn uniformly from [0, 2π).  Oracle jobs use the
first phase.  The seed is also passed to ``check --seed``.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SHIPPED_PHASES = (0.0, math.pi / 2, math.pi)
FIGURE_PRESETS = ("fig2", "fig3", "fig4", "fig5")
FIG2_WITNESSES = tuple(f"{c}:{p}" for c in ("HZ1", "HZ2", "DUAN")
                       for p in ("ab", "bc", "ac"))
GT_COUNT = 400
CERTIFY_WITNESSES = 31
CERTIFY_POINTS = 31 * 10 * 3          # witnesses x grid times x ladder rungs

CSV_HEADER = "gt,phi,criterion,modes,m,n,value,entangled,source"

# Tolerances against the reference recorded at the seed commit.
CLOSED_FORM_RTOL = 1e-12   # relative; floor 1e-6 of the series' largest |value|
ORACLE_ATOL = 1e-8         # absolute, times max(1, |reference|)
CERTIFY_TOL = 1e-6         # exponent_min absolute, max_rel_err relative
MAX_DRIFT = 1e-9           # norm and conserved-charge drift of every state


def phases_for(seed: int) -> tuple[float, ...]:
    """Pump phases for a seed: the shipped phases for seed 0."""
    if seed == 0:
        return SHIPPED_PHASES
    rng = random.Random(seed)
    return tuple(sorted(rng.random() * 2.0 * math.pi for _ in range(3)))


@dataclass
class Job:
    """One ``fwm.cli.main`` call and what its output must satisfy."""

    name: str
    argv: list[str]
    out: Path | None            # output file, or None for captured stdout
    values: int                 # witness values the job produces
    check: Callable[[bytes], list[str]]


@dataclass
class Workload:
    name: str
    jobs: list[Job]             # one pass
    min_passes: int
    setup_code: str             # config build done by a fresh process


def witness_label(criterion: str, modes: str, m: int, n: int) -> str:
    """Compact witness label, as in the JSON summary (HZ1:ab, HZ1:ab:2,1)."""
    label = f"{criterion}:{modes}"
    return label if (m, n) == (1, 1) else f"{label}:{m},{n}"


# -- output parsing ------------------------------------------------------
def parse_csv(data: bytes, problems: list[str]) -> dict:
    """Rows grouped by (source, label, phi) -> (gts, values, entangled).

    Appends to ``problems`` for a wrong header, a ragged row, a non-finite
    value or an entangled flag that disagrees with the value's sign."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"csv header {lines[0] if lines else ''!r} != {CSV_HEADER!r}")
        return {}
    width = CSV_HEADER.count(",") + 1
    groups: dict = {}
    for i, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != width:
            problems.append(f"csv line {i}: {len(cols)} columns, expected {width}")
            continue
        gt, phi, crit, modes, m, n, value, ent, source = cols
        try:
            gt, phi, value, m, n = float(gt), float(phi), float(value), int(m), int(n)
        except ValueError:
            problems.append(f"csv line {i}: unparsable number in {line!r}")
            continue
        if ent not in ("true", "false"):
            problems.append(f"csv line {i}: entangled {ent!r}")
            continue
        if not (math.isfinite(value) and math.isfinite(gt)):
            problems.append(f"csv line {i}: non-finite value ({source})")
            continue
        if (ent == "true") != (value < 0.0):
            problems.append(f"csv line {i}: entangled flag disagrees with value")
        g = groups.setdefault((source, witness_label(crit, modes, m, n), phi),
                              ([], [], []))
        g[0].append(gt)
        g[1].append(value)
        g[2].append(ent == "true")
    return groups


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_json(data: bytes, problems: list[str]):
    """Strict RFC 8259 parse: NaN and Infinity are problems."""
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"json: {exc}")
        return None


def json_rows_to_groups(payload, problems: list[str]) -> dict:
    groups: dict = {}
    for row in payload.get("rows", []):
        try:
            value = float(row["value"])
            key = (row["source"], witness_label(row["criterion"], row["modes"],
                                                int(row["m"]), int(row["n"])),
                   float(row["phi"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"json row {row!r}: {exc}")
            continue
        if not math.isfinite(value):
            problems.append(f"json row {key}: non-finite value")
        g = groups.setdefault(key, ([], [], []))
        g[0].append(float(row["gt"]))
        g[1].append(value)
        g[2].append(bool(row["entangled"]))
    return groups


# -- reference comparison --------------------------------------------------
def load_reference(name: str):
    """(arrays, metadata) recorded by record_reference.py for a workload."""
    meta = json.loads((REFERENCE_DIR / "reference.json").read_text())[name]
    npz = REFERENCE_DIR / f"{name}.npz"
    arrays = dict(np.load(npz, allow_pickle=False)) if npz.exists() else {}
    return arrays, meta


def closed_form_mismatch(values, ref) -> float:
    """Largest relative difference, with a floor of 1e-6 of the series'
    largest magnitude so that values at a zero crossing compare sanely."""
    values, ref = np.asarray(values, float), np.asarray(ref, float)
    floor = 1e-6 * max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(values - ref) / np.maximum(np.abs(ref), floor)))


def oracle_mismatch(values, ref) -> float:
    values, ref = np.asarray(values, float), np.asarray(ref, float)
    return float(np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref))))


def compare_groups(groups, source, keys, phases, values, entangled, tol, mismatch,
                   problems):
    """Check every (label, phase) series of ``source`` rows against the
    reference arrays values[key, phase, gt]."""
    index = {k: i for i, k in enumerate(keys)}
    for (src, label, phi), (gts, vals, ents) in groups.items():
        if src != source:
            continue
        if label not in index or phi not in phases:
            problems.append(f"{source} {label} phi={phi!r}: not in the reference")
            continue
        i, p = index[label], phases.index(phi)
        if len(vals) != values.shape[-1]:
            problems.append(f"{source} {label}: {len(vals)} points, "
                            f"reference has {values.shape[-1]}")
            continue
        err = mismatch(vals, values[i, p])
        if not err <= tol:
            problems.append(f"{source} {label} phi={phi:.6g}: differs from the "
                            f"reference by {err:.3e} (> {tol:.0e})")
        if list(ents) != [bool(e) for e in entangled[i, p]]:
            problems.append(f"{source} {label} phi={phi:.6g}: entangled flags differ")


# -- workloads -------------------------------------------------------------
def _phi_override(phases) -> list[str]:
    return ["--input.phi", json.dumps(list(phases))]


def figures(seed: int, workdir: Path) -> Workload:
    phases = phases_for(seed)
    presets_witnesses = {"fig2": 9, "fig3": 9, "fig4": 9, "fig5": 4}
    jobs = []
    for preset in FIGURE_PRESETS:
        rows = presets_witnesses[preset] * len(phases) * GT_COUNT
        for fmt in ("csv", "json"):
            out = workdir / f"{preset}.{fmt}"
            argv = (["sweep", "--preset", preset, "--format", fmt, "--out", str(out),
                     "--workers", "1"] + _phi_override(phases))
            jobs.append(Job(f"sweep {preset} {fmt}", argv, out, rows,
                            _figure_check(fmt, rows, seed)))
    jobs.append(Job("check fig2", ["check", "--preset", "fig2", "--seed", str(seed),
                                   "--workers", "1"], None, 0, _check_check))
    setup = ("import json, fwm.cli\n"
             "from fwm.sweep import RunConfig, apply_overrides, presets\n"
             f"phi = {list(phases)!r}\n"
             "for cfg in presets().values():\n"
             "    RunConfig.from_dict(apply_overrides(cfg.to_dict(), {'input.phi': phi}))\n")
    return Workload("figures", jobs, min_passes=2, setup_code=setup)


def _figure_check(fmt: str, rows: int, seed: int):
    def check(data: bytes) -> list[str]:
        problems: list[str] = []
        summary = None
        if fmt == "csv":
            groups = parse_csv(data, problems)
        else:
            payload = parse_json(data, problems)
            if payload is None:
                return problems
            groups = json_rows_to_groups(payload, problems)
            summary = payload.get("summary")
        n = sum(len(g[1]) for g in groups.values())
        if n != rows:
            problems.append(f"{n} rows, expected {rows}")
        if any(src != "perturbative" for src, _, _ in groups):
            problems.append("non-perturbative rows in a closed-form sweep")
        if seed == 0 and not problems:
            arrays, meta = load_reference("figures")
            keys = [str(k) for k in arrays["keys"]]
            phases = [float(p) for p in arrays["phases"]]
            compare_groups(groups, "perturbative", keys, phases, arrays["values"],
                           arrays["entangled"], CLOSED_FORM_RTOL,
                           closed_form_mismatch, problems)
            for item in summary or []:
                if item["witness"] not in meta["onsets"] or item["phi"] not in phases:
                    problems.append(f"onset {item['witness']} phi={item['phi']!r}: "
                                    "not in the reference")
                    continue
                ref = meta["onsets"][item["witness"]][phases.index(item["phi"])]
                got = item["onset_gt"]
                if (got is None) != (ref is None) or (
                        got is not None and abs(got - ref) > CLOSED_FORM_RTOL * abs(ref)):
                    problems.append(f"onset {item['witness']} phi={item['phi']:.6g}: "
                                    f"{got!r} != reference {ref!r}")
        return problems
    return check


def _check_check(data: bytes) -> list[str]:
    text = data.decode("utf-8")
    if not text.rstrip("\n").endswith("check: PASS"):
        return ["check did not report PASS"]
    return []


def oracle_grid(seed: int, workdir: Path, gt_count: int = GT_COUNT,
                gt_stop: float = 0.1, witnesses=FIG2_WITNESSES) -> Workload:
    phase = phases_for(seed)[0]
    config = {
        "params": {"g": 1.0, "delta_omega1": -100.0},
        "input": {"alpha_abs": 1.2, "beta": 0.9, "gamma": 0.6, "phi": [phase]},
        "gt_grid": {"start": 0.0, "stop": gt_stop, "count": gt_count},
        "witnesses": list(witnesses),
    }
    cfg_path = workdir / "oracle_grid.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    out = workdir / "oracle_grid.csv"
    rows = len(witnesses) * gt_count
    argv = ["sweep", "--config", str(cfg_path), "--oracle", "--out", str(out),
            "--workers", "1"]
    use_reference = (seed == 0 and (gt_count, gt_stop) == (GT_COUNT, 0.1)
                     and tuple(witnesses) == FIG2_WITNESSES)

    def check(data: bytes) -> list[str]:
        problems: list[str] = []
        groups = parse_csv(data, problems)
        for source in ("perturbative", "oracle"):
            n = sum(len(g[1]) for k, g in groups.items() if k[0] == source)
            if n != rows:
                problems.append(f"{n} {source} rows, expected {rows}")
        failed = sum(len(g[1]) for k, g in groups.items() if k[0] == "oracle_failed")
        if failed:
            problems.append(f"{failed} oracle_failed rows")
        if use_reference and not problems:
            arrays, _ = load_reference("oracle_grid")
            keys = [str(k) for k in arrays["keys"]]
            phases = [float(arrays["phase"])]
            for source, tol, mismatch in (("perturbative", CLOSED_FORM_RTOL,
                                           closed_form_mismatch),
                                          ("oracle", ORACLE_ATOL, oracle_mismatch)):
                compare_groups(groups, source, keys, phases,
                               arrays[source][:, None, :],
                               arrays[f"{source}_entangled"][:, None, :],
                               tol, mismatch, problems)
        return problems

    setup = ("import json, fwm.cli\n"
             "from fwm.sweep import RunConfig\n"
             f"RunConfig.from_dict(json.load(open({str(cfg_path)!r})))\n")
    return Workload("oracle_grid",
                    [Job("sweep oracle_grid", argv, out, 2 * rows, check)],
                    min_passes=2, setup_code=setup)


def certify(seed: int, workdir: Path, extra_argv=()) -> Workload:
    phase = phases_for(seed)[0]
    out = workdir / "certify.json"
    argv = (["compare", "--out", str(out), "--workers", "1"]
            + _phi_override([phase]) + list(extra_argv))
    use_reference = seed == 0 and not extra_argv

    def check(data: bytes) -> list[str]:
        problems: list[str] = []
        report = parse_json(data, problems)
        if report is None:
            return problems
        per_phi = report.get("per_phi", {})
        if len(per_phi) != 1:
            problems.append(f"{len(per_phi)} phases in the report, expected 1")
        for entry in per_phi.values():
            diag = entry.get("diagnostics", {})
            for key in ("norm_drift", "q1_drift", "q2_drift"):
                if key not in diag:
                    problems.append(f"diagnostics lack {key}")
                elif not diag[key] <= MAX_DRIFT:
                    problems.append(f"{key} {diag[key]:.3e} > {MAX_DRIFT:.0e}")
        merged = report.get("witnesses", {})
        if not extra_argv and len(merged) != CERTIFY_WITNESSES:
            problems.append(f"{len(merged)} witnesses, expected {CERTIFY_WITNESSES}")
        for label, s in merged.items():
            if not math.isfinite(s.get("max_rel_err", math.nan)):
                problems.append(f"{label}: max_rel_err not finite")
        if use_reference and not problems:
            _, meta = load_reference("certify")
            ref = meta["per_phase"][SHIPPED_PHASES.index(phase)]
            for label, s in merged.items():
                r = ref.get(label)
                if r is None:
                    problems.append(f"{label}: not in the reference")
                    continue
                if (s["exponent_min"] is None) != (r["exponent_min"] is None) or (
                        r["exponent_min"] is not None
                        and abs(s["exponent_min"] - r["exponent_min"]) > CERTIFY_TOL):
                    problems.append(f"{label}: exponent_min {s['exponent_min']!r} "
                                    f"!= reference {r['exponent_min']!r}")
                if abs(s["max_rel_err"] - r["max_rel_err"]) > CERTIFY_TOL * r["max_rel_err"]:
                    problems.append(f"{label}: max_rel_err {s['max_rel_err']!r} "
                                    f"!= reference {r['max_rel_err']!r}")
        return problems

    setup = ("import fwm.cli\n"
             "from fwm.sweep import RunConfig, apply_overrides, default_compare_config\n"
             f"RunConfig.from_dict(apply_overrides(default_compare_config().to_dict(), "
             f"{{'input.phi': [{phase!r}]}}))\n")
    return Workload("certify",
                    [Job("compare", argv, out, CERTIFY_POINTS, check)],
                    min_passes=1, setup_code=setup)


WORKLOADS = {"figures": figures, "certify": certify, "oracle_grid": oracle_grid}


def make(name: str, seed: int, workdir: Path) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
