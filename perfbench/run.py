#!/usr/bin/env python3
"""The fwm benchmark: run one workload end to end and check its outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures|certify|oracle_grid \
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` of the checkout; nothing is installed.
Every job is one in-process ``fwm.cli.main`` call with ``--workers 1`` and
at most ``nproc`` BLAS/OpenMP threads, so no worker process is measured.
Jobs repeat in whole passes until the next pass would end after
``--seconds`` (each workload has a minimum pass count).

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
set-up time (median of fresh processes that import ``fwm.cli`` and build
the run configuration), median and tail seconds per job, witness values per
second of job time and peak resident memory.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: calls and self
time of each traced function, exact work counts, and the tracing overhead
(traced minus untraced median job time).

Every output is checked (see workloads.py); a job whose output fails a check
counts in ``failed``.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with provenance, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_fwm():
    """Import fwm.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fwm.cli
    if not Path(fwm.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"fwm resolved to {fwm.cli.__file__}, outside {src}")
    return fwm.cli


def measure_setup(code: str) -> list[float]:
    """Seconds from process start until a fresh interpreter has imported
    fwm.cli and built the workload's configuration."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = code + "print('ready', flush=True)\n"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed with exit code {rc}")
        samples.append(elapsed)
    return samples


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def provenance(seed: int, caps: dict) -> dict:
    """Machine, toolchain and source identity of this run."""
    import numpy
    import scipy
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(idx / "size")
    mem = ""
    for line in _read(Path("/proc/meminfo")).splitlines():
        if line.startswith("MemTotal"):
            mem = line.split(":", 1)[1].strip()
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.split() or (None, None)
    except (OSError, subprocess.SubprocessError, ValueError):
        top = commit = None
    if top is None or Path(top).resolve() != ROOT:
        commit = None       # not a git checkout of this repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu or platform.processor(), "nproc": len(os.sched_getaffinity(0)),
        "caches": caches, "mem_total": mem,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_caps": caps, "git_commit": commit,
        "src_sha256": digest.hexdigest(), "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile with at least ten
    samples beyond it; the maximum (p100) when there are ten or fewer."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100
    pct = (100 * (n - 10)) // n
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], pct


def run_job(cli, job) -> tuple[float, bytes | None, str]:
    """(seconds, output bytes or None, error) of one fwm.cli.main call."""
    if job.out is not None:
        job.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(job.argv))
    except Exception:       # a crash in the program fails this job only
        rc, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, None, error or f"exit code {rc}: {stderr.getvalue().strip()}"
    data = job.out.read_bytes() if job.out is not None else stdout.getvalue().encode()
    return elapsed, data, ""


def keep_output(job, data: bytes):
    """Set the first output of a job aside for checking after the run, on
    disk when it came as a file so it adds nothing to resident memory."""
    if job.out is None:
        return data
    kept = job.out.with_name(job.out.name + ".first")
    os.replace(job.out, kept)
    return kept


def run_passes(cli, wl, seconds: float, trace: bool):
    """Run whole passes; returns (records, tracers, first outputs)."""
    from tracing import Tracer          # imports numpy: only after cap_threads()
    from workloads import MAX_DRIFT
    records, tracers, first = [], [], {}
    min_passes = max(wl.min_passes, 2 if trace else 1)
    start = time.perf_counter()
    npass = 0
    while True:
        traced = trace and npass % 2 == 1
        tracer = Tracer(record=traced)
        with tracer:
            for j, job in enumerate(wl.jobs):
                tracer.job = len(records)
                elapsed, data, error = run_job(cli, job)
                rec = {"pass": npass, "job": j, "name": job.name, "traced": traced,
                       "seconds": elapsed, "values": job.values, "errors": []}
                drift = tracer.pop_drift()
                rec["drift"] = drift
                if error:
                    rec["errors"].append(error)
                if drift is not None and not drift <= MAX_DRIFT:
                    rec["errors"].append(f"state drift {drift:.3e} > {MAX_DRIFT:.0e}")
                if data is not None:
                    rec["sha256"] = hashlib.sha256(data).hexdigest()
                    if j not in first:
                        first[j] = (rec["sha256"], keep_output(job, data))
                    elif first[j][0] != rec["sha256"]:
                        rec["errors"].append("output differs from the first pass "
                                             "of the same seed")
                records.append(rec)
        if traced:
            tracers.append(tracer)
        npass += 1
        elapsed = time.perf_counter() - start
        if npass >= min_passes and elapsed * (npass + 1) / npass > seconds:
            return records, tracers, first


def end_to_end(records, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records if not r["traced"]]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_s": statistics.median(times),
        "job_s.tail": tail_s,
        "values_per_s": sum(r["values"] for r in records if not r["traced"]) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"job_s.tail": f"p{pct} of {len(times)} jobs",
             "job_s": f"median of {len(times)} jobs",
             "setup_s": f"median of {len(setup_samples)} fresh processes"}
    return metrics, notes


def per_layer(records, tracers) -> tuple[dict, dict]:
    totals = [t.layer_totals() for t in tracers]
    metrics = dict(totals[0])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(t[name] for t in totals)
    drifts = [r["drift"] for r in records if r["traced"] and r["drift"] is not None]
    metrics["oracle.max_drift"] = max(drifts, default=0.0)
    traced = [r["seconds"] for r in records if r["traced"]]
    untraced = [r["seconds"] for r in records if not r["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    unstable = [n for n in totals[0]
                if not n.endswith(".self_s") and len({t[n] for t in totals}) > 1]
    notes = {"absent": sorted(set().union(*(t.absent for t in tracers))),
             "traced_passes": len(tracers),
             "counts_differ_between_passes": unstable}
    return metrics, notes


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caps = cap_threads()
    try:
        cli = import_fwm()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import fwm from {ROOT / 'src'}: {exc}\n")
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        setup_samples = measure_setup(wl.setup_code)
        records, tracers, first = run_passes(cli, wl, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = {}
        for j, (_, kept) in first.items():
            data = kept if isinstance(kept, bytes) else kept.read_bytes()
            problems[j] = wl.jobs[j].check(data)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rec in records:
        rec["errors"] += problems.get(rec["job"], [])
    failed = sum(1 for r in records if r["errors"])
    if args.trace:
        metrics, notes = per_layer(records, tracers)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        spans.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write_spans(spans, i)
        notes["spans"] = str(spans.relative_to(ROOT))
        specs = manifest["per_layer"]
    else:
        metrics, notes = end_to_end(records, setup_samples, peak_rss_mb)
        specs = manifest["end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in specs):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                for m in specs}

    prov = provenance(args.seed, caps)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": reported}
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, failed_frac=failed / len(records),
                notes=notes, provenance=prov, setup_samples=setup_samples,
                jobs=records)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {failed} failed")
    for name, m in reported.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':40s} {failed / len(records):.6g}  ({failed}/{len(records)} jobs)")
    for key in ("absent", "counts_differ_between_passes"):
        if notes.get(key):
            print(f"  {key}: {', '.join(notes[key])}")
    for rec in records:
        for err in rec["errors"][:3]:
            sys.stderr.write(f"FAILED pass {rec['pass']} {rec['name']}: {err}\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
