"""Layer tracing for the fwm benchmark.

Wraps fwm's public functions at every module attribute that refers to them,
so callers that imported a function by name (``fwm.sweep.coefficients``,
``fwm.oracle.moment``) and callers that look it up on its module
(``fwm.oracle.kernels.rk4_propagate``) both reach the wrapper.  Each call
becomes a span (id, parent id, job id, name, start, end) kept in memory;
per-layer calls and self time are derived from the spans after the run.
The same wrappers record the exact work counts named in ``COUNT_METRICS``.

A listed function that no longer exists is reported as absent, not as an
error, so the metric names stay stable while layers are deleted.
"""
from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module under fwm, function name) for every layer boundary that is traced.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "run_compare"),
    ("sweep", "rows_to_csv"),
    ("sweep", "rows_to_json"),
    ("model", "coefficients"),
    ("witnesses", "evaluate"),
    ("residuals", "etcr_residual"),
    ("residuals", "eom_residual"),
    ("fockspace", "coherent_state"),
    ("fockspace", "moment"),
    ("fockspace", "conserved_charges"),
    ("oracle", "build_hamiltonian"),
    ("oracle", "spectral_radius"),
    ("oracle", "evolve_grid"),
    ("oracle", "oracle_witness"),
    ("oracle", "compare"),
    ("kernels", "rk4_propagate"),
)

# Exact counts recorded at the layer boundaries: (name, unit, better).
COUNT_METRICS = (
    ("sweep.out_bytes", "bytes", "lower"),
    ("model.coefficients.useful_ratio", "ratio", "higher"),
    ("fockspace.moment.useful_ratio", "ratio", "higher"),
    ("oracle.dimension", "count", "lower"),
    ("oracle.nnz", "count", "lower"),
    ("oracle.failed_rows", "count", "lower"),
    ("oracle.max_drift", "dimensionless", "lower"),
    ("kernels.rk4_steps", "count", "lower"),
    ("kernels.matvecs", "count", "lower"),
    ("kernels.bytes_computed", "bytes", "lower"),
)

OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")

# Probe-only mode wraps just this function, to capture propagated states for
# the drift check without recording spans.
EVOLVE = ("oracle", "evolve_grid")


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, fn in LAYER_FUNCTIONS:
        specs.append((f"{module}.{fn}.calls", "count", "lower"))
        specs.append((f"{module}.{fn}.self_s", "s", "lower"))
    return specs + list(COUNT_METRICS) + [OVERHEAD_METRIC]


def state_drift(psi0, states) -> float:
    """Largest |norm − 1| and conserved-charge drift (n_a+2n_b, n_b−n_c)
    over ``states`` relative to ``psi0``, computed here with numpy so the
    check touches no traced function."""
    def charges(psi):
        prob = np.abs(psi.tensor()) ** 2
        na = np.einsum("ijk,i->", prob, np.arange(prob.shape[0]))
        nb = np.einsum("ijk,j->", prob, np.arange(prob.shape[1]))
        nc = np.einsum("ijk,k->", prob, np.arange(prob.shape[2]))
        return na + 2 * nb, nb - nc

    q1_0, q2_0 = charges(psi0)
    worst = 0.0
    for s in states:
        q1, q2 = charges(s)
        worst = max(worst, abs(float(np.linalg.norm(s.amplitudes)) - 1.0),
                    abs(q1 - q1_0), abs(q2 - q2_0))
    return float(worst)


def _csr_matvec_bytes(matrix) -> int:
    """Bytes one CSR matvec touches: values, column indices, row pointers,
    the input vector and the output vector."""
    rows = matrix.shape[0]
    idx = matrix.indices.dtype.itemsize
    val = matrix.data.dtype.itemsize
    return int(matrix.nnz * (val + idx) + (rows + 1) * idx + 2 * rows * val)


class Tracer:
    """Installs wrappers on fwm's layer functions for the life of a ``with``.

    With ``record=False`` only ``oracle.evolve_grid`` is wrapped, and only to
    capture (ψ0, states) for the drift check; no spans or counts are kept.
    """

    def __init__(self, record: bool = True, functions=LAYER_FUNCTIONS):
        self.record = record
        self.functions = tuple(functions) if record else (EVOLVE,)
        self.spans: list[tuple] = []
        self.job = None
        self.absent: list[str] = []
        self.evolutions: list[tuple] = []
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._coeff_keys: set = set()
        self._moment_keys: set = set()
        self._alive: dict[int, object] = {}
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------
    def __enter__(self):
        fwm_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "fwm" or name.startswith("fwm."))]
        for module, fn in self.functions:
            try:
                mod = importlib.import_module(f"fwm.{module}")
            except ImportError:
                self.absent.append(f"{module}.{fn}")
                continue
            original = getattr(mod, fn, None)
            if original is None:
                self.absent.append(f"{module}.{fn}")
                continue
            wrapper = self._wrap(f"{module}.{fn}", original)
            for m in fwm_modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._saved.append((m, attr, value))
        return self

    def __exit__(self, *exc):
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        if not self.record:
            def probe(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, kwargs, result)
                return result
            return probe

        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    # -- exact counts at the boundaries ----------------------------------
    def _observe_oracle_evolve_grid(self, args, kwargs, result):
        psi0 = args[1] if len(args) > 1 else kwargs["psi0"]
        self.evolutions.append((psi0, list(result)))

    def _observe_model_coefficients(self, args, kwargs, result):
        self._coeff_keys.add((args, tuple(sorted(kwargs.items()))))

    def _observe_fockspace_moment(self, args, kwargs, result):
        psi = args[0] if args else kwargs["psi"]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        self._alive[id(psi)] = psi     # keeps ids unique while counting
        self._moment_keys.add((id(psi), spec))

    def _observe_kernels_rk4_propagate(self, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        nsteps = int(args[3] if len(args) > 3 else kwargs["nsteps"])
        self.counts["kernels.rk4_steps"] += nsteps
        self.counts["kernels.matvecs"] += 4 * nsteps
        self.counts["kernels.bytes_computed"] += 4 * nsteps * _csr_matvec_bytes(matrix)

    def _observe_oracle_build_hamiltonian(self, args, kwargs, result):
        self.counts["oracle.dimension"] = max(self.counts["oracle.dimension"],
                                              int(result.basis.dimension))
        self.counts["oracle.nnz"] = max(self.counts["oracle.nnz"],
                                        int(result.matrix.nnz))

    def _observe_sweep_run_sweep(self, args, kwargs, result):
        rows = result[0]
        self.counts["oracle.failed_rows"] += sum(
            1 for r in rows if r.source == "oracle_failed")

    def _observe_sweep_rows_to_csv(self, args, kwargs, result):
        self.counts["sweep.out_bytes"] += len(result.encode("utf-8"))

    _observe_sweep_rows_to_json = _observe_sweep_rows_to_csv

    # -- derived per-layer figures ---------------------------------------
    def pop_drift(self) -> float | None:
        """Max drift over the evolutions captured since the last call, or
        None when nothing was propagated."""
        if not self.evolutions:
            return None
        worst = max(state_drift(psi0, states) for psi0, states in self.evolutions)
        self.evolutions.clear()
        return worst

    def layer_totals(self) -> dict[str, float]:
        """Calls and self time (span duration minus direct children) of
        every listed function, plus the exact counts."""
        child_time = defaultdict(float)
        for sid, parent, job, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, parent, job, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
        out = {}
        for module, fn in LAYER_FUNCTIONS:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        n_coeff = calls["model.coefficients"]
        n_moment = calls["fockspace.moment"]
        out["model.coefficients.useful_ratio"] = (
            len(self._coeff_keys) / n_coeff if n_coeff else 0.0)
        out["fockspace.moment.useful_ratio"] = (
            len(self._moment_keys) / n_moment if n_moment else 0.0)
        for name in ("sweep.out_bytes", "oracle.dimension", "oracle.nnz",
                     "oracle.failed_rows", "kernels.rk4_steps", "kernels.matvecs",
                     "kernels.bytes_computed"):
            out[name] = self.counts[name]
        return out

    def write_spans(self, path, pass_index: int):
        """Append this tracer's spans as JSON lines to a gzip file."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "parent": parent,
                                     "job": job, "name": name,
                                     "start": start, "end": end}) + "\n")
