"""Run configurations, parameter sweeps, figure presets, and reporting.

A sweep walks (witness × pump phase × gt grid), evaluating closed-form
witnesses (and optionally the Fock oracle) and emitting a deterministic row
stream plus a negativity-onset summary.  All sweeps are parameterized in the
dimensionless interaction time gt; the oracle always propagates with the
synthetic frequency triple (Δω₁/2, 0, 0), which is observationally
equivalent (witnesses depend on frequencies only through Δω₁) and keeps the
Hamiltonian's spectrum at the scale of Δω₁ and g rather than optical
frequencies.
"""
from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import oracle as oracle_mod
from . import witnesses as wit_mod
from .fockspace import cutoffs_for
from .model import CoherentInput, ConfigError, ModelParams, coefficients
from .witnesses import InvalidWitness, WitnessId

TWO_PI = 2.0 * math.pi

FIG_OMEGAS = (242.38e13, 36.05e13, 448.98e13)
FIG_AMPLITUDES = (5.0, 4.0, 2.0)
FIG_PHIS = (0.0, math.pi / 2, math.pi)


class UsageError(ConfigError):
    """Bad run configuration or CLI usage."""


def _real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")


def _integer(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ParamsSpec:
    """Either full frequencies or a {Δω₁, g} shorthand."""

    g: float
    omega_a: float | None = None
    omega_b: float | None = None
    omega_c: float | None = None
    delta_omega1: float | None = None

    def __post_init__(self):
        for name in ("g", "omega_a", "omega_b", "omega_c", "delta_omega1"):
            if getattr(self, name) is not None:
                _real(f"params.{name}", getattr(self, name))
        full = all(v is not None for v in (self.omega_a, self.omega_b, self.omega_c))
        if not full and self.delta_omega1 is None:
            raise UsageError("params: give omega_a/omega_b/omega_c or delta_omega1")

    def to_model(self) -> ModelParams:
        if all(v is not None for v in (self.omega_a, self.omega_b, self.omega_c)):
            return ModelParams(self.omega_a, self.omega_b, self.omega_c, self.g)
        return ModelParams.from_detuning(self.delta_omega1, self.g)


@dataclass(frozen=True)
class InputSpec:
    alpha_abs: float
    phi: tuple[float, ...]
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha_abs", "beta", "gamma"):
            _real(f"input.{name}", getattr(self, name))
        if not self.phi:
            raise UsageError("input.phi: need at least one pump phase")
        for p in self.phi:
            _real("input.phi", p)
            if not (0.0 <= p < TWO_PI):
                raise UsageError(f"input.phi: phases must lie in [0, 2pi), got {p!r}")

    def coherent(self, phi: float) -> CoherentInput:
        return CoherentInput.from_pump_phase(self.alpha_abs, phi, self.beta, self.gamma)


@dataclass(frozen=True)
class GtGrid:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        _real("gt_grid.start", self.start)
        _real("gt_grid.stop", self.stop)
        _integer("gt_grid.count", self.count, 2)
        if not (self.stop > self.start >= 0.0):
            raise UsageError(f"gt_grid must be strictly increasing from >= 0, "
                             f"got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class OracleSpec:
    enabled: bool = False
    cutoffs: tuple[int, int, int] | None = None
    ladder_rungs: int = 3

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise UsageError(f"oracle.enabled must be true or false, got {self.enabled!r}")
        _integer("oracle.ladder_rungs", self.ladder_rungs, 1)
        if self.cutoffs is not None:
            if not isinstance(self.cutoffs, (list, tuple)) or len(self.cutoffs) != 3:
                raise UsageError(f"oracle.cutoffs must be three integers, got {self.cutoffs!r}")
            for c in self.cutoffs:
                _integer("oracle.cutoffs", c, 0)
            object.__setattr__(self, "cutoffs", tuple(self.cutoffs))


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.path is not None and not isinstance(self.path, str):
            raise UsageError(f"output.path must be a string, got {self.path!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"output.format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    params: ParamsSpec
    input: InputSpec
    gt_grid: GtGrid
    witnesses: tuple[str, ...]
    oracle: OracleSpec = OracleSpec()
    output: OutputSpec = OutputSpec()
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        _integer("workers", self.workers, 1)
        if not isinstance(self.witnesses, (list, tuple)) \
                or not all(isinstance(s, str) for s in self.witnesses):
            raise UsageError(f"witnesses must be a list of labels, got {self.witnesses!r}")
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        try:
            self.witness_ids()
        except InvalidWitness as exc:
            raise UsageError(f"witnesses: {exc}") from None

    def witness_ids(self) -> list[WitnessId]:
        return [WitnessId.parse(s) for s in self.witnesses]

    def to_dict(self) -> dict:
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items() if v is not None}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            return obj
        return clean(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return cls(
                params=ParamsSpec(**d["params"]),
                input=InputSpec(
                    alpha_abs=d["input"]["alpha_abs"],
                    phi=tuple(d["input"]["phi"]) if isinstance(d["input"]["phi"], (list, tuple))
                    else (d["input"]["phi"],),
                    beta=d["input"]["beta"], gamma=d["input"]["gamma"]),
                gt_grid=GtGrid(**d["gt_grid"]),
                witnesses=d["witnesses"],
                oracle=OracleSpec(**d.get("oracle", {})),
                output=OutputSpec(**d.get("output", {})),
                workers=d.get("workers", 1),
                seed=int(d.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def apply_overrides(d: dict, overrides: dict[str, object]) -> dict:
    """Apply dotted-path overrides (e.g. 'input.alpha_abs': 5) to a config dict."""
    out = json.loads(json.dumps(d))  # deep copy, JSON-typed
    for path, value in overrides.items():
        parts = path.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise UsageError(f"override {path!r}: {p!r} is not a section")
        leaf = parts[-1]
        if leaf == "phi" and not isinstance(value, (list, tuple)):
            value = [value]
        node[leaf] = value
    return out


@dataclass(frozen=True)
class SweepRow:
    gt: float
    phi: float
    criterion: str
    modes: str
    m: int
    n: int
    value: float
    entangled: bool
    source: str


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0   # normalize -0.0
    return f"{x:.17g}"


CSV_HEADER = "gt,phi,criterion,modes,m,n,value,entangled,source"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r.gt), _fmt(r.phi), r.criterion, r.modes, str(r.m), str(r.n),
            _fmt(r.value), "true" if r.entangled else "false", r.source]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows, summary) -> str:
    """Strict RFC 8259 JSON: a non-finite value (an ``oracle_failed`` row)
    is written as null."""
    payload = {
        "rows": [{**vars(r),
                  "value": r.value if math.isfinite(r.value) else None}
                 for r in rows],
        "summary": [
            {"witness": label, "phi": phi, "onset_gt": onset}
            for (label, phi), onset in summary.items()],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _onset(gts, values) -> float | None:
    """First negativity onset via linear interpolation, or None."""
    for i, v in enumerate(values):
        if v < 0.0:
            if i == 0:
                return float(gts[0])
            v_prev = values[i - 1]
            frac = v_prev / (v_prev - v)
            return float(gts[i - 1] + frac * (gts[i] - gts[i - 1]))
    return None


def _oracle_phi_payload(config: RunConfig, phi: float):
    spec = config.params.to_model()
    delta = spec.delta_omega1
    g = spec.g
    synth = ModelParams.from_detuning(delta, g)
    inp = config.input.coherent(phi)
    cutoffs = config.oracle.cutoffs or cutoffs_for(inp)
    return synth, inp, cutoffs


def _oracle_values_for_phi(args) -> np.ndarray:
    """(witness, gt) oracle values at one pump phase; all NaN when the
    configured cutoffs cannot hold the coherent input."""
    config, phi = args
    synth, inp, cutoffs = _oracle_phi_payload(config, phi)
    times = [float(gt / synth.g) for gt in config.gt_grid.values()]
    wids = config.witness_ids()
    try:
        psi0 = oracle_mod.coherent_state(oracle_mod.FockBasis(cutoffs), inp)
    except oracle_mod.CutoffError:
        return np.full((len(wids), len(times)), np.nan)
    H = oracle_mod.build_hamiltonian(synth, psi0.basis)
    states = oracle_mod.evolve_grid(H, psi0, times)
    return oracle_mod.witness_grid(wids, states, synth, times)


def _series_rows(w: WitnessId, phi: float, gts, values, source: str) -> list[SweepRow]:
    return [SweepRow(gt=float(gt), phi=phi, criterion=w.criterion.value,
                     modes=w.mode_string, m=w.m, n=w.n, value=float(v),
                     entangled=bool(v < 0.0), source=source)
            for gt, v in zip(gts, values)]


def run_sweep(config: RunConfig):
    """Execute a sweep; returns (rows, summary).

    Rows are ordered by (witness as listed, phi as listed, gt ascending) with
    perturbative rows first, then oracle rows when enabled; an oracle series
    whose cutoffs cannot hold the input is written as ``oracle_failed`` rows
    with NaN values.  The summary maps (witness label, phi) to the first
    negativity onset gt* or None.
    """
    wids = config.witness_ids()
    params = config.params.to_model()
    if not wids:
        return [], {}
    if params.g <= 0.0:
        raise UsageError("gt sweeps need coupling g > 0")
    gts = config.gt_grid.values()
    # one coefficient pass serves every series; a tuple of times keeps the
    # call's arguments hashable, as perfbench's tracer needs to count calls
    coeffs = coefficients(params, tuple(gts / params.g))
    rows: list[SweepRow] = []
    summary: dict[tuple[str, float], float | None] = {}
    for w in wids:
        for phi in config.input.phi:
            vals = wit_mod.evaluate(w, coeffs, config.input.coherent(phi)).value
            rows.extend(_series_rows(w, phi, gts, vals, "perturbative"))
            summary[(w.label(), phi)] = _onset(gts, vals)

    if config.oracle.enabled and wids:
        tasks = [(config, phi) for phi in config.input.phi]
        if config.workers > 1:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(_oracle_values_for_phi, tasks))
        else:
            results = [_oracle_values_for_phi(t) for t in tasks]
        for i, w in enumerate(wids):
            for phi, vals in zip(config.input.phi, results):
                source = "oracle_failed" if np.isnan(vals[i]).all() else "oracle"
                rows.extend(_series_rows(w, phi, gts, vals[i], source))
    return rows, summary


def default_compare_config() -> RunConfig:
    """Certification settings: small amplitudes, Δω₁/g = −100, gt ∈ [0.01, 0.1]."""
    return RunConfig(
        params=ParamsSpec(g=1.0, delta_omega1=-100.0),
        input=InputSpec(alpha_abs=1.2, phi=FIG_PHIS, beta=0.9, gamma=0.6),
        gt_grid=GtGrid(start=0.01, stop=0.1, count=10),
        witnesses=tuple(certification_witnesses()),
        oracle=OracleSpec(enabled=True),
        output=OutputSpec(path=None, format="json"),
    )


def certification_witnesses() -> list[str]:
    """Every implemented witness family at representative orders."""
    out = []
    for crit in ("HZ1", "HZ2"):
        for pair in ("ab", "bc", "ac"):
            out.append(f"{crit}:{pair}")
            out.append(f"{crit}:{pair}:2,1")
            out.append(f"{crit}:{pair}:1,2")
            out.append(f"{crit}:{pair}:3,1")
    for pair in ("ab", "bc", "ac"):
        out.append(f"DUAN:{pair}")
    out.extend(["TRI_HZ1:abc", "TRI_HZ1:bca", "TRI_HZ1:acb", "TRI_SYM"])
    return out


def _compare_phi_task(args):
    config, phi = args
    synth, inp, cutoffs = _oracle_phi_payload(config, phi)
    g0 = synth.g
    ladder = [ModelParams.from_detuning(synth.delta_omega1, g0 / 2 ** k)
              for k in range(config.oracle.ladder_rungs)]
    times = [float(gt / g0) for gt in config.gt_grid.values() if gt > 0.0]
    res = oracle_mod.compare(config.witness_ids(), ladder, inp, times,
                             cutoffs=cutoffs)
    return phi, res


def run_compare(config: RunConfig):
    """Run the certification ladder for every φ; returns a report dict.

    Raises UsageError unless the oracle is enabled and the ladder has >= 3
    rungs.
    """
    if not config.oracle.enabled:
        raise UsageError("compare requires oracle (set oracle.enabled)")
    if config.oracle.ladder_rungs < 3:
        raise UsageError("ladder needs >= 3 rungs")
    tasks = [(config, phi) for phi in config.input.phi]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_compare_phi_task, tasks))
    else:
        results = [_compare_phi_task(t) for t in tasks]

    report = {"settings": config.to_dict(), "per_phi": {}, "witnesses": {}}
    merged: dict[str, dict] = {}
    for phi, res in sorted(results, key=lambda pr: config.input.phi.index(pr[0])):
        summary = oracle_mod.certification_summary(res)
        report["per_phi"][_fmt(phi)] = {
            "diagnostics": {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in res.diagnostics.items()},
            "witnesses": summary,
        }
        for label, s in summary.items():
            slot = merged.setdefault(label, {"exponents": [], "max_rel_err": 0.0,
                                             "passed": True, "note": s["note"]})
            if s["exponent"] is not None:
                slot["exponents"].append(s["exponent"])
            slot["max_rel_err"] = max(slot["max_rel_err"], s["max_rel_err"])
            slot["passed"] = slot["passed"] and s["passed"]
    for label, slot in merged.items():
        exps = slot.pop("exponents")
        slot["exponent_min"] = min(exps) if exps else None
    report["witnesses"] = merged
    return report


def compare_report_text(report: dict) -> str:
    lines = ["witness            exponent_min  max_rel_err  status"]
    for label, s in sorted(report["witnesses"].items()):
        exp = "None" if s["exponent_min"] is None else f"{s['exponent_min']:.2f}"
        status = "PASS" if s["passed"] else ("SKIP" if s["note"] else "FAIL")
        lines.append(f"{label:18s} {exp:>12s}  {s['max_rel_err']:.3e}  {status}")
    return "\n".join(lines) + "\n"


def presets() -> dict[str, RunConfig]:
    """The four figure presets (caption frequencies, amplitudes, phases)."""
    wa, wb, wc = FIG_OMEGAS
    delta = 2 * wa - wb - wc
    base = dict(
        params=ParamsSpec(g=abs(delta) * 1e-3, omega_a=wa, omega_b=wb, omega_c=wc),
        input=InputSpec(alpha_abs=FIG_AMPLITUDES[0], phi=FIG_PHIS,
                        beta=FIG_AMPLITUDES[1], gamma=FIG_AMPLITUDES[2]),
        gt_grid=GtGrid(start=0.0, stop=0.1, count=400),
    )
    fig2 = [f"{c}:{p}" for c in ("HZ1", "HZ2", "DUAN") for p in ("ab", "bc", "ac")]
    fig3 = [f"HZ1:{p}:{m},1" if m > 1 else f"HZ1:{p}"
            for p in ("ab", "bc", "ac") for m in (1, 2, 3)]
    fig4 = [f"HZ2:{p}:1,{n}" if n > 1 else f"HZ2:{p}"
            for p in ("ab", "bc", "ac") for n in (1, 2, 3)]
    fig5 = ["TRI_HZ1:abc", "TRI_HZ1:bca", "TRI_HZ1:acb", "TRI_SYM"]
    return {
        "fig2": RunConfig(witnesses=tuple(fig2), **base),
        "fig3": RunConfig(witnesses=tuple(fig3), **base),
        "fig4": RunConfig(witnesses=tuple(fig4), **base),
        "fig5": RunConfig(witnesses=tuple(fig5), **base),
    }
