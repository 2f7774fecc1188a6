"""Run configurations, parameter sweeps, figure presets, and reporting.

A sweep walks (witness × pump phase × gt grid), evaluating closed-form
witnesses (and optionally the Fock oracle) into one value array over the gt
grid per (witness, phase, source) series, plus a negativity-onset summary;
the writers expand the series into deterministic CSV or JSON rows.  All
sweeps are parameterized in the dimensionless interaction time gt.  A run
is configured by the coupling g and the detuning Δω₁ = 2ω_a − ω_b − ω_c
alone, since witnesses depend on the frequencies only through Δω₁; closed
forms and oracle both use the synthetic frequency triple (Δω₁/2, 0, 0) of
`ModelParams.from_detuning`, which keeps the Hamiltonian's spectrum at the
scale of Δω₁ and g rather than optical frequencies.  The oracle sizes its
own basis to the coherent input (`fockspace.cutoffs_for`).
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import oracle as oracle_mod
from . import witnesses as wit_mod
from .model import CoherentInput, ConfigError, ModelParams, coefficients
from .witnesses import InvalidWitness, WitnessId

TWO_PI = 2.0 * math.pi

FIG_OMEGAS = (242.38e13, 36.05e13, 448.98e13)
FIG_AMPLITUDES = (5.0, 4.0, 2.0)
FIG_PHIS = (0.0, math.pi / 2, math.pi)


class UsageError(ConfigError):
    """Bad run configuration or CLI usage."""


def _real(name: str, value) -> float:
    """``value`` as a float, so outputs read the same whether it was typed
    1 or 1.0."""
    # unlike math.isfinite, this refuses an int beyond float range without raising
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _set_reals(spec, section: str, names) -> None:
    """Check each named real field of the frozen ``spec`` and store it as a float."""
    for name in names:
        object.__setattr__(spec, name, _real(f"{section}.{name}", getattr(spec, name)))


def _integer(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ParamsSpec:
    """Coupling g and detuning Δω₁ = 2ω_a − ω_b − ω_c, in s⁻¹."""

    g: float
    delta_omega1: float

    def __post_init__(self):
        _set_reals(self, "params", ("g", "delta_omega1"))

    def to_model(self) -> ModelParams:
        return ModelParams.from_detuning(self.delta_omega1, self.g)


@dataclass(frozen=True)
class InputSpec:
    alpha_abs: float
    phi: tuple[float, ...]
    beta: float
    gamma: float

    def __post_init__(self):
        _set_reals(self, "input", ("alpha_abs", "beta", "gamma"))
        if self.alpha_abs < 0:      # a modulus: the phase is phi's
            raise UsageError(f"input.alpha_abs must be >= 0, got {self.alpha_abs!r}")
        # one phase may be given bare, as in ``--input.phi 1.5``
        phi = self.phi if isinstance(self.phi, (list, tuple)) else (self.phi,)
        object.__setattr__(self, "phi", tuple(_real("input.phi", p) for p in phi))
        if not self.phi:
            raise UsageError("input.phi: need at least one pump phase")
        # results are keyed by phase, so a repeated one would be dropped
        for i, p in enumerate(self.phi):
            if not (0.0 <= p < TWO_PI):
                raise UsageError(f"input.phi: phases must lie in [0, 2pi), got {p!r}")
            if p in self.phi[:i]:
                raise UsageError(f"input.phi: phase {p!r} is listed twice")

    def coherent(self, phi: float) -> CoherentInput:
        return CoherentInput.from_pump_phase(self.alpha_abs, phi, self.beta, self.gamma)


@dataclass(frozen=True)
class GtGrid:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        _set_reals(self, "gt_grid", ("start", "stop"))
        _integer("gt_grid.count", self.count, 2)
        if not (self.stop > self.start >= 0.0):
            raise UsageError(f"gt_grid must be strictly increasing from >= 0, "
                             f"got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class RunConfig:
    params: ParamsSpec
    input: InputSpec
    gt_grid: GtGrid
    witnesses: tuple[str, ...]
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        # pump phases run in this process; the key stays for command lines
        # that pass --workers 1
        if type(self.workers) is not int or self.workers != 1:
            raise UsageError(f"workers must be 1, got {self.workers!r}")
        _integer("seed", self.seed, 0)
        if not isinstance(self.witnesses, (list, tuple)) \
                or not all(isinstance(s, str) for s in self.witnesses):
            raise UsageError(f"witnesses must be a list of labels, got {self.witnesses!r}")
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        try:
            wids = self.witness_ids()
        except InvalidWitness as exc:
            raise UsageError(f"witnesses: {exc}") from None
        # as for phases: results are keyed by witness, however it is spelled
        for i, w in enumerate(wids):
            if w in wids[:i]:
                first = self.witnesses[wids.index(w)]
                raise UsageError(f"witnesses: {first!r} and {self.witnesses[i]!r} "
                                 f"name the same witness")

    def witness_ids(self) -> list[WitnessId]:
        return [WitnessId.parse(s) for s in self.witnesses]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return _section(cls, d, "")
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:   # a check this loader does not name
            raise UsageError(f"bad config: {exc}") from exc


_SECTIONS = {"params": ParamsSpec, "input": InputSpec, "gt_grid": GtGrid}


def _section(cls, d, prefix: str):
    """``cls`` from the JSON object ``d``, naming each key ``prefix + key``;
    the values are checked by each section's ``__post_init__``."""
    if not isinstance(d, dict):
        raise UsageError(f"{prefix[:-1] or 'config'} must be a JSON object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in d:
        if key not in fields:
            raise UsageError(f"unknown key {prefix}{key}")
    for name, f in fields.items():
        if name not in d and f.default is dataclasses.MISSING:
            raise UsageError(f"missing key {prefix}{name}")
    return cls(**{k: _section(_SECTIONS[k], v, f"{prefix}{k}.") if k in _SECTIONS else v
                  for k, v in d.items()})


def apply_overrides(d: dict, overrides: dict[str, object]) -> dict:
    """Apply overrides of dotted paths (e.g. 'input.alpha_abs': 5) or
    top-level keys (e.g. 'seed': 7) to a config dict."""
    out = json.loads(json.dumps(d))  # deep copy, JSON-typed
    for path, value in overrides.items():
        parts = path.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise UsageError(f"override {path!r}: {p!r} is not a section")
        node[parts[-1]] = value
    return out


class Series(NamedTuple):
    """One (witness, phi) curve from one source: values over the gt grid."""

    witness: WitnessId
    phi: float
    source: str
    gt: np.ndarray
    value: np.ndarray


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0   # normalize -0.0
    return f"{x:.17g}"


def _column(fmt: str, values: np.ndarray) -> list[str]:
    """Each of ``values`` formatted with ``fmt``, by one ``%`` call."""
    return ((fmt + "\n") * len(values) % tuple(values.tolist())).splitlines()


CSV_HEADER = "gt,phi,criterion,modes,m,n,value,entangled,source"


def rows_to_csv(series) -> str:
    """One row per (series, gt); a value is entangled when it is negative.

    Floats are written as ``f"{x:.17g}"`` with -0.0 as 0.0.  Each row is
    joined from its gt, the series' fixed fields, its value and a fixed end
    holding the flag and source; the gt and value columns are rendered by
    one ``%`` call each, each distinct gt grid once per call.  The bytes
    are those of one f-string per value.
    """
    return "".join(csv_blocks(series))


def csv_blocks(series) -> Iterator[str]:
    """The text of `rows_to_csv` as blocks: the header, then one block per
    series.  A caller that writes each block as it comes holds at most one
    series' rendered rows.  Rendering raises no error, so only a failed
    write can end the output early.
    """
    gt_columns: dict[tuple, list[str]] = {}
    yield CSV_HEADER + "\n"
    for s in series:
        w = s.witness
        gt = s.gt + 0.0   # -0.0 is written as 0
        key = (gt.dtype.str, gt.tobytes())
        if key not in gt_columns:
            gt_columns[key] = _column("%.17g", gt)
        rows = [f",{_fmt(s.phi)},{w.criterion.value},{w.mode_string},{w.m},{w.n},"] \
            * (4 * len(gt))
        rows[0::4] = gt_columns[key]
        rows[2::4] = _column("%.17g", s.value + 0.0)
        rows[3::4] = np.where(s.value < 0.0, f",true,{s.source}\n",
                              f",false,{s.source}\n").tolist()
        yield "".join(rows)


def rows_to_json(series, summary) -> str:
    """Strict RFC 8259 JSON with the rows of `rows_to_csv`: the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``.

    Rows are written as ``json`` would, keys in sorted order.  Each row is
    joined from a fixed head holding the separator and the flag, its gt,
    the series' other fields through ``json.dumps``, its value and a fixed
    end; ``gt`` and ``value`` go through ``float.__repr__``, by one ``%``
    call per column, each distinct gt grid once per call.
    """
    return "".join(json_blocks(series, summary))


def json_blocks(series, summary) -> Iterator[str]:
    """The text of `rows_to_json` as blocks: the opening, one block per
    series that holds rows, then the closing with the summary.

    Every error but a failed write is raised here, at the call, before any
    block is made: a ValueError when a gt or a value of ``series`` (a
    sequence, read twice) is not finite.  A caller that writes each block
    as it comes so writes no byte of a payload that cannot be completed,
    and holds at most one series' rendered rows.
    """
    for s in series:
        if not (np.isfinite(s.gt).all() and np.isfinite(s.value).all()):
            raise ValueError("Out of range float values are not JSON compliant")
    tail = json.dumps({"summary": [
        {"witness": label, "phi": phi, "onset_gt": onset}
        for (label, phi), onset in summary.items()]},
        indent=2, sort_keys=True, allow_nan=False)
    return _json_rows(series, tail)


def _json_rows(series, tail: str) -> Iterator[str]:
    # the rows go ahead of the summary-only payload ``tail``, past its opening "{\n"
    gt_columns: dict[tuple, list[str]] = {}
    yield '{\n  "rows": '
    opened = False
    for s in series:
        if not len(s.gt):   # a series on an empty grid has no rows
            continue
        w = s.witness
        crit, m, modes, n, phi, source = (json.dumps(x) for x in (
            w.criterion.value, w.m, w.mode_string, w.n, s.phi, s.source))
        # every row opens with the separator ",\n", the first with "[\n"
        head = f',\n    {{\n      "criterion": {crit},\n      "entangled": '
        key = (s.gt.dtype.str, s.gt.tobytes())
        if key not in gt_columns:
            gt_columns[key] = _column("%r", s.gt)
        rows = [f',\n      "m": {m},\n      "modes": {modes},\n      "n": {n},'
                f'\n      "phi": {phi},\n      "source": {source},\n      "value": '] \
            * (5 * len(s.gt))
        rows[0::5] = np.where(s.value < 0.0, head + 'true,\n      "gt": ',
                              head + 'false,\n      "gt": ').tolist()
        rows[1::5] = gt_columns[key]
        rows[3::5] = _column("%r", s.value)
        rows[4::5] = ["\n    }"] * len(s.gt)
        if not opened:
            rows[0] = "[\n" + rows[0][2:]
            opened = True
        yield "".join(rows)
    yield ("\n  ]" if opened else "[]") + ",\n" + tail[2:]


def _onset(gts, values) -> float | None:
    """First negativity onset via linear interpolation, or None."""
    negative = np.flatnonzero(values < 0.0)
    if not len(negative):
        return None
    i = negative[0]
    if i == 0:
        return float(gts[0])
    v_prev, v = values[i - 1], values[i]
    frac = v_prev / (v_prev - v)
    return float(gts[i - 1] + frac * (gts[i] - gts[i - 1]))


def _times(gts: np.ndarray, g: float) -> np.ndarray:
    """The interaction times gt/g of a gt grid at coupling g > 0."""
    with np.errstate(over="ignore"):
        times = gts / g
    if not np.isfinite(times).all():
        raise UsageError(f"times gt/g must be finite, got gt = {float(gts.max())!r} "
                         f"at params.g = {g!r}")
    return times


def _coupled_params(config: RunConfig) -> ModelParams:
    params = config.params.to_model()
    if params.g <= 0.0:
        raise UsageError("gt sweeps need coupling g > 0")
    return params


def run_sweep(config: RunConfig, oracle: bool = False):
    """Execute a sweep; returns (series, summary).

    ``series`` is a list of `Series`, ordered by (witness as listed, phi as
    listed) with perturbative series first, then, with ``oracle``, the
    oracle series.
    The summary maps (witness label, phi) to the first negativity onset gt*
    or None.
    """
    wids = config.witness_ids()
    if not wids:
        return [], {}
    params = _coupled_params(config)
    gts = config.gt_grid.values()
    times = _times(gts, params.g)
    # one coefficient pass serves every series; a tuple of times keeps the
    # call's arguments hashable, as perfbench's tracer needs to count calls
    coeffs = coefficients(params, tuple(times))
    series: list[Series] = []
    summary: dict[tuple[str, float], float | None] = {}
    for w in wids:
        for phi in config.input.phi:
            vals = wit_mod.evaluate(w, coeffs, config.input.coherent(phi))
            series.append(Series(w, phi, "perturbative", gts, vals))
            summary[(w.label(), phi)] = _onset(gts, vals)

    if oracle:
        results = [oracle_mod.run(wids, params, config.input.coherent(phi), times.tolist())[0]
                   for phi in config.input.phi]
        for i, w in enumerate(wids):
            for phi, vals in zip(config.input.phi, results):
                series.append(Series(w, phi, "oracle", gts, vals[i]))
    return series, summary


def default_compare_config() -> RunConfig:
    """Certification settings: small amplitudes, Δω₁/g = −100, gt ∈ [0.01, 0.1]."""
    return RunConfig(
        params=ParamsSpec(g=1.0, delta_omega1=-100.0),
        input=InputSpec(alpha_abs=1.2, phi=FIG_PHIS, beta=0.9, gamma=0.6),
        gt_grid=GtGrid(start=0.01, stop=0.1, count=10),
        witnesses=tuple(certification_witnesses()),
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


def run_compare(config: RunConfig):
    """Run the certification ladder g, g/2, g/4 for every φ; returns a
    report dict.  Raises UsageError unless g > 0."""
    params = _coupled_params(config)
    gts = config.gt_grid.values()
    times = _times(gts[gts > 0.0], params.g).tolist()
    wids = config.witness_ids()
    report = {"settings": config.to_dict(), "per_phi": {}, "witnesses": {}}
    for phi in config.input.phi:
        res = oracle_mod.compare(wids, params, config.input.coherent(phi), times)
        summary = oracle_mod.certification_summary(res, wids)
        report["per_phi"][_fmt(phi)] = {"diagnostics": res.diagnostics,
                                        "witnesses": summary}
        for label, s in summary.items():
            slot = report["witnesses"].setdefault(
                label, {"exponent_min": None, "max_rel_err": 0.0, "passed": True})
            exps = [e for e in (slot["exponent_min"], s["exponent"]) if e is not None]
            slot["exponent_min"] = min(exps, default=None)
            slot["max_rel_err"] = max(slot["max_rel_err"], s["max_rel_err"])
            slot["passed"] = slot["passed"] and s["passed"]
    return report


def compare_report_text(report: dict) -> str:
    lines = ["witness            exponent_min  max_rel_err  status"]
    for label, s in sorted(report["witnesses"].items()):
        exp = "None" if s["exponent_min"] is None else f"{s['exponent_min']:.2f}"
        status = "PASS" if s["passed"] else "FAIL"
        lines.append(f"{label:18s} {exp:>12s}  {s['max_rel_err']:.3e}  {status}")
    return "\n".join(lines) + "\n"


def presets() -> dict[str, RunConfig]:
    """The four figure presets (the detuning of the caption frequencies,
    amplitudes, phases)."""
    wa, wb, wc = FIG_OMEGAS
    delta = 2 * wa - wb - wc
    base = dict(
        params=ParamsSpec(g=abs(delta) * 1e-3, delta_omega1=delta),
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
