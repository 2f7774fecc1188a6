"""Command-line front end: sweep, compare, presets, check.

Exit codes: 0 success, 1 usage error (also when an amplitude overflows a
closed form or needs an oracle cutoff above 10 000, or ``--out`` cannot be
written), 2 when a ``check`` diagnostic fails.  Every command
writes to stdout or to ``--out``; only ``sweep`` has a choice of format
(``--format csv|json``) and an ``--oracle`` switch, which are flags and not
config keys.  Any config field can be overridden with a flag of the same
dotted path, e.g.
``--input.alpha_abs 5 --input.phi 1.5707963 --gt_grid.count 100``, and a
top-level key the same way, as ``--seed N`` (seed of ``check``'s random
trials; default 0).  ``check`` reads only ``params.delta_omega1`` and
``seed``; it validates every other key and ignores it.

Frequencies are angular (s⁻¹).  Witness values depend on the frequencies
only through the detuning Δω₁ = 2ω_a − ω_b − ω_c, so ``params`` holds g and
Δω₁ alone, and every command works at the synthetic frequency triple
(Δω₁/2, 0, 0), which keeps the exactly diagonalized Hamiltonian blocks at
the scale of Δω₁ and g rather than optical frequencies.
"""
from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from .model import ConfigError, ModelParams, coefficients
from .residuals import etcr_residual, residual_scaling_slope
from .sweep import (RunConfig, UsageError, _fmt, apply_overrides, compare_report_text,
                    default_compare_config, presets, rows_to_csv, rows_to_json,
                    run_compare, run_sweep)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

CHECK_CUTOFFS = (10, 8, 8)   # per-mode cutoffs of check's residual basis

_OVERRIDES_HELP = """\
config overrides (any number):
  --<dotted.key> VALUE  set one config field, e.g. --input.phi 1.5
  --seed N              seed of check's random trials (default 0)
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    # allow_abbrev=False: a prefix such as --fo is an override, not --format
    p = _Parser(prog="fwm", description=__doc__, allow_abbrev=False,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, description=None):
        sp = sub.add_parser(name, help=help, description=description,
                            epilog=_OVERRIDES_HELP, allow_abbrev=False,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.add_argument("--config", help="JSON run configuration file")
        sp.add_argument("--preset", help="named preset (fig2..fig5)")
        sp.add_argument("--out", help="output path (default stdout)")
        return sp

    sw = command("sweep", "evaluate witnesses over a (gt, phi) grid")
    sw.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="rows as CSV (default) or as JSON with the onset summary")
    sw.add_argument("--oracle", action="store_true",
                    help="also evaluate every witness with the Fock oracle")

    command("compare", "certify closed forms against the oracle")

    pr = sub.add_parser("presets", help="list the shipped figure presets",
                        allow_abbrev=False)
    pr.add_argument("--format", choices=["csv", "json"], default="csv")

    command("check", "run ETCR / equation-of-motion diagnostics",
            "Run the ETCR / equation-of-motion diagnostics.  The report reads only\n"
            "params.delta_omega1 and seed; every other config key, params.g\n"
            "included, is validated and then ignored.")
    return p


def _parse_value(raw: str):
    """A JSON literal when ``raw`` is one, else the string itself."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_overrides(extra: list[str]) -> dict:
    out = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        key, eq, raw = tok[2:].partition("=")
        if not tok.startswith("--") or not key:
            raise UsageError(f"unrecognized argument {tok!r}")
        if not eq:
            i += 1
            if i >= len(extra):
                raise UsageError(f"override {tok!r} needs a value")
            raw = extra[i]
        out[key] = _parse_value(raw)
        i += 1
    return out


def _load_config(args, overrides, default=None) -> RunConfig:
    """The config of ``--config``, ``--preset`` or ``default``, with the
    dotted overrides applied."""
    if args.config and args.preset:
        raise UsageError("give either --config or --preset, not both")
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(base, dict):     # before any override indexes it
            raise UsageError(f"config must be a JSON object, got {base!r}")
    elif args.preset:
        avail = presets()
        if args.preset not in avail:
            raise UsageError(f"unknown preset {args.preset!r}; "
                             f"available: {', '.join(sorted(avail))}")
        base = avail[args.preset].to_dict()
    elif default is not None:
        base = default.to_dict()
    else:
        raise UsageError("need --config or --preset")
    return RunConfig.from_dict(apply_overrides(base, overrides))


def _emit(text: str, path: str | None):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _cmd_sweep(args, overrides) -> int:
    cfg = _load_config(args, overrides)
    series, summary = run_sweep(cfg, oracle=args.oracle)
    if args.format == "json":
        _emit(rows_to_json(series, summary), args.out)
    else:
        _emit(rows_to_csv(series), args.out)
    n_witness = len(cfg.witnesses)
    sys.stderr.write(f"{n_witness} witnesses evaluated\n")
    for (label, phi), onset in summary.items():
        txt = "none" if onset is None else f"{onset:.6g}"
        sys.stderr.write(f"  onset {label} phi={phi:.6g}: {txt}\n")
    return EXIT_OK


def _cmd_compare(args, overrides) -> int:
    cfg = _load_config(args, overrides, default=default_compare_config())
    report = run_compare(cfg)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    sys.stderr.write(compare_report_text(report))
    return EXIT_OK


def _cmd_presets(args) -> int:
    avail = presets()
    if args.format == "json":
        payload = {name: cfg.to_dict() for name, cfg in avail.items()}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("name,witnesses,delta_omega1,g,gt_start,gt_stop,gt_count\n")
        for name, cfg in avail.items():
            floats = (cfg.params.delta_omega1, cfg.params.g,
                      cfg.gt_grid.start, cfg.gt_grid.stop)
            sys.stdout.write(f"{name},{len(cfg.witnesses)},{','.join(map(_fmt, floats))},"
                             f"{cfg.gt_grid.count}\n")
    return EXIT_OK


def _coefficient_defect(params: ModelParams, t: float) -> float:
    """Largest relative defect of the relations linking the coefficients
    that `coefficients` does not build in (their resonant limits at
    Δω₁ = 0), and ||f1| − 1|."""
    c = coefficients(params, t)
    g, d = params.g, params.delta_omega1
    if d == 0.0:
        want = {"f2": -2j * g * t * c.f1, "f3": 2 * (g * t) ** 2 * c.f1,
                "g2": -1j * g * t * c.g1, "g3": (g * t) ** 2 / 2 * c.g1}
    else:
        want = {"f2": 2 * g / d * c.f1 * (1 - cmath.exp(1j * d * t)),
                "f3": 2 * g / d * (c.f2 + 2j * g * t * c.f1),
                "g2": -g / d * c.g1 * (1 - cmath.exp(-1j * d * t)),
                "g3": -g / d * (c.g2 + 1j * g * t * c.g1)}
    want["h2"] = c.h1 * c.g2 / c.g1                 # h2/h1 = g2/g1
    return max(abs(abs(c.f1) - 1.0),
               *(abs(getattr(c, k) - v) / abs(v) for k, v in want.items()))


def _cmd_check(args, overrides) -> int:
    cfg = _load_config(args, overrides, default=presets()["fig2"])
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params.to_model()
    delta = params.delta_omega1
    # the residuals are scale-free, so they are measured in units of |Δω₁|:
    # the EOM defect, a rate ~|Δω₁|(gt)³, cannot underflow there
    sign = float(np.sign(delta))
    unit = ModelParams.from_detuning(sign, 0.05)
    ok = True
    report = []
    r0 = etcr_residual(ModelParams.from_detuning(sign, 0.0), 1.0, CHECK_CUTOFFS)
    report.append(f"etcr residual (g=0): {r0:.3e}")
    ok &= r0 < 1e-12
    etcr_slope = residual_scaling_slope(unit, 1.0, CHECK_CUTOFFS, "etcr")
    eom_slope = residual_scaling_slope(unit, 1.0, CHECK_CUTOFFS, "eom")
    report.append(f"etcr residual scaling slope: {etcr_slope:.3f}")
    report.append(f"eom  residual scaling slope: {eom_slope:.3f}")
    ok &= etcr_slope >= 2.5 and eom_slope >= 2.5

    # the coefficient identities at the configured scale, where sweeps
    # evaluate the coefficients
    scale = abs(delta) if delta != 0.0 else 1.0
    g0 = 0.05 * scale
    t = 1.0 / scale
    for trial in range(3):
        gg = g0 * rng.uniform(0.3, 1.0)
        tt = t * rng.uniform(0.3, 1.5)
        ident = _coefficient_defect(ModelParams.from_detuning(delta, gg), tt)
        report.append(f"coefficient identities (trial {trial}): {ident:.3e}")
        ok &= ident < 1e-13
    report.append("check: " + ("PASS" if ok else "FAIL"))
    _emit("\n".join(report) + "\n", args.out)
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        overrides = _parse_overrides(extra)
        if args.command == "sweep":
            return _cmd_sweep(args, overrides)
        if args.command == "compare":
            return _cmd_compare(args, overrides)
        if args.command == "presets":
            if overrides:
                raise UsageError("presets takes no overrides")
            return _cmd_presets(args)
        return _cmd_check(args, overrides)
    except (UsageError, ConfigError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
