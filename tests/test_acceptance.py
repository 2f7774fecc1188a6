"""Acceptance suite: one pass/fail line per criterion, printed unbuffered.

Criterion 6 has two clauses; the error-scaling clause (6a) passes, while the
absolute-agreement clause (6b) is left asserting its stated 1e-3 bound even
though the genuine third-order truncation error of the cross-term-dominated
witnesses measures 1.4e-3 to 5.1e-2 at the smallest rung under the pinned
settings (see the failure message for the live numbers).
"""
import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fwm.oracle as oracle_mod
from fwm.fockspace import (FockBasis, FockStateVector, coherent_state,
                           cutoffs_for)
from fwm.model import CoherentInput, ModelParams, coefficients
from fwm.residuals import residual_scaling_slope
from fwm.sweep import (GtGrid, InputSpec, ParamsSpec, RunConfig,
                       default_compare_config, presets, rows_to_csv,
                       run_compare, run_sweep)
from fwm.witnesses import WitnessId, evaluate


ACCEPTANCE_LINES: list[str] = []


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


FIG_INPUT = CoherentInput.from_pump_phase(5.0, 0.0, 4.0, 2.0)


def ev(label, coeffs, inp):
    return evaluate(WitnessId.parse(label), coeffs, inp)


def random_case(rng):
    params = ModelParams(*(rng.normal(size=3) * 3.0), abs(rng.normal()))
    t = abs(rng.normal()) * 2.0
    return params, t


def test_criterion_1_coefficient_identities():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(1000):
        params, t = random_case(rng)
        c = coefficients(params, t)
        ok &= c.f4 == c.f5 == -c.f3 / 2
        ok &= c.g4 == c.g5 == -2 * c.g3
        ok &= c.h4 == c.h5 == -2 * c.h3
        ok &= abs(abs(c.f1) - 1) <= 1e-14
        ok &= abs(abs(c.g1) - 1) <= 1e-14
        ok &= abs(abs(c.h1) - 1) <= 1e-14
    _report("criterion 1 (coefficient identities, 1000 random draws)", ok)
    assert ok


def test_criterion_2_residual_scaling():
    p = ModelParams.from_detuning(-1.0, 0.05)   # g0*t = 0.05 at t = 1
    slopes = {kind: residual_scaling_slope(p, 1.0, (10, 8, 8), kind)
              for kind in ("etcr", "eom")}
    ok = all(s >= 2.5 for s in slopes.values())
    _report("criterion 2 (ETCR/EOM residual scaling)", ok,
            f"slopes etcr={slopes['etcr']:.2f} eom={slopes['eom']:.2f} (>= 2.5)")
    assert ok


def test_criterion_3_order_reduction():
    """HZ1:ab:1,1 parses to the WitnessId of HZ1:ab and so reads one compiled
    plan: the reduction holds by construction.  The (m, n) forms are checked
    against the independent reference in test_witnesses.TestAgainstBruteForce."""
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        params, t = random_case(rng)
        inp = CoherentInput(alpha=complex(rng.normal(), rng.normal()),
                            beta=complex(rng.normal(), rng.normal()),
                            gamma=complex(rng.normal(), rng.normal()))
        coeffs = coefficients(params, t)
        for pair in ("ab", "bc", "ac"):
            ok &= ev(f"HZ1:{pair}:1,1", coeffs, inp) == ev(f"HZ1:{pair}", coeffs, inp)
            ok &= ev(f"HZ2:{pair}:1,1", coeffs, inp) == ev(f"HZ2:{pair}", coeffs, inp)
    _report("criterion 3 (order reduction bit-for-bit, 1000 random draws)", ok)
    assert ok


def test_criterion_4_hand_evaluated_polynomials():
    coeffs = coefficients(ModelParams.from_detuning(-100.0, 1.0), 0.017)
    f2s = abs(coeffs.f2) ** 2
    checks = {
        "E_ab": (ev("HZ1:ab", coeffs, FIG_INPUT) / f2s, -1669.75),
        "E_ac": (ev("HZ1:ac", coeffs, FIG_INPUT) / f2s, 1312.25),
        "D_ab": (ev("DUAN:ab", coeffs, FIG_INPUT) / f2s, 440.5),
        "D_bc": (ev("DUAN:bc", coeffs, FIG_INPUT) / f2s, 625.0),
        # the certified 5-term (m,n) = (2,1) closed form; the value its own
        # brute-force re-verification yields (the originally quoted -23757.75
        # reproduces only the inconsistent 8-term layout, see docs)
        "E21_ac": (ev("HZ1:ac:2,1", coeffs, FIG_INPUT) / f2s, -20493.75),
        "E_bca": (ev("TRI_HZ1:bca", coeffs, FIG_INPUT) / f2s, 8621.0),
    }
    ok = all(got == pytest.approx(want, rel=1e-9) for got, want in checks.values())
    _report("criterion 4 (hand-evaluated polynomial ratios)", ok,
            "E21_ac asserted at its re-verified value -20493.75")
    assert ok


def _sign_patterns(series):
    return {(f"{w.criterion.value}:{w.mode_string}:{w.m},{w.n}", round(s.phi, 9)):
            list(zip(s.gt, s.value)) for s in series for w in [s.witness]}


PHI0, PHI1, PHI2 = 0.0, round(math.pi / 2, 9), round(math.pi, 9)


def _all_negative(series, label, phi):
    return all(v < 0 for gt, v in series[(label, phi)] if gt > 0)


def _never_negative(series, label, phi):
    return all(v >= 0 for _, v in series[(label, phi)])


def test_criterion_5_figure_sign_patterns():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    series = _sign_patterns(run_sweep(presets()["fig2"])[0])
    for phi in (PHI0, PHI1, PHI2):
        expect(_all_negative(series, "HZ1:ab:1,1", phi), f"fig2 HZ1:ab phi={phi}")
        expect(_never_negative(series, "HZ1:ac:1,1", phi), f"fig2 HZ1:ac phi={phi}")
        expect(_never_negative(series, "HZ2:ab:1,1", phi), f"fig2 HZ2:ab phi={phi}")
        expect(_never_negative(series, "HZ2:ac:1,1", phi), f"fig2 HZ2:ac phi={phi}")
        for pair in ("ab", "bc", "ac"):
            expect(_never_negative(series, f"DUAN:{pair}:1,1", phi),
                   f"fig2 DUAN:{pair} phi={phi}")
    expect(_all_negative(series, "HZ1:bc:1,1", PHI1), "fig2 HZ1:bc phi=pi/2")
    expect(_never_negative(series, "HZ1:bc:1,1", PHI0), "fig2 HZ1:bc phi=0")
    expect(_never_negative(series, "HZ1:bc:1,1", PHI2), "fig2 HZ1:bc phi=pi")
    expect(_all_negative(series, "HZ2:bc:1,1", PHI0), "fig2 HZ2:bc phi=0")
    expect(_all_negative(series, "HZ2:bc:1,1", PHI2), "fig2 HZ2:bc phi=pi")
    expect(_never_negative(series, "HZ2:bc:1,1", PHI1), "fig2 HZ2:bc phi=pi/2")

    series = _sign_patterns(run_sweep(presets()["fig3"])[0])
    for m in (1, 2, 3):
        for phi in (PHI0, PHI1, PHI2):
            expect(_all_negative(series, f"HZ1:ab:{m},1", phi),
                   f"fig3 HZ1:ab m={m} phi={phi}")
        expect(_all_negative(series, f"HZ1:bc:{m},1", PHI1),
               f"fig3 HZ1:bc m={m} phi=pi/2")
    for m in (2, 3):
        for phi in (PHI0, PHI1, PHI2):
            expect(_all_negative(series, f"HZ1:ac:{m},1", phi),
                   f"fig3 HZ1:ac m={m} phi={phi}")
    for phi in (PHI0, PHI1, PHI2):
        expect(_never_negative(series, "HZ1:ac:1,1", phi), f"fig3 HZ1:ac 1,1 {phi}")

    series = _sign_patterns(run_sweep(presets()["fig4"])[0])
    for n in (1, 2, 3):
        expect(_all_negative(series, f"HZ2:bc:1,{n}", PHI0), f"fig4 bc n={n} phi=0")
        expect(_all_negative(series, f"HZ2:bc:1,{n}", PHI2), f"fig4 bc n={n} phi=pi")
        expect(_never_negative(series, f"HZ2:bc:1,{n}", PHI1), f"fig4 bc n={n} pi/2")
        for pair in ("ab", "ac"):
            for phi in (PHI0, PHI1, PHI2):
                expect(_never_negative(series, f"HZ2:{pair}:1,{n}", phi),
                       f"fig4 {pair} n={n} phi={phi}")

    series = _sign_patterns(run_sweep(presets()["fig5"])[0])
    for cut in ("abc", "acb"):
        expect(_all_negative(series, f"TRI_HZ1:{cut}:1,1", PHI1),
               f"fig5 {cut} phi=pi/2")
    for phi in (PHI0, PHI1, PHI2):
        expect(_never_negative(series, "TRI_HZ1:bca:1,1", phi), f"fig5 bca {phi}")
    expect(_all_negative(series, "TRI_SYM:abc:1,1", PHI0), "fig5 sym phi=0")
    expect(_all_negative(series, "TRI_SYM:abc:1,1", PHI2), "fig5 sym phi=pi")
    expect(_never_negative(series, "TRI_SYM:abc:1,1", PHI1), "fig5 sym phi=pi/2")

    ok = not failures
    _report("criterion 5 (figure sign patterns over the full grid)", ok,
            "all 4 presets" if ok else f"failing: {failures[:6]}")
    assert ok, failures


def test_fig2_oracle_disagreement():
    """Closed-form vs oracle ``entangled`` flags of the fig2 witnesses at
    phi = 0 on the first 31 points of the fig2 grid (gt <= 0.1*30/399), at
    the full figure amplitudes (basis dimension 110 376).  The flags differ
    only for HZ1:ab from k = 22, HZ1:ac from k = 19 (the oracle is entangled
    there and the closed form never is) and HZ2:bc at k = 25: the first
    differences of the full 400-point grid."""
    fig2 = presets()["fig2"]
    cfg = dataclasses.replace(
        fig2, input=dataclasses.replace(fig2.input, phi=(0.0,)),
        gt_grid=GtGrid(start=0.0, stop=0.1 * 30 / 399, count=31))
    flags = {}
    for s in run_sweep(cfg, oracle=True)[0]:
        flags.setdefault(s.witness.label(), {})[s.source] = s.value < 0.0
    differ = {label: np.flatnonzero(f["perturbative"] != f["oracle"]).tolist()
              for label, f in flags.items()}
    want = {label: [] for label in fig2.witnesses}
    want.update({"HZ1:ab": [22, 23, 24, 25], "HZ1:ac": [19, 20, 21, 22, 23, 24],
                 "HZ2:bc": [25]})
    ok = differ == want and not flags["HZ1:ac"]["perturbative"].any()
    _report("fig2 oracle disagreement (phi = 0, first 31 grid points)", ok,
            ", ".join(f"{k} from gt={cfg.gt_grid.values()[v[0]]:.3g}"
                      for k, v in differ.items() if v))
    assert ok, differ


@pytest.fixture(scope="module")
def certification_report():
    return run_compare(default_compare_config())


def test_criterion_6a_certification_exponents(certification_report):
    bad = {label: s for label, s in certification_report["witnesses"].items()
           if s["exponent_min"] is not None and s["exponent_min"] < 2.5}
    ok = not bad
    worst = min((s["exponent_min"] for s in
                 certification_report["witnesses"].values()
                 if s["exponent_min"] is not None), default=None)
    _report("criterion 6a (oracle certification, error exponent >= 2.5 "
            "for every implemented witness)", ok, f"worst exponent {worst:.2f}")
    assert ok, bad


def test_criterion_6b_certification_agreement(certification_report):
    """Absolute agreement <= 1e-3 x max(|oracle|, |f2|^2-scale floor) at the
    smallest rung.  The genuine O(g^3) truncation error of the cross-term
    witnesses measures 1.4e-3 to 5.1e-2 under the pinned ladder and grid, so
    this clause fails; the live margins are in the assertion message."""
    margins = {label: s["max_rel_err"]
               for label, s in certification_report["witnesses"].items()}
    bad = {k: v for k, v in margins.items() if v > 1e-3}
    ok = not bad
    detail = (f"{len(bad)}/{len(margins)} witnesses exceed 1e-3; worst "
              + ", ".join(f"{k}={v:.2e}" for k, v in
                          sorted(bad.items(), key=lambda kv: -kv[1])[:4]))
    _report("criterion 6b (oracle certification, 1e-3 agreement at the "
            "smallest rung)", ok, detail if bad else "all within 1e-3")
    assert ok, (
        "third-order truncation error exceeds the 1e-3 agreement bound at "
        f"the pinned settings (scaling clause 6a passes): {detail}")


def test_criterion_7_oracle_physics(certification_report):
    diag_ok = True
    worst_norm = worst_q = 0.0
    for phi_key, per in certification_report["per_phi"].items():
        d = per["diagnostics"]
        worst_norm = max(worst_norm, d["norm_drift"])
        worst_q = max(worst_q, d["q1_drift"], d["q2_drift"])
    diag_ok &= worst_norm <= 1e-9 and worst_q <= 1e-8

    # cutoff doubling and frame invariance at the certification setting,
    # propagated by scipy's expm_multiply, independently of the oracle's
    # sector propagator; top rung, phi = pi/2, last grid time
    inp = CoherentInput.from_pump_phase(1.2, math.pi / 2, 0.9, 0.6)
    params = ModelParams.from_detuning(-100.0, 1.0)
    t = 0.1
    wids = [WitnessId.parse(s) for s in
            ["HZ1:ab", "HZ1:bc", "HZ1:ac", "HZ2:bc", "HZ1:ab:2,1",
             "DUAN:ab", "TRI_HZ1:abc", "TRI_SYM"]]
    base_cut = cutoffs_for(inp)
    floor = oracle_mod._error_floor(params, inp, coefficients(params, t))

    def witness_values(p, cutoffs):
        basis = FockBasis(cutoffs)
        psi0 = coherent_state(basis, inp)
        H = oracle_mod.build_hamiltonian(p, basis)
        amps = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
        psi = FockStateVector(amplitudes=amps, basis=basis)
        return oracle_mod.witness_grid(wids, [psi], p, [t])[0][:, 0]

    base_vals = witness_values(params, base_cut)
    double_ok = True
    worst_dbl = 0.0
    for mode in range(3):
        doubled = tuple(c * 2 if k == mode else c
                        for k, c in enumerate(base_cut))
        vals = witness_values(params, doubled)
        rel = np.max(np.abs(vals - base_vals) / np.maximum(np.abs(base_vals), floor))
        worst_dbl = max(worst_dbl, rel)
    double_ok = worst_dbl < 1e-8

    shifted = ModelParams(params.omega_a + 25.0, params.omega_b + 25.0,
                          params.omega_c + 25.0, params.g)
    shift_vals = witness_values(shifted, base_cut)
    worst_frame = float(np.max(np.abs(shift_vals - base_vals)
                               / np.maximum(np.abs(base_vals), floor)))
    frame_ok = worst_frame < 1e-9

    ok = diag_ok and double_ok and frame_ok
    _report("criterion 7 (oracle physics)", ok,
            f"unitarity {worst_norm:.1e} (<=1e-9), charge drift {worst_q:.1e} "
            f"(<=1e-8), cutoff doubling {worst_dbl:.1e} (<1e-8), "
            f"frame invariance {worst_frame:.1e} (<1e-9)")
    assert ok


def test_criterion_8_determinism():
    cfg = presets()["fig2"]
    a = rows_to_csv(run_sweep(cfg)[0]).encode()
    b = rows_to_csv(run_sweep(cfg)[0]).encode()
    ok = a == b
    _report("criterion 8 (byte-identical fig2 sweep)", ok,
            f"{len(a)} bytes compared")
    assert ok
