import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwm import model
from fwm.model import (SERIES_SWITCHOVER, CoherentInput, ConfigError,
                       ModelParams, coefficient_derivatives, coefficients)

FIG_PARAMS = ModelParams(242.38e13, 36.05e13, 448.98e13, 2.7e9)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
small_pos = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)


def branch_pair(p, t):
    """The coefficients from the closed-form branch and from the series
    branch, each forced by moving the switchover to 0 or to infinity."""
    with mock.patch.object(model, "SERIES_SWITCHOVER", 0.0):
        exact = coefficients(p, t)
    with mock.patch.object(model, "SERIES_SWITCHOVER", math.inf):
        series = coefficients(p, t)
    return exact, series


def coeff_tuple(c):
    return [getattr(c, k) for k in
            ("f1", "f2", "f3", "f4", "f5", "g1", "g2", "g3", "g4", "g5",
             "h1", "h2", "h3", "h4", "h5")]


class TestDeltaOmega1:
    def test_figure_frequencies(self):
        assert FIG_PARAMS.delta_omega1 == pytest.approx(-0.27e13, rel=1e-12)

    def test_equal_frequencies_resonant(self):
        assert ModelParams(1.0, 1.0, 1.0, 0.0).delta_omega1 == 0.0

    def test_resonance_by_construction(self):
        assert ModelParams(2.0, 1.0, 3.0, 0.0).delta_omega1 == 0.0

    def test_sign_preserved(self):
        assert ModelParams(1.0, 5.0, 0.0, 0.0).delta_omega1 == -3.0


class TestValidation:
    def test_negative_g_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(1.0, 1.0, 1.0, -0.1)

    def test_nonfinite_frequency_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(math.inf, 1.0, 1.0, 0.0)

    def test_nonfinite_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            CoherentInput(complex(math.nan, 0), 0, 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            coefficients(FIG_PARAMS, -1.0)

    @pytest.mark.parametrize("params, t", [
        *[(FIG_PARAMS, t) for t in (1e308, math.inf, math.nan, np.array([0.0, 1e-9, 1e308]))],
        (ModelParams.from_detuning(-1.0, 1.0), math.inf),    # 0·inf phases
    ])
    def test_nonfinite_phase_rejected(self, params, t):
        with pytest.raises(ConfigError, match="finite"):
            coefficients(params, t)


class TestCoefficientBasics:
    def test_identity_at_t0(self):
        c = coefficients(FIG_PARAMS, 0.0)
        assert c.f1 == 1.0 and c.g1 == 1.0 and c.h1 == 1.0
        assert all(v == 0.0 for v in coeff_tuple(c)[1:5])
        assert all(v == 0.0 for v in coeff_tuple(c)[6:10])
        assert all(v == 0.0 for v in coeff_tuple(c)[11:15])

    def test_free_evolution_at_g0(self):
        p = ModelParams(1.3, 0.4, 0.9, 0.0)
        c = coefficients(p, 2.0)
        assert c.f1 == pytest.approx(cmath.exp(-2j * 1.3), abs=1e-15)
        for v in coeff_tuple(c):
            if v not in (c.f1, c.g1, c.h1):
                assert v == 0.0

    def test_from_detuning_synthetic_triple(self):
        p = ModelParams.from_detuning(-0.27e13, 1.0)
        assert (p.omega_a, p.omega_b, p.omega_c) == (-0.135e13, 0.0, 0.0)
        assert p.delta_omega1 == -0.27e13

    def test_pump_phase_convention(self):
        inp = CoherentInput.from_pump_phase(5.0, math.pi / 2, 4.0, 2.0)
        assert inp.alpha == pytest.approx(5j, abs=1e-12)
        assert inp.phi == pytest.approx(math.pi / 2)

    def test_second_order_at_tiny_coupling(self):
        """g·g underflows to 0 below g ≈ 1e-154 whatever t is; at g = 1e-200
        and gt = 0.1 the second-order fields still follow (gt)²."""
        g, t = 1e-200, 1e199
        p = ModelParams.from_detuning(-3e-199, g)
        c = coefficients(p, t)
        gt, x = g * t, p.delta_omega1 * t
        assert c.f3 == pytest.approx(4 * gt * gt * c.f1 * model._phi(2, x), rel=1e-15)
        assert c.g3 == pytest.approx(gt * gt * c.g1 * model._phi(2, -x), rel=1e-15)
        assert c.h3 == pytest.approx(gt * gt * c.h1 * model._phi(2, -x), rel=1e-15)
        assert abs(c.f3) > 1e-3


@settings(max_examples=200, deadline=None)
@given(wa=finite, wb=finite, wc=finite,
       g=st.floats(min_value=0, max_value=10, allow_nan=False), t=small_pos)
def test_exact_identities_random(wa, wb, wc, g, t):
    c = coefficients(ModelParams(wa, wb, wc, g), t)
    assert c.f4 == c.f5 == -c.f3 / 2
    assert c.g4 == c.g5 == -2 * c.g3
    assert c.h4 == c.h5 == -2 * c.h3
    assert abs(abs(c.f1) - 1) < 1e-14
    assert abs(abs(c.g1) - 1) < 1e-14
    assert abs(abs(c.h1) - 1) < 1e-14
    # g2 and h2 share magnitude (identical ramp factor)
    assert abs(abs(c.g2) - abs(c.h2)) <= 1e-15 * max(1.0, abs(c.g2))


def phi_reference(k, x):
    """φ_k(ix) = Σₙ (ix)ⁿ/(n+k)!: its first 40 terms for |x| <= 1, and
    (e^{ix} − 1)/(ix) or (e^{ix} − 1 − ix)/(ix)² by cmath above."""
    z = 1j * x
    if abs(x) <= 1:
        return sum(z ** n / math.factorial(n + k) for n in range(40))
    return (cmath.exp(z) - 1) / z if k == 1 else (cmath.exp(z) - 1 - z) / (z * z)


@pytest.mark.parametrize("k", [1, 2])
def test_phi_matches_reference(k):
    """Both branches of `_phi`, and each side of the switchover, to 1e-13
    relative, for scalars and arrays alike."""
    xs = [0.0, 1e-12, SERIES_SWITCHOVER * (1 - 1e-3), SERIES_SWITCHOVER * (1 + 1e-3),
          0.3, 1.0, 10.0, 1e3]
    xs += [-x for x in xs[1:]]
    values = model._phi(k, np.array(xs))
    for x, v in zip(xs, values):
        want = phi_reference(k, x)
        assert abs(v - want) <= 1e-13 * abs(want), x
        assert model._phi(k, x) == v


def test_r_powers_read_the_letter_r(monkeypatch):
    """`r_powers` holds |r|², Re r, Im r, Re r², Im r² of the r of
    `_letters`, whatever factor the f2 row of the table carries."""
    a_terms = list(model.HEISENBERG_TERMS["a"])
    name, word, _, monomial = a_terms[1]
    a_terms[1] = (name, word, 3, monomial)
    monkeypatch.setitem(model.HEISENBERG_TERMS, "a", tuple(a_terms))
    p, t = ModelParams.from_detuning(-3.0, 0.7), np.linspace(0.0, 2.0, 9)
    c = coefficients(p, t)
    r = model._letters(p, t)[1]["r"]
    assert np.allclose(c.f2, 3 * c.f1 * r)
    assert np.array_equal(c.r_powers, [abs(r) ** 2, r.real, r.imag, (r * r).real,
                                       (r * r).imag])


class TestResonantLimit:
    def test_series_values_match_analytic_limit(self):
        # at exact resonance: f2 -> -2igt f1, g2 -> -igt g1, f3 -> 2g²t² f1
        p = ModelParams(2.0, 1.0, 3.0, 0.7)   # delta = 0
        t = 1.3
        c = coefficients(p, t)
        f1 = cmath.exp(-2j * t)
        assert c.f2 == pytest.approx(-2j * p.g * t * f1, rel=1e-12)
        assert c.g2 == pytest.approx(-1j * p.g * t * cmath.exp(-1j * t), rel=1e-12)
        assert c.h2 == pytest.approx(-1j * p.g * t * cmath.exp(-3j * t), rel=1e-12)
        assert c.f3 == pytest.approx(2 * p.g ** 2 * t ** 2 * f1, rel=1e-12)

    def test_near_resonance_matches_series(self):
        # non-degenerate branch at Δω₁·t = 1e-4 vs series branch: ≤ 1e-8 rel
        g, t = 0.8, 1.0
        p = ModelParams.from_detuning(1e-4 / t, g)
        exact, series = branch_pair(p, t)
        for ve, vs in zip(coeff_tuple(exact), coeff_tuple(series)):
            assert ve == pytest.approx(vs, rel=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(g=st.floats(min_value=1e-3, max_value=10), t=small_pos,
           sign=st.sampled_from([-1.0, 1.0]))
    def test_branch_continuity_at_switchover(self, g, t, sign):
        p = ModelParams.from_detuning(sign * SERIES_SWITCHOVER / t, g)
        exact, series = branch_pair(p, t)
        for ve, vs in zip(coeff_tuple(exact), coeff_tuple(series)):
            assert ve == pytest.approx(vs, rel=1e-10, abs=1e-300)


dyadic = st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(lambda n: n / 1024.0)


@settings(max_examples=100, deadline=None)
@given(wa=dyadic, wb=dyadic, wc=dyadic, shift=dyadic,
       g=st.floats(min_value=1e-3, max_value=5), t=small_pos)
def test_detuning_sufficiency(wa, wb, wc, shift, g, t):
    """Shifting all frequencies by (δ, δ, δ) keeps Δω₁ fixed, so every
    interaction magnitude and phase-invariant product is unchanged (to the
    few-ulp rounding of the complex phase products); only the free phases of
    f1, g1, h1 individually move.  Dyadic frequencies keep the recomputed
    detuning exactly identical in floating point."""
    c0 = coefficients(ModelParams(wa, wb, wc, g), t)
    c1 = coefficients(ModelParams(wa + shift, wb + shift, wc + shift, g), t)
    for k in ("f2", "f3", "g2", "g3", "h2", "h3"):
        m0, m1 = abs(getattr(c0, k)), abs(getattr(c1, k))
        assert m0 == pytest.approx(m1, rel=4e-15, abs=0.0) or m0 == m1
    p0 = c0.h1 * c0.h2.conjugate()
    p1 = c1.h1 * c1.h2.conjugate()
    assert p0 == pytest.approx(p1, rel=4e-15, abs=1e-300)
    q0 = c0.g1 * c0.g2.conjugate()
    q1 = c1.g1 * c1.g2.conjugate()
    assert q0 == pytest.approx(q1, rel=4e-15, abs=1e-300)


def test_derivatives_match_central_difference():
    """Random detuned settings, exact resonance (the series branch) and
    g = 1e-200 at gt = 0.1, each on its own time unit."""
    rng = np.random.default_rng(5)
    cases = [(ModelParams(*rng.normal(size=3) * 2, abs(rng.normal())),
              abs(rng.normal()) + 0.1, 1.0) for _ in range(6)]
    cases += [(ModelParams(2.0, 1.0, 3.0, 0.7), 1.3, 1.0),
              (ModelParams.from_detuning(-3e-199, 1e-200), 1e199, 1e199)]
    for p, t, unit in cases:
        dt = 1e-6 * unit / max(1.0, abs(p.delta_omega1) * unit)
        d = coefficient_derivatives(p, t)
        cp = coefficients(p, t + dt)
        cm = coefficients(p, t - dt)
        for k in (f"{x}{i}" for x in "fgh" for i in range(1, 6)):
            dv = getattr(d, k)
            fd = (getattr(cp, k) - getattr(cm, k)) / (2 * dt)
            assert abs(fd - dv) < 1e-5 * max(1.0 / unit, abs(dv)), (p, k)
