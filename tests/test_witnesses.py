"""Closed-form witnesses against hand values and the brute-force moment oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwm.model import SERIES_SWITCHOVER, CoherentInput, ModelParams, coefficients
from fwm.sweep import certification_witnesses
from fwm.witnesses import (Criterion, InvalidWitness, WitnessId, duan_pair,
                           evaluate, hz1_higher, hz1_pair, hz2_higher,
                           hz2_pair, trimodal_hz, trimodal_symmetric)

from bruteforce import TruthEngine

FIG_INPUT = CoherentInput.from_pump_phase(5.0, 0.0, 4.0, 2.0)
PAIRS = [("a", "b"), ("b", "c"), ("a", "c")]
CUTS = [("a", "b", "c"), ("b", "c", "a"), ("a", "c", "b")]


def random_setting(rng, amp=1.0):
    params = ModelParams(*(rng.normal(size=3) * 2.0), abs(rng.normal()) * 0.4)
    t = abs(rng.normal()) * 1.5 + 0.05
    inp = CoherentInput(
        alpha=complex(rng.normal(), rng.normal()) * amp,
        beta=complex(rng.normal(), rng.normal()) * amp,
        gamma=complex(rng.normal(), rng.normal()) * amp)
    return params, t, inp


def some_coeffs(phi=0.0, gt=0.03):
    # |g/delta| = 1e-3 as in the figure presets (cross terms dominate)
    params = ModelParams.from_detuning(-1000.0, 1.0)
    return coefficients(params, gt), CoherentInput.from_pump_phase(5.0, phi, 4.0, 2.0)


class TestHandValues:
    """Polynomial ratios at the figure amplitudes (α, β, γ) = (5, 4, 2)."""

    def setup_method(self):
        params = ModelParams.from_detuning(-100.0, 1.0)
        self.coeffs = coefficients(params, 0.013)
        self.f2s = abs(self.coeffs.f2) ** 2

    def ratio(self, wv):
        return wv.value / self.f2s

    def test_hz1_ab(self):
        assert self.ratio(hz1_pair(("a", "b"), self.coeffs, FIG_INPUT)) == \
            pytest.approx(-1669.75, rel=1e-12)

    def test_hz1_ac(self):
        assert self.ratio(hz1_pair(("a", "c"), self.coeffs, FIG_INPUT)) == \
            pytest.approx(1312.25, rel=1e-12)

    def test_hz2_ab(self):
        assert self.ratio(hz2_pair(("a", "b"), self.coeffs, FIG_INPUT)) == \
            pytest.approx(11530.25, rel=1e-12)

    def test_duan_ab(self):
        assert self.ratio(duan_pair(("a", "b"), self.coeffs, FIG_INPUT)) == \
            pytest.approx(440.5, rel=1e-12)

    def test_duan_bc(self):
        assert self.ratio(duan_pair(("b", "c"), self.coeffs, FIG_INPUT)) == \
            pytest.approx(625.0, rel=1e-12)

    def test_hz1_higher_ac_21(self):
        wv = hz1_higher(("a", "c"), 2, 1, self.coeffs, FIG_INPUT)
        assert self.ratio(wv) == pytest.approx(-20493.75, rel=1e-12)

    def test_trimodal_bca(self):
        wv = trimodal_hz(("b", "c", "a"), self.coeffs, FIG_INPUT)
        assert self.ratio(wv) == pytest.approx(8621.0, rel=1e-12)


class TestZeroAtSeparability:
    def test_every_witness_zero_at_t0(self):
        params = ModelParams(242.38e13, 36.05e13, 448.98e13, 2.7e9)
        coeffs = coefficients(params, 0.0)
        inp = FIG_INPUT
        for pair in PAIRS:
            assert hz1_pair(pair, coeffs, inp).value == 0.0
            assert hz2_pair(pair, coeffs, inp).value == 0.0
            assert duan_pair(pair, coeffs, inp).value == 0.0
            for (m, n) in [(2, 1), (1, 2), (3, 2)]:
                assert hz1_higher(pair, m, n, coeffs, inp).value == 0.0
                assert hz2_higher(pair, m, n, coeffs, inp).value == 0.0
        for cut in CUTS:
            assert trimodal_hz(cut, coeffs, inp).value == 0.0
        assert trimodal_symmetric(coeffs, inp).value == 0.0


class TestAgainstBruteForce:
    """Every closed form must equal the order-truncated moment evaluation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_order_and_trimodal(self, seed):
        rng = np.random.default_rng(100 + seed)
        params, t, inp = random_setting(rng)
        coeffs = coefficients(params, t)
        truth = TruthEngine(coeffs, inp)
        for (i, j) in PAIRS:
            for fn, ref in [(hz1_pair, truth.hz1), (hz2_pair, truth.hz2)]:
                got = fn((i, j), coeffs, inp).value
                want = ref(i, j)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            wi = getattr(params, f"omega_{i}")
            wj = getattr(params, f"omega_{j}")
            got = duan_pair((i, j), coeffs, inp).value
            assert got == pytest.approx(truth.duan(i, j, wi, wj, t),
                                        rel=1e-7, abs=1e-9)
        for cut in CUTS:
            got = trimodal_hz(cut, coeffs, inp).value
            assert got == pytest.approx(truth.trimodal(cut[2]), rel=1e-9, abs=1e-9)
        got = trimodal_symmetric(coeffs, inp).value
        assert got == pytest.approx(truth.trimodal_sym(), rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3),
                                     (2, 2), (3, 2), (2, 3)])
    def test_higher_order_grid(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for _ in range(3):
            params, t, inp = random_setting(rng)
            coeffs = coefficients(params, t)
            truth = TruthEngine(coeffs, inp)
            for (i, j) in PAIRS:
                got = hz1_higher((i, j), m, n, coeffs, inp).value
                assert got == pytest.approx(truth.hz1(i, j, m, n),
                                            rel=1e-9, abs=1e-10)
                got = hz2_higher((i, j), m, n, coeffs, inp).value
                assert got == pytest.approx(truth.hz2(i, j, m, n),
                                            rel=1e-9, abs=1e-10)

    def test_vacuum_signal_idler(self):
        """β = γ = 0 must evaluate finitely and match the oracle."""
        params = ModelParams.from_detuning(-2.0, 0.3)
        coeffs = coefficients(params, 0.8)
        inp = CoherentInput(alpha=1.1 + 0.7j, beta=0.0, gamma=0.0)
        truth = TruthEngine(coeffs, inp)
        for (m, n) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for (i, j) in PAIRS:
                got = hz1_higher((i, j), m, n, coeffs, inp).value
                assert math.isfinite(got)
                assert got == pytest.approx(truth.hz1(i, j, m, n),
                                            rel=1e-10, abs=1e-12)
                got = hz2_higher((i, j), m, n, coeffs, inp).value
                assert got == pytest.approx(truth.hz2(i, j, m, n),
                                            rel=1e-10, abs=1e-12)


class TestOrderReduction:
    def test_bit_for_bit_at_11(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params, t, inp = random_setting(rng)
            coeffs = coefficients(params, t)
            for pair in PAIRS:
                assert hz1_higher(pair, 1, 1, coeffs, inp).value == \
                    hz1_pair(pair, coeffs, inp).value
                assert hz2_higher(pair, 1, 1, coeffs, inp).value == \
                    hz2_pair(pair, coeffs, inp).value


class TestPhaseParity:
    def test_phi_plus_pi_exact(self):
        """Every φ dependence enters through α*² or α*⁴, so φ → φ + π is an
        exact symmetry, including in floating point (α flips sign)."""
        params = ModelParams.from_detuning(-3.0, 0.2)
        coeffs = coefficients(params, 0.7)
        for phi in (0.0, 0.33, math.pi / 2, 2.2):
            a = CoherentInput.from_pump_phase(2.5, phi, 1.5, 0.8)
            b = CoherentInput(alpha=-a.alpha, beta=a.beta, gamma=a.gamma)
            for pair in PAIRS:
                for (m, n) in [(1, 1), (2, 1), (1, 2)]:
                    assert hz1_higher(pair, m, n, coeffs, a).value == \
                        hz1_higher(pair, m, n, coeffs, b).value
                    assert hz2_higher(pair, m, n, coeffs, a).value == \
                        hz2_higher(pair, m, n, coeffs, b).value
                assert duan_pair(pair, coeffs, a).value == \
                    duan_pair(pair, coeffs, b).value
            for cut in CUTS:
                assert trimodal_hz(cut, coeffs, a).value == \
                    trimodal_hz(cut, coeffs, b).value
            assert trimodal_symmetric(coeffs, a).value == \
                trimodal_symmetric(coeffs, b).value

    def test_cross_terms_odd_under_detuning_flip(self):
        """Conjugating all amplitudes while flipping Δω₁ → −Δω₁ flips the
        sign of the phase-sensitive cross terms (they are odd in Δω₁), so
        the bc-family values reflect about their bracket part.  The
        bracket-only witnesses (ab, ac pairs) are even and stay unchanged."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = abs(rng.normal()) * 0.3
            delta = rng.normal()
            t = abs(rng.normal()) + 0.1
            inp = CoherentInput(alpha=complex(rng.normal(), rng.normal()),
                                beta=complex(rng.normal(), rng.normal()),
                                gamma=complex(rng.normal(), rng.normal()))
            conj = CoherentInput(alpha=inp.alpha.conjugate(),
                                 beta=inp.beta.conjugate(),
                                 gamma=inp.gamma.conjugate())
            c_fwd = coefficients(ModelParams.from_detuning(delta, g), t)
            c_rev = coefficients(ModelParams.from_detuning(-delta, g), t)
            for pair in (("a", "b"), ("a", "c")):
                v1 = hz1_pair(pair, c_fwd, inp).value
                v2 = hz1_pair(pair, c_rev, conj).value
                assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-14)
            # bc: flipping the detuning with conjugated amplitudes flips the
            # cross term only, same as rotating the pump phase by π/2
            v2 = hz1_pair(("b", "c"), c_rev, conj).value
            quarter = CoherentInput(1j * inp.alpha, inp.beta, inp.gamma)
            v_flip = hz1_pair(("b", "c"), c_fwd, quarter).value
            assert v2 == pytest.approx(v_flip, rel=1e-10, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(aa=st.floats(0, 4), bb=st.floats(0, 4), cc=st.floats(0, 4),
       phi=st.floats(0, 6.28), gt=st.floats(0, 0.2), delta_ratio=st.floats(-300, 300))
def test_duan_never_negative(aa, bb, cc, phi, gt, delta_ratio):
    params = ModelParams.from_detuning(delta_ratio, 1.0)
    coeffs = coefficients(params, gt)
    inp = CoherentInput.from_pump_phase(aa, phi, bb, cc)
    for pair in PAIRS:
        wv = duan_pair(pair, coeffs, inp)
        assert wv.value >= 0.0
        assert wv.entangled is False


class TestWitnessIds:
    def test_invalid_pair_rejected(self):
        coeffs, inp = some_coeffs()
        with pytest.raises(InvalidWitness):
            hz1_pair(("b", "a"), coeffs, inp)
        with pytest.raises(InvalidWitness):
            duan_pair(("a", "a"), coeffs, inp)

    def test_invalid_cut_rejected(self):
        coeffs, inp = some_coeffs()
        with pytest.raises(InvalidWitness):
            trimodal_hz(("c", "a", "b"), coeffs, inp)

    def test_invalid_orders_rejected(self):
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.HZ1, ("a", "b"), 0, 1)
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.DUAN, ("a", "b"), 2, 1)
        coeffs, inp = some_coeffs()
        with pytest.raises(InvalidWitness):
            hz1_higher(("a", "b"), 0, 2, coeffs, inp)

    def test_parse_round_trip(self):
        for label in ["HZ1:ab", "HZ2:bc:1,2", "HZ1:ac:3,1", "DUAN:bc",
                      "TRI_HZ1:bca", "TRI_SYM:abc"]:
            wid = WitnessId.parse(label)
            assert WitnessId.parse(wid.label()) == wid

    def test_higher_order_flag(self):
        assert not WitnessId.parse("HZ1:ab").higher_order
        assert WitnessId.parse("HZ1:ab:2,1").higher_order
        assert WitnessId.parse("TRI_SYM").higher_order

    def test_evaluate_dispatch(self):
        coeffs, inp = some_coeffs(phi=0.4)
        wid = WitnessId.parse("HZ2:bc:1,2")
        assert evaluate(wid, coeffs, inp).value == \
            hz2_higher(("b", "c"), 1, 2, coeffs, inp).value
        wid = WitnessId.parse("TRI_SYM")
        assert evaluate(wid, coeffs, inp).value == \
            trimodal_symmetric(coeffs, inp).value


def test_entangled_flag_strict_negativity():
    coeffs, inp = some_coeffs(phi=math.pi / 2)
    wv = hz1_pair(("b", "c"), coeffs, inp)
    assert wv.value < 0 and wv.entangled
    wv = hz1_pair(("a", "c"), coeffs, inp)
    assert wv.value > 0 and not wv.entangled


def test_detuning_sufficiency_on_values():
    """Witness values depend on frequencies only through Δω₁."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        wa, wb, wc = rng.integers(-512, 512, size=3) / 256.0
        shift = float(rng.integers(-512, 512)) / 256.0
        g, t = 0.21, 0.9
        inp = CoherentInput.from_pump_phase(1.3, 0.7, 0.9, 0.5)
        c0 = coefficients(ModelParams(wa, wb, wc, g), t)
        c1 = coefficients(ModelParams(wa + shift, wb + shift, wc + shift, g), t)
        for pair in PAIRS:
            assert hz1_pair(pair, c0, inp).value == \
                pytest.approx(hz1_pair(pair, c1, inp).value, rel=1e-12, abs=1e-15)
        assert trimodal_symmetric(c0, inp).value == \
            pytest.approx(trimodal_symmetric(c1, inp).value, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("delta, times", [
    # t = 0 and |Δω₁·t| on both sides of the series switchover in one array
    (-1.0, np.concatenate([SERIES_SWITCHOVER * np.array([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
                           [0.01, 0.1, 1.0]])),
    (0.0, np.array([0.0, 0.01, 0.1, 1.0])),      # exact resonance
])
def test_array_evaluation_matches_scalar(delta, times):
    """One array pass over t agrees with per-point scalar evaluation for every
    certification witness; scalar t gives a Python float and bool."""
    params = ModelParams.from_detuning(delta, 0.5)
    inp = CoherentInput.from_pump_phase(1.2, 0.7, 0.9, 0.6)
    coeffs = coefficients(params, times)
    for label in certification_witnesses():
        wid = WitnessId.parse(label)
        series = evaluate(wid, coeffs, inp)
        points = [evaluate(wid, coefficients(params, t), inp) for t in times]
        assert all(type(v.value) is float and type(v.entangled) is bool for v in points)
        scalar = np.array([v.value for v in points])
        np.testing.assert_allclose(series.value, scalar, rtol=1e-13,
                                   atol=1e-13 * np.abs(scalar).max(), err_msg=label)
        assert series.entangled.tolist() == [v.entangled for v in points], label
