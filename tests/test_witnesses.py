"""Closed-form witnesses against hand values and the brute-force moment oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwm.model import SERIES_SWITCHOVER, CoherentInput, ConfigError, ModelParams, coefficients
from fwm.sweep import Series, certification_witnesses, rows_to_csv
from fwm.witnesses import Criterion, InvalidWitness, WitnessId, _plan, _power, evaluate

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


def ev(label, coeffs, inp):
    """The closed form of a witness label, as `evaluate` gives it."""
    return evaluate(WitnessId.parse(label), coeffs, inp)


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

    def ratio(self, value):
        return value / self.f2s

    def test_hz1_ab(self):
        assert self.ratio(ev("HZ1:ab", self.coeffs, FIG_INPUT)) == \
            pytest.approx(-1669.75, rel=1e-12)

    def test_hz1_ac(self):
        assert self.ratio(ev("HZ1:ac", self.coeffs, FIG_INPUT)) == \
            pytest.approx(1312.25, rel=1e-12)

    def test_hz2_ab(self):
        assert self.ratio(ev("HZ2:ab", self.coeffs, FIG_INPUT)) == \
            pytest.approx(11530.25, rel=1e-12)

    def test_duan_ab(self):
        assert self.ratio(ev("DUAN:ab", self.coeffs, FIG_INPUT)) == \
            pytest.approx(440.5, rel=1e-12)

    def test_duan_bc(self):
        assert self.ratio(ev("DUAN:bc", self.coeffs, FIG_INPUT)) == \
            pytest.approx(625.0, rel=1e-12)

    def test_hz1_higher_ac_21(self):
        wv = ev("HZ1:ac:2,1", self.coeffs, FIG_INPUT)
        assert self.ratio(wv) == pytest.approx(-20493.75, rel=1e-12)

    def test_trimodal_bca(self):
        wv = ev("TRI_HZ1:bca", self.coeffs, FIG_INPUT)
        assert self.ratio(wv) == pytest.approx(8621.0, rel=1e-12)


class TestZeroAtSeparability:
    def test_every_witness_zero_at_t0(self):
        params = ModelParams(242.38e13, 36.05e13, 448.98e13, 2.7e9)
        coeffs = coefficients(params, 0.0)
        inp = FIG_INPUT
        for i, j in PAIRS:
            assert ev(f"HZ1:{i}{j}", coeffs, inp) == 0.0
            assert ev(f"HZ2:{i}{j}", coeffs, inp) == 0.0
            assert ev(f"DUAN:{i}{j}", coeffs, inp) == 0.0
            for (m, n) in [(2, 1), (1, 2), (3, 2)]:
                assert ev(f"HZ1:{i}{j}:{m},{n}", coeffs, inp) == 0.0
                assert ev(f"HZ2:{i}{j}:{m},{n}", coeffs, inp) == 0.0
        for cut in CUTS:
            assert ev("TRI_HZ1:" + "".join(cut), coeffs, inp) == 0.0
        assert ev("TRI_SYM", coeffs, inp) == 0.0


class TestAgainstBruteForce:
    """Every closed form must equal the order-truncated moment evaluation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_order_and_trimodal(self, seed):
        rng = np.random.default_rng(100 + seed)
        params, t, inp = random_setting(rng)
        coeffs = coefficients(params, t)
        truth = TruthEngine(coeffs, inp)
        for (i, j) in PAIRS:
            for crit, ref in [("HZ1", truth.hz1), ("HZ2", truth.hz2)]:
                got = ev(f"{crit}:{i}{j}", coeffs, inp)
                want = ref(i, j)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            wi = getattr(params, f"omega_{i}")
            wj = getattr(params, f"omega_{j}")
            got = ev(f"DUAN:{i}{j}", coeffs, inp)
            assert got == pytest.approx(truth.duan(i, j, wi, wj, t),
                                        rel=1e-7, abs=1e-9)
        for cut in CUTS:
            got = ev("TRI_HZ1:" + "".join(cut), coeffs, inp)
            assert got == pytest.approx(truth.trimodal(cut[2]), rel=1e-9, abs=1e-9)
        got = ev("TRI_SYM", coeffs, inp)
        assert got == pytest.approx(truth.trimodal_sym(), rel=1e-8, abs=1e-9)

    # (7, 1) reads moments of order 16: closed forms take any (m, n), and
    # fockspace.MAX_MOMENT_ORDER = 12 bounds only the oracle's moment reads
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3),
                                     (2, 2), (3, 2), (2, 3), (3, 3), (4, 1), (7, 1)])
    def test_higher_order_grid(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for _ in range(3):
            params, t, inp = random_setting(rng)
            coeffs = coefficients(params, t)
            truth = TruthEngine(coeffs, inp)
            for (i, j) in PAIRS:
                got = ev(f"HZ1:{i}{j}:{m},{n}", coeffs, inp)
                assert got == pytest.approx(truth.hz1(i, j, m, n),
                                            rel=1e-9, abs=1e-10)
                got = ev(f"HZ2:{i}{j}:{m},{n}", coeffs, inp)
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
                got = ev(f"HZ1:{i}{j}:{m},{n}", coeffs, inp)
                assert math.isfinite(got)
                assert got == pytest.approx(truth.hz1(i, j, m, n),
                                            rel=1e-10, abs=1e-12)
                got = ev(f"HZ2:{i}{j}:{m},{n}", coeffs, inp)
                assert got == pytest.approx(truth.hz2(i, j, m, n),
                                            rel=1e-10, abs=1e-12)


class TestOrderReduction:
    def test_bit_for_bit_at_11(self):
        """HZ1:ab:1,1 is HZ1:ab (one WitnessId, one compiled plan), so the
        reduction holds by construction; `TestAgainstBruteForce` checks
        both against the independent reference."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params, t, inp = random_setting(rng)
            coeffs = coefficients(params, t)
            for i, j in PAIRS:
                assert ev(f"HZ1:{i}{j}:1,1", coeffs, inp) == \
                    ev(f"HZ1:{i}{j}", coeffs, inp)
                assert ev(f"HZ2:{i}{j}:1,1", coeffs, inp) == \
                    ev(f"HZ2:{i}{j}", coeffs, inp)

    def test_plan_has_hand_form_shape(self):
        """HZ1:ab compiles to one |r|² term with four amplitude monomials,
        (|α|⁶ − 2|α|⁴|β|² − 4|α|²|β|²|γ|² + 4|β|⁴|γ|²)·|r|²; HZ1:bc adds one
        first-order cross term in r·ᾱ²βγ."""
        assert _plan(WitnessId.parse("HZ1:ab:1,1")) is _plan(WitnessId.parse("HZ1:ab"))
        [(rows, weight, terms)] = _plan(WitnessId.parse("HZ1:ab"))
        assert (rows, weight) == ((0,), 1)
        assert sorted(terms) == sorted([(1.0, (3, 0, 0), (0, 0, 0)),
                                        (-2.0, (2, 1, 0), (0, 0, 0)),
                                        (-4.0, (1, 1, 1), (0, 0, 0)),
                                        (4.0, (0, 2, 1), (0, 0, 0))])
        cross, square = _plan(WitnessId.parse("HZ1:bc"))
        assert cross == ((1, 2), 2, ((-1.0, (0, 0, 0), (-2, 1, 1)),))
        assert square[:2] == ((0,), 1)


class TestPhaseParity:
    def test_phi_plus_pi_exact(self):
        """Every φ dependence enters through α*² or α*⁴, so φ → φ + π is an
        exact symmetry, including in floating point (α flips sign)."""
        params = ModelParams.from_detuning(-3.0, 0.2)
        coeffs = coefficients(params, 0.7)
        for phi in (0.0, 0.33, math.pi / 2, 2.2):
            a = CoherentInput.from_pump_phase(2.5, phi, 1.5, 0.8)
            b = CoherentInput(alpha=-a.alpha, beta=a.beta, gamma=a.gamma)
            for i, j in PAIRS:
                for (m, n) in [(1, 1), (2, 1), (1, 2)]:
                    assert ev(f"HZ1:{i}{j}:{m},{n}", coeffs, a) == \
                        ev(f"HZ1:{i}{j}:{m},{n}", coeffs, b)
                    assert ev(f"HZ2:{i}{j}:{m},{n}", coeffs, a) == \
                        ev(f"HZ2:{i}{j}:{m},{n}", coeffs, b)
                assert ev(f"DUAN:{i}{j}", coeffs, a) == \
                    ev(f"DUAN:{i}{j}", coeffs, b)
            for cut in CUTS:
                assert ev("TRI_HZ1:" + "".join(cut), coeffs, a) == \
                    ev("TRI_HZ1:" + "".join(cut), coeffs, b)
            assert ev("TRI_SYM", coeffs, a) == \
                ev("TRI_SYM", coeffs, b)

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
            for label in ("HZ1:ab", "HZ1:ac"):
                v1 = ev(label, c_fwd, inp)
                v2 = ev(label, c_rev, conj)
                assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-14)
            # bc: flipping the detuning with conjugated amplitudes flips the
            # cross term only, same as rotating the pump phase by π/2
            v2 = ev("HZ1:bc", c_rev, conj)
            quarter = CoherentInput(1j * inp.alpha, inp.beta, inp.gamma)
            v_flip = ev("HZ1:bc", c_fwd, quarter)
            assert v2 == pytest.approx(v_flip, rel=1e-10, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(aa=st.floats(0, 4), bb=st.floats(0, 4), cc=st.floats(0, 4),
       phi=st.floats(0, 6.28), gt=st.floats(0, 0.2), delta_ratio=st.floats(-300, 300))
def test_duan_never_negative(aa, bb, cc, phi, gt, delta_ratio):
    params = ModelParams.from_detuning(delta_ratio, 1.0)
    coeffs = coefficients(params, gt)
    inp = CoherentInput.from_pump_phase(aa, phi, bb, cc)
    for i, j in PAIRS:
        assert ev(f"DUAN:{i}{j}", coeffs, inp) >= 0.0


class TestWitnessIds:
    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.HZ1, ("b", "a"))
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.DUAN, ("a", "a"))

    def test_invalid_cut_rejected(self):
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.TRI_HZ1, ("c", "a", "b"))

    def test_invalid_orders_rejected(self):
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.HZ1, ("a", "b"), 0, 1)
        with pytest.raises(InvalidWitness):
            WitnessId(Criterion.DUAN, ("a", "b"), 2, 1)
        with pytest.raises(InvalidWitness):
            WitnessId.parse("HZ1:ab:0,2")

    @pytest.mark.parametrize("label", ["HZ1:ab:2,1:junk", "DUAN:ab::", "TRI_SYM:abc:1,1:"])
    def test_extra_field_rejected(self, label):
        with pytest.raises(InvalidWitness, match="too many"):
            WitnessId.parse(label)

    def test_parse_round_trip(self):
        for label in ["HZ1:ab", "HZ2:bc:1,2", "HZ1:ac:3,1", "DUAN:bc",
                      "TRI_HZ1:bca", "TRI_SYM:abc"]:
            wid = WitnessId.parse(label)
            assert WitnessId.parse(wid.label()) == wid

    def test_evaluate_dispatch(self):
        """Each criterion reads its own recipe: evaluate agrees with the
        brute-force reference of the same witness."""
        coeffs, inp = some_coeffs(phi=0.4)
        truth = TruthEngine(coeffs, inp)
        assert ev("HZ2:bc:1,2", coeffs, inp) == \
            pytest.approx(truth.hz2("b", "c", 1, 2), rel=1e-9)
        assert ev("TRI_SYM", coeffs, inp) == \
            pytest.approx(truth.trimodal_sym(), rel=1e-9)


def test_entangled_flag_strict_negativity():
    """The written ``entangled`` flag is strict negativity of the value:
    false at ±0 and for a NaN (failed) value."""
    coeffs, inp = some_coeffs(phi=math.pi / 2)
    bc = ev("HZ1:bc", coeffs, inp)
    ac = ev("HZ1:ac", coeffs, inp)
    assert bc < 0 < ac
    values = np.array([bc, ac, 0.0, -0.0, -5e-324, np.nan])
    series = Series(WitnessId.parse("HZ1:bc"), 0.0, "perturbative",
                    np.arange(values.size, dtype=float), values)
    flags = [line.split(",")[7] for line in rows_to_csv([series]).splitlines()[1:]]
    assert flags == ["true", "false", "false", "false", "true", "false"]


def test_underflow_refused_only_where_it_hides_a_negative_value():
    """Values whose amplitude terms all round to 0 are refused where their
    exact value is negative (HZ2:bc:400,1 at |β| = 0.1 reads −4.3e-795 at
    gt = 0.01), and kept as the correctly rounded 0 where it is positive
    (HZ1:ab:200,1 at |α| = 0.1, +6.0e-396), or exactly 0 (a zero pump, and
    DUAN, which is never negative, at amplitudes as small as 5e-324)."""
    coeffs = coefficients(ModelParams.from_detuning(-1000.0, 1.0), np.linspace(0.0, 0.1, 11))
    with pytest.raises(ConfigError, match="HZ2:bc:400,1 values underflow to 0 where they "
                                          "are negative"):
        ev("HZ2:bc:400,1", coeffs, CoherentInput.from_pump_phase(5.0, 0.0, 0.1, 2.0))
    for label, aa in [("HZ1:ab:200,1", 0.1), ("HZ1:ab:3,1", 0.0)]:
        assert not ev(label, coeffs, CoherentInput.from_pump_phase(aa, 0.0, 4.0, 2.0)).any()
    for aa, bb, cc in [(0.0, 1e-100, 1.0), (0.0, 5e-324, 5e-324), (1e-200, 0.0, 0.0)]:
        inp = CoherentInput.from_pump_phase(aa, 0.0, bb, cc)
        for i, j in PAIRS:
            assert (ev(f"DUAN:{i}{j}", coeffs, inp) >= 0.0).all()


def test_cold_power_reads_few_cached_powers():
    """A cold x(t)ᵏ/x₁ᵏ fills the cache upward: each new power reads at most
    three cached ones, not every power below it."""
    _power.cache_clear()
    _power("a", 200)
    assert _power.cache_info().hits <= 3 * 200


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
        for i, j in PAIRS:
            assert ev(f"HZ1:{i}{j}", c0, inp) == \
                pytest.approx(ev(f"HZ1:{i}{j}", c1, inp), rel=1e-12, abs=1e-15)
        assert ev("TRI_SYM", c0, inp) == \
            pytest.approx(ev("TRI_SYM", c1, inp), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("delta, times", [
    # t = 0 and |Δω₁·t| on both sides of the series switchover in one array
    (-1.0, np.concatenate([SERIES_SWITCHOVER * np.array([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
                           [0.01, 0.1, 1.0]])),
    (0.0, np.array([0.0, 0.01, 0.1, 1.0])),      # exact resonance
])
def test_array_evaluation_matches_scalar(delta, times):
    """One array pass over t agrees with per-point scalar evaluation for every
    certification witness; scalar t gives a Python float."""
    params = ModelParams.from_detuning(delta, 0.5)
    inp = CoherentInput.from_pump_phase(1.2, 0.7, 0.9, 0.6)
    coeffs = coefficients(params, times)
    for label in certification_witnesses():
        wid = WitnessId.parse(label)
        series = evaluate(wid, coeffs, inp)
        points = [evaluate(wid, coefficients(params, t), inp) for t in times]
        assert all(type(v) is float for v in points)
        scalar = np.array(points)
        np.testing.assert_allclose(series, scalar, rtol=1e-13,
                                   atol=1e-13 * np.abs(scalar).max(), err_msg=label)
        assert (series < 0).tolist() == [v < 0 for v in points], label


# x_k/x_1 for k = 1…5 in terms of r = f2/(2f1) and s = f3/(4f1), written
# out apart from `model.HEISENBERG_TERMS`, which `coefficients` reads
PHASE_FREE = {
    "f": lambda r, s: (1, 2 * r, 4 * s, -2 * s, -2 * s),
    "g": lambda r, s: (1, -r.conjugate(), s.conjugate(), -2 * s.conjugate(), -2 * s.conjugate()),
    "h": lambda r, s: (1, -r.conjugate(), s.conjugate(), -2 * s.conjugate(), -2 * s.conjugate()),
}


def test_phase_free_coefficients():
    """Every coefficient is its mode's first one times the `PHASE_FREE`
    polynomial in r = f2/(2f1) and s = f3/(4f1), with Re s = |r|²/2."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        params, t, _ = random_setting(rng)
        c = coefficients(params, t)
        r = c.f2 / (2 * c.f1)
        s = c.f3 / (4 * c.f1)
        assert s.real == pytest.approx(abs(r) ** 2 / 2, rel=1e-12, abs=1e-300)
        for x in "fgh":
            for k, want in enumerate(PHASE_FREE[x](r, s), 1):
                got = getattr(c, f"{x}{k}") / getattr(c, f"{x}1")
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), f"{x}{k}"
