import contextlib
import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fwm import cli
from fwm.fockspace import (CUTOFF_HEADROOM, CUTOFF_TAIL, MAX_MOMENT_ORDER,
                           CutoffError, FockBasis, FockStateVector,
                           MomentSpec, coherent_amplitudes,
                           coherent_state, cutoffs_for, moments)
from fwm.model import CoherentInput, ConfigError

from csr_reference import csr_ladders


class TestBasisIndexing:
    def test_occupations_match_index(self):
        basis = FockBasis((4, 3, 2))
        occ = basis.occupations()
        assert occ.shape == (basis.dimension, 3)
        assert np.array_equal(occ.T, np.unravel_index(np.arange(basis.dimension),
                                                      basis.shape))


class TestCoherentState:
    def test_vacuum(self):
        basis = FockBasis((4, 4, 4))
        psi = coherent_state(basis, CoherentInput(0, 0, 0))
        assert psi.amplitudes[np.ravel_multi_index((0, 0, 0), basis.shape)] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_unit_mean_photon_tail(self):
        # exact Poisson tails for |z|² = 1 (independent 40-digit sum):
        # beyond 12 -> 6.3598e-11, beyond 14 -> 3.0000e-13
        _, tail12 = coherent_amplitudes(12, 1.0)
        assert tail12 == pytest.approx(6.359777327134142e-11, rel=1e-4)
        _, tail14 = coherent_amplitudes(14, 1.0)
        assert tail14 < 1e-12

    def test_norm_exactly_one_after_truncation(self):
        basis = FockBasis((9, 8, 7))
        psi = coherent_state(basis, CoherentInput(1.1, 0.8 + 0.2j, 0.5),
                             tail_tol=1e-6)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [2.5, 1e50])
    def test_cutoff_too_small_raises(self, alpha):
        basis = FockBasis((3, 3, 3))
        with pytest.raises(CutoffError):
            coherent_state(basis, CoherentInput(alpha, 0, 0), tail_tol=1e-9)

    def test_cutoff_policy_reaches_tail(self):
        inp = CoherentInput(1.2 * np.exp(0.5j), 0.9, 0.6)
        cut = cutoffs_for(inp)
        for z, c, extra in zip((inp.alpha, inp.beta, inp.gamma), cut, CUTOFF_HEADROOM):
            _, tail = coherent_amplitudes(c - extra, z)
            assert tail < CUTOFF_TAIL

    @pytest.mark.parametrize("alpha, want", [(5.23, 71), (6.2, 90), (17, 416), (20, 549),
                                             (30, 1119)])
    def test_pump_cutoff_is_smallest_with_tail_below_bound(self, alpha, want):
        """The pump cutoff less its headroom is the first n >= max(2, ⌈|α|²⌉)
        whose Poisson tail, summed here term by term, is below CUTOFF_TAIL.
        Near the bound or for |α| >= 17, 1 − Σ|amplitude|² cannot tell."""
        mu = alpha * alpha
        log_p = [-mu + m * math.log(mu) - math.lgamma(m + 1) for m in range(3 * want)]
        terms = [math.exp(v) for v in log_p]

        def tail(n):
            return math.fsum(terms[n + 1:])

        first = max(2, math.ceil(mu))
        n = next(n for n in range(first, len(terms)) if tail(n) < CUTOFF_TAIL)
        assert n == want
        assert cutoffs_for(CoherentInput(alpha, 0, 0))[0] - CUTOFF_HEADROOM[0] == want

    def test_large_amplitude_probabilities_sum_to_one(self):
        """log n! is taken per n, not as a running sum of log n, whose
        roundoff drifts upward with n: at |z| = 30 the probabilities over
        n < 3 000 sum to 1 within 2e-13 (the running sum read 1 − 4.6e-12),
        and the cutoffs stay where the running sum put them."""
        amps, _ = coherent_amplitudes(2999, 30.0)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 2e-13
        assert cutoffs_for(CoherentInput(1.2, 0.9, 0.6)) == (20, 15, 12)
        assert cutoffs_for(CoherentInput(5, 4, 2)) == (72, 53, 27)
        assert [cutoffs_for(CoherentInput(a, 0, 0))[0]
                for a in (5.23, 6.2, 17, 20, 30)] == [75, 94, 420, 553, 1123]

    def test_large_pump_runs_the_oracle(self):
        argv = ["sweep", "--preset", "fig2", "--oracle", "--input.alpha_abs", "20",
                "--input.beta", "0", "--input.gamma", "0", "--gt_grid.count", "3",
                "--input.phi", "[0]", "--witnesses", '["HZ1:ab"]']
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0

    def test_poisson_statistics(self):
        basis = FockBasis((16, 4, 4))
        z = 1.3 - 0.4j
        psi = coherent_state(basis, CoherentInput(z, 0, 0))
        p = np.abs(psi.tensor()[:, 0, 0]) ** 2
        lam = abs(z) ** 2
        expect = np.exp(-lam) * lam ** np.arange(17) / \
            np.array([math.factorial(k) for k in range(17)])
        assert np.allclose(p, expect, atol=1e-12)


class TestMoments:
    def test_vacuum_annihilation_zero(self):
        basis = FockBasis((4, 4, 4))
        psi = coherent_state(basis, CoherentInput(0, 0, 0))
        assert moments(psi, (MomentSpec(0, 1, 0, 0, 0, 0),))[0] == 0
        assert moments(psi, (MomentSpec(1, 2, 0, 3, 0, 1),))[0] == 0

    def test_coherent_eigenproperty(self):
        basis = FockBasis((14, 12, 10))
        inp = CoherentInput(1.2, 0.9 - 0.3j, 0.6j)
        psi = coherent_state(basis, inp)
        na = moments(psi, (MomentSpec(1, 1, 0, 0, 0, 0),))[0]
        assert na.real == pytest.approx(abs(inp.alpha) ** 2, abs=1e-8)
        ab = moments(psi, (MomentSpec(0, 1, 1, 0, 0, 0),))[0]   # ⟨a b†⟩
        assert ab == pytest.approx(inp.alpha * inp.beta.conjugate(), abs=1e-8)

    def test_normal_ordered_fourth_moment(self):
        basis = FockBasis((16, 4, 4))
        inp = CoherentInput(1.4, 0, 0)
        psi = coherent_state(basis, inp)
        a2a2 = moments(psi, (MomentSpec(2, 2, 0, 0, 0, 0),))[0]
        assert a2a2.real == pytest.approx(abs(inp.alpha) ** 4, rel=1e-7)

    def test_moment_spec_validation(self):
        """Exponents must be >= 0; the order bound holds only where a
        moment is read, as closed forms take any (m, n)."""
        with pytest.raises(ConfigError):
            MomentSpec(-1, 0, 0, 0, 0, 0)
        spec = MomentSpec(4, 4, 2, 2, 1, 0)   # order 13 > 12
        with pytest.raises(ConfigError, match="exceeds maximum"):
            moments(coherent_state(FockBasis((8, 6, 6)), CoherentInput(0.5, 0.3, 0.2)),
                    (spec,))

    def test_hermitian_conjugate_pairing(self):
        basis = FockBasis((8, 8, 6))
        psi = coherent_state(basis, CoherentInput(0.9, 0.7, 0.4 + 0.4j),
                             tail_tol=1e-5)
        fwd = moments(psi, (MomentSpec(0, 2, 1, 0, 0, 1),))[0]
        rev = moments(psi, (MomentSpec(2, 0, 0, 1, 1, 0),))[0]
        assert fwd == pytest.approx(rev.conjugate(), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(cut=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
           exps=st.tuples(*[st.integers(0, 5)] * 6).filter(
               lambda e: sum(e) <= MAX_MOMENT_ORDER),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_sparse_ladder_product(self, cut, exps, seed):
        """⟨ψ|A†ᵖAᵠB†ʳBˢC†ᵘCᵛ|ψ⟩ from independent CSR ladder matrices, applied
        right to left, for random states and exponents (some above a
        cutoff); a stack of three states gives the same value row by row."""
        basis = FockBasis(cut)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(3, basis.dimension)) + 1j * rng.normal(size=(3, basis.dimension))
        A, B, C = csr_ladders(basis.shape)
        spec = MomentSpec(*exps)
        ops = ([C] * spec.v + [C.conj().T] * spec.u + [B] * spec.s
               + [B.conj().T] * spec.r + [A] * spec.q + [A.conj().T] * spec.p)
        stacked = moments(FockStateVector(amps, basis), (spec,))[0]
        assert stacked.shape == (3,)
        for row, got in zip(amps, stacked):
            ket = row
            for op in ops:
                ket = op @ ket
            want = np.vdot(row, ket)
            single = moments(FockStateVector(row, basis), (spec,))[0]
            assert single == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert got == pytest.approx(single, rel=1e-12, abs=1e-12)
        if max(spec.p, spec.q) > cut[0] or max(spec.r, spec.s) > cut[1] \
                or max(spec.u, spec.v) > cut[2]:
            assert np.all(stacked == 0)


def _csr_moment(ladders, spec):
    """A†ᵖAᵠB†ʳBˢC†ᵘCᵛ as one CSR matrix."""
    A, B, C = ladders
    X = None
    for op, k in ((C, spec.v), (C.T, spec.u), (B, spec.s), (B.T, spec.r),
                  (A, spec.q), (A.T, spec.p)):
        for _ in range(k):
            X = op if X is None else op @ X
    return X if X is not None else sp.identity(A.shape[0], format="csr")


@st.composite
def spec_lists(draw):
    """1-4 random specs, each with 0-2 siblings that raise p and q (or r and
    s, or u and v) together, so several specs share one occupation offset."""
    specs = []
    for exps in draw(st.lists(st.tuples(*[st.integers(0, 4)] * 6).filter(
            lambda e: sum(e) <= MAX_MOMENT_ORDER), min_size=1, max_size=4)):
        specs.append(MomentSpec(*exps))
        for mode in draw(st.lists(st.integers(0, 2), max_size=2)):
            bumped = list(exps)
            bumped[2 * mode] += 1
            bumped[2 * mode + 1] += 1
            if sum(bumped) <= MAX_MOMENT_ORDER:
                specs.append(MomentSpec(*bumped))
    return specs


class TestBatchedMoments:
    @settings(max_examples=60, deadline=None)
    @given(cut=st.tuples(*[st.integers(0, 5)] * 3), specs=spec_lists(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_csr_reference(self, cut, specs, seed):
        """``moments`` equals ⟨ψ|X|ψ⟩ with X built from independent CSR
        ladders, for a single state, a (T, dim) stack and column views of
        a (dim, T) array; a spec above a cutoff reads exactly 0."""
        basis = FockBasis(cut)
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(basis.dimension, 3)) + 1j * rng.normal(size=(basis.dimension, 3))
        ladders = csr_ladders(basis.shape)
        want, scale = [], []
        for spec in specs:
            X = _csr_moment(ladders, spec)     # nonnegative entries
            want.append(np.einsum("it,it->t", cols.conj(), X @ cols))
            scale.append(np.einsum("it,it->t", abs(cols), X @ abs(cols)))
        want, atol = np.array(want), 1e-12 * np.array(scale)
        stack = moments(FockStateVector(cols.T, basis), specs)
        for got in (stack,
                    moments(FockStateVector(np.ascontiguousarray(cols.T), basis), specs),
                    np.stack([moments(FockStateVector(c, basis), specs) for c in cols.T], -1),
                    moments(FockStateVector(cols[:, 0].copy(), basis), specs)[:, None]):
            assert got.shape == (len(specs), got.shape[1])
            w, a = want[:, :got.shape[1]], atol[:, :got.shape[1]]
            assert np.all(np.abs(got - w) <= 1e-12 * np.abs(w) + a)
        for spec, row in zip(specs, stack):
            if max(spec.p, spec.q) > cut[0] or max(spec.r, spec.s) > cut[1] \
                    or max(spec.u, spec.v) > cut[2]:
                assert np.all(row == 0)

