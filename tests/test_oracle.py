import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fwm.oracle as oracle_mod
from fwm.fockspace import (FockBasis, MomentSpec, coherent_state,
                           conserved_charges, cutoffs_for, moments)
from fwm.model import CoherentInput, ConfigError, ModelParams, coefficients
from fwm.oracle import (TIME_CHUNK, build_hamiltonian, certification_summary,
                        charge_sectors, compare, evolve_grid,
                        oracle_witness, sector_blocks, witness_grid)
from fwm.sweep import certification_witnesses, presets
from fwm.witnesses import Criterion, WitnessId, evaluate

SMALL_INPUT = CoherentInput(0.8, 0.6, 0.5)


def small_setup(g=0.4, delta=-3.0, cutoffs=(8, 6, 6)):
    params = ModelParams.from_detuning(delta, g)
    basis = FockBasis(cutoffs)
    psi0 = coherent_state(basis, SMALL_INPUT, tail_tol=1e-6)
    H = build_hamiltonian(params, basis)
    return params, basis, psi0, H


class TestHamiltonian:
    def test_diagonal_at_g0(self):
        params = ModelParams(1.5, 0.7, 0.3, 0.0)
        basis = FockBasis((3, 3, 3))
        H = build_hamiltonian(params, basis).matrix.toarray()
        assert np.count_nonzero(H - np.diag(np.diag(H))) == 0
        occ = basis.occupations()
        expect = 1.5 * occ[:, 0] + 0.7 * occ[:, 1] + 0.3 * occ[:, 2]
        assert np.allclose(np.diag(H).real, expect)

    def test_interaction_matrix_element(self):
        params = ModelParams(0.0, 0.0, 0.0, 0.7)
        basis = FockBasis((6, 5, 5))
        H = build_hamiltonian(params, basis).matrix
        na, nb, nc = 4, 1, 2
        i = np.ravel_multi_index((na - 2, nb + 1, nc + 1), basis.shape)
        j = np.ravel_multi_index((na, nb, nc), basis.shape)
        want = 0.7 * math.sqrt(na * (na - 1) * (nb + 1) * (nc + 1))
        assert H[i, j] == pytest.approx(want, rel=1e-15)
        assert H[j, i] == pytest.approx(want, rel=1e-15)

    def test_hermiticity_exact(self):
        _, _, _, H = small_setup()
        diff = (H.matrix - H.matrix.conj().T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    def test_commutes_with_charges(self):
        params, basis, _, H = small_setup()
        occ = basis.occupations()
        for w in (occ[:, 0] + 2 * occ[:, 1], occ[:, 1] - occ[:, 2]):
            Q = np.diag(w.astype(float))
            comm = H.matrix.toarray() @ Q - Q @ H.matrix.toarray()
            assert np.max(np.abs(comm)) == 0.0

    def test_matches_elementwise_reference(self):
        """H from the shared ladders against an element-wise construction:
        each unclipped source |n_a, n_b, n_c⟩ with n_a ≥ 2 couples to
        |n_a−2, n_b+1, n_c+1⟩ with g√(n_a(n_a−1)(n_b+1)(n_c+1)).  Distinct
        frequencies and a clipped basis; every element agrees to 1e-15
        relative, and the clipped count is that of the reference."""
        params = ModelParams(1.3, 0.2, -0.7, 0.35)
        basis = FockBasis((8, 5, 4))
        occ = basis.occupations()
        na, nb, nc = occ[:, 0], occ[:, 1], occ[:, 2]
        _, cb, cc = basis.cutoffs
        src = (na >= 2) & (nb < cb) & (nc < cc)
        cols = np.nonzero(src)[0]
        rows = ((na[cols] - 2) * (cb + 1) + (nb[cols] + 1)) * (cc + 1) + (nc[cols] + 1)
        vals = params.g * np.sqrt(na[cols] * (na[cols] - 1.0)
                                  * (nb[cols] + 1.0) * (nc[cols] + 1.0))
        want = np.diag(1.3 * na + 0.2 * nb - 0.7 * nc).astype(complex)
        want[rows, cols] = vals
        want[cols, rows] = vals
        H = build_hamiltonian(params, basis)
        got = H.matrix.toarray()
        assert np.array_equal(got != 0, want != 0)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-15
        clipped = np.count_nonzero((na >= 2) & ((nb >= cb) | (nc >= cc)))
        assert clipped > 0 and H.clipped_transitions == clipped

    def test_clipped_transitions_counted(self):
        params, basis, _, H = small_setup()
        occ = basis.occupations()
        ca, cb, cc = basis.cutoffs
        want = np.count_nonzero((occ[:, 0] >= 2)
                                & ((occ[:, 1] >= cb) | (occ[:, 2] >= cc)))
        assert H.clipped_transitions == want


class TestSectors:
    def test_sectors_partition_basis(self):
        _, basis, _, _ = small_setup()
        groups = charge_sectors(basis)
        flat = np.concatenate([idx.ravel() for idx in groups])
        assert np.array_equal(np.sort(flat), np.arange(basis.dimension))
        occ = basis.occupations()
        for idx in groups:
            sector = occ[idx]                       # (sectors, size, 3)
            q1 = sector[..., 0] + 2 * sector[..., 1]
            q2 = sector[..., 1] - sector[..., 2]
            assert np.all(q1 == q1[:, :1]) and np.all(q2 == q2[:, :1])
            assert np.all(np.diff(sector[..., 1], axis=1) == 1)
        assert [idx.shape[1] for idx in groups] == sorted({idx.shape[1] for idx in groups})

    def test_blocks_reassemble_hamiltonian(self):
        _, _, _, H = small_setup()
        assert H.clipped_transitions > 0
        rows, cols, vals = [], [], []
        for idx, blocks in sector_blocks(H.shifts, H.basis):
            rows.append(np.broadcast_to(idx[:, :, None], blocks.shape).ravel())
            cols.append(np.broadcast_to(idx[:, None, :], blocks.shape).ravel())
            vals.append(blocks.ravel())
        rebuilt = sp.csr_matrix((np.concatenate(vals),
                                 (np.concatenate(rows), np.concatenate(cols))),
                                shape=H.matrix.shape)
        assert abs(rebuilt - H.matrix).max() == 0.0


class TestEvolve:
    def test_t0_identity(self):
        _, _, psi0, H = small_setup()
        out = evolve_grid(H, psi0, [0.0])[0]
        assert np.array_equal(out.amplitudes, psi0.amplitudes)

    def test_free_evolution_exact_phases(self):
        params = ModelParams(1.1, 0.4, 0.9, 0.0)
        basis = FockBasis((5, 4, 4))
        psi0 = coherent_state(basis, CoherentInput(0.7, 0.5, 0.4), tail_tol=1e-4)
        H = build_hamiltonian(params, basis)
        t = 0.8
        out = evolve_grid(H, psi0, [t])[0]
        occ = basis.occupations()
        phases = np.exp(-1j * t * (1.1 * occ[:, 0] + 0.4 * occ[:, 1] + 0.9 * occ[:, 2]))
        assert np.max(np.abs(out.amplitudes - phases * psi0.amplitudes)) < 1e-10

    def test_norm_preserved(self):
        _, _, psi0, H = small_setup()
        out = evolve_grid(H, psi0, [2.0])[0]
        assert abs(out.norm() - 1.0) < 1e-9

    def test_charge_conservation(self):
        _, _, psi0, H = small_setup()
        q0 = conserved_charges(psi0)
        out = evolve_grid(H, psi0, [3.0])[0]
        q1 = conserved_charges(out)
        assert q1[0] == pytest.approx(q0[0], abs=1e-8)
        assert q1[1] == pytest.approx(q0[1], abs=1e-8)

    def test_rk4_matches_expm(self):
        """Single-time agreement of evolve_grid with scipy's expm_multiply. The
        name dates from the step integrator this test first checked; the
        propagator it now checks is exact."""
        _, _, psi0, H = small_setup()
        a = evolve_grid(H, psi0, [1.2])[0]
        b = spla.expm_multiply((-1.2j) * H.matrix, psi0.amplitudes)
        assert np.max(np.abs(a.amplitudes - b)) < 1e-8

    def test_matches_expm_on_clipped_grid(self):
        """Exact propagation against scipy's expm_multiply on the clipped
        (8, 6, 6) basis, over a multi-time grid."""
        _, _, psi0, H = small_setup()
        assert H.clipped_transitions == 91
        times = [0.0, 0.4, 1.2, 2.5, 4.0]
        states = evolve_grid(H, psi0, times)
        assert len(states) == len(times)
        for t, psi in zip(times, states):
            ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(psi.amplitudes - ref)) < 1e-12, t

    def test_matches_expm_across_chunks(self):
        """Propagation over several chunks, with t = 0 and a repeated time,
        against scipy's expm_multiply; ψ(0) is ψ0 bit for bit."""
        _, _, psi0, H = small_setup()
        grid = np.linspace(0.0, 4.0, 36)
        # the repeated time sits on both sides of the first chunk boundary
        times = np.sort(np.append(grid, grid[TIME_CHUNK - 1]))
        assert len(times) == 37 and len(times) > 2 * TIME_CHUNK
        assert times[TIME_CHUNK - 1] == times[TIME_CHUNK]
        states = evolve_grid(H, psi0, times)
        assert len(states) == len(times)
        assert np.array_equal(states[0].amplitudes, psi0.amplitudes)
        for t, psi in zip(times, states):
            ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(psi.amplitudes - ref)) < 1e-12, t

    def test_shuffled_grid_matches_sorted(self):
        """Each time is propagated on its own, so a shuffled 37-point grid
        (t = 0 and a repeated time included) gives the sorted grid's state
        at every time."""
        _, _, psi0, H = small_setup()
        grid = np.linspace(0.0, 4.0, 36)
        times = np.sort(np.append(grid, grid[TIME_CHUNK - 1]))
        order = np.random.default_rng(3).permutation(len(times))
        assert not np.array_equal(order, np.sort(order))
        ref = evolve_grid(H, psi0, times)
        states = evolve_grid(H, psi0, times[order])
        assert len(states) == 37
        for k, psi in zip(order, states):
            assert np.max(np.abs(psi.amplitudes - ref[k].amplitudes)) < 1e-14, times[k]

    def test_bad_grid_rejected(self):
        _, _, psi0, H = small_setup()
        for times in ([-0.1], [0.2, -1e-300, 0.1]):
            with pytest.raises(ConfigError, match="nonnegative"):
                evolve_grid(H, psi0, times)


class TestOracleWitness:
    def test_zero_at_t0(self):
        params = ModelParams.from_detuning(-3.0, 0.4)
        basis = FockBasis(cutoffs_for(SMALL_INPUT))
        psi0 = coherent_state(basis, SMALL_INPUT)
        for label in ["HZ1:ab", "HZ2:bc", "DUAN:ac", "TRI_HZ1:bca", "TRI_SYM"]:
            wid = WitnessId.parse(label)
            wv = oracle_witness(wid, psi0, params, 0.0)
            assert abs(wv) < 1e-9

    def test_matches_closed_form_at_small_g(self):
        g = 0.005
        params = ModelParams.from_detuning(-3.0, g)
        basis = FockBasis(cutoffs_for(SMALL_INPUT))
        psi0 = coherent_state(basis, SMALL_INPUT)
        H = build_hamiltonian(params, basis)
        t = 1.0
        psi = evolve_grid(H, psi0, [t])[0]
        coeffs = coefficients(params, t)
        f2s = abs(coeffs.f2) ** 2
        for label in ["HZ1:ab", "HZ1:bc", "HZ2:ac", "HZ1:ab:2,1", "HZ2:bc:1,2",
                      "DUAN:ab", "TRI_HZ1:abc", "TRI_SYM"]:
            wid = WitnessId.parse(label)
            ov = oracle_witness(wid, psi, params, t)
            pv = evaluate(wid, coeffs, SMALL_INPUT)
            # a wrong closed-form term would miss by O(|f2|²·poly), 30-100x this
            scale = max(abs(ov), abs(pv), f2s)
            assert abs(ov - pv) < 5e-3 * scale, label


    def test_grid_matches_per_state(self):
        """Chunked (witness, time) values equal per-state evaluation for
        every certified witness, on a grid whose length is not a multiple
        of the chunk size."""
        params, _, psi0, H = small_setup()
        times = np.linspace(0.0, 3.0, 37)
        assert len(times) % TIME_CHUNK != 0
        states = evolve_grid(H, psi0, times)
        wids = [WitnessId.parse(s) for s in certification_witnesses()]
        assert len(wids) == 31
        grid = witness_grid(wids, states, params, times)
        assert grid.shape == (31, 37)
        for i, wid in enumerate(wids):
            want = [oracle_witness(wid, psi, params, t) for psi, t in zip(states, times)]
            assert np.allclose(grid[i], want, rtol=1e-12, atol=1e-12), wid.label()

    @pytest.mark.parametrize("labels, distinct", [
        (presets()["fig2"].witnesses, 15),
        (certification_witnesses(), 52),
    ])
    def test_grid_computes_each_moment_once_per_chunk(self, monkeypatch,
                                                      labels, distinct):
        """witness_grid makes one ``moments`` call per chunk of states, each
        carrying every distinct moment once, and its values still equal
        per-state evaluation."""
        params, _, psi0, H = small_setup()
        times = np.linspace(0.0, 3.0, 37)
        chunks = -(-len(times) // TIME_CHUNK)
        assert chunks == 3
        states = evolve_grid(H, psi0, times)
        wids = [WitnessId.parse(s) for s in labels]
        calls = []

        def recording(psi, specs):
            calls.append((psi.amplitudes.shape, tuple(specs)))
            return moments(psi, specs)

        monkeypatch.setattr(oracle_mod, "moments", recording)
        grid = witness_grid(wids, states, params, times)
        assert [shape[0] for shape, _ in calls] == [TIME_CHUNK, TIME_CHUNK, 5]
        for _, specs in calls:
            assert len(specs) == len(set(specs)) == distinct
            assert specs == calls[0][1]
        monkeypatch.undo()
        for i, wid in enumerate(wids):
            want = [oracle_witness(wid, psi, params, t) for psi, t in zip(states, times)]
            assert np.allclose(grid[i], want, rtol=1e-12, atol=1e-12), wid.label()


class TestCompare:
    def _ladder(self, g0=0.3, delta=-3.0, rungs=3):
        return [ModelParams.from_detuning(delta, g0 / 2 ** k) for k in range(rungs)]

    def test_certification_exponents(self):
        wids = [WitnessId.parse(s) for s in
                ["HZ1:ab", "HZ1:bc", "HZ2:ac", "HZ1:ac:2,1", "DUAN:bc", "TRI_SYM"]]
        res = compare(wids, self._ladder(), SMALL_INPUT, [0.5, 1.0])
        summary = certification_summary(res, wids)
        for label, s in summary.items():
            assert s["exponent"] is None or s["exponent"] >= 2.5, (label, s)
        assert res.diagnostics["norm_drift"] < 1e-9
        assert res.diagnostics["q1_drift"] < 1e-8

    def test_zero_coupling_ladder_rejected(self):
        """A ladder with a rung at g = 0 certifies nothing: it is refused
        before any propagation, whether every rung or one is at g = 0."""
        wids = [WitnessId.parse("HZ1:ab")]
        for gs in ((0.0, 0.0, 0.0), (0.4, 0.2, 0.0)):
            ladder = [ModelParams.from_detuning(-3.0, g) for g in gs]
            with pytest.raises(ConfigError, match="g > 0"):
                compare(wids, ladder, SMALL_INPUT, [0.5])

    def test_arrays_match_per_point_fit(self):
        """The one-call ladder fit equals np.polyfit point by point, bit for
        bit; the exponent is NaN exactly where some rung's error is at the
        roundoff gate, and rel_err is the smallest-rung error over
        max(|oracle|, floor).  At g0 = 3e-4 part of the grid is gated."""
        wids = [WitnessId.parse(s) for s in certification_witnesses()]
        ladder = self._ladder(g0=3e-4)
        times = [0.5, 1.0]
        res = compare(wids, ladder, SMALL_INPUT, times)
        assert res.oracle.shape == res.perturbative.shape == (3, len(wids), 2)
        assert res.exponent.shape == res.rel_err.shape == (len(wids), 2)
        for r, p in enumerate(ladder):
            coeffs = coefficients(p, times)
            for i, wid in enumerate(wids):
                assert np.array_equal(res.perturbative[r, i],
                                      evaluate(wid, coeffs, SMALL_INPUT))
        log_g = np.log([p.g for p in ladder])
        floor = oracle_mod._error_floor(ladder[-1].g, ladder[0].delta_omega1,
                                        SMALL_INPUT)
        eps_gate = 100.0 * np.finfo(float).eps
        gated = 0
        for i in range(len(wids)):
            for k in range(len(times)):
                o_vals, p_vals = res.oracle[:, i, k], res.perturbative[:, i, k]
                errs = np.abs(o_vals - p_vals)
                if np.all(errs > eps_gate * np.maximum(1.0, np.abs(o_vals))):
                    slope = np.polyfit(log_g, np.log(errs), 1)[0]
                    assert res.exponent[i, k] == slope, (wids[i].label(), k)
                else:
                    assert np.isnan(res.exponent[i, k]), (wids[i].label(), k)
                    gated += 1
                o_small, p_small = float(o_vals[-1]), float(p_vals[-1])
                rel = abs(o_small - p_small) / max(abs(o_small), floor)
                assert res.rel_err[i, k] == rel, (wids[i].label(), k)
        assert 0 < gated < res.exponent.size

    def test_too_few_rungs_rejected(self):
        with pytest.raises(ConfigError):
            compare([WitnessId.parse("HZ1:ab")], self._ladder(rungs=2),
                    SMALL_INPUT, [0.5])

    def test_mismatched_detuning_rejected(self):
        ladder = [ModelParams.from_detuning(-3.0, 0.3),
                  ModelParams.from_detuning(-2.0, 0.15),
                  ModelParams.from_detuning(-3.0, 0.075)]
        with pytest.raises(ConfigError):
            compare([WitnessId.parse("HZ1:ab")], ladder, SMALL_INPUT, [0.5])

    def test_mutation_drops_exponent(self, monkeypatch):
        """Corrupting the bc cross-term coefficient by 1% must push the
        fitted exponent below 1.5 (the witness has O(g) content)."""
        def corrupted(wid, coeffs, inp):
            value = evaluate(wid, coeffs, inp)
            if wid.criterion is Criterion.HZ1 and wid.modes == ("b", "c"):
                cross = 2 * (coeffs.h1 * coeffs.h2.conjugate()
                             * inp.alpha.conjugate() ** 2 * inp.beta * inp.gamma).real
                return value + 0.01 * cross
            return value
        wids = [WitnessId.parse("HZ1:bc")]
        monkeypatch.setattr("fwm.witnesses.evaluate", corrupted)   # the imported `evaluate` keeps the original
        res = compare(wids, self._ladder(g0=0.02), SMALL_INPUT, [0.8, 1.2])
        exps = res.exponent[~np.isnan(res.exponent)]
        assert exps.size and exps.max() < 1.5
