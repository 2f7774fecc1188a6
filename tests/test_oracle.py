import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fwm.oracle as oracle_mod
from fwm import residuals
from fwm.fockspace import (FockBasis, FockStateVector, MomentSpec, coherent_state,
                           cutoffs_for, moments)
from fwm.model import CoherentInput, ConfigError, ModelParams, coefficients
from fwm.oracle import (TIME_CHUNK, build_hamiltonian, certification_summary,
                        charge_sectors, compare, evolve_grid, run,
                        sector_blocks, witness_grid)
from fwm.sweep import (certification_witnesses, default_compare_config,
                       presets, run_compare)
from fwm.witnesses import Criterion, WitnessId, evaluate

SMALL_INPUT = CoherentInput(0.8, 0.6, 0.5)


def small_setup(g=0.4, delta=-3.0, cutoffs=(8, 6, 6)):
    params = ModelParams.from_detuning(delta, g)
    basis = FockBasis(cutoffs)
    psi0 = coherent_state(basis, SMALL_INPUT, tail_tol=1e-6)
    H = build_hamiltonian(params, basis)
    return params, basis, psi0, H


def norm_and_charges(psi):
    """‖ψ‖ and ⟨n_a + 2n_b⟩, ⟨n_b − n_c⟩ of one state, summed from |ψ|² on
    its occupation grid."""
    prob = np.abs(psi.tensor()) ** 2
    na, nb, nc = np.indices(prob.shape)
    return (math.sqrt(prob.sum()), float(np.sum(prob * (na + 2 * nb))),
            float(np.sum(prob * (nb - nc))))


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

    def test_sectors_cached_read_only(self):
        _, basis, _, _ = small_setup()
        groups = charge_sectors(basis)
        assert charge_sectors(FockBasis(basis.cutoffs)) is groups
        with pytest.raises(ValueError):
            groups[0][0, 0] = 0

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


    def test_hamiltonian_blocks_real_symmetric(self, monkeypatch):
        """H's sector blocks are real symmetric, while the M†M blocks that
        the residual norm gathers from a complex defect M stay complex
        Hermitian."""
        _, _, _, H = small_setup()
        for _, blocks in sector_blocks(H.shifts, H.basis):
            assert blocks.dtype == np.float64
            assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
        seen = []

        def recording(op, basis):
            out = sector_blocks(op, basis)
            seen.extend(blocks for _, blocks in out)
            return out

        monkeypatch.setattr(residuals, "sector_blocks", recording)
        residuals.eom_residual(ModelParams.from_detuning(-3.0, 0.4), 0.7, (7, 6, 6))
        assert seen and all(b.dtype == np.complex128 for b in seen)
        assert max(np.abs(b.imag).max() for b in seen) > 0.0
        for blocks in seen:     # Hermitian up to the roundoff of the shift products
            defect = np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max()
            assert defect <= 1e-13 * max(np.abs(blocks).max(), 1e-300)


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
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_charge_conservation(self):
        _, _, psi0, H = small_setup()
        _, *q0 = norm_and_charges(psi0)
        out = evolve_grid(H, psi0, [3.0])[0]
        _, *q1 = norm_and_charges(out)
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

    @staticmethod
    def _assert_matches_expm(H, psi0, times, bound):
        states = evolve_grid(H, psi0, times)
        assert len(states) == len(times)
        for t, psi in zip(times, states):
            ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(psi.amplitudes - ref)) < bound, t

    def test_matches_expm_on_clipped_grid(self):
        """Exact propagation against scipy's expm_multiply on the clipped
        (8, 6, 6) basis, over a multi-time grid."""
        _, _, psi0, H = small_setup()
        assert H.clipped_transitions == 91
        self._assert_matches_expm(H, psi0, [0.0, 0.4, 1.2, 2.5, 4.0], 1e-12)

    def test_matches_expm_on_clipped_grid_all_sectors(self):
        """The same check for a random state filling every charge sector of
        the clipped (6, 4, 5) basis under distinct mode frequencies."""
        basis = FockBasis((6, 4, 5))
        H = build_hamiltonian(ModelParams(1.3, 0.2, -0.7, 0.35), basis)
        assert H.clipped_transitions == 50
        re, im = np.random.default_rng(5).standard_normal((2, basis.dimension))
        psi0 = FockStateVector(amplitudes=(re + 1j * im) / np.linalg.norm(re + 1j * im),
                               basis=basis)
        self._assert_matches_expm(H, psi0, [0.3], 1e-9)

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
        """A shuffled 37-point grid (t = 0 and a repeated time included)
        gives the sorted grid's state at every time, although its steps,
        and so its step factors, differ."""
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

    def test_complex_input_matches_expm(self):
        """The real-symmetric sector solve with a complex ψ0 (pump phase
        φ = 1.0) against scipy's expm_multiply, on the clipped (8, 6, 6)
        basis under distinct mode frequencies, over several chunks."""
        basis = FockBasis((8, 6, 6))
        H = build_hamiltonian(ModelParams(1.3, 0.2, -0.7, 0.35), basis)
        assert H.clipped_transitions > 0
        psi0 = coherent_state(basis, CoherentInput.from_pump_phase(0.8, 1.0, 0.6, 0.5),
                              tail_tol=1e-6)
        assert np.abs(psi0.amplitudes.imag).max() > 0.1
        self._assert_matches_expm(H, psi0, np.linspace(0.0, 4.0, 2 * TIME_CHUNK + 3), 1e-12)

    def test_states_view_chunk_arrays(self):
        """The states are the columns of the grid's (dim, chunk) arrays, in
        grid order, with a partial last chunk.  The arrays are contiguous
        and back to back in one allocation."""
        _, basis, psi0, H = small_setup()
        states = evolve_grid(H, psi0, np.linspace(0.0, 3.0, 37))
        assert [a.shape for a in states.chunks] == [(basis.dimension, TIME_CHUNK)] * 2 \
            + [(basis.dimension, 5)]
        assert all(a.flags.c_contiguous for a in states.chunks)
        ends = [a.ctypes.data + a.nbytes for a in states.chunks[:-1]]
        assert ends == [a.ctypes.data for a in states.chunks[1:]]
        for k, psi in enumerate(states):
            chunk = states.chunks[k // TIME_CHUNK]
            assert np.shares_memory(psi.amplitudes, chunk)
            assert np.array_equal(psi.amplitudes, chunk[:, k % TIME_CHUNK])

    def test_linspace_grid_matches_single_times(self):
        """On a 400-point grid (25 chunks of running step products) every
        state is the state a one-time grid gives, and sampled states match
        scipy's expm_multiply."""
        _, _, psi0, H = small_setup()
        times = np.linspace(0.0, 40.0, 400)
        assert math.ceil(len(times) / TIME_CHUNK) == 25
        states = evolve_grid(H, psi0, times)
        for t, psi in zip(times, states):
            alone = evolve_grid(H, psi0, [t])[0]
            assert np.max(np.abs(psi.amplitudes - alone.amplitudes)) < 1e-12, t
        for k in (1, TIME_CHUNK - 1, TIME_CHUNK, 207, 399):
            ref = spla.expm_multiply((-1j * times[k]) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(states[k].amplitudes - ref)) < 1e-12, times[k]

    def test_unsorted_grid_with_distinct_steps_matches_expm(self):
        """40 random, unsorted times, so every step factor is distinct and
        some steps are negative."""
        _, _, psi0, H = small_setup()
        times = np.random.default_rng(7).uniform(0.0, 40.0, 40)
        assert np.unique(np.diff(times, prepend=0.0)).size == len(times)
        for t, psi in zip(times, evolve_grid(H, psi0, times)):
            ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(psi.amplitudes - ref)) < 1e-12, t

    def test_bad_grid_rejected(self):
        """The error names the first negative or non-finite time only."""
        _, _, psi0, H = small_setup()
        long_grid = [*np.linspace(0.0, 1.0, 400), -1.0, -2.0]
        for times, first in (([-0.1], r"times\[0\] = -0\.1$"),
                             ([0.2, -1e-300, 0.1], r"times\[1\] = -1e-300$"),
                             (long_grid, r"times\[400\] = -1\.0$"),
                             ([math.nan], r"times\[0\] = nan$"),
                             ([0.1, math.inf], r"times\[1\] = inf$")):
            with pytest.raises(ConfigError, match="finite and nonnegative: " + first):
                evolve_grid(H, psi0, times)


class TestOracleWitness:
    def test_zero_at_t0(self):
        params = ModelParams.from_detuning(-3.0, 0.4)
        basis = FockBasis(cutoffs_for(SMALL_INPUT))
        psi0 = coherent_state(basis, SMALL_INPUT)
        wids = [WitnessId.parse(s) for s in
                ["HZ1:ab", "HZ2:bc", "DUAN:ac", "TRI_HZ1:bca", "TRI_SYM"]]
        raw, _ = witness_grid(wids, [psi0], params, [0.0])
        assert np.all(np.abs(raw) < 1e-9)

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
        wids = [WitnessId.parse(s) for s in
                ["HZ1:ab", "HZ1:bc", "HZ2:ac", "HZ1:ab:2,1", "HZ2:bc:1,2",
                 "DUAN:ab", "TRI_HZ1:abc", "TRI_SYM"]]
        for wid, ov in zip(wids, witness_grid(wids, [psi], params, [t])[0][:, 0]):
            pv = evaluate(wid, coeffs, SMALL_INPUT)
            label = wid.label()
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
        grid, totals = witness_grid(wids, states, params, times)
        assert grid.shape == (31, 37) and totals.shape == (4, 37)
        for i, wid in enumerate(wids):
            want = [witness_grid([wid], [psi], params, [t])[0][0, 0]
                    for psi, t in zip(states, times)]
            assert np.allclose(grid[i], want, rtol=1e-12, atol=1e-12), wid.label()

    def test_chunk_arrays_match_plain_list(self):
        """Reading the chunk arrays of evolve_grid's grid and stacking a plain
        list of the same states give bit-identical values and totals, on a
        grid whose last chunk is partial."""
        params, _, psi0, H = small_setup()
        times = np.linspace(0.0, 3.0, 37)
        grid = evolve_grid(H, psi0, times)
        assert len(times) % TIME_CHUNK != 0 and len(grid.chunks) == 3
        wids = [WitnessId.parse(s) for s in certification_witnesses()]
        chunked = witness_grid(wids, grid, params, times)
        stacked = witness_grid(wids, list(grid), params, times)
        for a, b in zip(chunked, stacked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("labels, distinct", [
        (presets()["fig2"].witnesses, 16),
        (certification_witnesses(), 53),
    ])
    def test_grid_computes_each_moment_once_per_chunk(self, monkeypatch,
                                                      labels, distinct):
        """witness_grid makes one ``moments`` call per chunk of states, in any
        order, each carrying every distinct moment once, ⟨1⟩ and the three
        number moments included, and its values still equal per-state
        evaluation."""
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
        grid, _ = witness_grid(wids, states, params, times)
        # chunks may run concurrently, so only the multiset of sizes is fixed
        assert sorted(shape[0] for shape, _ in calls) == [5, TIME_CHUNK, TIME_CHUNK]
        for _, specs in calls:
            assert len(specs) == len(set(specs)) == distinct
            assert specs == calls[0][1]
        monkeypatch.undo()
        for i, wid in enumerate(wids):
            want = [witness_grid([wid], [psi], params, [t])[0][0, 0]
                    for psi, t in zip(states, times)]
            assert np.allclose(grid[i], want, rtol=1e-12, atol=1e-12), wid.label()


class TestRun:
    WIDS = [WitnessId.parse(s) for s in certification_witnesses()]
    TIMES = [0.0, 0.5, 1.0, *np.linspace(1.5, 4.0, 20)]

    @pytest.mark.parametrize("step", [0.0, 1e-4])
    def test_drifts_match_numpy_reference(self, monkeypatch, step):
        """run's norm and charge drifts equal a per-state numpy sum over |ψ|²
        of the states evolve_grid returns, taken from ψ0, to 1e-13.  With
        ``step`` > 0 the k-th state is scaled by 1 + step·(k + 1) on its way
        from evolve_grid (the module global that run calls), so the drifts
        read well above roundoff; the grid leaves out t = 0, so no state is
        ψ0 itself."""
        params = ModelParams.from_detuning(-3.0, 0.4)
        seen = []

        def scaled(H, psi0, times):
            states = [FockStateVector(s.amplitudes * (1 + step * (k + 1)), s.basis, s.index)
                      for k, s in enumerate(evolve_grid(H, psi0, times))]
            seen.append((psi0, states))
            return states

        monkeypatch.setattr(oracle_mod, "evolve_grid", scaled)
        _, diag = run(self.WIDS[:3], params, SMALL_INPUT, self.TIMES[1:])
        (psi0, states), = seen
        _, q1_0, q2_0 = norm_and_charges(psi0)
        ref = np.array([norm_and_charges(s) for s in states])
        want = {"norm_drift": np.max(np.abs(ref[:, 0] - 1.0)),
                "q1_drift": np.max(np.abs(ref[:, 1] - q1_0)),
                "q2_drift": np.max(np.abs(ref[:, 2] - q2_0))}
        assert diag["clipped_transitions"] > 0
        for key, value in want.items():
            assert abs(diag[key] - value) <= 1e-13, key
        if step:
            assert want["norm_drift"] > 1e-3

    def test_witness_grid_raw_run_clamped_at_t0(self):
        """witness_grid returns t = 0 values as computed; run returns the same
        values with those at t = 0 raised to 0."""
        params = ModelParams.from_detuning(-3.0, 0.4)
        values, diag = run(self.WIDS, params, SMALL_INPUT, self.TIMES)
        psi0, _ = oracle_mod.pruned_input(SMALL_INPUT)
        assert psi0.basis.cutoffs == diag["cutoffs"]
        states = evolve_grid(build_hamiltonian(params, psi0.basis), psi0, self.TIMES)
        raw, _ = witness_grid(self.WIDS, states, params, self.TIMES)
        assert raw[:, 0].min() < 0.0
        assert np.array_equal(values[:, 0], np.maximum(raw[:, 0], 0.0))
        assert np.array_equal(values[:, 1:], raw[:, 1:])

    def test_compare_reports_the_largest_drift_over_rungs(self, monkeypatch):
        """compare's diagnostics have exactly run's keys, each drift the
        largest of the rungs' and the rest as on every rung.  Each rung's
        drifts are replaced on their way from run (the module global that
        compare calls), so that each key peaks on a different rung."""
        drifts = {"norm_drift": (3.0, 1.0, 2.0), "q1_drift": (1.0, 3.0, 2.0),
                  "q2_drift": (1.0, 2.0, 3.0)}
        rungs = []

        def marked(*args):
            values, diag = run(*args)
            diag.update({k: v[len(rungs)] for k, v in drifts.items()})
            rungs.append(diag)
            return values, diag

        monkeypatch.setattr(oracle_mod, "run", marked)
        res = compare(self.WIDS[:4], ModelParams.from_detuning(-3.0, 0.3), SMALL_INPUT,
                      [0.5, 1.0])
        assert len(rungs) == 3
        assert res.diagnostics == {**rungs[0], "norm_drift": 3.0, "q1_drift": 3.0,
                                   "q2_drift": 3.0}
        assert set(res.diagnostics) == {"cutoffs", "dimension", "clipped_transitions",
                                        "propagated", "dropped_mass",
                                        "norm_drift", "q1_drift", "q2_drift"}


class TestSectorPruning:
    """`run` propagates only the charge sectors that hold the input: ψ0 is
    zeroed where its sectors' probability, summed from the smallest up,
    stays ≤ SECTOR_TAIL, and `evolve_grid` skips every sector where ψ0 is 0."""

    def test_vacuum_mode_sectors_are_skipped_exactly(self):
        """With γ = 0, ψ0 is 0 on every sector with n_b < n_c, so fewer than
        ``dimension`` amplitudes are stored; through ``tensor()`` each state
        still matches scipy's expm_multiply on the clipped (8, 6, 6) basis,
        and witness_grid reads the indexed states as their box expansion."""
        params, basis, _, H = small_setup()
        psi0 = coherent_state(basis, CoherentInput(0.8, 0.6, 0.0), tail_tol=1e-6)
        assert H.clipped_transitions == 91
        times = np.linspace(0.0, 4.0, 37)
        states = evolve_grid(H, psi0, times)
        index = states[0].index
        assert index is not None and index.size < basis.dimension
        assert np.array_equal(index, np.unique(index))
        assert np.all(psi0.amplitudes[np.setdiff1d(np.arange(basis.dimension), index)] == 0)
        for t, psi in zip(times, states):
            assert psi.amplitudes.shape == index.shape and psi.index is index
            ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
            assert np.max(np.abs(psi.tensor().ravel() - ref)) < 1e-12, t
        wids = TestRun.WIDS
        boxed = [FockStateVector(s.box(), s.basis) for s in states]
        assert all(b.index is None and b.amplitudes.size == basis.dimension for b in boxed)
        for got, want in zip(witness_grid(wids, states, params, times),
                             witness_grid(wids, boxed, params, times)):
            assert np.array_equal(got, want)

    def test_zero_input_refused(self):
        """A ψ0 that is 0 on every sector leaves nothing to propagate."""
        _, basis, _, H = small_setup()
        with pytest.raises(ConfigError, match="psi0 is 0"):
            evolve_grid(H, FockStateVector(np.zeros(basis.dimension), basis), [1.0])

    def test_pruned_input_drops_the_smallest_sectors(self):
        """The dropped sectors are the smallest by probability, their sum is
        the reported ``dropped_mass`` ≤ SECTOR_TAIL, one more sector would
        exceed it, and ``propagated`` counts the states of the others."""
        inp = CoherentInput(1.2, 0.9, 0.6)
        psi0, info = oracle_mod.pruned_input(inp)
        full = coherent_state(psi0.basis, inp)
        probs = [np.sum(np.abs(full.amplitudes[idx]) ** 2, axis=1)
                 for idx in charge_sectors(psi0.basis)]
        kept = [np.any(psi0.amplitudes[idx] != 0, axis=1) for idx in charge_sectors(psi0.basis)]
        dropped = np.concatenate([p[~k] for p, k in zip(probs, kept)])
        live = np.concatenate([p[k] for p, k in zip(probs, kept)])
        assert info["dropped_mass"] == pytest.approx(dropped.sum(), rel=1e-12)
        assert 0.0 < info["dropped_mass"] <= oracle_mod.SECTOR_TAIL
        assert info["dropped_mass"] + live.min() > oracle_mod.SECTOR_TAIL
        assert dropped.max() <= live.min()
        assert info["propagated"] == sum(idx[k].size for idx, k
                                         in zip(charge_sectors(psi0.basis), kept))
        assert (info["propagated"], psi0.basis.dimension) == (2728, 4368)
        for idx, k in zip(charge_sectors(psi0.basis), kept):
            assert np.array_equal(psi0.amplitudes[idx[k]], full.amplitudes[idx[k]])

    def test_compare_moves_within_its_budget(self, monkeypatch):
        """Over compare's three shipped phases, against SECTOR_TAIL = 0 (no
        sector dropped): exponent_min within 1e-8, max_rel_err within 1e-9
        relative and no pass flag changed; every rung drops the same
        ``dropped_mass`` ≤ SECTOR_TAIL."""
        rungs = []

        def recording(*args):
            values, diag = run(*args)
            rungs.append(diag)
            return values, diag

        monkeypatch.setattr(oracle_mod, "run", recording)
        config = default_compare_config()
        pruned = run_compare(config)
        assert len(rungs) == 3 * len(config.input.phi)
        for phase in range(len(config.input.phi)):
            masses = {d["dropped_mass"] for d in rungs[3 * phase:3 * phase + 3]}
            assert len(masses) == 1 and 0.0 < masses.pop() <= oracle_mod.SECTOR_TAIL
        assert all(d["propagated"] < d["dimension"] for d in rungs)
        monkeypatch.setattr(oracle_mod, "SECTOR_TAIL", 0.0)
        whole = run_compare(config)
        assert all(per["diagnostics"]["dropped_mass"] == 0.0
                   and per["diagnostics"]["propagated"] == per["diagnostics"]["dimension"]
                   for per in whole["per_phi"].values())
        assert pruned["witnesses"].keys() == whole["witnesses"].keys()
        for label, got in pruned["witnesses"].items():
            want = whole["witnesses"][label]
            assert got["passed"] == want["passed"], label
            assert abs(got["exponent_min"] - want["exponent_min"]) <= 1e-8, label
            assert got["max_rel_err"] == pytest.approx(want["max_rel_err"], rel=1e-9), label

    RUN_ONCE = """
import os, sys
import numpy as np
os.sched_getaffinity = lambda pid: {0}
import fwm.oracle as oracle
from fwm.model import CoherentInput, ModelParams
from fwm.sweep import presets
from fwm.witnesses import WitnessId
oracle.SECTOR_TAIL = float(sys.argv[1])
oracle.run([WitnessId.parse(s) for s in presets()["fig2"].witnesses],
           ModelParams.from_detuning(-100.0, 1.0), CoherentInput(1.2, 0.9, 0.6),
           np.linspace(0.0, 0.1, 400))
print(next(line.split()[1] for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""

    def test_run_peak_memory_falls_at_oracle_grid_scale(self):
        """One run at the oracle_grid benchmark's settings (fig2 witnesses,
        400 times, dimension 4 368) in a fresh process on one CPU: its peak
        RSS (VmHWM, which unlike ru_maxrss starts afresh at exec) is at
        least 8 MB below that of the unpruned box (SECTOR_TAIL = 0), as the
        stored grid holds 2 728 of the 4 368 amplitudes per time (17.5
        against 28.0 MB).  tracemalloc cannot weigh this, as the grid is an
        anonymous mapping it does not see."""
        peak_kb = {}
        for tail in ("0", repr(oracle_mod.SECTOR_TAIL)):
            out = subprocess.run([sys.executable, "-c", self.RUN_ONCE, tail],
                                 capture_output=True, text=True, timeout=300,
                                 env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
            assert out.returncode == 0, out.stderr
            peak_kb[tail] = int(out.stdout)
        whole, pruned = peak_kb.values()
        assert whole - pruned >= 8e3, peak_kb


class TestChunkThreads:
    """The oracle spreads its time chunks over min(chunks, CPUs) threads;
    every output is bitwise the same at any thread count, and no thread
    outlives the call."""

    def on(self, monkeypatch, cpus, fn, *args):
        """fn(*args) with this process seeing ``cpus`` CPUs, and the threads
        other than this one that read moments: the pool threads of workers
        1, 2, …, fewer when one finishes before the next is submitted and
        takes it over."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        readers = set()

        def recording(psi, specs):
            readers.add(threading.get_ident())
            return moments(psi, specs)

        monkeypatch.setattr(oracle_mod, "moments", recording)
        before = threading.active_count()
        out = fn(*args)
        assert threading.active_count() == before
        monkeypatch.undo()
        return out, readers - {threading.get_ident()}

    @pytest.mark.parametrize("wids, params, inp, times", [
        (TestRun.WIDS, ModelParams.from_detuning(-3.0, 0.4), SMALL_INPUT,
         np.linspace(0.0, 3.0, 37)),
        ([WitnessId.parse(s) for s in presets()["fig2"].witnesses],
         ModelParams.from_detuning(-100.0, 1.0), CoherentInput(1.2, 0.9, 0.6),
         np.linspace(0.0, 0.1, 400)),
    ], ids=["cert-37", "fig2-400"])
    def test_run_is_bitwise_equal_on_one_and_two_cpus(self, monkeypatch, wids,
                                                      params, inp, times):
        """37 times are chunks of 16 + 16 + 5, 400 times 25 chunks; on two
        CPUs the calling thread and one pool thread read them, on one the
        calling thread alone."""
        (one, diag_one), serial = self.on(monkeypatch, 1, run, wids, params, inp, times)
        (two, diag_two), threaded = self.on(monkeypatch, 2, run, wids, params, inp, times)
        assert not serial and len(threaded) == 1
        assert one.tobytes() == two.tobytes()
        assert repr(diag_one) == repr(diag_two)

    def test_run_is_bitwise_equal_on_more_threads_than_cores(self, monkeypatch):
        """Eight workers over 25 chunks, switching threads every microsecond."""
        args = ([WitnessId.parse(s) for s in presets()["fig2"].witnesses],
                ModelParams.from_detuning(-100.0, 1.0), CoherentInput(1.2, 0.9, 0.6),
                np.linspace(0.0, 0.1, 400))
        (one, diag_one), _ = self.on(monkeypatch, 1, run, *args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (many, diag_many), threaded = self.on(monkeypatch, 8, run, *args)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(threaded) <= 7
        assert one.tobytes() == many.tobytes()
        assert repr(diag_one) == repr(diag_many)

    def test_compare_is_bitwise_equal_on_one_and_two_cpus(self, monkeypatch):
        """compare on a 40-time grid (three chunks per rung)."""
        args = (TestRun.WIDS, ModelParams.from_detuning(-3.0, 0.4), SMALL_INPUT,
                np.linspace(0.1, 4.0, 40))
        one, _ = self.on(monkeypatch, 1, compare, *args)
        two, threaded = self.on(monkeypatch, 2, compare, *args)
        assert threaded
        for field in ("oracle", "perturbative", "exponent", "rel_err"):
            assert getattr(one, field).tobytes() == getattr(two, field).tobytes(), field
        assert repr(one.diagnostics) == repr(two.diagnostics)

    def test_evolve_grid_holds_one_scratch_chunk_per_worker(self, monkeypatch):
        """At oracle_grid scale (dimension 4 368, 400 times) the peak above
        the returned dim × T grid is one (dim, ``TIME_CHUNK``) scratch per
        worker plus the step factors: one more worker adds at most 1.5
        chunks, and one CPU stays within one chunk, the factors and one
        chunk of slack for the small per-sector and per-state arrays.  The
        grid is an anonymous mapping, which tracemalloc does not see, so
        its whole traced peak lies above the grid."""
        inp = CoherentInput(1.2, 0.9, 0.6)
        basis = FockBasis(cutoffs_for(inp))
        psi0 = coherent_state(basis, inp)
        H = build_hamiltonian(ModelParams.from_detuning(-100.0, 1.0), basis)
        times = np.linspace(0.0, 0.1, 400)
        evolve_grid(H, psi0, times)       # fills the per-basis caches
        dim = basis.dimension
        chunk = dim * TIME_CHUNK * 16
        factors = np.unique(np.diff(times, prepend=0.0)).size * dim * 16
        transient = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            tracemalloc.start()
            try:
                states = evolve_grid(H, psi0, times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            transient[cpus] = peak
            assert sum(c.nbytes for c in states.chunks) == dim * times.size * 16
            del states
        assert dim == 4368
        assert transient[2] - transient[1] <= 1.5 * chunk, transient
        assert transient[1] <= chunk + factors + chunk, transient


class TestResonantCertification:
    def test_floor_follows_f2(self):
        """At Δω₁ = 0 the floor is the amplitude polynomial times the
        smallest rung's |f2(t)|² = (2gt)², per grid time."""
        times = [0.25, 0.5]
        res = compare(TestRun.WIDS, ModelParams.from_detuning(0.0, 0.3), SMALL_INPUT, times)
        smallest = ModelParams.from_detuning(0.0, 0.3 / 4)
        g = smallest.g
        aa, bb, cc = (abs(z) ** 2 for z in (SMALL_INPUT.alpha, SMALL_INPUT.beta,
                                            SMALL_INPUT.gamma))
        poly = (1 + aa) * (1 + bb) * (1 + cc) * (1 + aa + bb + cc)
        floor = oracle_mod._error_floor(smallest, SMALL_INPUT, coefficients(smallest, times))
        assert floor == pytest.approx(poly * (2 * g * np.array(times)) ** 2, rel=1e-12)
        errs = np.abs(res.oracle[-1] - res.perturbative[-1])
        assert np.array_equal(res.rel_err, errs / np.maximum(np.abs(res.oracle[-1]), floor))
        assert np.isfinite(res.rel_err).all()

    def test_floor_is_constant_once_the_grid_reaches_pi(self):
        """Off resonance the floor is the amplitude polynomial times
        4(2g/Δω₁)² at the smallest rung once |Δω₁|·t reaches π on the grid,
        and the per-time |f2(t)|² below that."""
        smallest = ModelParams.from_detuning(-3.0, 0.3 / 4)
        aa, bb, cc = (abs(z) ** 2 for z in (SMALL_INPUT.alpha, SMALL_INPUT.beta,
                                            SMALL_INPUT.gamma))
        poly = (1 + aa) * (1 + bb) * (1 + cc) * (1 + aa + bb + cc)
        short, reach = [0.5, 1.0], [0.5, 1.1]
        floor = oracle_mod._error_floor(smallest, SMALL_INPUT, coefficients(smallest, short))
        assert np.array_equal(floor, poly * np.abs(coefficients(smallest, short).f2) ** 2)
        floor = oracle_mod._error_floor(smallest, SMALL_INPUT, coefficients(smallest, reach))
        assert floor == pytest.approx(4.0 * (2.0 * smallest.g / 3.0) ** 2 * poly, rel=1e-15)

    @staticmethod
    def _report_at(delta):
        """`fwm compare --params.delta_omega1 <delta> --input.phi 0`."""
        cfg = default_compare_config()
        return run_compare(dataclasses.replace(
            cfg, params=dataclasses.replace(cfg.params, delta_omega1=delta),
            input=dataclasses.replace(cfg.input, phi=(0.0,))))

    def test_near_resonance_certifies_like_resonance(self):
        """At Δω₁ = −1e-6, |Δω₁|·t stays far below π over the grid, so the
        floor follows |f2(t)|² as at Δω₁ = 0 and the same witnesses fail,
        with the same worst error.  (The constant 4(2g/Δω₁)², about 1e11
        there, passed all 31.)"""
        near, at = (self._report_at(d)["witnesses"] for d in (-1e-6, 0.0))
        assert [k for k in near if not near[k]["passed"]] \
            == [k for k in at if not at[k]["passed"]]
        worst = max(at, key=lambda k: at[k]["max_rel_err"])
        assert near[worst]["max_rel_err"] == pytest.approx(at[worst]["max_rel_err"],
                                                           rel=1e-4)

    def test_certification_report_at_resonance(self):
        """`fwm compare --params.delta_omega1 0 --input.phi '[0.0]'`: with
        the floor at (2gt)² scale, 11 of 31 witnesses exceed 1e-3, the worst
        HZ2:ab:3,1 at 1.07e-2 (a floor without t passed all 31).  The report
        is strict JSON and carries the oracle diagnostics."""
        report = self._report_at(0.0)
        json.dumps(report, allow_nan=False)
        merged = report["witnesses"]
        failed = sorted(k for k, s in merged.items() if not s["passed"])
        assert len(failed) == 11, failed
        worst = max(merged, key=lambda k: merged[k]["max_rel_err"])
        assert worst == "HZ2:ab:3,1"
        assert merged[worst]["max_rel_err"] == pytest.approx(1.07e-2, rel=0.01)
        (per,) = report["per_phi"].values()
        assert set(per["diagnostics"]) == {"cutoffs", "dimension", "clipped_transitions",
                                           "propagated", "dropped_mass",
                                           "norm_drift", "q1_drift", "q2_drift"}
        assert max(per["diagnostics"][k] for k in ("norm_drift", "q1_drift",
                                                   "q2_drift")) <= 1e-9


class TestCompare:
    def test_certification_exponents(self):
        wids = [WitnessId.parse(s) for s in
                ["HZ1:ab", "HZ1:bc", "HZ2:ac", "HZ1:ac:2,1", "DUAN:bc", "TRI_SYM"]]
        res = compare(wids, ModelParams.from_detuning(-3.0, 0.3), SMALL_INPUT, [0.5, 1.0])
        summary = certification_summary(res, wids)
        for label, s in summary.items():
            assert s["exponent"] is None or s["exponent"] >= 2.5, (label, s)
        assert res.diagnostics["norm_drift"] < 1e-9
        assert res.diagnostics["q1_drift"] < 1e-8

    def test_zero_coupling_ladder_rejected(self):
        """A ladder with a rung at g = 0 certifies nothing: it is refused
        before any propagation, whether every rung is at g = 0 or only the
        smallest, g/4, underflows to 0."""
        wids = [WitnessId.parse("HZ1:ab")]
        for g in (0.0, 5e-324):
            with pytest.raises(ConfigError, match="g > 0"):
                compare(wids, ModelParams.from_detuning(-3.0, g), SMALL_INPUT, [0.5])

    @pytest.mark.parametrize("delta", [-3.0, 0.0])
    def test_nonpositive_time_rejected(self, delta):
        """Both sides are 0 at t = 0 up to roundoff, so compare certifies
        t > 0 only: a grid holding t = 0 is refused before any propagation."""
        with pytest.raises(ConfigError, match="t > 0"):
            compare([WitnessId.parse("HZ1:ab")], ModelParams.from_detuning(delta, 0.3),
                    SMALL_INPUT, [0.0, 0.5])

    def test_arrays_match_per_point_fit(self):
        """The one-call ladder fit equals np.polyfit point by point, bit for
        bit; the exponent is NaN exactly where some rung's error is at the
        roundoff gate, and rel_err is the smallest-rung error over
        max(|oracle|, floor).  At g0 = 3e-4 part of the grid is gated."""
        wids = [WitnessId.parse(s) for s in certification_witnesses()]
        ladder = [ModelParams.from_detuning(-3.0, 3e-4 / 2 ** k) for k in range(3)]
        times = [0.5, 1.0]
        res = compare(wids, ladder[0], SMALL_INPUT, times)
        assert res.oracle.shape == res.perturbative.shape == (3, len(wids), 2)
        assert res.exponent.shape == res.rel_err.shape == (len(wids), 2)
        for r, p in enumerate(ladder):
            coeffs = coefficients(p, times)
            for i, wid in enumerate(wids):
                assert np.array_equal(res.perturbative[r, i],
                                      evaluate(wid, coeffs, SMALL_INPUT))
        log_g = np.log([p.g for p in ladder])
        floor = np.broadcast_to(oracle_mod._error_floor(
            ladder[-1], SMALL_INPUT, coefficients(ladder[-1], times)), len(times))
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
                rel = abs(o_small - p_small) / max(abs(o_small), floor[k])
                assert res.rel_err[i, k] == rel, (wids[i].label(), k)
        assert 0 < gated < res.exponent.size

    def test_too_few_rungs_rejected(self, monkeypatch):
        """compare fits over LADDER_RUNGS = 3 rungs: at g = 1e-323 only g and
        g/2 stay positive (g/4 underflows to 0), and the ladder is refused
        before any propagation."""
        def no_run(*args):
            raise AssertionError("propagated")
        monkeypatch.setattr(oracle_mod, "run", no_run)
        assert oracle_mod.LADDER_RUNGS == 3
        g = 1e-323
        assert g * 0.5 > 0.0 == g * 0.25
        with pytest.raises(ConfigError, match="g > 0"):
            compare([WitnessId.parse("HZ1:ab")], ModelParams.from_detuning(-3.0, g),
                    SMALL_INPUT, [0.5])

    def test_ladder_shares_detuning(self, monkeypatch):
        """Every rung compare propagates is the top rung with only g
        halved: g, g/2, g/4 at one detuning and one set of mode
        frequencies."""
        rungs = []

        def recorded(wids, params, *args):
            rungs.append(params)
            return run(wids, params, *args)
        monkeypatch.setattr(oracle_mod, "run", recorded)
        top = ModelParams(1.1, 0.4, -0.7, 0.3)
        compare([WitnessId.parse("HZ1:ab")], top, SMALL_INPUT, [0.5])
        assert rungs == [top, dataclasses.replace(top, g=top.g / 2),
                         dataclasses.replace(top, g=top.g / 4)]
        assert {p.delta_omega1 for p in rungs} == {top.delta_omega1}

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
        res = compare(wids, ModelParams.from_detuning(-3.0, 0.02), SMALL_INPUT, [0.8, 1.2])
        exps = res.exponent[~np.isnan(res.exponent)]
        assert exps.size and exps.max() < 1.5
