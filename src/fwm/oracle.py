"""Exact propagation on the truncated Fock space and the certification harness.

The Hamiltonian H = ω_a a†a + ω_b b†b + ω_c c†c + g(a²b†c† + a†²bc) is built
sparse.  It conserves Q1 = n_a + 2n_b and Q2 = n_b − n_c, also on the
truncated basis, so it splits into one block per charge sector (Q1, Q2).
Inside a sector the state is fixed by n_b and H only links n_b to n_b ± 1,
so each block is tridiagonal and small.  Blocks are diagonalized exactly
(equal sizes in one batched ``eigh``) and ψ(t) = V e^{-iEt} V†ψ0 is formed
at every grid time, with no time stepping.  Witnesses are assembled from raw
moments of the propagated states, stacked ``TIME_CHUNK`` at a time
(`witness_grid`); `compare` certifies every closed form against the oracle
over a coupling-halving ladder.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import witnesses
from .fockspace import (CutoffError, FockBasis, FockStateVector, MomentSpec,
                        coherent_state, conserved_charges, cutoffs_for, moment)
from .model import CoherentInput, ConfigError, ModelParams, coefficients
from .witnesses import Criterion, WitnessId

TIME_CHUNK = 16   # grid times propagated and witnessed together; bounds the temporaries


@dataclass
class Hamiltonian:
    matrix: sp.csr_matrix
    params: ModelParams
    basis: FockBasis
    clipped_transitions: int


def build_hamiltonian(params: ModelParams, basis: FockBasis) -> Hamiltonian:
    """Sparse Hermitian H on the truncated basis.

    Interaction transitions that would leave the basis are projected out
    (counted in ``clipped_transitions``); the result still commutes exactly
    with the conserved charges n_a + 2n_b and n_b − n_c.
    """
    occ = basis.occupations()
    na, nb, nc = occ[:, 0], occ[:, 1], occ[:, 2]
    diag = params.omega_a * na + params.omega_b * nb + params.omega_c * nc

    ca, cb, cc = basis.cutoffs
    src = (na >= 2) & (nb < cb) & (nc < cc)
    clipped = int(np.count_nonzero((na >= 2) & ((nb >= cb) | (nc >= cc))))
    cols = np.nonzero(src)[0]
    sb, sc = cb + 1, cc + 1
    rows = ((na[cols] - 2) * sb + (nb[cols] + 1)) * sc + (nc[cols] + 1)
    vals = params.g * np.sqrt(na[cols] * (na[cols] - 1.0)
                              * (nb[cols] + 1.0) * (nc[cols] + 1.0))
    dim = basis.dimension
    H = sp.coo_matrix((diag.astype(np.complex128), (np.arange(dim), np.arange(dim))),
                      shape=(dim, dim))
    if cols.size:
        up = sp.coo_matrix((vals.astype(np.complex128), (rows, cols)), shape=(dim, dim))
        H = H + up + up.T
    return Hamiltonian(matrix=H.tocsr(), params=params, basis=basis,
                       clipped_transitions=clipped)


def charge_sectors(basis: FockBasis) -> list[np.ndarray]:
    """Basis indices grouped by charge sector (n_a + 2n_b, n_b − n_c).

    Each sector is ordered by n_b.  Sectors of equal size are stacked into
    one (sectors, size) array; the list runs over sizes in ascending order.
    """
    occ = basis.occupations()
    na, nb, nc = occ[:, 0], occ[:, 1], occ[:, 2]
    q1, q2 = na + 2 * nb, nb - nc
    order = np.lexsort((nb, q2, q1))
    new = np.ones(order.size, dtype=bool)
    new[1:] = (np.diff(q1[order]) != 0) | (np.diff(q2[order]) != 0)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, order.size))
    return [order[starts[sizes == s, None] + np.arange(s)]
            for s in np.unique(sizes)]


def sector_blocks(H: Hamiltonian) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, blocks) per sector size: the dense tridiagonal blocks of H,
    read off ``H.matrix`` at the indices of ``charge_sectors``."""
    diag = H.matrix.diagonal()
    out = []
    for idx in charge_sectors(H.basis):
        k, s = idx.shape
        r = np.arange(s)
        blocks = np.zeros((k, s, s), dtype=H.matrix.dtype)
        blocks[:, r, r] = diag[idx]
        if s > 1:
            lower = np.asarray(H.matrix[idx[:, 1:].ravel(), idx[:, :-1].ravel()])
            lower = lower.reshape(k, s - 1)
            blocks[:, r[1:], r[:-1]] = lower
            blocks[:, r[:-1], r[1:]] = lower.conj()
        out.append((idx, blocks))
    return out


def evolve_grid(H: Hamiltonian, psi0: FockStateVector, times
                ) -> list[FockStateVector]:
    """ψ(t) = e^{-iHt}ψ0 at each time of a nondecreasing, nonnegative grid.

    Exact up to roundoff: every charge-sector block is diagonalized once and
    the grid is propagated in chunks of ``TIME_CHUNK`` times.  ψ(0) is a copy
    of ψ0.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError(f"time grid must be nonnegative and nondecreasing: {times!r}")

    psi = psi0.amplitudes.astype(np.complex128)
    modes = []
    for idx, blocks in sector_blocks(H):
        energies, vectors = np.linalg.eigh(blocks)
        coeffs = np.einsum("kji,kj->ki", vectors.conj(), psi[idx])
        modes.append((idx, energies, vectors, coeffs))

    out: list[FockStateVector] = []
    for lo in range(0, len(times), TIME_CHUNK):
        chunk = np.array(times[lo:lo + TIME_CHUNK])
        amps = np.empty((chunk.size, psi.size), dtype=np.complex128)
        for idx, energies, vectors, coeffs in modes:
            phased = np.exp(-1j * chunk[:, None, None] * energies) * coeffs
            amps[:, idx] = np.einsum("kij,tkj->tki", vectors, phased)
        # witnesses vanish at t = 0 up to roundoff; returning ψ0 unchanged
        # keeps the sign of those values independent of the eigendecomposition
        amps[chunk == 0.0] = psi
        out.extend(FockStateVector(amplitudes=a, basis=psi0.basis,
                                   tail_mass=psi0.tail_mass) for a in amps)
    return out


def evolve(H: Hamiltonian, psi0: FockStateVector, t: float) -> FockStateVector:
    """ψ(t) for a single time (see evolve_grid)."""
    return evolve_grid(H, psi0, [t])[0]


_TRI_CROSS = {
    ("a", "b", "c"): MomentSpec(0, 1, 0, 1, 1, 0),   # ⟨a b c†⟩
    ("b", "c", "a"): MomentSpec(1, 0, 0, 1, 0, 1),   # ⟨b c a†⟩
    ("a", "c", "b"): MomentSpec(0, 1, 1, 0, 0, 1),   # ⟨a c b†⟩
}

_MODE_OMEGA = {"a": "omega_a", "b": "omega_b", "c": "omega_c"}


def _pair_specs(pair, m, n):
    """(quad or (ni, nj), cross) MomentSpecs for a mode pair."""
    def spec(**orders):
        e = {"a": [0, 0], "b": [0, 0], "c": [0, 0]}
        for mode, (p, q) in orders.items():
            e[mode] = [p, q]
        return MomentSpec(e["a"][0], e["a"][1], e["b"][0], e["b"][1],
                          e["c"][0], e["c"][1])
    i, j = pair
    quad = spec(**{i: (m, m), j: (n, n)})
    cross_hz1 = spec(**{i: (0, m), j: (n, 0)})
    cross_hz2 = spec(**{i: (0, m), j: (0, n)})
    ni = spec(**{i: (m, m)})
    nj = spec(**{j: (n, n)})
    return quad, cross_hz1, cross_hz2, ni, nj


def oracle_witness(wid: WitnessId, psi: FockStateVector, params: ModelParams, t):
    """Witness value assembled from raw moments of ψ(t); one value per
    stacked state when ``psi`` holds a stack and ``t`` its times.

    HZ and trimodal criteria involve only moduli and number operators, so no
    frame correction is applied; the Duan quadratures use co-rotated
    operators (each mode rotated by e^{+iωt})."""
    m, n = wid.m, wid.n
    if wid.criterion in (Criterion.HZ1, Criterion.HZ2):
        quad, x1, x2, ni, nj = _pair_specs(wid.modes, m, n)
        if wid.criterion is Criterion.HZ1:
            val = moment(psi, quad).real - np.abs(moment(psi, x1)) ** 2
        else:
            val = (moment(psi, ni).real * moment(psi, nj).real
                   - np.abs(moment(psi, x2)) ** 2)
    elif wid.criterion is Criterion.DUAN:
        i, j = wid.modes
        _, x1, _, ni, nj = _pair_specs(wid.modes, 1, 1)
        wi = getattr(params, _MODE_OMEGA[i])
        wj = getattr(params, _MODE_OMEGA[j])
        rot_i = np.exp(1j * wi * t)
        rot_j = np.exp(1j * wj * t)
        mono = {"a": MomentSpec(0, 1, 0, 0, 0, 0), "b": MomentSpec(0, 0, 0, 1, 0, 0),
                "c": MomentSpec(0, 0, 0, 0, 0, 1)}
        mi = moment(psi, mono[i]) * rot_i
        mj = moment(psi, mono[j]) * rot_j
        cij = moment(psi, x1) * rot_i * np.conj(rot_j)
        val = (2 * (moment(psi, ni).real - np.abs(mi) ** 2)
               + 2 * (moment(psi, nj).real - np.abs(mj) ** 2)
               + 4 * (cij - mi * np.conj(mj)).real)
    elif wid.criterion is Criterion.TRI_HZ1:
        nnn = moment(psi, MomentSpec(1, 1, 1, 1, 1, 1)).real
        val = nnn - np.abs(moment(psi, _TRI_CROSS[wid.modes])) ** 2
    else:
        na = moment(psi, MomentSpec(1, 1, 0, 0, 0, 0)).real
        nb = moment(psi, MomentSpec(0, 0, 1, 1, 0, 0)).real
        nc = moment(psi, MomentSpec(0, 0, 0, 0, 1, 1)).real
        val = na * nb * nc - np.abs(moment(psi, MomentSpec(0, 1, 0, 1, 0, 1))) ** 2
    return val


def witness_grid(wids, states, params: ModelParams, times) -> np.ndarray:
    """(witness, time) oracle values of propagated ``states``, every witness
    evaluated once per stack of ``TIME_CHUNK`` states."""
    out = np.empty((len(wids), len(states)))
    for lo in range(0, len(states), TIME_CHUNK):
        chunk = states[lo:lo + TIME_CHUNK]
        stack = FockStateVector(np.stack([s.amplitudes for s in chunk]), chunk[0].basis)
        t = np.asarray(times[lo:lo + TIME_CHUNK], dtype=float)
        for i, wid in enumerate(wids):
            out[i, lo:lo + len(chunk)] = oracle_witness(wid, stack, params, t)
    return out


@dataclass
class ComparisonReport:
    """Per (witness, grid-time) certification record across a g ladder."""

    witness: WitnessId
    t: float
    gt_top: float
    oracle: float          # smallest rung
    perturbative: float    # smallest rung
    abs_err: float
    rel_err: float
    exponent: float | None
    note: str = ""
    rung_errors: tuple = ()


@dataclass
class CompareResult:
    reports: list[ComparisonReport]
    diagnostics: dict = field(default_factory=dict)


def _error_floor(g: float, delta: float, inp: CoherentInput) -> float:
    """|f2|²-scale floor for relative agreement checks: 4(2g/Δω₁)² times a
    fixed amplitude-polynomial bound."""
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    poly = (1 + aa) * (1 + bb) * (1 + cc) * (1 + aa + bb + cc)
    if delta == 0.0:
        return poly * (2 * g) ** 2
    return 4.0 * (2.0 * g / delta) ** 2 * poly


def compare(wids, params_ladder, inp: CoherentInput, times,
            cutoffs: tuple[int, int, int] | None = None,
            perturbative_fn=None) -> CompareResult:
    """Certify closed forms against the oracle over a g-halving ladder.

    ``params_ladder`` must share the detuning and descend in g (≥ 3 rungs).
    The fitted exponent is the least-squares slope of ln|err| vs ln g; it is
    reported only where every rung's error is above 100× unit roundoff.
    """
    ladder = list(params_ladder)
    if len(ladder) < 3:
        raise ConfigError("ladder needs >= 3 rungs")
    deltas = {round(p.delta_omega1, 12) for p in ladder}
    if len(deltas) != 1:
        raise ConfigError("ladder rungs must share the detuning")
    if perturbative_fn is None:
        perturbative_fn = witnesses.evaluate
    times = tuple(float(t) for t in times)

    if all(p.g == 0.0 for p in ladder):
        reports = [ComparisonReport(witness=w, t=t, gt_top=0.0, oracle=0.0,
                                    perturbative=0.0, abs_err=0.0, rel_err=0.0,
                                    exponent=None, note="degenerate, skipped")
                   for w in wids for t in times]
        return CompareResult(reports=reports, diagnostics={"degenerate": True})

    if cutoffs is None:
        cutoffs = cutoffs_for(inp)
    basis = FockBasis(cutoffs)
    psi0 = coherent_state(basis, inp)
    q1_0, q2_0 = conserved_charges(psi0)

    diag = {"cutoffs": cutoffs, "dimension": basis.dimension,
            "norm_drift": 0.0, "q1_drift": 0.0, "q2_drift": 0.0,
            "clipped_transitions": 0}
    oracle_vals, pert_vals = [], []
    for p in ladder:
        H = build_hamiltonian(p, basis)
        diag["clipped_transitions"] = max(diag["clipped_transitions"],
                                          H.clipped_transitions)
        states = evolve_grid(H, psi0, times)
        for s in states:
            diag["norm_drift"] = max(diag["norm_drift"], abs(s.norm() - 1.0))
            q1, q2 = conserved_charges(s)
            diag["q1_drift"] = max(diag["q1_drift"], abs(q1 - q1_0))
            diag["q2_drift"] = max(diag["q2_drift"], abs(q2 - q2_0))
        oracle_vals.append(witness_grid(wids, states, p, times))
        coeffs = coefficients(p, times)
        pert_vals.append([perturbative_fn(w, coeffs, inp).value for w in wids])
    oracle_vals = np.array(oracle_vals)      # (rung, witness, time)
    pert_vals = np.array(pert_vals)

    gs = np.array([p.g for p in ladder])
    log_g = np.log(gs)
    eps_gate = 100.0 * np.finfo(float).eps
    delta = ladder[0].delta_omega1
    g_top = ladder[0].g
    reports = []
    for i, wid in enumerate(wids):
        for k, t in enumerate(times):
            o_vals, p_vals = oracle_vals[:, i, k], pert_vals[:, i, k]
            errs = np.abs(o_vals - p_vals)
            gate = errs > eps_gate * np.maximum(1.0, np.abs(o_vals))
            if np.all(gate):
                slope = float(np.polyfit(log_g, np.log(errs), 1)[0])
                note = ""
            else:
                slope = None
                note = "below roundoff gate"
            o_small, p_small = float(o_vals[-1]), float(p_vals[-1])
            abs_err = abs(o_small - p_small)
            floor = _error_floor(ladder[-1].g, delta, inp)
            rel_err = abs_err / max(abs(o_small), floor)
            reports.append(ComparisonReport(
                witness=wid, t=t, gt_top=g_top * t, oracle=o_small,
                perturbative=p_small, abs_err=abs_err, rel_err=rel_err,
                exponent=slope, note=note, rung_errors=tuple(errs)))
    return CompareResult(reports=reports, diagnostics=diag)


def certification_summary(result: CompareResult) -> dict[str, dict]:
    """Aggregate reports per witness: median exponent over admissible grid
    points, worst relative error at the smallest rung, and a pass flag
    (exponent ≥ 2.5 and relative agreement ≤ 1e-3)."""
    by_wid: dict[str, list[ComparisonReport]] = {}
    for r in result.reports:
        by_wid.setdefault(r.witness.label(), []).append(r)
    out = {}
    for label, reps in by_wid.items():
        exps = [r.exponent for r in reps if r.exponent is not None]
        max_rel = max((r.rel_err for r in reps), default=0.0)
        if any(r.note == "degenerate, skipped" for r in reps):
            out[label] = {"exponent": None, "max_rel_err": 0.0,
                          "passed": True, "note": "degenerate, skipped"}
            continue
        med = float(np.median(exps)) if exps else None
        passed = (med is not None and med >= 2.5 and max_rel <= 1e-3)
        out[label] = {"exponent": med, "max_rel_err": max_rel,
                      "passed": passed, "note": ""}
    return out
