"""Exact propagation on the truncated Fock space and the certification harness.

The Hamiltonian H = ω_a a†a + ω_b b†b + ω_c c†c + g(a²b†c† + a†²bc) is built
from the truncated ladders as three real weighted shifts (`fockspace.ShiftOperator`).
It conserves Q1 = n_a + 2n_b and Q2 = n_b − n_c, also on the truncated
basis, so it splits into one block per charge sector (Q1, Q2).
Inside a sector the state is fixed by n_b and H only links n_b to n_b ± 1,
so each block is real symmetric, tridiagonal and small.  Blocks are diagonalized
exactly (equal sizes in one batched ``eigh``, real eigenvectors V) and
ψ(t) = V e^{-iEt} V†ψ0 is formed at every grid time, ``TIME_CHUNK`` times per
real batched matmul over the (re, im) pairs of the phases V†ψ0·e^{-iEt}.  Those
are running products of cached step factors that restart at every
chunk, so the grid may list any finite nonnegative times in any order.

Each sector keeps its probability for all t, and a sector where ψ0 is 0
stays 0, so `evolve_grid` diagonalizes, propagates and stores only the
sectors where ψ0 is not; `run`'s ψ0 (`pruned_input`) is zeroed on the
smallest sectors that together hold at most ``SECTOR_TAIL`` of the input.

`run` is the one oracle pass behind ``sweep --oracle`` (once per pump
phase) and `compare` (once per ladder rung).  It builds the basis, ψ0 and H,
propagates with `evolve_grid` and reads everything it reports with
`witness_grid`: one `fockspace.moments` call per chunk of the propagated
grid, expanded into the box (both spread their chunks over the CPUs this
process may use, on threads) reads every distinct moment the
witnesses need together with ⟨1⟩, ⟨N_a⟩, ⟨N_b⟩ and ⟨N_c⟩, from which the
norm and charge drifts come.  Every witness reads its raw moments from the
cached recipe the closed forms compile too (`witnesses._recipe`), and is
assembled once over the grid by the same formula (`witnesses._combine`): HZ and trimodal
values are a product of number moments minus one squared cross moment.  `compare` certifies every closed
form against the oracle over a coupling-halving ladder; it returns (rung,
witness, time) value arrays and fits the error exponents of all (witness,
time) points in one least-squares call.
"""
from __future__ import annotations

import functools
import math
import mmap
import os
from dataclasses import dataclass, replace

import numpy as np

from . import witnesses
from .fockspace import (FockBasis, FockStateVector, MomentSpec, ShiftOperator,
                        coherent_state, cutoffs_for, ladders, moments)
from .model import CoherentInput, ConfigError, ModelParams, coefficients
from .witnesses import Criterion, WitnessId, _combine, _recipe, _spec

TIME_CHUNK = 16   # grid times propagated and witnessed together; bounds the temporaries
                  # and each chain of phase step products
SECTOR_TAIL = 1e-18   # input probability `pruned_input` leaves out, over whole charge
                      # sectors; the basis cutoffs leave out fockspace.CUTOFF_TAIL per mode
PUMP = (2, -1, -1)   # occupation shift of a²b†c†, which moves n_b up by one
LADDER_RUNGS = 3     # compare's couplings g, g/2, g/4


@dataclass
class Hamiltonian:
    shifts: ShiftOperator
    basis: FockBasis
    clipped_transitions: int

    @functools.cached_property
    def matrix(self):
        """H as a scipy CSR matrix of its nonzero elements; needs
        scipy, which nothing else in fwm imports."""
        import scipy.sparse as sp
        rows, cols, vals = self.shifts.entries(self.basis.shape)
        keep = vals != 0
        dim = self.basis.dimension
        return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(dim, dim))


@np.errstate(over="ignore", invalid="ignore")     # overflow is checked below
def build_hamiltonian(params: ModelParams, basis: FockBasis) -> Hamiltonian:
    """Real symmetric H = diag(ω·n) + g(a²b†c† + h.c.) from the truncated
    ladders of ``fockspace.ladders``.

    The truncated b† and c† drop every interaction transition that would
    leave the basis, so H still commutes exactly with the conserved charges
    n_a + 2n_b and n_b − n_c.  ``clipped_transitions`` counts those sources:
    n_a ≥ 2 with n_b or n_c at its cutoff.  A weight that overflows raises
    ConfigError."""
    a, b, c = ladders(basis)
    pump = a @ a @ b.H @ c.H                          # a²b†c†
    na, nb, nc = np.indices(basis.shape)
    energy = params.omega_a * na + params.omega_b * nb + params.omega_c * nc
    H = ShiftOperator({(0, 0, 0): energy}) + params.g * (pump + pump.H)
    if not all(np.isfinite(w).all() for w in H.values()):
        raise ConfigError(f"Hamiltonian weights overflow at g = {params.g!r}")
    _, cb, cc = basis.cutoffs
    clipped = np.count_nonzero((na >= 2) & ((nb == cb) | (nc == cc)))
    return Hamiltonian(shifts=H, basis=basis, clipped_transitions=int(clipped))


@functools.lru_cache
def charge_sectors(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """Basis indices grouped by charge sector (n_a + 2n_b, n_b − n_c).

    Each sector is ordered by n_b.  Sectors of equal size are stacked into
    one (sectors, size) array; the tuple runs over sizes in ascending order.
    Cached per basis and shared by every caller, so the arrays are read-only.
    """
    occ = basis.occupations()
    na, nb, nc = occ[:, 0], occ[:, 1], occ[:, 2]
    q1, q2 = na + 2 * nb, nb - nc
    order = np.lexsort((nb, q2, q1))
    new = np.ones(order.size, dtype=bool)
    new[1:] = (np.diff(q1[order]) != 0) | (np.diff(q2[order]) != 0)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, order.size))
    out = tuple(order[starts[sizes == s, None] + np.arange(s)] for s in np.unique(sizes))
    for idx in out:
        idx.flags.writeable = False
    return out


def sector_blocks(op: ShiftOperator, basis: FockBasis) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, blocks) per sector size: the dense blocks of an operator
    that conserves both charges (H, or M†M of a charge-shifting M) at the
    indices of ``charge_sectors``.  Sector states are ordered by n_b, so
    element (i, j) of a block is the weight of shift (i − j)·PUMP at state
    i.  Blocks take the operator's dtype: those of H are real symmetric
    tridiagonal."""
    dtype = np.result_type(np.float64, *op.values())
    out = []
    for idx in charge_sectors(basis):
        k, s = idx.shape
        blocks = np.zeros((k, s, s), dtype=dtype)
        for m in range(1 - s, s):
            w = op.get(tuple(m * x for x in PUMP))
            if w is not None:
                i = np.arange(max(m, 0), s + min(m, 0))
                blocks[:, i, i - m] = w.ravel()[idx[:, i]]
        out.append((idx, blocks))
    return out


def _on_threads(tasks: int, work) -> None:
    """Call ``work(w, W)`` for every worker w < W = min(``tasks``, CPUs this
    process may use); ``work(w, W)`` does tasks w, w + W, w + 2W, ….

    With W = 1 the call runs inline.  Otherwise worker 0 runs in the calling
    thread and the others on a pool that is created here and joined before
    returning, so no thread outlives the call.  Every pool thread allocates
    from a malloc arena of its own, which keeps its peak; one thread fewer
    is one arena fewer.  numpy releases the GIL inside the large array
    operations of the work."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(tasks, cpus)
    if workers <= 1:
        work(0, 1)
        return
    from concurrent.futures import ThreadPoolExecutor   # here, not in every start-up
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        others = [pool.submit(work, w, workers) for w in range(1, workers)]
        work(0, workers)
        for done in others:
            done.result()


class StateGrid(list):
    """The per-time states of `evolve_grid`, in grid order, together with
    ``chunks``: the (n, chunk) amplitude arrays whose columns they view."""

    def __init__(self, states, chunks: list[np.ndarray]):
        super().__init__(states)
        self.chunks = chunks


def evolve_grid(H: Hamiltonian, psi0: FockStateVector, times) -> StateGrid:
    """ψ(t) = e^{-iHt}ψ0 at each time of a finite nonnegative grid, in any order.

    Exact up to roundoff: every charge-sector block of H where ψ0 is not 0
    is real symmetric and diagonalized once, and the grid is propagated in
    chunks of ``TIME_CHUNK`` times.  A sector where ψ0 is 0 stays 0, so it
    is skipped: no ``eigh``, no propagation and no storage.  The n
    propagated amplitudes are stored in flat order, and every state's
    ``index`` lists the flat box indices they occupy; it is None when no
    sector is skipped, and then n = dimension.  A ψ0 that is 0 everywhere
    raises ConfigError.  A chunk's phases c e^{-iEt}, with c = V†ψ0, are
    one direct exp at its first time times c, then a running product of
    step factors e^{-iE(t_k − t_{k−1})}; each distinct step is exponentiated
    once for the whole grid.  The product restarts at every chunk, so each
    phase carries at most ``TIME_CHUNK`` − 1 products' roundoff.  One real
    matmul per sector size applies V to the (re, im) pairs of the phases,
    and one ``np.take`` moves the chunk from sector order to flat order.
    The chunks are propagated on `_on_threads` workers, each into its own
    slice of one n × T anonymous mapping, which holds the chunk's phases until
    the ``np.take`` overwrites them; besides the step factors, each worker
    holds one n × ``TIME_CHUNK`` scratch for the products and the
    sector-order results.  Each state is a column view of its chunk's
    (n, chunk) array.  ψ(0) is a copy of ψ0 on the index.
    """
    times = np.array([float(t) for t in times])
    bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0)))
    if bad.size:
        k = bad[0]
        raise ConfigError(f"time grid must be finite and nonnegative: times[{k}] = {float(times[k])!r}")

    psi = psi0.box().astype(np.complex128)
    if not psi.any():
        raise ConfigError("psi0 is 0 on every charge sector: no state to propagate")
    vectors, energies, coeffs, kept = [], [], [], []
    for idx, blocks in sector_blocks(H.shifts, H.basis):
        live = np.any(psi[idx] != 0, axis=1)      # a sector where ψ0 is 0 stays 0
        if not live.any():
            continue
        idx, blocks = idx[live], blocks[live]
        e, v = np.linalg.eigh(blocks)
        vectors.append(v)
        energies.append(e.ravel())
        coeffs.append(np.einsum("kji,kj->ki", v, psi[idx]).ravel())
        kept.append(idx.ravel())
    energies, coeffs = np.concatenate(energies), np.concatenate(coeffs)   # sector order
    kept = np.concatenate(kept)
    to_flat = np.argsort(kept)    # the sector-order position of every propagated flat index
    index = kept[to_flat] if kept.size < H.basis.dimension else None
    if index is not None:
        psi = psi[index]
    steps, step_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    step_factors = np.multiply.outer(steps, -1j * energies)   # (step, dim)
    np.exp(step_factors, out=step_factors)    # in place: no second (step, dim) array

    dim = energies.size
    # every chunk's (n, time) amplitudes, back to back in one anonymous
    # mapping whose pages go back to the system with the states: on the heap
    # a block the caller allocates while they live can pin their space, and
    # the next call's grid then lands above it with both resident
    grid = np.frombuffer(mmap.mmap(-1, max(16 * dim * times.size, 1),
                                   flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
                         dtype=np.complex128, count=dim * times.size)
    chunks = [grid[dim * lo:dim * (lo + TIME_CHUNK)].reshape(dim, -1)
              for lo in range(0, times.size, TIME_CHUNK)]

    def propagate(worker: int, workers: int) -> None:
        # reused by this worker's chunks: first the (time, dim) products,
        # then the sector-order results, (dim, time); the chunk's own slice
        # of the grid holds the phases, (dim, time), in between
        scratch = np.empty(dim * min(TIME_CHUNK, times.size), dtype=np.complex128)
        for i in range(worker, len(chunks), workers):
            lo, amps = i * TIME_CHUNK, chunks[i]
            chunk = times[lo:lo + TIME_CHUNK]
            result = scratch[:dim * chunk.size].reshape(-1, chunk.size)
            products = result.reshape(chunk.size, -1)   # each product runs over one contiguous row
            np.multiply(coeffs, np.exp(-1j * chunk[0] * energies), out=products[0])
            for j in range(1, chunk.size):
                np.multiply(products[j - 1], step_factors[step_of[lo + j]], out=products[j])
            amps[...] = products.T
            at = 0
            for v in vectors:
                k, s, _ = v.shape
                rows = slice(at, at + k * s)
                np.matmul(v, amps[rows].reshape(k, s, -1).view(np.float64),
                          out=result[rows].reshape(k, s, -1).view(np.float64))
                at += k * s
            np.take(result, to_flat, axis=0, out=amps, mode="clip")   # "raise" would buffer out
            # witnesses vanish at t = 0 up to roundoff; returning ψ0 unchanged
            # keeps the sign of those values independent of the eigendecomposition
            amps[:, chunk == 0.0] = psi[:, None]

    _on_threads(len(chunks), propagate)
    states = [FockStateVector(amplitudes=a, basis=psi0.basis, index=index)
              for c in chunks for a in c.T]
    return StateGrid(states, chunks)


# ⟨1⟩ = ‖ψ‖², ⟨N_a⟩, ⟨N_b⟩, ⟨N_c⟩: the norm and charges `run` reports
_TOTALS = (_spec(), _spec(a=(1, 1)), _spec(b=(1, 1)), _spec(c=(1, 1)))


@functools.cache
def _distinct_specs(wids: tuple[WitnessId, ...]) -> tuple[MomentSpec, ...]:
    """Every moment the witnesses ``wids`` read, in first-use order, then
    the totals not already among them; each once."""
    specs = {}
    for wid in wids:
        products, cross = _recipe(wid)
        specs.update(dict.fromkeys((*products, cross)))
    specs.update(dict.fromkeys(_TOTALS))
    return tuple(specs)


def _assemble(wid: WitnessId, mom: dict, params: ModelParams, t):
    """Witness value from ``mom``, which maps a MomentSpec to its values.

    HZ and trimodal criteria involve only moduli and number operators, so no
    frame correction is applied; the Duan quadratures use co-rotated
    operators (each mode rotated by e^{+iωt})."""
    if wid.criterion is Criterion.DUAN:
        (_, _, si, sj), cross = _recipe(wid)
        i, j = wid.modes
        rot_i = np.exp(1j * getattr(params, f"omega_{i}") * t)
        rot_j = np.exp(1j * getattr(params, f"omega_{j}") * t)
        mom = {**mom, si: mom[si] * rot_i, sj: mom[sj] * rot_j,
               cross: mom[cross] * rot_i * np.conj(rot_j)}
    return _combine(wid, mom, lambda z: np.abs(z) ** 2)


def witness_grid(wids, states, params: ModelParams, times
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(witness, time) oracle values of propagated ``states``, and their
    (4, time) ⟨1⟩, ⟨N_a⟩, ⟨N_b⟩, ⟨N_c⟩.

    One ``moments`` call per (n, chunk) array, on `_on_threads` workers,
    reads every distinct moment the witnesses and the four totals need into
    that chunk's columns of one (moment, time) array, and each witness is
    then assembled once over the whole grid.  The arrays are the
    ``chunks`` of a `StateGrid`; any other sequence of states is stacked
    ``TIME_CHUNK`` at a time.  States with an ``index`` (all the same) are
    read through one zeroed (dimension, chunk) box per worker, into which
    each chunk writes only its n rows.  Values at t = 0 are returned as
    computed, roundoff included."""
    specs = _distinct_specs(tuple(wids))
    chunks = getattr(states, "chunks", None)
    if chunks is None:
        chunks = [np.stack([s.amplitudes for s in states[lo:lo + TIME_CHUNK]], axis=1)
                  for lo in range(0, len(states), TIME_CHUNK)]
    values = np.empty((len(specs), len(states)), dtype=np.complex128)

    def read(worker: int, workers: int) -> None:
        basis, index = states[0].basis, states[0].index
        # an indexed chunk is expanded into this worker's box; the rows off
        # the index are never written, so they stay 0
        box = None if index is None else np.zeros((basis.dimension, chunks[0].shape[1]),
                                                  dtype=np.complex128)
        for k in range(worker, len(chunks), workers):
            lo, amps = k * TIME_CHUNK, chunks[k]
            if box is not None:
                box[index, :amps.shape[1]] = amps
                amps = box[:, :amps.shape[1]]
            values[:, lo:lo + amps.shape[1]] = moments(FockStateVector(amps.T, basis), specs)

    _on_threads(len(chunks), read)
    mom = dict(zip(specs, values))
    t = np.asarray(times, dtype=float)
    out = np.empty((len(wids), len(states)))
    for i, wid in enumerate(wids):
        out[i] = _assemble(wid, mom, params, t)
    return out, np.array([mom[s].real for s in _TOTALS])


def pruned_input(inp: CoherentInput) -> tuple[FockStateVector, dict]:
    """`run`'s ψ0, and its diagnostics ``propagated`` and ``dropped_mass``.

    ψ0 is the coherent input ``inp`` on the basis of ``cutoffs_for(inp)``,
    zeroed on the charge sectors whose input probability, summed from the
    smallest sector up, stays ≤ ``SECTOR_TAIL``.  H keeps each sector's
    probability for all t, so that sum, ``dropped_mass``, is the one error
    this adds; `evolve_grid` then propagates only the other sectors, whose
    ``propagated`` states it stores.  ψ0 is not renormalized."""
    psi0 = coherent_state(FockBasis(cutoffs_for(inp)), inp)
    psi = psi0.amplitudes
    sectors = charge_sectors(psi0.basis)
    probs = np.concatenate([np.sum(np.abs(psi[idx]) ** 2, axis=1) for idx in sectors])
    order = np.argsort(probs, kind="stable")
    tail = np.cumsum(probs[order])
    dropped = np.searchsorted(tail, SECTOR_TAIL, side="right")
    drop = np.zeros(probs.size, dtype=bool)
    drop[order[:dropped]] = True
    at = propagated = 0
    for idx in sectors:
        gone = drop[at:at + len(idx)]
        psi[idx[gone]] = 0.0
        propagated += idx[~gone].size
        at += len(idx)
    return psi0, {"propagated": propagated,
                  "dropped_mass": float(tail[dropped - 1]) if dropped else 0.0}


def run(wids, params: ModelParams, inp: CoherentInput, times) -> tuple[np.ndarray, dict]:
    """(witness, time) oracle values of the coherent input ``inp`` under
    ``params``, and diagnostics of the run.

    The basis has the cutoffs ``cutoffs_for(inp)``, and ψ0 is
    `pruned_input`'s.  The diagnostics hold the cutoffs, the dimension, the
    clipped transitions, the number of propagated states and the dropped
    input probability, and the largest |‖ψ(t)‖ − 1| and drifts of the
    charges n_a + 2n_b and n_b − n_c from ψ0 over the grid.  Raises
    CutoffError when no cutoff below 10 000 holds the input.
    """
    psi0, pruning = pruned_input(inp)
    basis = psi0.basis
    H = build_hamiltonian(params, basis)
    values, totals = witness_grid(wids, evolve_grid(H, psi0, times), params, times)
    # ψ(0) is the separable product input, so no witness can certify
    # entanglement there: a negative value at t = 0 is roundoff
    t0 = np.asarray(times, dtype=float) == 0.0
    values[:, t0] = np.maximum(values[:, t0], 0.0)
    norm2, na, nb, nc = totals
    _, na0, nb0, nc0 = moments(psi0, _TOTALS).real
    diagnostics = {
        "cutoffs": basis.cutoffs, "dimension": basis.dimension,
        "clipped_transitions": H.clipped_transitions, **pruning,
        "norm_drift": float(np.max(np.abs(np.sqrt(norm2) - 1.0), initial=0.0)),
        "q1_drift": float(np.max(np.abs(na + 2 * nb - (na0 + 2 * nb0)), initial=0.0)),
        "q2_drift": float(np.max(np.abs(nb - nc - (nb0 - nc0)), initial=0.0)),
    }
    return values, diagnostics


@dataclass
class CompareResult:
    """Certification arrays over a g ladder.

    ``oracle`` and ``perturbative`` are (rung, witness, time); ``exponent``
    and ``rel_err`` are (witness, time), the latter at the smallest rung.
    ``exponent`` is NaN wherever some rung's error is at the roundoff gate.
    """

    oracle: np.ndarray
    perturbative: np.ndarray
    exponent: np.ndarray
    rel_err: np.ndarray
    diagnostics: dict


def _error_floor(params: ModelParams, inp: CoherentInput, coeffs):
    """|f2|²-scale floor for relative agreement checks: a fixed
    amplitude-polynomial bound times the largest |f2|² over t, 4(2g/Δω₁)².
    While |Δω₁|·t stays below π over the grid, |f2(t)|² is still rising
    (without bound at Δω₁ = 0), so the bound is taken per time from
    ``coeffs.f2`` and kept at or above unit roundoff, so that an underflowed
    |f2|² never divides 0 by 0.  Raises ConfigError when 4(2g/Δω₁)²
    overflows."""
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    poly = (1 + aa) * (1 + bb) * (1 + cc) * (1 + aa + bb + cc)
    delta = params.delta_omega1
    if abs(delta) * np.max(coeffs.t) < math.pi:
        return poly * np.maximum(np.abs(coeffs.f2) ** 2, np.finfo(float).eps)
    with np.errstate(over="ignore"):    # a numpy power gives inf where ** raises
        floor = 4.0 * np.float64(2.0 * params.g / delta) ** 2 * poly
    if not np.isfinite(floor):
        raise ConfigError(f"4(2g/delta_omega1)^2 overflows at delta_omega1 = {delta!r}")
    return floor


def compare(wids, params: ModelParams, inp: CoherentInput, times) -> CompareResult:
    """Certify closed forms against the oracle over the coupling ladder
    g, g/2, g/4 (``LADDER_RUNGS`` rungs) from the top rung ``params``.

    The smallest rung needs g > 0, and ``times`` must be positive, as both
    sides vanish at t = 0 up to roundoff.
    The exponent at each (witness, time) is the least-squares slope of
    ln|err| vs ln g, fitted for all points in one ``np.polyfit`` call; it is
    NaN unless every rung's error is above 100× unit roundoff.  The
    diagnostics are those of `run`, with each drift the largest over the
    rungs.
    """
    ladder = [replace(params, g=params.g * 0.5 ** k) for k in range(LADDER_RUNGS)]
    if ladder[-1].g <= 0.0:
        raise ConfigError("ladder rungs need coupling g > 0")
    times = tuple(float(t) for t in times)
    if not all(t > 0.0 for t in times):
        raise ConfigError(f"compare certifies times t > 0 only, got {times!r}")

    shape = (len(ladder), len(wids), len(times))
    oracle_vals, pert_vals = np.empty(shape), np.empty(shape)
    diag = {}
    for r, p in enumerate(ladder):
        oracle_vals[r], rung = run(wids, p, inp, times)
        diag = {k: max(v, diag.get(k, v)) if k.endswith("_drift") else v
                for k, v in rung.items()}
        coeffs = coefficients(p, times)
        for i, w in enumerate(wids):
            pert_vals[r, i] = witnesses.evaluate(w, coeffs, inp)

    errs = np.abs(oracle_vals - pert_vals)
    gated = np.all(errs > 100.0 * np.finfo(float).eps
                   * np.maximum(1.0, np.abs(oracle_vals)), axis=0)
    # gated-out points get a dummy log error of 0; their slope is discarded
    logs = np.log(np.where(gated, errs, 1.0))
    log_g = np.log([p.g for p in ladder])
    slope = np.polyfit(log_g, logs.reshape(len(ladder), -1), 1)[0]
    exponent = np.where(gated, slope.reshape(gated.shape), np.nan)
    floor = _error_floor(ladder[-1], inp, coeffs)
    rel_err = errs[-1] / np.maximum(np.abs(oracle_vals[-1]), floor)
    return CompareResult(oracle_vals, pert_vals, exponent, rel_err, diag)


def certification_summary(result: CompareResult, wids) -> dict[str, dict]:
    """Per witness of ``wids`` (the witnesses ``result`` was computed for):
    median exponent over the ungated grid points, worst relative error at
    the smallest rung, and a pass flag (exponent ≥ 2.5 and relative
    agreement ≤ 1e-3)."""
    out = {}
    for wid, exps, rel in zip(wids, result.exponent, result.rel_err):
        exps = exps[~np.isnan(exps)]
        med = float(np.median(exps)) if exps.size else None
        max_rel = float(rel.max(initial=0.0))
        passed = med is not None and med >= 2.5 and max_rel <= 1e-3
        out[wid.label()] = {"exponent": med, "max_rel_err": max_rel, "passed": passed}
    return out
