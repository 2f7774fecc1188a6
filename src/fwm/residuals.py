"""Self-consistency residuals of the perturbative operator solution.

Both checks materialize the Heisenberg operators as sparse matrices on a
truncated Fock space, built from the same ladders as the oracle's
Hamiltonian H, and measure an operator norm on the low-occupation block
(every mode at least 3 below its cutoff), which provably excludes all
truncation edge artifacts for these quadratic monomials:

  * equal-time commutator defect  ‖[x(t), x†(t)] − 1‖
  * equation-of-motion defect     ‖ẋ(t) − i[H, x(t)]‖

Every term of a(t), b(t), c(t) and H shifts the Manley–Rowe charges
(n_a + 2n_b, n_b − n_c) by a fixed amount, so each defect maps one charge
sector to one other and its 2-norm on the low block is the largest over the
block's sectors (`oracle.charge_sectors`): small batched ``eigvalsh`` calls
replace one dense SVD.

For the second-order solution both residuals vanish through O(g²), so their
numeric values scale as g³ (asserted by the scaling tests).  The solution is
quadratic in g and H linear, so the EOM defect is exactly its g³ term.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .fockspace import FockBasis, ladders
from .model import (ConfigError, ModelParams, PerturbativeCoefficients,
                    coefficient_derivatives, coefficients)
from .oracle import build_hamiltonian, charge_sectors

# Largest low-occupation block (states) accepted; bounds the sparse
# Heisenberg matrices, which are built on the full basis around it.
MAX_LOW_BLOCK = 2048


def _heisenberg_matrices(c: PerturbativeCoefficients, basis: FockBasis):
    """a(t), b(t), c(t) as sparse matrices from a coefficient set."""
    A, B, C = ladders(basis)
    Ad, Bd, Cd = A.T.tocsr(), B.T.tocsr(), C.T.tocsr()
    a_t = (c.f1 * A + c.f2 * (Ad @ B @ C)
           + c.f3 * (A @ Bd @ B @ Cd @ C)
           + c.f4 * (Ad @ A @ A @ Cd @ C)
           + c.f5 * (Ad @ A @ A @ B @ Bd))
    b_t = (c.g1 * B + c.g2 * (A @ A @ Cd)
           + c.g3 * (A @ A @ Ad @ Ad @ B)
           + c.g4 * (Ad @ A @ B @ C @ Cd)
           + c.g5 * (A @ Ad @ B @ C @ Cd))
    c_t = (c.h1 * C + c.h2 * (A @ A @ Bd)
           + c.h3 * (A @ A @ Ad @ Ad @ C)
           + c.h4 * (Ad @ A @ C @ B @ Bd)
           + c.h5 * (A @ Ad @ C @ B @ Bd))
    return a_t.tocsr(), b_t.tocsr(), c_t.tocsr()


def _low_block(basis: FockBasis) -> tuple[np.ndarray, list[np.ndarray]]:
    """Basis indices of the low-occupation block, which is FockBasis(cutoffs
    − 3) in C order, and that block's charge sectors as positions in it."""
    low = FockBasis(tuple(c - 3 for c in basis.cutoffs))
    return np.ravel_multi_index(low.occupations().T, basis.shape), charge_sectors(low)


def _block_norm(M: sp.spmatrix, low) -> float:
    """‖M‖₂ on the low-occupation block: the square root of the largest
    eigenvalue of M†M over the block's charge sectors, where it is
    block-diagonal."""
    idx, sectors = low
    block = M.tocsr()[idx][:, idx]
    gram = (block.conj().T @ block).tocsr()
    worst = 0.0
    for sec in sectors:
        k, s = sec.shape
        rows, cols = np.repeat(sec, s, axis=1).ravel(), np.tile(sec, s).ravel()
        blocks = np.asarray(gram[rows, cols]).reshape(k, s, s)
        worst = max(worst, float(np.linalg.eigvalsh(blocks).max()))
    return math.sqrt(worst)


def _validate_cutoffs(cutoffs) -> FockBasis:
    if any(c < 4 for c in cutoffs):
        raise ConfigError(f"residual checks need cutoffs >= 4, got {cutoffs!r}")
    if math.prod(c - 2 for c in cutoffs) > MAX_LOW_BLOCK:
        raise ConfigError(f"cutoffs {cutoffs!r} give a low-occupation block above "
                          f"{MAX_LOW_BLOCK} states")
    return FockBasis(tuple(int(c) for c in cutoffs))


def etcr_residual(params: ModelParams, t: float, cutoffs) -> float:
    """max over modes of ‖[x(t), x†(t)] − 1‖ on the low-occupation block."""
    basis = _validate_cutoffs(cutoffs)
    ops = _heisenberg_matrices(coefficients(params, t), basis)
    low = _low_block(basis)
    eye = sp.identity(basis.dimension, format="csr")
    worst = 0.0
    for x in ops:
        xd = x.conj().T.tocsr()
        comm = x @ xd - xd @ x - eye
        worst = max(worst, _block_norm(comm, low))
    return worst


def eom_residual(params: ModelParams, t: float, cutoffs) -> float:
    """max over modes of the Heisenberg equation defect ‖ẋ(t) − i[H, x(t)]‖
    on the low-occupation block, with the analytic ẋ(t) and the oracle's H."""
    basis = _validate_cutoffs(cutoffs)
    H = build_hamiltonian(params, basis).matrix
    ops = _heisenberg_matrices(coefficients(params, t), basis)
    rates = _heisenberg_matrices(coefficient_derivatives(params, t), basis)
    low = _low_block(basis)
    return max(_block_norm(dx - 1j * (H @ x - x @ H), low)
               for x, dx in zip(ops, rates))


def residual_scaling_slope(params: ModelParams, t: float, cutoffs,
                           kind: str = "etcr", rungs: int = 3) -> float:
    """Log-log slope of the residual over a g-halving ladder (expect ≈ 3);
    ``kind`` is "etcr" or "eom"."""
    fn = {"etcr": etcr_residual, "eom": eom_residual}.get(kind)
    if fn is None:
        raise ConfigError(f"unknown residual kind {kind!r}; expected etcr or eom")
    gs = [params.g / 2 ** k for k in range(rungs)]
    vals = [fn(dataclasses.replace(params, g=g), t, cutoffs) for g in gs]
    if min(vals) <= 0.0:
        return float("inf")
    return float(np.polyfit(np.log(gs), np.log(vals), 1)[0])
