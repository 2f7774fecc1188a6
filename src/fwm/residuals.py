"""Self-consistency residuals of the perturbative operator solution.

Both checks materialize the Heisenberg operators as sparse matrices on a
truncated Fock space and measure an operator norm on the low-occupation
block (every mode at least 3 below its cutoff), which provably excludes all
truncation edge artifacts for these quadratic monomials:

  * equal-time commutator defect  ‖[x(t), x†(t)] − 1‖
  * equation-of-motion defect     ‖ẋ(t) + i(ω x(t) + interaction)‖

For the second-order solution both residuals vanish through O(g²), so their
numeric values scale as g³ (asserted by the scaling tests).
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .fockspace import FockBasis
from .model import ConfigError, ModelParams, coefficient_derivatives, coefficients

# Largest low-occupation block (states) whose norm is taken densely: 64 MB.
MAX_LOW_BLOCK = 2048


def _single_mode_lowering(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n + 1)), 1).tocsr()


def _ladders(basis: FockBasis):
    sa, sb, sc = basis.shape
    ia, ib, ic = sp.identity(sa), sp.identity(sb), sp.identity(sc)
    A = sp.kron(sp.kron(_single_mode_lowering(sa - 1), ib), ic).tocsr()
    B = sp.kron(sp.kron(ia, _single_mode_lowering(sb - 1)), ic).tocsr()
    C = sp.kron(sp.kron(ia, ib), _single_mode_lowering(sc - 1)).tocsr()
    return A, B, C


def _heisenberg_matrices(coeff_map, basis: FockBasis):
    """a(t), b(t), c(t) as sparse matrices from a name->coefficient map."""
    A, B, C = _ladders(basis)
    Ad, Bd, Cd = A.conj().T.tocsr(), B.conj().T.tocsr(), C.conj().T.tocsr()
    c = coeff_map
    a_t = (c["f1"] * A + c["f2"] * (Ad @ B @ C)
           + c["f3"] * (A @ Bd @ B @ Cd @ C)
           + c["f4"] * (Ad @ A @ A @ Cd @ C)
           + c["f5"] * (Ad @ A @ A @ B @ Bd))
    b_t = (c["g1"] * B + c["g2"] * (A @ A @ Cd)
           + c["g3"] * (A @ A @ Ad @ Ad @ B)
           + c["g4"] * (Ad @ A @ B @ C @ Cd)
           + c["g5"] * (A @ Ad @ B @ C @ Cd))
    c_t = (c["h1"] * C + c["h2"] * (A @ A @ Bd)
           + c["h3"] * (A @ A @ Ad @ Ad @ C)
           + c["h4"] * (Ad @ A @ C @ B @ Bd)
           + c["h5"] * (A @ Ad @ C @ B @ Bd))
    return a_t.tocsr(), b_t.tocsr(), c_t.tocsr()


def _coeff_dict(params: ModelParams, t: float) -> dict[str, complex]:
    c = coefficients(params, t)
    return {k: getattr(c, k) for k in
            ("f1", "f2", "f3", "f4", "f5", "g1", "g2", "g3", "g4", "g5",
             "h1", "h2", "h3", "h4", "h5")}


def _low_block(basis: FockBasis) -> np.ndarray:
    occ = basis.occupations()
    keep = np.ones(basis.dimension, dtype=bool)
    for mode, cut in enumerate(basis.cutoffs):
        keep &= occ[:, mode] <= cut - 3
    return np.nonzero(keep)[0]


def _block_norm(M: sp.spmatrix, idx: np.ndarray) -> float:
    dense = M.tocsr()[idx][:, idx].toarray()
    if dense.size == 0:
        return 0.0
    return float(np.linalg.norm(dense, 2))


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
    ops = _heisenberg_matrices(_coeff_dict(params, t), basis)
    idx = _low_block(basis)
    eye = sp.identity(basis.dimension, format="csr")
    worst = 0.0
    for x in ops:
        xd = x.conj().T.tocsr()
        comm = x @ xd - xd @ x - eye
        worst = max(worst, _block_norm(comm, idx))
    return worst


def eom_residual(params: ModelParams, t: float, cutoffs) -> float:
    """max over modes of the Heisenberg equation defect, analytic ẋ(t).

        ȧ + i(ω_a a + 2g a†bc),  ḃ + i(ω_b b + g a²c†),  ċ + i(ω_c c + g a²b†)
    """
    basis = _validate_cutoffs(cutoffs)
    a_t, b_t, c_t = _heisenberg_matrices(_coeff_dict(params, t), basis)
    ad_t, bd_t, cd_t = (a_t.conj().T.tocsr(), b_t.conj().T.tocsr(),
                        c_t.conj().T.tocsr())
    da, db, dc = _heisenberg_matrices(coefficient_derivatives(params, t), basis)
    g = params.g
    idx = _low_block(basis)
    res_a = da + 1j * (params.omega_a * a_t + 2.0 * g * (ad_t @ b_t @ c_t))
    res_b = db + 1j * (params.omega_b * b_t + g * (a_t @ a_t @ cd_t))
    res_c = dc + 1j * (params.omega_c * c_t + g * (a_t @ a_t @ bd_t))
    return max(_block_norm(res_a, idx), _block_norm(res_b, idx),
               _block_norm(res_c, idx))


def residual_scaling_slope(params: ModelParams, t: float, cutoffs,
                           kind: str = "etcr", rungs: int = 3) -> float:
    """Log-log slope of the residual over a g-halving ladder (expect ≈ 3)."""
    fn = etcr_residual if kind == "etcr" else eom_residual
    gs, vals = [], []
    for k in range(rungs):
        p = ModelParams(params.omega_a, params.omega_b, params.omega_c,
                        params.g / 2 ** k)
        r = fn(p, t, cutoffs)
        gs.append(p.g)
        vals.append(r)
    if min(vals) <= 0.0:
        return float("inf")
    return float(np.polyfit(np.log(gs), np.log(vals), 1)[0])
